//! The hardware tier of the CRC-32 on x86-64: folding by carry-less
//! multiply (PCLMULQDQ), after Gopal et al., "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction".
//!
//! With `crates/primitives/src/isa.rs` and the key wipe in `keys.rs` this
//! is the only home of `unsafe` in the workspace (`scripts/verify.sh`
//! checks the inventory), and the safety argument is the one made there:
//!
//! * **CPU features.** The kernel is a `#[target_feature]` function
//!   reachable only through a method of the witness [`Clmul`], which has a
//!   private field and one constructor, `detect`, returning it only after
//!   `is_x86_feature_detected!` saw the feature the kernel enables.
//! * **Memory.** The only pointer operations are `_mm_loadu_si128` /
//!   `_mm_storeu_si128` inside [`load`] and [`store`], which take a
//!   `&[u8; 16]` / `&mut [u8; 16]`: the length is in the type, and the
//!   unaligned forms assume nothing about the address.
//!
//! # The fold
//!
//! A CRC is the remainder of the message polynomial modulo `P`, so any
//! 16-byte block `A` that sits `d` bits before a block `T` can be removed
//! from the message by adding `A · x^d mod P` into `T`: the remainder does
//! not change. With `A = A_lo · x^64 + A_hi` that is two 64 × 64-bit
//! carry-less products, `A_lo · (x^(d+64) mod P)` and `A_hi · (x^d mod P)`,
//! whose sum has degree below 128 and so fits the block it lands in. The
//! kernel keeps four blocks in flight, each folded 64 bytes ahead, then
//! folds the four into one and that one block by block over what is left.
//!
//! What comes out is not a CRC but 16 bytes that have the same remainder as
//! everything folded into them. The table-driven tier finishes: it runs
//! those 16 bytes and the up-to-15-byte tail from state zero — there is no
//! Barrett reduction here and no constant besides the fold multipliers.
//!
//! In this CRC's reflected bit order the first byte of a block holds the
//! highest-degree coefficients, its least significant bit first: a
//! little-endian load puts the coefficient of `x^(63 - i)` of each half at
//! bit `i`. PCLMULQDQ puts the product of bits `i` and `j` at bit `i + j`
//! of a 128-bit register whose bit `k` is `x^(127 - k)`, one position above
//! where `x^(63 - i) · x^(63 - j)` belongs, so every product carries a
//! factor `x`; the multipliers are taken one degree lower to absorb it.

use std::arch::x86_64::*;

use crate::frame::{crc32_update_portable, POLY};

/// `x^n mod P`, bit `i` the coefficient of `x^(31 - i)` as in the tables.
const fn x_pow_mod(n: u32) -> u32 {
    let mut r = 0x8000_0000; // x^0
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
        i += 1;
    }
    r
}

/// The multipliers that fold a block into the one `distance` bits after it,
/// for the block's first half (low qword) and its second (high qword):
/// `x^(distance + 64) / x` and `x^distance / x` modulo `P`, written the way
/// the paper tabulates them — `x^(distance ± 32) mod P` shifted up one bit,
/// which in a half register (bit `i` is `x^(63 - i)`) reads as that
/// remainder times `x^31`.
const fn fold_key(distance: u32) -> [u64; 2] {
    [(x_pow_mod(distance + 32) as u64) << 1, (x_pow_mod(distance - 32) as u64) << 1]
}

/// One block ahead.
const NEAR: [u64; 2] = fold_key(128);
/// Four blocks ahead: the stride of the main loop.
const FAR: [u64; 2] = fold_key(4 * 128);

/// Reads 16 bytes into a vector register.
#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a reference to exactly 16 readable bytes, and
    // `loadu` has no alignment requirement. SSE2 is part of x86-64.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Writes a vector register to 16 bytes.
#[inline(always)]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is a unique reference to exactly 16 writable bytes,
    // and `storeu` has no alignment requirement. SSE2 is part of x86-64.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// Witness that this CPU has PCLMULQDQ.
#[derive(Clone, Copy)]
pub(crate) struct Clmul(());

impl Clmul {
    pub(crate) fn detect() -> Option<Self> {
        is_x86_feature_detected!("pclmulqdq").then_some(Clmul(()))
    }

    /// [`crate::frame::crc32_update`] on this tier. Input shorter than the
    /// four blocks the kernel starts from goes to the tables whole.
    pub(crate) fn crc32_update(self, c: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return crc32_update_portable(c, data);
        };
        // SAFETY: `self` exists only because `detect` saw `pclmulqdq`, the
        // feature `fold` enables.
        let folded = unsafe { fold(c, first, quads, singles) };
        crc32_update_portable(crc32_update_portable(0, &folded), tail)
    }
}

/// Sixteen bytes with the remainder of `first ‖ quads ‖ singles` entered in
/// CRC state `state`.
#[target_feature(enable = "pclmulqdq")]
fn fold(state: u32, first: &[[u8; 16]; 4], quads: &[[[u8; 16]; 4]], singles: &[[u8; 16]]) -> [u8; 16] {
    let key = |k: [u64; 2]| _mm_set_epi64x(k[1] as i64, k[0] as i64);
    // `block · x^distance`, to be added into the block `distance` bits on.
    let ahead = |block: __m128i, key: __m128i| {
        _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(block, key), _mm_clmulepi64_si128::<0x11>(block, key))
    };

    let mut lanes = first.each_ref().map(load);
    // A state carried in is the same as those four bytes of message.
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
    let far = key(FAR);
    for quad in quads {
        for (lane, block) in lanes.iter_mut().zip(quad) {
            *lane = _mm_xor_si128(ahead(*lane, far), load(block));
        }
    }

    let near = key(NEAR);
    let [mut acc, rest @ ..] = lanes;
    for lane in rest {
        acc = _mm_xor_si128(ahead(acc, near), lane);
    }
    for block in singles {
        acc = _mm_xor_si128(ahead(acc, near), load(block));
    }
    let mut folded = [0u8; 16];
    store(&mut folded, acc);
    folded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_x_follow_from_the_polynomial() {
        assert_eq!(x_pow_mod(0), 0x8000_0000);
        assert_eq!(x_pow_mod(31), 1);
        // x^32 ≡ P - x^32: the reflected polynomial itself.
        assert_eq!(x_pow_mod(32), POLY);
        // The byte 0x01 is x^7 of a one-byte message, and a CRC state from
        // zero is the message times x^32.
        assert_eq!(x_pow_mod(7 + 32), crc32_update_portable(0, &[0x01]));
    }

    #[test]
    fn derived_multipliers_are_the_published_ones() {
        // k1/k2 and k3/k4 of the paper's table for this polynomial, as zlib
        // and the Linux kernel carry them.
        assert_eq!(FAR, [0x0000_0001_5444_2bd4, 0x0000_0001_c6e4_1596]);
        assert_eq!(NEAR, [0x0000_0001_7519_97d0, 0x0000_0000_ccaa_009e]);
    }
}
