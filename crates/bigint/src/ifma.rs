//! The lane tier of Montgomery exponentiation on x86-64: up to four
//! powers under one odd modulus and one exponent, one per 64-bit lane of a
//! 256-bit register, multiplied with the 52-bit fused multiply-adds of
//! AVX-512 IFMA (`VPMADD52LUQ` / `VPMADD52HUQ`) in their AVX-512VL form.
//! This is the multi-buffer layout of ipp-crypto's `mbx` kernels: lane `k`
//! of register `j` holds digit `j` of base `k`, so one instruction advances
//! four multiplications by one digit product, and because every lane
//! shares the exponent, every lane takes the same window at the same step.
//!
//! One stream of `ymm` registers, on purpose. An eight-lane `zmm` form of
//! this kernel refilled a 16-obfuscator pool of a 512-bit Paillier key in
//! 180 µs and a form running two `ymm` streams side by side in 308 µs,
//! against 385 µs for this one; but on the benchmark host both slowed the
//! scalar code that ran after them. The CRT decryptions of `paper_mix`'s
//! aggregates took 8 % longer with either in the same binary (the core
//! lowers its clock after dense wide-multiply work and raises it again
//! over milliseconds), and about 1 % longer with this form, which issues
//! its multiplies at a lower rate.
//!
//! This file is the only home of `unsafe` in the crate (`scripts/verify.sh`
//! checks the inventory), and the safety argument is the one made in
//! `crates/primitives/src/isa.rs`:
//!
//! * **CPU features.** The kernel is a `#[target_feature]` function
//!   reachable only through a method of the witness [`Ifma`], which has a
//!   private field and one constructor, `detect`, returning it only after
//!   `is_x86_feature_detected!` saw `avx512f`, `avx512ifma` and
//!   `avx512vl`. A `MontgomeryCtx` stores the witness with the lane
//!   constants it builds once, so the tier is decided per context, never
//!   per power.
//! * **Memory.** The only pointer operations are `_mm256_loadu_si256` /
//!   `_mm256_storeu_si256` inside [`load`] and [`store`], which take a
//!   `&[u64; 4]` / `&mut [u64; 4]`: the length is in the type, and the
//!   unaligned forms assume nothing about the address.
//!
//! # The multiply
//!
//! Numbers are `L` digits of 52 bits in 64-bit lanes, and `R = 2^(52·L)`
//! with `4n < R`. One Montgomery multiply is word-by-word CIOS in which
//! nothing carries: each digit product adds its low 52 bits to one
//! accumulator and its high 52 bits to the next, and the 12 spare bits of
//! every lane absorb the sums (at most `4·L` digit-sized terms land on one
//! accumulator, which fits for `L` below 1,024). After each of the `L`
//! steps the lowest accumulator is a multiple of `2^52`: its high bits move
//! up and the accumulators shift down one. One carry pass at the end puts
//! every digit back below `2^52`. There is no final subtraction: with
//! `4n < R`, inputs below `2n` give a result below `2n` (Walter's bound),
//! so the window table, the squarings and the products all stay in
//! `[0, 2n)`, and leaving the domain (a multiply by 1) lands in `[0, n]`;
//! the caller folds `n` to 0.
//!
//! Outputs are identical to the scalar `MontgomeryCtx::modpow`, which is
//! the tier on every other CPU and the oracle of
//! `tests/kernels_differential.rs`.

use std::arch::x86_64::*;

use crate::uint::BigUint;

/// Powers per kernel pass: the 64-bit lanes of one 256-bit register.
pub(crate) const LANES: usize = 4;

/// Bits per digit: what one IFMA multiply takes from each operand.
pub(crate) const DIGIT_BITS: usize = 52;

/// Witness that this CPU has AVX-512F, AVX-512 IFMA and AVX-512VL.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ifma(());

impl Ifma {
    pub(crate) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512ifma")
            && is_x86_feature_detected!("avx512vl"))
        .then_some(Ifma(()))
    }

    fn modpow_at<const L: usize>(
        self,
        n: &[u64; L],
        n_prime: u64,
        r2: &[u64; L],
        x: &mut [[u64; LANES]; L],
        exp: &BigUint,
    ) {
        // SAFETY: `self` exists only because `detect` saw `avx512f`,
        // `avx512ifma` and `avx512vl`, the features `modpow_lanes` enables.
        unsafe { modpow_lanes(n, n_prime, r2, x, exp) }
    }
}

/// [`WIDTHS`] and the dispatch over it, from one list.
macro_rules! widths {
    ($($w:literal)*) => {
        /// The digit counts the kernel is compiled for, in rising order; a
        /// modulus runs at the narrowest that holds `4n`.
        pub(crate) const WIDTHS: &[usize] = &[$($w),*];

        impl Ifma {
            /// Replaces each lane `k` of `x` (`L` rows of digits, row `j`
            /// holding digit `j` of every lane, each value `< n`) by
            /// `x_k^exp mod n` as a value in `[0, n]`, `n` standing for 0.
            /// `n` and `r2 = R² mod n` are `L` digits, `L` one of
            /// [`WIDTHS`]; `n_prime = −n⁻¹ mod 2^52`.
            pub(crate) fn modpow(self, n: &[u64], n_prime: u64, r2: &[u64], x: &mut [[u64; LANES]], exp: &BigUint) {
                match n.len() {
                    $($w => self.modpow_at::<$w>(fixed(n), n_prime, fixed(r2), fixed_mut(x), exp),)*
                    w => unreachable!("{w} digits is not a lane width"),
                }
            }
        }
    };
}

widths!(2 4 6 8 10 12 16 20 24 32 40 48 64 80);

fn fixed<const L: usize>(v: &[u64]) -> &[u64; L] {
    v.try_into().expect("lane constants are padded to the dispatched width")
}

fn fixed_mut<const L: usize>(v: &mut [[u64; LANES]]) -> &mut [[u64; LANES]; L] {
    v.try_into().expect("lane operands are padded to the dispatched width")
}

/// Reads four lanes into a register.
#[target_feature(enable = "avx")]
#[inline]
fn load(lanes: &[u64; LANES]) -> __m256i {
    // SAFETY: `lanes` is a reference to exactly 32 readable bytes, and
    // `loadu` has no alignment requirement.
    unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
}

/// Writes a register to four lanes.
#[target_feature(enable = "avx")]
#[inline]
fn store(lanes: &mut [u64; LANES], v: __m256i) {
    // SAFETY: `lanes` is a unique reference to exactly 32 writable bytes,
    // and `storeu` has no alignment requirement.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) }
}

/// `a · b · R⁻¹ mod n` in every lane, for `a, b < 2n` with digits below
/// `2^52`; the result is below `2n`, its digits below `2^52`.
#[target_feature(enable = "avx512f,avx512ifma,avx512vl")]
#[inline]
fn mont_mul<const L: usize>(a: &[__m256i; L], b: &[__m256i; L], n: &[__m256i; L], n_prime: __m256i) -> [__m256i; L] {
    let zero = _mm256_setzero_si256();
    // `t` and `top` hold L + 1 accumulators of the running sum.
    let mut t = [zero; L];
    let mut top = zero;
    for &ai in a {
        // t += ai · b
        for j in 0..L {
            t[j] = _mm256_madd52lo_epu64(t[j], ai, b[j]);
        }
        for j in 0..L - 1 {
            t[j + 1] = _mm256_madd52hi_epu64(t[j + 1], ai, b[j]);
        }
        top = _mm256_madd52hi_epu64(top, ai, b[L - 1]);
        // t += m · n with m killing the low digit, then t >>= 52.
        let m = _mm256_madd52lo_epu64(zero, t[0], n_prime);
        for j in 0..L {
            t[j] = _mm256_madd52lo_epu64(t[j], m, n[j]);
        }
        for j in 0..L - 1 {
            t[j + 1] = _mm256_madd52hi_epu64(t[j + 1], m, n[j]);
        }
        top = _mm256_madd52hi_epu64(top, m, n[L - 1]);
        let carry = _mm256_srli_epi64::<52>(t[0]);
        t.copy_within(1.., 0);
        t[L - 1] = top;
        top = zero;
        t[0] = _mm256_add_epi64(t[0], carry);
    }
    // One carry pass: the value is below 2n < R, so nothing leaves the top.
    let mask = _mm256_set1_epi64x(((1u64 << DIGIT_BITS) - 1) as i64);
    let mut carry = zero;
    for d in &mut t {
        let s = _mm256_add_epi64(*d, carry);
        carry = _mm256_srli_epi64::<52>(s);
        *d = _mm256_and_si256(s, mask);
    }
    t
}

/// The 4-bit fixed-window ladder of the scalar `modpow_at`, in four lanes.
#[target_feature(enable = "avx512f,avx512ifma,avx512vl")]
fn modpow_lanes<const L: usize>(n: &[u64; L], n_prime: u64, r2: &[u64; L], x: &mut [[u64; LANES]; L], exp: &BigUint) {
    let broadcast = |digits: &[u64; L]| digits.map(|d| _mm256_set1_epi64x(d as i64));
    let n = broadcast(n);
    let r2 = broadcast(r2);
    let n_prime = _mm256_set1_epi64x(n_prime as i64);
    let mul = |a: &[__m256i; L], b: &[__m256i; L]| mont_mul(a, b, &n, n_prime);

    let mut unit = [0u64; L];
    unit[0] = 1;
    let unit = broadcast(&unit);
    let mbase = mul(&x.each_ref().map(|row| load(row)), &r2);

    // mbase^0..mbase^15 in Montgomery form.
    let mut table = [[_mm256_setzero_si256(); L]; 16];
    table[0] = mul(&unit, &r2);
    for i in 1..16 {
        table[i] = mul(&table[i - 1], &mbase);
    }

    let mut acc = table[0];
    let mut i = exp.bits();
    while i > 0 {
        let take = i.min(4);
        for _ in 0..take {
            acc = mul(&acc, &acc);
        }
        i -= take;
        let mut window = 0usize;
        for b in 0..take {
            window = (window << 1) | exp.bit(i + take - 1 - b) as usize;
        }
        if window != 0 {
            acc = mul(&acc, &table[window]);
        }
    }
    // Leave the Montgomery domain: multiply by the plain value 1.
    for (row, v) in x.iter_mut().zip(mul(&acc, &unit)) {
        store(row, v);
    }
}
