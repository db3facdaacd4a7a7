//! The hardware tier of the three symmetric kernels on x86-64: AES
//! rounds with AES-NI, GHASH by carry-less multiply (PCLMULQDQ) and SHA-256
//! compression with SHA-NI.
//!
//! With the CRC fold in `crates/codec/src/clmul.rs` this is the only module
//! in the workspace that uses `std::arch`, and those two and the key wipe
//! in `keys.rs` are the only homes of `unsafe` (`scripts/verify.sh` checks
//! the inventory). The safety argument has two parts, and both are closed
//! inside this file:
//!
//! * **CPU features.** Every kernel is a `#[target_feature]` function and
//!   is reachable only through a method of a witness ([`AesNi`], [`Clmul`],
//!   [`ShaNi`]). A witness has a private field and one constructor,
//!   `detect`, which returns it only after `is_x86_feature_detected!` saw
//!   every feature the kernels behind it enable. The cipher contexts store
//!   the witness they were built with, so the tier is decided once per
//!   context and never per block.
//! * **Memory.** The only pointer operations are `_mm_loadu_si128` /
//!   `_mm_storeu_si128` inside [`load`] and [`store`], which take a
//!   `&[u8; 16]` / `&mut [u8; 16]`: the length is in the type, and the
//!   unaligned forms assume nothing about the address.
//!
//! Outputs are byte-identical to the portable tier
//! (`tests/isa_differential.rs`); unlike its table lookups, `AESENC` and
//! `PCLMULQDQ` take the same time for every key and every input.

use std::arch::x86_64::*;

use crate::sha256::K;

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

/// Witness that this CPU has AES-NI (and the SSE4.1 the counter
/// construction uses).
#[derive(Clone, Copy)]
pub(crate) struct AesNi(());

impl AesNi {
    pub(crate) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse4.1")).then_some(AesNi(()))
    }

    /// Encrypts one block under the expanded `round_keys` (FIPS 197 byte
    /// order, `rounds + 1` of them).
    pub(crate) fn encrypt_block(self, round_keys: &[[u8; 16]], block: &mut [u8; 16]) {
        // SAFETY: `self` exists only because `detect` saw `aes` and
        // `sse4.1`, the features `encrypt_block` enables.
        unsafe { encrypt_block(round_keys, block) }
    }

    /// XORs the CTR keystream for `iv` (32-bit big-endian counter in the
    /// last four bytes, wrapping) into `data`.
    pub(crate) fn ctr_xor(self, round_keys: &[[u8; 16]], iv: &[u8; 16], data: &mut [u8]) {
        // SAFETY: `self` exists only because `detect` saw `aes` and
        // `sse4.1`, the features `ctr_xor` enables.
        unsafe { ctr_xor(round_keys, iv, data) }
    }

    /// XORs the CTR keystream for `iv + 1`, `iv + 2`, … into `data` and
    /// returns the keystream block of `iv` itself: GCM's tag mask `E(J0)`,
    /// encrypted in the first batch beside the data rather than as a block
    /// of its own.
    pub(crate) fn ctr_xor_after(self, round_keys: &[[u8; 16]], iv: &[u8; 16], data: &mut [u8]) -> [u8; 16] {
        // SAFETY: `self` exists only because `detect` saw `aes` and
        // `sse4.1`, the features `ctr_xor_after` enables.
        unsafe { ctr_xor_after(round_keys, iv, data) }
    }
}

/// Blocks in flight in the CTR main loop: `AESENC` has a latency of several
/// cycles and a throughput of one or two per cycle, so eight independent
/// states keep the unit busy.
const WIDE: usize = 8;

/// All rounds over `N` independent states, round by round, so the `N`
/// `AESENC`s of one round pipeline.
#[target_feature(enable = "aes,sse4.1")]
#[inline]
fn encrypt_wide<const N: usize>(round_keys: &[[u8; 16]], mut states: [__m128i; N]) -> [__m128i; N] {
    let (first, rest) = round_keys.split_first().expect("an AES schedule has at least two round keys");
    let (last, middle) = rest.split_last().expect("an AES schedule has at least two round keys");
    let key = load(first);
    for s in &mut states {
        *s = _mm_xor_si128(*s, key);
    }
    for k in middle {
        let key = load(k);
        for s in &mut states {
            *s = _mm_aesenc_si128(*s, key);
        }
    }
    let key = load(last);
    for s in &mut states {
        *s = _mm_aesenclast_si128(*s, key);
    }
    states
}

#[target_feature(enable = "aes,sse4.1")]
fn encrypt_block(round_keys: &[[u8; 16]], block: &mut [u8; 16]) {
    let [out] = encrypt_wide(round_keys, [load(block)]);
    store(block, out);
}

#[target_feature(enable = "aes,sse4.1")]
fn ctr_xor(round_keys: &[[u8; 16]], iv: &[u8; 16], data: &mut [u8]) {
    let nonce = load(iv);
    let mut count = u32::from_be_bytes([iv[12], iv[13], iv[14], iv[15]]);
    // The counter is the last (highest) 32-bit lane, big-endian in memory.
    let counter_block = |count: u32| _mm_insert_epi32::<3>(nonce, count.swap_bytes() as i32);

    let (batches, tail) = data.as_chunks_mut::<{ WIDE * 16 }>();
    for batch in batches {
        let mut counters = [nonce; WIDE];
        for c in &mut counters {
            *c = counter_block(count);
            count = count.wrapping_add(1);
        }
        let keystream = encrypt_wide(round_keys, counters);
        let (blocks, _) = batch.as_chunks_mut::<16>();
        for (block, k) in blocks.iter_mut().zip(keystream) {
            store(block, _mm_xor_si128(load(block), k));
        }
    }
    // Fewer than WIDE blocks are left; their chains are independent, so
    // the out-of-order core overlaps them without explicit interleaving.
    let (blocks, partial) = tail.as_chunks_mut::<16>();
    for block in blocks {
        let [k] = encrypt_wide(round_keys, [counter_block(count)]);
        count = count.wrapping_add(1);
        store(block, _mm_xor_si128(load(block), k));
    }
    if !partial.is_empty() {
        let [k] = encrypt_wide(round_keys, [counter_block(count)]);
        let mut keystream = [0u8; 16];
        store(&mut keystream, k);
        for (d, k) in partial.iter_mut().zip(keystream) {
            *d ^= k;
        }
    }
}

#[target_feature(enable = "aes,sse4.1")]
fn ctr_xor_after(round_keys: &[[u8; 16]], iv: &[u8; 16], data: &mut [u8]) -> [u8; 16] {
    // A short payload (a sealed field value is two or three blocks) is one
    // batch of four; a longer one fills a batch of WIDE, and the rest runs
    // through the plain CTR loop from the next counter.
    if data.len() <= 3 * 16 {
        return first_batch::<4>(round_keys, iv, data);
    }
    let (head, rest) = data.split_at_mut(data.len().min((WIDE - 1) * 16));
    let mask = first_batch::<WIDE>(round_keys, iv, head);
    let mut next = *iv;
    let count = u32::from_be_bytes([iv[12], iv[13], iv[14], iv[15]]).wrapping_add(WIDE as u32);
    next[12..].copy_from_slice(&count.to_be_bytes());
    ctr_xor(round_keys, &next, rest);
    mask
}

/// Encrypts the `N` counters from `iv` in one pipelined pass, XORs all but
/// the first into `head` (at most `N - 1` blocks) and returns the first.
#[target_feature(enable = "aes,sse4.1")]
#[inline]
fn first_batch<const N: usize>(round_keys: &[[u8; 16]], iv: &[u8; 16], head: &mut [u8]) -> [u8; 16] {
    let nonce = load(iv);
    let count = u32::from_be_bytes([iv[12], iv[13], iv[14], iv[15]]);
    let counters =
        std::array::from_fn(|i| _mm_insert_epi32::<3>(nonce, count.wrapping_add(i as u32).swap_bytes() as i32));
    let keystream: [__m128i; N] = encrypt_wide(round_keys, counters);
    let (blocks, partial) = head.as_chunks_mut::<16>();
    for (block, k) in blocks.iter_mut().zip(&keystream[1..]) {
        store(block, _mm_xor_si128(load(block), *k));
    }
    if !partial.is_empty() {
        let mut tail = [0u8; 16];
        store(&mut tail, keystream[1 + blocks.len()]);
        for (d, k) in partial.iter_mut().zip(tail) {
            *d ^= k;
        }
    }
    let mut mask = [0u8; 16];
    store(&mut mask, keystream[0]);
    mask
}

/// Witness that this CPU has PCLMULQDQ.
#[derive(Clone, Copy)]
pub(crate) struct Clmul(());

impl Clmul {
    pub(crate) fn detect() -> Option<Self> {
        is_x86_feature_detected!("pclmulqdq").then_some(Clmul(()))
    }

    /// The first four powers of the hash subkey, `[h, h², h³, h⁴]`, each in
    /// the form [`Clmul::ghash`] multiplies by: `hᵏ · x⁻¹`.
    ///
    /// A block read as a big-endian integer holds the coefficient of `x^i`
    /// in bit `127 - i`, so the carry-less product of two such integers
    /// comes out one bit short of where the 256-bit result belongs.
    /// Dividing one operand by `x` once per key (a left shift here, folding
    /// the bit that falls off back in through the field polynomial) puts
    /// every product in place without a 256-bit shift per block.
    pub(crate) fn ghash_powers(self, h: u128) -> [u128; 4] {
        // SAFETY: `self` exists only because `detect` saw `pclmulqdq`, the
        // feature `ghash_powers` enables.
        unsafe { ghash_powers(h) }
    }

    /// GHASH from a zero accumulator over `blocks` (big-endian integers, as
    /// in the portable tier): `y ← (y ⊕ block) · h` per block, computed four
    /// blocks per reduction as `(y ⊕ b₀)·h⁴ ⊕ b₁·h³ ⊕ b₂·h² ⊕ b₃·h`, since
    /// reduction is linear. `powers` is [`Clmul::ghash_powers`] of the hash
    /// subkey.
    pub(crate) fn ghash(self, powers: &[u128; 4], blocks: impl Iterator<Item = u128>) -> u128 {
        // SAFETY: `self` exists only because `detect` saw `pclmulqdq`, the
        // feature `ghash` enables.
        unsafe { ghash(powers, blocks) }
    }
}

/// A big-endian block integer in a vector register.
#[target_feature(enable = "sse2")]
#[inline]
fn from_int(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// The register [`from_int`] filled, back as an integer.
#[inline(always)]
fn to_int(v: __m128i) -> u128 {
    let mut out = [0u8; 16];
    store(&mut out, v);
    u128::from_le_bytes(out)
}

/// `h · x⁻¹` (see [`Clmul::ghash_powers`]).
fn divide_by_x(h: u128) -> u128 {
    /// `x^128 + x^7 + x^2 + x + 1` after the shift: `x^128` lands in bit 0.
    const POLY: u128 = 0xC200_0000_0000_0000_0000_0000_0000_0001;
    (h << 1) ^ (0u128.wrapping_sub(h >> 127) & POLY)
}

#[target_feature(enable = "pclmulqdq")]
fn ghash_powers(h: u128) -> [u128; 4] {
    let key = from_int(divide_by_x(h));
    let mut powers = [divide_by_x(h); 4];
    let mut power = from_int(h);
    for slot in &mut powers[1..] {
        power = gf_mul(power, key);
        *slot = divide_by_x(to_int(power));
    }
    powers
}

#[target_feature(enable = "pclmulqdq")]
fn ghash(powers: &[u128; 4], blocks: impl Iterator<Item = u128>) -> u128 {
    let [h1, h2, h3, h4] = [0, 1, 2, 3].map(|i| from_int(powers[i]));
    let mut acc = _mm_setzero_si128();
    let mut group = [acc; 4];
    let mut filled = 0;
    for block in blocks {
        group[filled] = from_int(block);
        filled += 1;
        if filled == 4 {
            let (lo0, hi0) = clmul(_mm_xor_si128(acc, group[0]), h4);
            let (lo1, hi1) = clmul(group[1], h3);
            let (lo2, hi2) = clmul(group[2], h2);
            let (lo3, hi3) = clmul(group[3], h1);
            let lo = _mm_xor_si128(_mm_xor_si128(lo0, lo1), _mm_xor_si128(lo2, lo3));
            let hi = _mm_xor_si128(_mm_xor_si128(hi0, hi1), _mm_xor_si128(hi2, hi3));
            acc = reduce(lo, hi);
            filled = 0;
        }
    }
    for block in &group[..filled] {
        acc = gf_mul(_mm_xor_si128(acc, *block), h1);
    }
    to_int(acc)
}

/// `a · h` in GF(2^128), GCM bit order, for `h` prepared by
/// [`Clmul::ghash_powers`].
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn gf_mul(a: __m128i, h: __m128i) -> __m128i {
    let (lo, hi) = clmul(a, h);
    reduce(lo, hi)
}

/// The unreduced 256-bit carry-less product of `a` and `h`, as its low and
/// high halves: schoolbook, from four 64 × 64 products.
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn clmul(a: __m128i, h: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128::<0x00>(a, h);
    let hi = _mm_clmulepi64_si128::<0x11>(a, h);
    let mid = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(a, h), _mm_clmulepi64_si128::<0x01>(a, h));
    (_mm_xor_si128(lo, _mm_slli_si128::<8>(mid)), _mm_xor_si128(hi, _mm_srli_si128::<8>(mid)))
}

/// A [`clmul`] product (or a sum of them) reduced into the field. In this
/// bit order the field polynomial reads 1 + t^121 + t^126 + t^127 + t^128,
/// which is 1 modulo t^64, so the low half folds away 64 bits at a time:
/// each step adds (low qword) times the polynomial, whose middle terms are
/// the constant below, and the qword swap carries the `1` and `t^128` terms.
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn reduce(lo: __m128i, hi: __m128i) -> __m128i {
    let poly = _mm_set_epi64x(0, 0xC200_0000_0000_0000_u64 as i64);
    let swapped = |v| _mm_shuffle_epi32::<0x4E>(v);
    let a = _mm_xor_si128(swapped(lo), _mm_clmulepi64_si128::<0x00>(lo, poly));
    let b = _mm_xor_si128(swapped(a), _mm_clmulepi64_si128::<0x00>(a, poly));
    _mm_xor_si128(hi, b)
}

/// Witness that this CPU has the SHA extensions (and the SSSE3/SSE4.1 the
/// state and message shuffles use).
#[derive(Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    pub(crate) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("sha") && is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1"))
            .then_some(ShaNi(()))
    }

    /// Runs the SHA-256 compression function over every 64-byte block of
    /// `blocks`.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: `self` exists only because `detect` saw `sha`, `ssse3`
        // and `sse4.1`, the features `sha256_compress` enables.
        unsafe { sha256_compress(state, blocks) }
    }
}

/// The four 32-bit lanes of `v`, lowest first.
fn lanes(v: __m128i) -> [u32; 4] {
    let mut bytes = [0u8; 16];
    store(&mut bytes, v);
    let (words, _) = bytes.as_chunks::<4>();
    [0, 1, 2, 3].map(|i| u32::from_le_bytes(words[i]))
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let k = |i: usize| _mm_set_epi32(K[i + 3] as i32, K[i + 2] as i32, K[i + 1] as i32, K[i] as i32);
    // Big-endian message words: reverse the bytes of each 32-bit lane.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SHA256RNDS2 wants the state as (A,B,E,F) and (C,D,G,H).
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (quarters, _) = block.as_chunks::<16>();
        let word = |i: usize| _mm_shuffle_epi8(load(&quarters[i]), be_words);
        // Sixteen groups of four rounds. `w` holds the schedule words of
        // groups i..i+4, four words a register; each step spends the first
        // and appends group i+4 (FIPS 180-4 §6.2.2 step 1: SHA256MSG1 adds
        // σ0 of the words fifteen back, the shifted pair the words seven
        // back, SHA256MSG2 σ1 of the words two back). The last four appended
        // groups are never spent.
        let mut w = [word(0), word(1), word(2), word(3)];
        for i in 0..16 {
            let [w0, w1, w2, w3] = w;
            let wk = _mm_add_epi32(w0, k(4 * i));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            let next = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            w = [w1, w2, w3, _mm_sha256msg2_epu32(next, w3)];
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let [f, e, b, a] = lanes(abef);
    let [h, g, d, c] = lanes(cdgh);
    *state = [a, b, c, d, e, f, g, h];
}
