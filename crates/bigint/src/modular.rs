//! Modular arithmetic: exponentiation (with Montgomery multiplication for
//! odd moduli), inverses, GCD, and amortized contexts.
//!
//! Two context types let hot callers pay precomputation once:
//!
//! * [`MontgomeryCtx`] — a long-lived Montgomery domain for one odd
//!   modulus. Its kernels are CIOS (coarsely integrated operand scanning)
//!   over fixed-width limb buffers: one multiply-and-reduce pass, no
//!   intermediate `Vec` growth and no division. [`MontgomeryCtx::modpow`]
//!   allocates its window table and scratch once per call and reuses them
//!   across every squaring.
//! * [`CrtCtx`] — a pair of Montgomery domains for coprime odd moduli
//!   `m1`, `m2` plus the precomputed `m1^{-1} mod m2`, so residue-system
//!   exponentiation and recombination (RSA-CRT, Paillier-CRT) avoid ever
//!   touching the full-width modulus.

use crate::convert::limbs_of_be;
use crate::signed::BigInt;
use crate::uint::BigUint;
use crate::BigIntError;

impl BigUint {
    /// Greatest common divisor (binary GCD).
    ///
    /// ```
    /// use datablinder_bigint::BigUint;
    /// let g = BigUint::from(48u64).gcd(&BigUint::from(18u64));
    /// assert_eq!(g, BigUint::from(6u64));
    /// ```
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let az = a.trailing_zeros().unwrap();
        let bz = b.trailing_zeros().unwrap();
        let common = az.min(bz);
        a = &a >> az;
        b = &b >> bz;
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = &b - &a;
            if b.is_zero() {
                return &a << common;
            }
            b = &b >> b.trailing_zeros().unwrap();
        }
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        &(self / &self.gcd(other)) * other
    }

    /// Modular addition: `(self + rhs) mod m`.
    pub fn modadd(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        (self % m).modadd_reduced(&(rhs % m), m)
    }

    /// Modular addition fast path for operands already reduced mod `m`:
    /// one add and at most one subtract, no division.
    ///
    /// Callers must guarantee `self < m` and `rhs < m` (checked only in
    /// debug builds).
    pub fn modadd_reduced(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && rhs < m, "modadd_reduced operands must be reduced");
        let s = self + rhs;
        if &s >= m {
            &s - m
        } else {
            s
        }
    }

    /// Modular subtraction: `(self - rhs) mod m`, wrapping correctly.
    pub fn modsub(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        (self % m).modsub_reduced(&(rhs % m), m)
    }

    /// Modular subtraction fast path for operands already reduced mod `m`.
    ///
    /// Callers must guarantee `self < m` and `rhs < m` (checked only in
    /// debug builds).
    pub fn modsub_reduced(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && rhs < m, "modsub_reduced operands must be reduced");
        if self >= rhs {
            self - rhs
        } else {
            &(self + m) - rhs
        }
    }

    /// Modular multiplication: `(self * rhs) mod m`.
    pub fn modmul(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        &(self * rhs) % m
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery multiplication for odd moduli (the common case for
    /// RSA/Paillier) and square-and-multiply with explicit reduction
    /// otherwise. Builds a fresh [`MontgomeryCtx`] per call — hot callers
    /// exponentiating repeatedly under one modulus should hold a context
    /// and use [`BigUint::modpow_ctx`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        if m.is_odd() {
            let ctx = MontgomeryCtx::new(m);
            return ctx.modpow(self, exp);
        }
        // Fallback for even moduli: plain square-and-multiply.
        let mut base = self % m;
        let mut result = BigUint::one();
        let bits = exp.bits();
        for i in 0..bits {
            if exp.bit(i) {
                result = result.modmul(&base, m);
            }
            if i + 1 < bits {
                base = base.modmul(&base, m);
            }
        }
        result
    }

    /// Modular exponentiation through a caller-owned [`MontgomeryCtx`]:
    /// `self^exp mod ctx.modulus()`, skipping the per-call context build
    /// (the `R² mod n` division) that [`BigUint::modpow`] pays.
    pub fn modpow_ctx(&self, exp: &BigUint, ctx: &MontgomeryCtx) -> BigUint {
        ctx.modpow(self, exp)
    }

    /// Modular inverse: finds `x` with `self * x ≡ 1 (mod m)`.
    ///
    /// # Errors
    ///
    /// Returns [`BigIntError::NotInvertible`] when `gcd(self, m) != 1`, and
    /// [`BigIntError::DivisionByZero`] when `m` is zero.
    pub fn modinv(&self, m: &BigUint) -> Result<BigUint, BigIntError> {
        if m.is_zero() {
            return Err(BigIntError::DivisionByZero);
        }
        if m.is_one() {
            return Ok(BigUint::zero());
        }
        let (g, x, _) = BigInt::from(self.clone()).extended_gcd(&BigInt::from(m.clone()));
        if !g.magnitude().is_one() {
            return Err(BigIntError::NotInvertible);
        }
        Ok(x.rem_euclid_by(m))
    }
}

/// Fixed-width limb comparison: `a >= b`, both exactly `k` limbs.
fn ge_fixed(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// Fixed-width in-place subtraction `a -= b`, returning the final borrow
/// (for CIOS results the borrow cancels against the overflow limb).
fn sub_fixed(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (x, b1) = a[i].overflowing_sub(b[i]);
        let (x, b2) = x.overflowing_sub(borrow);
        a[i] = x;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow
}

/// Montgomery-form modular arithmetic context for an odd modulus.
///
/// Precomputes `n' = -n^{-1} mod 2^64`, `R² mod n` and `R mod n` (the
/// Montgomery form of 1) so repeated multiplications avoid full divisions.
/// All internal values are fixed-width `k`-limb buffers (`k` = limb count
/// of `n`), letting the CIOS kernel run in place with caller-provided
/// scratch — no per-multiply allocation.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    n: BigUint,
    n_limbs: usize,
    /// -n^{-1} mod 2^64
    n_prime: u64,
    /// R² mod n where R = 2^(64 * n_limbs), padded to `n_limbs`.
    r2: Vec<u64>,
    /// R mod n — the Montgomery form of 1, padded to `n_limbs`.
    one: Vec<u64>,
}

impl MontgomeryCtx {
    /// Creates a context for odd modulus `n`.
    ///
    /// This is the expensive step (one full-width division for `R² mod n`);
    /// hold the context wherever the modulus is long-lived.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero.
    pub fn new(n: &BigUint) -> Self {
        assert!(n.is_odd(), "Montgomery context requires an odd modulus");
        let n_limbs = n.limbs.len();
        // Newton iteration for the inverse of n mod 2^64.
        let n0 = n.limbs[0];
        let mut inv = n0; // correct mod 2^3
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();
        let r = &BigUint::one() << (64 * n_limbs);
        let r2 = pad(&(&(&r * &r) % n), n_limbs);
        let one = pad(&(&r % n), n_limbs);
        MontgomeryCtx { n: n.clone(), n_limbs, n_prime, r2, one }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// CIOS Montgomery multiplication: `out = a * b * R^{-1} mod n`.
    ///
    /// `a`, `b` and `out` are `k`-limb buffers holding values `< n`;
    /// `t` is `k + 2` limbs of scratch. One fused multiply-and-reduce
    /// pass — no intermediate product, no allocation.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.n_limbs;
        debug_assert!(a.len() == k && b.len() == k && out.len() == k && t.len() == k + 2);
        let nl = &self.n.limbs;
        t.fill(0);
        for &ai in a.iter() {
            // t += ai * b
            let mut carry: u128 = 0;
            for j in 0..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
            // t += m * n with m killing the low limb, then t >>= 64.
            let m = t[0].wrapping_mul(self.n_prime);
            let s0 = t[0] as u128 + m as u128 * nl[0] as u128;
            debug_assert_eq!(s0 as u64, 0);
            let mut carry = s0 >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * nl[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
            t[k + 1] = 0;
        }
        // CIOS leaves a value < 2n: at most one subtraction, whose borrow
        // consumes the overflow limb t[k].
        if t[k] != 0 || ge_fixed(&t[..k], nl) {
            let borrow = sub_fixed(&mut t[..k], nl);
            debug_assert_eq!(borrow, t[k], "CIOS result out of the [0, 2n) range");
        }
        out.copy_from_slice(&t[..k]);
    }

    /// Converts `x` (any width) into a `k`-limb Montgomery-form buffer.
    fn to_mont_into(&self, x: &BigUint, out: &mut [u64], t: &mut [u64]) {
        let reduced = pad(&(x % &self.n), self.n_limbs);
        self.mont_mul_into(&reduced, &self.r2, out, t);
    }

    /// `(a * b) mod n` through the Montgomery domain: two CIOS passes
    /// instead of a full multiply plus division. `a` and `b` must already
    /// be reduced mod `n`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        debug_assert!(a < &self.n && b < &self.n, "mul_mod operands must be reduced");
        if self.n.is_one() {
            return BigUint::zero();
        }
        let k = self.n_limbs;
        let mut t = vec![0u64; k + 2];
        let mut am = vec![0u64; k];
        // a * R (Montgomery form of a) ...
        self.mont_mul_into(&pad(a, k), &self.r2, &mut am, &mut t);
        // ... times b, leaving the domain again: a*R * b * R^{-1} = a*b.
        let mut out = vec![0u64; k];
        self.mont_mul_into(&am, &pad(b, k), &mut out, &mut t);
        BigUint::from_limbs(out)
    }

    /// Product of big-endian byte strings: `Π operands mod n` (1 for none).
    ///
    /// The streaming form of a [`MontgomeryCtx::mul_mod`] chain: each
    /// operand is decoded straight into one reused `k`-limb buffer and
    /// costs a single CIOS pass, with no allocation. Every pass divides the
    /// accumulator by `R`; starting from `R mod n`, after `count` operands
    /// it holds `Π · R^(1−count)`, and one closing pass with `R^count mod n`
    /// (`O(log count)` squarings) cancels the drift exactly. Operands `≥ n`
    /// or wider than `k` limbs are reduced first (hostile input only), so
    /// the result equals the left-to-right `modmul` chain for any input.
    pub fn product_be<'a>(&self, operands: impl IntoIterator<Item = &'a [u8]>) -> BigUint {
        if self.n.is_one() {
            return BigUint::zero();
        }
        let k = self.n_limbs;
        let mut t = vec![0u64; k + 2];
        let mut x = vec![0u64; k];
        let mut acc = self.one.clone();
        let mut tmp = vec![0u64; k];
        let mut count = 0u64;
        for bytes in operands {
            self.reduced_limbs_of_be(bytes, &mut x);
            self.mont_mul_into(&acc, &x, &mut tmp, &mut t);
            std::mem::swap(&mut acc, &mut tmp);
            count += 1;
        }
        let r_count = self.modpow(&BigUint::from_limbs(self.one.clone()), &BigUint::from(count));
        self.mont_mul_into(&acc, &pad(&r_count, k), &mut tmp, &mut t);
        BigUint::from_limbs(tmp)
    }

    /// Decodes big-endian `bytes` into the `k`-limb buffer `out` as a value
    /// `< n`. Only an operand `≥ n` or wider than `k` limbs pays an
    /// allocation and a division.
    fn reduced_limbs_of_be(&self, bytes: &[u8], out: &mut [u64]) {
        let bytes = &bytes[bytes.iter().take_while(|&&b| b == 0).count()..];
        if bytes.len() <= 8 * out.len() {
            let limbs = limbs_of_be(bytes).chain(std::iter::repeat(0));
            out.iter_mut().zip(limbs).for_each(|(limb, v)| *limb = v);
            if !ge_fixed(out, &self.n.limbs) {
                return;
            }
        }
        let reduced = &BigUint::from_bytes_be(bytes) % &self.n;
        out.fill(0);
        out[..reduced.limbs.len()].copy_from_slice(&reduced.limbs);
    }

    /// `base^exp mod n` using a 4-bit fixed window.
    ///
    /// The window table and both scratch buffers are allocated once per
    /// call and reused across every squaring/multiplication, so the cost
    /// per exponent bit is one allocation-free CIOS pass.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if self.n.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        let k = self.n_limbs;
        let mut t = vec![0u64; k + 2];
        let mut mbase = vec![0u64; k];
        self.to_mont_into(base, &mut mbase, &mut t);

        // Precompute mbase^0..mbase^15 in Montgomery form, flat table.
        let mut table = vec![0u64; 16 * k];
        table[..k].copy_from_slice(&self.one);
        for i in 1..16 {
            let (prev, cur) = table.split_at_mut(i * k);
            self.mont_mul_into(&prev[(i - 1) * k..], &mbase, &mut cur[..k], &mut t);
        }

        let bits = exp.bits();
        let mut acc = self.one.clone();
        let mut tmp = vec![0u64; k];
        let mut i = bits;
        while i > 0 {
            let take = i.min(4);
            for _ in 0..take {
                self.mont_mul_into(&acc, &acc, &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            }
            i -= take;
            let mut window = 0usize;
            for b in 0..take {
                window = (window << 1) | exp.bit(i + take - 1 - b) as usize;
            }
            if window != 0 {
                self.mont_mul_into(&acc, &table[window * k..(window + 1) * k], &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        // Leave the Montgomery domain: multiply by the plain value 1.
        tmp.fill(0);
        tmp[0] = 1;
        let mut out = vec![0u64; k];
        self.mont_mul_into(&acc, &tmp, &mut out, &mut t);
        BigUint::from_limbs(out)
    }
}

/// Pads a value to exactly `k` little-endian limbs.
fn pad(x: &BigUint, k: usize) -> Vec<u64> {
    debug_assert!(x.limbs.len() <= k);
    let mut v = x.limbs.clone();
    v.resize(k, 0);
    v
}

/// Residue-system context for a two-prime (or any coprime odd pair)
/// modulus `m1 · m2`: one [`MontgomeryCtx`] per half plus the precomputed
/// Garner coefficient `m1^{-1} mod m2`.
///
/// Exponentiating separately mod `m1` and `m2` and recombining costs
/// roughly a quarter of a full-width exponentiation when `m1` and `m2`
/// are half the width of the product — the classic RSA/Paillier CRT
/// speedup.
#[derive(Clone, Debug)]
pub struct CrtCtx {
    ctx1: MontgomeryCtx,
    ctx2: MontgomeryCtx,
    /// Garner coefficient: `m1^{-1} mod m2`.
    m1_inv_mod_m2: BigUint,
    /// `m1 * m2`, the recombined modulus.
    modulus: BigUint,
}

impl CrtCtx {
    /// Builds a context for coprime odd moduli `m1`, `m2`.
    ///
    /// # Errors
    ///
    /// [`BigIntError::NotInvertible`] when the moduli are not coprime.
    ///
    /// # Panics
    ///
    /// Panics if either modulus is even or zero (Montgomery requirement).
    pub fn new(m1: &BigUint, m2: &BigUint) -> Result<CrtCtx, BigIntError> {
        let m1_inv_mod_m2 = m1.modinv(m2)?;
        Ok(CrtCtx { ctx1: MontgomeryCtx::new(m1), ctx2: MontgomeryCtx::new(m2), m1_inv_mod_m2, modulus: m1 * m2 })
    }

    /// The recombined modulus `m1 · m2`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The Montgomery context for `m1`.
    pub fn ctx1(&self) -> &MontgomeryCtx {
        &self.ctx1
    }

    /// The Montgomery context for `m2`.
    pub fn ctx2(&self) -> &MontgomeryCtx {
        &self.ctx2
    }

    /// Exponentiates in both residues: `(base^e1 mod m1, base^e2 mod m2)`.
    ///
    /// The exponents are per-residue so callers can apply Fermat/Carmichael
    /// reductions (`e mod p-1`, …) the context cannot know about.
    pub fn modpow2(&self, base: &BigUint, e1: &BigUint, e2: &BigUint) -> (BigUint, BigUint) {
        (self.ctx1.modpow(base, e1), self.ctx2.modpow(base, e2))
    }

    /// Garner recombination: the unique `x < m1·m2` with `x ≡ x1 (mod m1)`
    /// and `x ≡ x2 (mod m2)`. `x1` and `x2` must be reduced residues.
    pub fn combine(&self, x1: &BigUint, x2: &BigUint) -> BigUint {
        debug_assert!(x1 < self.ctx1.modulus() && x2 < self.ctx2.modulus());
        let m2 = self.ctx2.modulus();
        let h = (x1 % m2).modsub_reduced_from(x2, m2);
        let h = self.ctx2.mul_mod(&h, &self.m1_inv_mod_m2);
        x1 + &(self.ctx1.modulus() * &h)
    }

    /// Full CRT exponentiation: `combine(base^e1 mod m1, base^e2 mod m2)`.
    pub fn modpow(&self, base: &BigUint, e1: &BigUint, e2: &BigUint) -> BigUint {
        let (x1, x2) = self.modpow2(base, e1, e2);
        self.combine(&x1, &x2)
    }
}

impl BigUint {
    /// `rhs - self mod m` with both operands reduced — helper for Garner
    /// recombination where the subtrahend is the receiver.
    fn modsub_reduced_from(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        rhs.modsub_reduced(self, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&big(0)), big(5));
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        assert_eq!(big(1 << 20).gcd(&big(1 << 13)), big(1 << 13));
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(big(4).lcm(&big(6)), big(12));
        assert_eq!(big(0).lcm(&big(6)), big(0));
    }

    #[test]
    fn modpow_small_oracle() {
        // Oracle: u128 exponentiation by squaring.
        fn oracle(mut b: u128, mut e: u128, m: u128) -> u128 {
            let mut r = 1u128 % m;
            b %= m;
            while e > 0 {
                if e & 1 == 1 {
                    r = r * b % m;
                }
                b = b * b % m;
                e >>= 1;
            }
            r
        }
        let cases = [
            (2u128, 10u128, 1000u128),
            (7, 128, 13),
            (123456789, 987654321, 1000000007),
            (5, 0, 7),
            (0, 5, 7),
            (6, 3, 9),               // non-coprime base
            (3, 100, 2u128.pow(32)), // even modulus path
        ];
        for (b, e, m) in cases {
            assert_eq!(big(b).modpow(&big(e), &big(m)).to_u128(), Some(oracle(b, e, m)), "case {b}^{e} mod {m}");
        }
    }

    #[test]
    fn modpow_mod_one_is_zero() {
        assert_eq!(big(5).modpow(&big(3), &big(1)), BigUint::zero());
        let ctx = MontgomeryCtx::new(&BigUint::one());
        assert_eq!(ctx.modpow(&big(5), &big(3)), BigUint::zero());
        assert_eq!(ctx.modpow(&big(5), &BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn montgomery_matches_plain() {
        // Odd multi-limb modulus; compare against the even-modulus fallback
        // by computing with modmul chain.
        let m = BigUint::from_limbs(vec![0xFFFF_FFFF_FFFF_FFC5, 0xFFFF_FFFF_FFFF_FFFF, 1]);
        let base = BigUint::from_limbs(vec![0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321]);
        let exp = big(65537);
        let fast = base.modpow(&exp, &m);
        // slow square-and-multiply
        let mut slow = BigUint::one();
        let mut b = &base % &m;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                slow = slow.modmul(&b, &m);
            }
            b = b.modmul(&b, &m);
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn cached_ctx_matches_per_call() {
        let m = BigUint::from_limbs(vec![0xFFFF_FFFF_FFFF_FFC5, 0xFFFF_FFFF_FFFF_FFFF, 1]);
        let ctx = MontgomeryCtx::new(&m);
        for (b, e) in [(3u64, 5u64), (0, 9), (12345, 0), (u64::MAX, 65537)] {
            let base = BigUint::from(b);
            let exp = BigUint::from(e);
            assert_eq!(base.modpow_ctx(&exp, &ctx), base.modpow(&exp, &m), "{b}^{e}");
        }
        // Bases at and above the modulus reduce correctly.
        let over = &m + &big(7);
        assert_eq!(over.modpow_ctx(&big(3), &ctx), big(7).modpow(&big(3), &m));
        let top = &m - &BigUint::one();
        assert_eq!(top.modpow_ctx(&big(2), &ctx), BigUint::one(), "(n-1)^2 ≡ 1 mod n");
    }

    #[test]
    fn mul_mod_matches_modmul() {
        let m = BigUint::from_limbs(vec![0xFFFF_FFFF_FFFF_FFC5, 0xFFFF_FFFF_FFFF_FFFF, 1]);
        let ctx = MontgomeryCtx::new(&m);
        let a = &m - &big(12345);
        let b = &m - &big(1);
        assert_eq!(ctx.mul_mod(&a, &b), a.modmul(&b, &m));
        assert_eq!(ctx.mul_mod(&BigUint::zero(), &b), BigUint::zero());
        assert_eq!(ctx.mul_mod(&BigUint::one(), &b), b);
    }

    #[test]
    fn crt_ctx_matches_direct_modpow() {
        let m1 = big(1000003);
        let m2 = big(1000033);
        let crt = CrtCtx::new(&m1, &m2).unwrap();
        let n = &m1 * &m2;
        assert_eq!(crt.modulus(), &n);
        let base = big(987654321);
        let e = big(65537);
        // Same exponent on both halves == plain exponentiation mod m1*m2.
        assert_eq!(crt.modpow(&base, &e, &e), base.modpow(&e, &n));
    }

    #[test]
    fn crt_combine_recovers_residues() {
        let m1 = big(101);
        let m2 = big(103);
        let crt = CrtCtx::new(&m1, &m2).unwrap();
        for x in [0u128, 1, 100, 5000, 10402] {
            let x1 = &big(x) % &m1;
            let x2 = &big(x) % &m2;
            assert_eq!(crt.combine(&x1, &x2), big(x), "x={x}");
        }
    }

    #[test]
    fn crt_rejects_non_coprime() {
        assert!(CrtCtx::new(&big(15), &big(21)).is_err());
    }

    #[test]
    fn modinv_roundtrip() {
        let m = big(1000000007);
        for a in [2u128, 3, 999999999, 123456] {
            let inv = big(a).modinv(&m).unwrap();
            assert_eq!(big(a).modmul(&inv, &m), BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn modinv_not_invertible() {
        assert_eq!(big(6).modinv(&big(9)), Err(BigIntError::NotInvertible));
        assert_eq!(big(5).modinv(&BigUint::zero()), Err(BigIntError::DivisionByZero));
    }

    #[test]
    fn modsub_wraps() {
        assert_eq!(big(3).modsub(&big(5), &big(7)), big(5));
        assert_eq!(big(5).modsub(&big(3), &big(7)), big(2));
        // Unreduced inputs still work through the general entry points.
        assert_eq!(big(10).modsub(&big(26), &big(7)), big(5));
        assert_eq!(big(12).modadd(&big(9), &big(7)), big(0));
    }

    #[test]
    fn reduced_fast_paths_match_general() {
        let m = big(1000000007);
        for (a, b) in [(0u128, 0u128), (1, 999999999), (1000000006, 1000000006), (123, 456)] {
            assert_eq!(big(a).modadd_reduced(&big(b), &m), big(a).modadd(&big(b), &m), "add {a}+{b}");
            assert_eq!(big(a).modsub_reduced(&big(b), &m), big(a).modsub(&big(b), &m), "sub {a}-{b}");
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) ≡ 1 mod p for prime p, a not divisible by p.
        let p = big(2147483647); // Mersenne prime 2^31-1
        for a in [2u128, 3, 7, 1234567] {
            assert_eq!(big(a).modpow(&(&p - &BigUint::one()), &p), BigUint::one());
        }
    }
}
