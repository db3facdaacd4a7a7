//! Modular arithmetic: exponentiation (with Montgomery multiplication for
//! odd moduli), inverses, GCD, and amortized contexts.
//!
//! Two context types let hot callers pay precomputation once:
//!
//! * [`MontgomeryCtx`] — a long-lived Montgomery domain for one odd
//!   modulus of up to 256 limbs. Every product goes through one kernel,
//!   `mont_mul`: CIOS (coarsely integrated operand scanning) over `[u64; N]`
//!   arrays, one multiply-and-reduce pass with no division. It is compiled
//!   once per power-of-two width `N` from 1 to 256 limbs; a context pads
//!   its modulus up to the next such width (a 5-limb modulus pays 8-limb
//!   work) and picks its copy with one `match`. [`MontgomeryCtx::modpow`]
//!   keeps its window table on the stack and allocates only its result.
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
        if m.is_odd() && m.limbs.len() <= MAX_MONT_LIMBS {
            let ctx = MontgomeryCtx::new(m);
            return ctx.modpow(self, exp);
        }
        // Fallback for even and over-wide moduli: plain square-and-multiply.
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

/// Fixed-width limb comparison: `a >= b`, both the same length.
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

/// The one Montgomery multiply: CIOS (coarsely integrated operand scanning)
/// `a · b · R⁻¹ mod n` with `R = 2^(64·N)`, for odd `n < R` and `a, b < n`.
///
/// `N` is a compile-time width, so the limb indices need no bounds checks
/// and the loops unroll; a run-time width costs ~1.7× at 8 and 16 limbs.
fn mont_mul<const N: usize>(a: &[u64; N], b: &[u64; N], n: &[u64; N], n_prime: u64) -> [u64; N] {
    // The running sum is N + 2 limbs: `t`, then `hi`, whose own carry is at
    // most one and is folded into `hi` after each shift.
    let mut t = [0u64; N];
    let mut hi = 0u64;
    for &ai in a {
        // t += ai · b
        let mut carry = 0u64;
        for j in 0..N {
            let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry as u128;
            t[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let (top, over) = hi.overflowing_add(carry);
        // t += m · n with m killing the low limb, then t >>= 64.
        let m = t[0].wrapping_mul(n_prime);
        let mut carry = ((t[0] as u128 + m as u128 * n[0] as u128) >> 64) as u64;
        for j in 1..N {
            let s = t[j] as u128 + m as u128 * n[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let (low, c) = top.overflowing_add(carry);
        t[N - 1] = low;
        hi = over as u64 + c as u64;
    }
    // CIOS leaves a value < 2n: at most one subtraction, whose borrow
    // consumes the overflow limb `hi`.
    if hi != 0 || ge_fixed(&t, n) {
        let borrow = sub_fixed(&mut t, n);
        debug_assert_eq!(borrow, hi, "CIOS result out of the [0, 2n) range");
    }
    t
}

/// Widest modulus a [`MontgomeryCtx`] takes, in limbs (16,384 bits): room
/// for `n²` of the widest Paillier modulus the cloud accepts (8,192 bits).
const MAX_MONT_LIMBS: usize = 256;

/// `$ctx.$method::<W>($args)` for the context's width `W`: one compiled
/// copy of the kernel per power-of-two width.
macro_rules! at_width {
    ($ctx:expr, $method:ident($($arg:expr),*)) => {
        match $ctx.n_pad.len() {
            1 => $ctx.$method::<1>($($arg),*),
            2 => $ctx.$method::<2>($($arg),*),
            4 => $ctx.$method::<4>($($arg),*),
            8 => $ctx.$method::<8>($($arg),*),
            16 => $ctx.$method::<16>($($arg),*),
            32 => $ctx.$method::<32>($($arg),*),
            64 => $ctx.$method::<64>($($arg),*),
            128 => $ctx.$method::<128>($($arg),*),
            256 => $ctx.$method::<256>($($arg),*),
            w => unreachable!("{w} limbs is not a Montgomery width"),
        }
    };
}

/// Montgomery-form modular arithmetic context for an odd modulus.
///
/// Precomputes `n' = -n^{-1} mod 2^64`, `R² mod n` and `R mod n` (the
/// Montgomery form of 1) so repeated multiplications avoid full divisions.
/// The context's width `W` is the limb count of `n` rounded up to a power
/// of two, and `R = 2^(64·W)`: the modulus and both constants are padded
/// to `W` limbs, and every product runs through `mont_mul` compiled for
/// `W`, on stack arrays with no per-multiply allocation.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    n: BigUint,
    /// -n^{-1} mod 2^64
    n_prime: u64,
    /// `n`, padded to `W` limbs.
    n_pad: Vec<u64>,
    /// R² mod n, padded to `W` limbs.
    r2: Vec<u64>,
    /// R mod n — the Montgomery form of 1, padded to `W` limbs.
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
    /// Panics if `n` is even or zero, and if `n` is wider than 256 limbs
    /// (16,384 bits); [`BigUint::modpow`] takes such moduli through its
    /// division-based loop instead.
    pub fn new(n: &BigUint) -> Self {
        assert!(n.is_odd(), "Montgomery context requires an odd modulus");
        assert!(n.limbs.len() <= MAX_MONT_LIMBS, "Montgomery context takes at most {MAX_MONT_LIMBS} limbs");
        let width = n.limbs.len().next_power_of_two();
        // Newton iteration for the inverse of n mod 2^64.
        let n0 = n.limbs[0];
        let mut inv = n0; // correct mod 2^3
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();
        let pad = |x: &BigUint| {
            let mut v = x.limbs.clone();
            v.resize(width, 0);
            v
        };
        let r = &BigUint::one() << (64 * width);
        MontgomeryCtx { n: n.clone(), n_prime, n_pad: pad(n), r2: pad(&(&(&r * &r) % n)), one: pad(&(&r % n)) }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `(a * b) mod n` through the Montgomery domain: two CIOS passes
    /// instead of a full multiply plus division. `a` and `b` must already
    /// be reduced mod `n`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        debug_assert!(a < &self.n && b < &self.n, "mul_mod operands must be reduced");
        if self.n.is_one() {
            return BigUint::zero();
        }
        at_width!(self, mul_mod_at(a, b))
    }

    fn mul_mod_at<const N: usize>(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let n = fixed::<N>(&self.n_pad);
        // a * R (Montgomery form of a) ...
        let am = mont_mul(&padded(a), fixed(&self.r2), n, self.n_prime);
        // ... times b, leaving the domain again: a*R * b * R^{-1} = a*b.
        BigUint::from_limbs(mont_mul(&am, &padded(b), n, self.n_prime).to_vec())
    }

    /// Product of big-endian byte strings: `Π operands mod n` (1 for none).
    ///
    /// The streaming form of a [`MontgomeryCtx::mul_mod`] chain: each
    /// operand is decoded straight into one reused `W`-limb buffer and
    /// costs a single CIOS pass, with no allocation. Every pass divides the
    /// accumulator by `R`; starting from `R mod n`, after `count` operands
    /// it holds `Π · R^(1−count)`, and one closing pass with `R^count mod n`
    /// (`O(log count)` squarings) cancels the drift exactly. Operands `≥ n`
    /// or wider than `W` limbs are reduced first (hostile input only), so
    /// the result equals the left-to-right `modmul` chain for any input.
    pub fn product_be<'a>(&self, operands: impl IntoIterator<Item = &'a [u8]>) -> BigUint {
        if self.n.is_one() {
            return BigUint::zero();
        }
        at_width!(self, product_be_at(operands))
    }

    fn product_be_at<'a, const N: usize>(&self, operands: impl IntoIterator<Item = &'a [u8]>) -> BigUint {
        let n = fixed::<N>(&self.n_pad);
        let mut acc = *fixed(&self.one);
        let mut x = [0u64; N];
        let mut count = 0u64;
        for bytes in operands {
            self.reduced_limbs_of_be(bytes, &mut x);
            acc = mont_mul(&acc, &x, n, self.n_prime);
            count += 1;
        }
        let r_count = self.modpow_at::<N>(&BigUint::from_limbs(self.one.clone()), &BigUint::from(count));
        BigUint::from_limbs(mont_mul(&acc, &padded(&r_count), n, self.n_prime).to_vec())
    }

    /// Decodes big-endian `bytes` into the `W`-limb buffer `out` as a value
    /// `< n`. Only an operand `≥ n` or wider than `W` limbs pays an
    /// allocation and a division.
    fn reduced_limbs_of_be(&self, bytes: &[u8], out: &mut [u64]) {
        let bytes = &bytes[bytes.iter().take_while(|&&b| b == 0).count()..];
        if bytes.len() <= 8 * out.len() {
            let limbs = limbs_of_be(bytes).chain(std::iter::repeat(0));
            out.iter_mut().zip(limbs).for_each(|(limb, v)| *limb = v);
            if !ge_fixed(out, &self.n_pad) {
                return;
            }
        }
        let reduced = &BigUint::from_bytes_be(bytes) % &self.n;
        out.fill(0);
        out[..reduced.limbs.len()].copy_from_slice(&reduced.limbs);
    }

    /// `base^exp mod n` using a 4-bit fixed window.
    ///
    /// The window table (16 entries of `W` limbs, 32 KiB at 256 limbs) and
    /// the accumulator live on the stack, so the cost per exponent bit is
    /// one allocation-free CIOS pass.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if self.n.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        at_width!(self, modpow_at(base, exp))
    }

    fn modpow_at<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let n = fixed::<N>(&self.n_pad);
        let mul = |a: &[u64; N], b: &[u64; N]| mont_mul(a, b, n, self.n_prime);
        let mbase = mul(&padded(&(base % &self.n)), fixed(&self.r2));

        // mbase^0..mbase^15 in Montgomery form.
        let mut table = [[0u64; N]; 16];
        table[0] = *fixed(&self.one);
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
        BigUint::from_limbs(mul(&acc, &padded(&BigUint::one())).to_vec())
    }
}

/// A context buffer (padded to the width) as a fixed-width array.
fn fixed<const N: usize>(v: &[u64]) -> &[u64; N] {
    v.try_into().expect("context buffers are padded to the dispatched width")
}

/// `x` zero-extended to `N` limbs; `x` must fit.
fn padded<const N: usize>(x: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    out[..x.limbs.len()].copy_from_slice(&x.limbs);
    out
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
