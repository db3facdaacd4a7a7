//! The [`BigUint`] type: representation, comparison, addition, subtraction,
//! multiplication and bit operations.

use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Mul, MulAssign, Shl, Shr, Sub, SubAssign};

/// Number of bits in one limb.
pub(crate) const LIMB_BITS: usize = 64;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with no trailing zero limbs
/// (the canonical representation of zero is an empty limb vector).
///
/// # Examples
///
/// ```
/// use datablinder_bigint::BigUint;
///
/// let a = BigUint::from(7u64);
/// let b = &a * &a;
/// assert_eq!(b, BigUint::from(49u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if `self == 0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if `self == 1`.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the integer is even. Zero counts as even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the integer is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Constructs from little-endian limbs, normalizing trailing zeros.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Drops trailing zero limbs in place.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// use datablinder_bigint::BigUint;
    /// assert_eq!(BigUint::from(255u64).bits(), 8);
    /// assert_eq!(BigUint::zero().bits(), 0);
    /// ```
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `value`, growing the representation as needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << off;
        } else if let Some(l) = self.limbs.get_mut(limb) {
            *l &= !(1 << off);
            self.normalize();
        }
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * LIMB_BITS + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Interprets the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Interprets the value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    pub(crate) fn add_assign_u64(&mut self, rhs: u64) {
        let mut carry = rhs;
        for l in self.limbs.iter_mut() {
            if carry == 0 {
                return;
            }
            let (s, c) = l.overflowing_add(carry);
            *l = s;
            carry = c as u64;
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// Subtraction of a single limb.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    pub fn sub_u64(&self, rhs: u64) -> BigUint {
        self - &BigUint::from(rhs)
    }

    /// Multiplication by a single limb.
    pub fn mul_u64(&self, rhs: u64) -> BigUint {
        if rhs == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u128 = 0;
        for &l in &self.limbs {
            let prod = l as u128 * rhs as u128 + carry;
            out.push(prod as u64);
            carry = prod >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// `self^2`, slightly cheaper than `self * self` for large values.
    pub fn square(&self) -> BigUint {
        // Karatsuba already kicks in through `mul`; a dedicated squaring
        // routine saves ~25% on the schoolbook base case.
        self * self
    }

    /// `self % 2^k`, i.e. keeps the low `k` bits.
    pub fn low_bits(&self, k: usize) -> BigUint {
        let full = k / LIMB_BITS;
        let rem = k % LIMB_BITS;
        if full >= self.limbs.len() {
            return self.clone();
        }
        let mut limbs = self.limbs[..full].to_vec();
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            limbs.push(self.limbs[full] & mask);
        }
        BigUint::from_limbs(limbs)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------- addition

#[allow(clippy::needless_range_loop)] // index-driven carry chains read clearer
fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = short.get(i).copied().unwrap_or(0);
        let (x, c1) = long[i].overflowing_add(s);
        let (x, c2) = x.overflowing_add(carry);
        out.push(x);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`, requires `a >= b`.
#[allow(clippy::needless_range_loop)]
fn sub_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(a.len() >= b.len());
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let s = b.get(i).copied().unwrap_or(0);
        let (x, b1) = a[i].overflowing_sub(s);
        let (x, b2) = x.overflowing_sub(borrow);
        out.push(x);
        borrow = (b1 as u64) + (b2 as u64);
    }
    assert_eq!(borrow, 0, "subtraction underflow: rhs > lhs");
    out
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(add_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = &*self + rhs;
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    /// # Panics
    /// Panics if `rhs > self` (unsigned underflow).
    fn sub(self, rhs: &BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        BigUint::from_limbs(sub_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}

// ----------------------------------------------------------- multiplication

/// Schoolbook threshold below which Karatsuba is not worth the splits.
const KARATSUBA_THRESHOLD: usize = 32;

fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry: u128 = 0;
        for (j, &bj) in b.iter().enumerate() {
            let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    out
}

fn mul_karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    let half = a.len().max(b.len()) / 2;
    let (a0, a1) = a.split_at(half.min(a.len()));
    let (b0, b1) = b.split_at(half.min(b.len()));
    let a0 = BigUint::from_limbs(a0.to_vec());
    let a1 = BigUint::from_limbs(a1.to_vec());
    let b0 = BigUint::from_limbs(b0.to_vec());
    let b1 = BigUint::from_limbs(b1.to_vec());

    let z0 = BigUint::from_limbs(mul_karatsuba(&a0.limbs, &b0.limbs));
    let z2 = BigUint::from_limbs(mul_karatsuba(&a1.limbs, &b1.limbs));
    let sa = &a0 + &a1;
    let sb = &b0 + &b1;
    let z1 = BigUint::from_limbs(mul_karatsuba(&sa.limbs, &sb.limbs));
    let z1 = &(&z1 - &z0) - &z2; // (a0+a1)(b0+b1) - z0 - z2

    // result = z0 + z1 << (64*half) + z2 << (128*half)
    let mut out = z0.limbs;
    add_shifted(&mut out, &z1.limbs, half);
    add_shifted(&mut out, &z2.limbs, 2 * half);
    out
}

/// `acc += v << (64*shift_limbs)` in place.
fn add_shifted(acc: &mut Vec<u64>, v: &[u64], shift_limbs: usize) {
    if v.is_empty() {
        return;
    }
    if acc.len() < shift_limbs + v.len() {
        acc.resize(shift_limbs + v.len(), 0);
    }
    let mut carry = 0u64;
    for (i, &vi) in v.iter().enumerate() {
        let idx = shift_limbs + i;
        let (x, c1) = acc[idx].overflowing_add(vi);
        let (x, c2) = x.overflowing_add(carry);
        acc[idx] = x;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut k = shift_limbs + v.len();
    while carry != 0 {
        if k == acc.len() {
            acc.push(0);
        }
        let (x, c) = acc[k].overflowing_add(carry);
        acc[k] = x;
        carry = c as u64;
        k += 1;
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_karatsuba(&self.limbs, &rhs.limbs))
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = &*self * rhs;
    }
}

// ------------------------------------------------------------------ shifts

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        let limb_shift = bits / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % LIMB_BITS;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = src.get(i + 1).map_or(0, |&n| n << (LIMB_BITS - bit_shift));
            out.push(lo | hi);
        }
        BigUint::from_limbs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let c = &a + &b;
        assert_eq!(c.limbs, vec![0, 1]);
        assert_eq!(c.bits(), 65);
    }

    #[test]
    fn sub_borrow_chain() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = BigUint::one();
        assert_eq!(&a - &b, BigUint::from(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from(2u64);
    }

    #[test]
    fn mul_matches_u128() {
        for (a, b) in [(0u64, 5u64), (3, 0), (u64::MAX, u64::MAX), (12345, 67890)] {
            let expect = a as u128 * b as u128;
            let got = &BigUint::from(a) * &BigUint::from(b);
            assert_eq!(got.to_u128(), Some(expect));
        }
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Construct operands large enough to trigger Karatsuba.
        let a: Vec<u64> = (0..100).map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(i as u32)).collect();
        let b: Vec<u64> = (0..90).map(|i| (i as u64).wrapping_mul(0xC2B2AE3D27D4EB4F) ^ 0xdead_beef).collect();
        let kara = mul_karatsuba(&a, &b);
        let school = mul_schoolbook(&a, &b);
        assert_eq!(BigUint::from_limbs(kara), BigUint::from_limbs(school));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = BigUint::from(0xDEAD_BEEF_u64);
        for s in [0usize, 1, 7, 63, 64, 65, 127, 200] {
            let shifted = &a << s;
            assert_eq!(&shifted >> s, a, "shift {s}");
        }
    }

    #[test]
    fn shr_discards_low_bits() {
        let a = BigUint::from(0b1011u64);
        assert_eq!(&a >> 2, BigUint::from(0b10u64));
        assert_eq!(&a >> 4, BigUint::zero());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(5u64);
        let b = BigUint::from_limbs(vec![0, 1]);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn bits_and_bit_access() {
        let mut a = BigUint::zero();
        a.set_bit(130, true);
        assert_eq!(a.bits(), 131);
        assert!(a.bit(130));
        assert!(!a.bit(129));
        a.set_bit(130, false);
        assert!(a.is_zero());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        assert_eq!(BigUint::from(8u64).trailing_zeros(), Some(3));
        let big = &BigUint::one() << 200;
        assert_eq!(big.trailing_zeros(), Some(200));
    }

    #[test]
    fn low_bits_masks() {
        let a = BigUint::from(0xFFFF_FFFF_FFFF_FFFFu64);
        assert_eq!(a.low_bits(4), BigUint::from(0xFu64));
        assert_eq!(a.low_bits(64), a);
        assert_eq!(a.low_bits(100), a);
    }

    #[test]
    fn mul_u64_carry() {
        let a = BigUint::from(u64::MAX);
        assert_eq!(a.mul_u64(u64::MAX).to_u128(), Some(u64::MAX as u128 * u64::MAX as u128));
    }

    #[test]
    fn add_u64_growth() {
        let mut a = BigUint::from(u64::MAX);
        a.add_assign_u64(1);
        assert_eq!(a.limbs, vec![0, 1]);
    }
}
