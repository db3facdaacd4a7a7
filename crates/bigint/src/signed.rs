//! A minimal signed big integer used for the extended Euclidean algorithm
//! and anywhere intermediate values may go negative.

use std::cmp::Ordering;
use std::ops::{Add, Mul, Neg, Sub};

use crate::uint::BigUint;

/// Sign of a [`BigInt`]. Zero is canonically [`Sign::Plus`] with zero magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Non-negative.
    Plus,
    /// Strictly negative.
    Minus,
}

/// A signed arbitrary-precision integer: sign + magnitude over [`BigUint`].
///
/// # Examples
///
/// ```
/// use datablinder_bigint::{BigInt, BigUint};
///
/// let a = BigInt::from(5i64);
/// let b = BigInt::from(-8i64);
/// assert_eq!(&a + &b, BigInt::from(-3i64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    /// The value `0`.
    pub fn zero() -> Self {
        BigInt { sign: Sign::Plus, mag: BigUint::zero() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigInt { sign: Sign::Plus, mag: BigUint::one() }
    }

    /// Builds from a sign and magnitude, normalizing `-0` to `+0`.
    pub fn from_sign_magnitude(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            BigInt { sign, mag }
        }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The absolute value.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Extended Euclidean algorithm.
    ///
    /// Returns `(g, x, y)` with `g = gcd(|self|, |other|)` and
    /// `self*x + other*y = g`.
    pub fn extended_gcd(&self, other: &BigInt) -> (BigInt, BigInt, BigInt) {
        let mut old_r = self.clone();
        let mut r = other.clone();
        let mut old_s = BigInt::one();
        let mut s = BigInt::zero();
        let mut old_t = BigInt::zero();
        let mut t = BigInt::one();
        while !r.is_zero() {
            let q = old_r.div_floor_abs(&r);
            let new_r = &old_r - &(&q * &r);
            old_r = std::mem::replace(&mut r, new_r);
            let new_s = &old_s - &(&q * &s);
            old_s = std::mem::replace(&mut s, new_s);
            let new_t = &old_t - &(&q * &t);
            old_t = std::mem::replace(&mut t, new_t);
        }
        if old_r.is_negative() {
            old_r = -old_r;
            old_s = -old_s;
            old_t = -old_t;
        }
        (old_r, old_s, old_t)
    }

    /// Truncating division (quotient of magnitudes with sign rule), which is
    /// what the textbook extended-GCD loop expects.
    fn div_floor_abs(&self, other: &BigInt) -> BigInt {
        let q = &self.mag / &other.mag;
        let sign = if self.sign == other.sign { Sign::Plus } else { Sign::Minus };
        BigInt::from_sign_magnitude(sign, q)
    }

    /// The least non-negative residue of `self` modulo `m`.
    ///
    /// ```
    /// use datablinder_bigint::{BigInt, BigUint};
    /// let x = BigInt::from(-3i64);
    /// assert_eq!(x.rem_euclid_by(&BigUint::from(7u64)), BigUint::from(4u64));
    /// ```
    pub fn rem_euclid_by(&self, m: &BigUint) -> BigUint {
        let r = &self.mag % m;
        if self.sign == Sign::Minus && !r.is_zero() {
            m - &r
        } else {
            r
        }
    }
}

impl From<BigUint> for BigInt {
    fn from(mag: BigUint) -> Self {
        BigInt::from_sign_magnitude(Sign::Plus, mag)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        if v < 0 {
            BigInt::from_sign_magnitude(Sign::Minus, BigUint::from(v.unsigned_abs()))
        } else {
            BigInt::from_sign_magnitude(Sign::Plus, BigUint::from(v as u64))
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        let sign = match self.sign {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        };
        BigInt::from_sign_magnitude(sign, self.mag)
    }
}

impl Add<&BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.sign == rhs.sign {
            BigInt::from_sign_magnitude(self.sign, &self.mag + &rhs.mag)
        } else {
            match self.mag.cmp(&rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_sign_magnitude(self.sign, &self.mag - &rhs.mag),
                Ordering::Less => BigInt::from_sign_magnitude(rhs.sign, &rhs.mag - &self.mag),
            }
        }
    }
}

impl Sub<&BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs.clone())
    }
}

impl Mul<&BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        let sign = if self.sign == rhs.sign { Sign::Plus } else { Sign::Minus };
        BigInt::from_sign_magnitude(sign, &self.mag * &rhs.mag)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Plus, Sign::Minus) => Ordering::Greater,
            (Sign::Minus, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.mag.cmp(&other.mag),
            (Sign::Minus, Sign::Minus) => other.mag.cmp(&self.mag),
        }
    }
}

impl std::fmt::Debug for BigInt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_negative() {
            write!(f, "-{:?}", self.mag)
        } else {
            write!(f, "{:?}", self.mag)
        }
    }
}

impl std::fmt::Display for BigInt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_negative() {
            write!(f, "-{}", self.mag)
        } else {
            write!(f, "{}", self.mag)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn signed_add_sub() {
        assert_eq!(&int(5) + &int(-8), int(-3));
        assert_eq!(&int(-5) + &int(8), int(3));
        assert_eq!(&int(-5) + &int(-8), int(-13));
        assert_eq!(&int(5) - &int(8), int(-3));
        assert_eq!(&int(5) - &int(-8), int(13));
    }

    #[test]
    fn neg_zero_is_plus_zero() {
        let z = -BigInt::zero();
        assert_eq!(z.sign(), Sign::Plus);
        assert!(z.is_zero());
    }

    #[test]
    fn mul_signs() {
        assert_eq!(&int(3) * &int(-4), int(-12));
        assert_eq!(&int(-3) * &int(-4), int(12));
    }

    #[test]
    fn extended_gcd_bezout() {
        let cases = [(240i64, 46i64), (17, 31), (0, 5), (5, 0), (-240, 46), (12, 18)];
        for (a, b) in cases {
            let (g, x, y) = int(a).extended_gcd(&int(b));
            let lhs = &(&int(a) * &x) + &(&int(b) * &y);
            assert_eq!(lhs, g, "bezout failed for ({a},{b})");
            let expected = gcd_i64(a.unsigned_abs(), b.unsigned_abs());
            assert_eq!(g, BigInt::from(BigUint::from(expected)), "gcd value for ({a},{b})");
        }
    }

    fn gcd_i64(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    #[test]
    fn rem_euclid_negative() {
        let m = BigUint::from(7u64);
        assert_eq!(int(-3).rem_euclid_by(&m), BigUint::from(4u64));
        assert_eq!(int(-7).rem_euclid_by(&m), BigUint::zero());
        assert_eq!(int(10).rem_euclid_by(&m), BigUint::from(3u64));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(int(-5) < int(3));
        assert!(int(-5) < int(-3));
        assert!(int(5) > int(3));
    }
}
