//! Division: Knuth Algorithm D (TAOCP Vol. 2, §4.3.1) plus single-limb
//! fast paths, and the `Div`/`Rem` operator impls.

use std::ops::{Div, Rem};

use crate::uint::BigUint;

impl BigUint {
    /// Simultaneous quotient and remainder: `(self / rhs, self % rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    ///
    /// ```
    /// use datablinder_bigint::BigUint;
    /// let (q, r) = BigUint::from(1000u64).divrem(&BigUint::from(7u64));
    /// assert_eq!(q, BigUint::from(142u64));
    /// assert_eq!(r, BigUint::from(6u64));
    /// ```
    pub fn divrem(&self, rhs: &BigUint) -> (BigUint, BigUint) {
        assert!(!rhs.is_zero(), "division by zero");
        if self < rhs {
            return (BigUint::zero(), self.clone());
        }
        if rhs.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(rhs.limbs[0]);
            return (q, BigUint::from(r));
        }
        divrem_knuth(self, rhs)
    }

    /// Quotient and remainder by a single limb.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn divrem_u64(&self, rhs: u64) -> (BigUint, u64) {
        assert!(rhs != 0, "division by zero");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / rhs as u128) as u64;
            rem = cur % rhs as u128;
        }
        (BigUint::from_limbs(q), rem as u64)
    }
}

/// Knuth Algorithm D for multi-limb divisors.
fn divrem_knuth(u: &BigUint, v: &BigUint) -> (BigUint, BigUint) {
    let n = v.limbs.len();
    let m = u.limbs.len() - n;

    // D1: normalize so the divisor's top limb has its high bit set.
    let shift = v.limbs[n - 1].leading_zeros() as usize;
    let vn = (v << shift).limbs;
    let mut un = (u << shift).limbs;
    un.resize(u.limbs.len() + 1, 0); // one extra high limb for D3 estimates

    let mut q = vec![0u64; m + 1];
    let b = 1u128 << 64;

    // D2..D7: main loop over quotient digits, most significant first.
    for j in (0..=m).rev() {
        // D3: estimate q̂ from the top two dividend limbs.
        let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = top / vn[n - 1] as u128;
        let mut rhat = top % vn[n - 1] as u128;
        while qhat >= b || qhat * vn[n - 2] as u128 > (rhat << 64) + un[j + n - 2] as u128 {
            qhat -= 1;
            rhat += vn[n - 1] as u128;
            if rhat >= b {
                break;
            }
        }

        // D4: multiply-and-subtract q̂·v from the current window of u.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
            un[i + j] = t as u64;
            borrow = t >> 64; // arithmetic shift: 0 or -1
        }
        let t = un[j + n] as i128 - carry as i128 + borrow;
        un[j + n] = t as u64;

        // D5/D6: if we overshot (negative result), add v back once.
        if t < 0 {
            qhat -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = un[i + j] as u128 + vn[i] as u128 + carry;
                un[i + j] = s as u64;
                carry = s >> 64;
            }
            un[j + n] = (un[j + n] as u128 + carry) as u64;
        }
        q[j] = qhat as u64;
    }

    // D8: denormalize the remainder.
    let rem = BigUint::from_limbs(un[..n].to_vec());
    (BigUint::from_limbs(q), &rem >> shift)
}

impl Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.divrem(rhs).0
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.divrem(rhs).1
    }
}

impl Div for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        &self / &rhs
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        &self % &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn small_divisions() {
        assert_eq!(big(100).divrem(&big(7)), (big(14), big(2)));
        assert_eq!(big(7).divrem(&big(100)), (big(0), big(7)));
        assert_eq!(big(100).divrem(&big(100)), (big(1), big(0)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(5).divrem(&BigUint::zero());
    }

    #[test]
    fn u128_oracle() {
        let cases: &[(u128, u128)] = &[
            (u128::MAX, 3),
            (u128::MAX, u64::MAX as u128),
            (u128::MAX, u64::MAX as u128 + 1),
            (u128::MAX - 1, u128::MAX),
            (0x1234_5678_9ABC_DEF0_1234_5678_9ABC_DEF0, 0xFFFF_FFFF_FFFF),
            ((u64::MAX as u128) << 64, (1u128 << 64) | 1),
        ];
        for &(a, b) in cases {
            let (q, r) = big(a).divrem(&big(b));
            assert_eq!(q.to_u128(), Some(a / b), "q of {a}/{b}");
            assert_eq!(r.to_u128(), Some(a % b), "r of {a}/{b}");
        }
    }

    #[test]
    fn reconstruction_large() {
        // (q * v + r) == u and r < v, for multi-limb operands.
        let u = BigUint::from_limbs((1..40u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect());
        let v = BigUint::from_limbs((1..7u64).map(|i| i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1).collect());
        let (q, r) = u.divrem(&v);
        assert!(r < v);
        assert_eq!(&(&q * &v) + &r, u);
    }

    #[test]
    fn divrem_u64_matches() {
        let u = BigUint::from_limbs(vec![0xDEAD_BEEF, 0xCAFE_BABE, 0x1234]);
        let (q, r) = u.divrem_u64(12345);
        assert_eq!(&q.mul_u64(12345) + &BigUint::from(r), u);
    }

    #[test]
    fn knuth_add_back_case() {
        // A divisor crafted so the qhat estimate overshoots (exercises D6).
        // Classic trigger: u = [0, q̂·v overestimate], v with small second limb.
        let u = BigUint::from_limbs(vec![0, 0, 0x8000_0000_0000_0000]);
        let v = BigUint::from_limbs(vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = u.divrem(&v);
        assert!(r < v);
        assert_eq!(&(&q * &v) + &r, u);
    }
}
