//! Conversions: byte-string encodings, decimal/hex parsing and formatting,
//! and uniform random sampling.

use rand::Rng;

use crate::uint::BigUint;
use crate::BigIntError;

impl BigUint {
    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns [`BigIntError::ParseError`] on empty input or non-digit bytes.
    pub fn from_dec_str(s: &str) -> Result<BigUint, BigIntError> {
        if s.is_empty() {
            return Err(BigIntError::ParseError(s.into()));
        }
        let mut out = BigUint::zero();
        for c in s.bytes() {
            let d = match c {
                b'0'..=b'9' => (c - b'0') as u64,
                _ => return Err(BigIntError::ParseError(s.into())),
            };
            out = out.mul_u64(10);
            out.add_assign_u64(d);
        }
        Ok(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`BigIntError::ParseError`] on empty input or non-hex bytes.
    pub fn from_hex_str(s: &str) -> Result<BigUint, BigIntError> {
        if s.is_empty() {
            return Err(BigIntError::ParseError(s.into()));
        }
        // One limb per 16 digits, least significant chunk first.
        let mut limbs = Vec::with_capacity(s.len().div_ceil(16));
        for chunk in s.as_bytes().rchunks(16) {
            let mut limb = 0u64;
            for &c in chunk {
                let d = match c {
                    b'0'..=b'9' => c - b'0',
                    b'a'..=b'f' => c - b'a' + 10,
                    b'A'..=b'F' => c - b'A' + 10,
                    _ => return Err(BigIntError::ParseError(s.into())),
                };
                limb = (limb << 4) | d as u64;
            }
            limbs.push(limb);
        }
        Ok(BigUint::from_limbs(limbs))
    }

    /// Big-endian byte encoding with no leading zero bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Builds from big-endian bytes. Leading zero bytes are accepted.
    pub fn from_bytes_be(bytes: &[u8]) -> BigUint {
        BigUint::from_limbs(limbs_of_be(bytes).collect())
    }

    /// Fixed-width big-endian encoding, left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `width` bytes.
    pub fn to_bytes_be_padded(&self, width: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= width, "value needs {} bytes but width is {width}", raw.len());
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Uniform random integer in `[0, bound)`, by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Random integer with at most `bits` bits (uniform over `[0, 2^bits)`).
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let rem = bits % 64;
        if rem != 0 {
            if let Some(top) = v.last_mut() {
                *top &= (1u64 << rem) - 1;
            }
        }
        BigUint::from_limbs(v)
    }
}

/// The limbs of a big-endian byte string, least significant first: one limb
/// per 8 bytes, the short chunk (if any) last.
pub(crate) fn limbs_of_be(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes.rchunks(8).map(|chunk| match <[u8; 8]>::try_from(chunk) {
        Ok(full) => u64::from_be_bytes(full),
        Err(_) => chunk.iter().fold(0, |limb, &b| (limb << 8) | b as u64),
    })
}

impl std::str::FromStr for BigUint {
    type Err = BigIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigUint::from_dec_str(s)
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Peel off 19 decimal digits at a time (largest power of 10 in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u64(CHUNK);
            digits.push(r);
            cur = q;
        }
        let mut s = digits.pop().unwrap().to_string();
        for d in digits.iter().rev() {
            s.push_str(&format!("{d:019}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

impl std::fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for l in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{l:016x}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dec_roundtrip() {
        for s in [
            "0",
            "1",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
            "999999999999999999999999999999",
        ] {
            let v = BigUint::from_dec_str(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn dec_parse_errors() {
        assert!(BigUint::from_dec_str("").is_err());
        assert!(BigUint::from_dec_str("12a").is_err());
        assert!(BigUint::from_dec_str("-5").is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let v = BigUint::from_hex_str("deadBEEFcafebabe1234567890").unwrap();
        assert_eq!(format!("{v:x}"), "deadbeefcafebabe1234567890");
        assert!(BigUint::from_hex_str("xyz").is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let v = BigUint::from_dec_str("123456789012345678901234567890").unwrap();
        let bytes = v.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
        // leading zeros accepted
        let mut padded = vec![0u8, 0u8];
        padded.extend_from_slice(&bytes);
        assert_eq!(BigUint::from_bytes_be(&padded), v);
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from(0x1234u64);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn padded_bytes_too_small() {
        BigUint::from(0x123456u64).to_bytes_be_padded(2);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let bound = BigUint::from_dec_str("1000000000000000000000000").unwrap();
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for bits in [1usize, 5, 64, 65, 130] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert!(v.bits() <= bits);
        }
    }

    #[test]
    fn display_zero_and_padding_chunks() {
        assert_eq!(BigUint::zero().to_string(), "0");
        // A value whose low chunk needs zero padding.
        let v = BigUint::from_dec_str("10000000000000000000000000001").unwrap();
        assert_eq!(v.to_string(), "10000000000000000000000000001");
    }
}
