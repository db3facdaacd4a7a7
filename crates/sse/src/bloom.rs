//! Bloom filters — the substrate for the BIEX-ZMF ("matryoshka filter")
//! boolean tactic.

use crate::SseError;
use datablinder_codec::{Reader, Writer};

/// A fixed-size Bloom filter with double hashing over two 64-bit seeds.
///
/// # Examples
///
/// ```
/// use datablinder_sse::bloom::BloomFilter;
///
/// let mut f = BloomFilter::with_capacity(100, 0.01);
/// f.insert(b"item");
/// assert!(f.contains(b"item"));
/// assert!(!f.contains(b"other"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: usize,
    nhashes: u32,
}

impl BloomFilter {
    /// Sizes the filter for `capacity` items at the given false-positive
    /// rate.
    ///
    /// # Panics
    ///
    /// Panics if `fp_rate` is not in `(0, 1)` or `capacity` is zero.
    pub fn with_capacity(capacity: usize, fp_rate: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp_rate must be in (0,1)");
        let nbits = (-(capacity as f64) * fp_rate.ln() / (2f64.ln().powi(2))).ceil() as usize;
        let nbits = nbits.max(64);
        let nhashes = ((nbits as f64 / capacity as f64) * 2f64.ln()).round().max(1.0) as u32;
        BloomFilter { bits: vec![0; nbits.div_ceil(64)], nbits, nhashes }
    }

    /// Number of bits in the filter.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Number of hash functions.
    pub fn nhashes(&self) -> u32 {
        self.nhashes
    }

    fn hash_pair(item: &[u8]) -> (u64, u64) {
        let d = datablinder_primitives::sha256::digest(item);
        (u64::from_be_bytes(d[..8].try_into().unwrap()), u64::from_be_bytes(d[8..16].try_into().unwrap()))
    }

    fn positions(&self, item: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let (h1, h2) = Self::hash_pair(item);
        let nbits = self.nbits as u64;
        (0..self.nhashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % nbits) as usize)
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: &[u8]) {
        let positions: Vec<usize> = self.positions(item).collect();
        for p in positions {
            self.bits[p / 64] |= 1 << (p % 64);
        }
    }

    /// Membership test (no false negatives; tunable false positives).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.positions(item).all(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
    }

    /// Fraction of set bits (useful for saturation diagnostics).
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.nbits as f64
    }

    /// Serializes the filter.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.nbits as u64).u32(self.nhashes);
        let mut raw = Vec::with_capacity(self.bits.len() * 8);
        for word in &self.bits {
            raw.extend_from_slice(&word.to_be_bytes());
        }
        w.bytes(&raw);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing or size mismatch.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let nbits = r.u64()? as usize;
        let nhashes = r.u32()?;
        let raw = r.bytes()?;
        r.finish()?;
        if raw.len() != nbits.div_ceil(64) * 8 || nhashes == 0 || nbits == 0 {
            return Err(SseError::Malformed("bloom filter"));
        }
        let bits = raw.chunks(8).map(|c| u64::from_be_bytes(c.try_into().unwrap())).collect();
        Ok(BloomFilter { bits, nbits, nhashes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u32 {
            f.insert(&i.to_be_bytes());
        }
        for i in 0..1000u32 {
            assert!(f.contains(&i.to_be_bytes()), "lost item {i}");
        }
    }

    #[test]
    fn false_positive_rate_in_ballpark() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u32 {
            f.insert(&i.to_be_bytes());
        }
        let fps = (1000..11000u32).filter(|i| f.contains(&i.to_be_bytes())).count();
        let rate = fps as f64 / 10_000.0;
        assert!(rate < 0.05, "fp rate {rate} far above target 0.01");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut f = BloomFilter::with_capacity(64, 0.05);
        f.insert(b"alpha");
        f.insert(b"beta");
        let f2 = BloomFilter::decode(&f.encode()).unwrap();
        assert_eq!(f, f2);
        assert!(f2.contains(b"alpha"));
        assert!(BloomFilter::decode(b"garbage").is_err());
    }

    #[test]
    fn fill_ratio_grows() {
        let mut f = BloomFilter::with_capacity(100, 0.01);
        let before = f.fill_ratio();
        for i in 0..100u32 {
            f.insert(&i.to_be_bytes());
        }
        assert!(f.fill_ratio() > before);
        assert!(f.fill_ratio() < 0.75, "should be near 50% at capacity");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        BloomFilter::with_capacity(0, 0.01);
    }
}
