//! Order-revealing encryption (ORE): the left/right block ORE of Lewi and
//! Wu (CCS 2016), instantiated per byte — the scheme behind the
//! `kevinlewi/fastore` implementation the paper integrates (Table 2: Range
//! Query, protection class 5, leakage level *Order*).
//!
//! Stored data holds *right* ciphertexts and queries carry *left* ones;
//! unlike OPE, ORE ciphertexts are *not* numerically ordered, and a public
//! [`Comparison`]-returning routine evaluates order. Right ciphertexts here
//! take no randomness: two encryptions of one value are byte-identical, and
//! two values sharing a prefix of blocks share those blocks' mark tables, so
//! stored right ciphertexts leak equality and common-prefix length at rest.
//!
//! # Examples
//!
//! ```
//! use datablinder_ore::{Comparison, LewiWuOre};
//! use datablinder_primitives::keys::SymmetricKey;
//!
//! let ore = LewiWuOre::new(SymmetricKey::from_bytes(&[1u8; 32]));
//! let query = ore.encrypt_left(5);
//! let stored = ore.encrypt_right(9);
//! assert_eq!(LewiWuOre::compare_left_right(&query, &stored), Comparison::Less);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
use datablinder_primitives::hmac::{hmac_sha256, HmacCtx};
use datablinder_primitives::keys::SymmetricKey;
use datablinder_primitives::prf::{HmacPrf, Prf};

/// Result of comparing two ORE ciphertexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Left plaintext is smaller.
    Less,
    /// Plaintexts are equal.
    Equal,
    /// Left plaintext is larger.
    Greater,
}

impl From<std::cmp::Ordering> for Comparison {
    fn from(o: std::cmp::Ordering) -> Self {
        match o {
            std::cmp::Ordering::Less => Comparison::Less,
            std::cmp::Ordering::Equal => Comparison::Equal,
            std::cmp::Ordering::Greater => Comparison::Greater,
        }
    }
}

/// Block size (bits) for the Lewi–Wu instantiation: one byte per block.
const LW_BLOCK_BITS: usize = 8;
/// Number of blocks covering a `u64`.
const LW_BLOCKS: usize = 64 / LW_BLOCK_BITS;
/// Values per block.
const LW_DOMAIN: usize = 1 << LW_BLOCK_BITS;

/// A Lewi–Wu *left* (query-side) ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LewiWuLeft {
    /// Per block: (PRF key-hash for this prefix, the block value encrypted
    /// under a prefix-bound permutation position).
    blocks: Vec<([u8; 32], u8)>,
}

/// A Lewi–Wu *right* (stored-side) ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LewiWuRight {
    /// Per block: `LW_DOMAIN` comparison marks in `Z_3`, index-permuted.
    blocks: Vec<Vec<u8>>,
}

impl LewiWuLeft {
    /// Serializes: per block `32-byte key || position byte`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blocks.len() * 33);
        for (key, pos) in &self.blocks {
            out.extend_from_slice(key);
            out.push(*pos);
        }
        out
    }

    /// Deserializes; `None` on size mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != LW_BLOCKS * 33 {
            return None;
        }
        let blocks = bytes
            .chunks(33)
            .map(|c| {
                let mut key = [0u8; 32];
                key.copy_from_slice(&c[..32]);
                (key, c[32])
            })
            .collect();
        Some(LewiWuLeft { blocks })
    }
}

impl LewiWuRight {
    /// Serializes: concatenated per-block mark tables.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(LW_BLOCKS * LW_DOMAIN);
        for marks in &self.blocks {
            out.extend_from_slice(marks);
        }
        out
    }

    /// Deserializes; `None` on size mismatch or invalid marks.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != LW_BLOCKS * LW_DOMAIN || bytes.iter().any(|&b| b > 2) {
            return None;
        }
        Some(LewiWuRight { blocks: bytes.chunks(LW_DOMAIN).map(|c| c.to_vec()).collect() })
    }
}

/// The Lewi–Wu left/right block ORE.
///
/// Stored data holds only right ciphertexts; queries carry left
/// ciphertexts. `compare_left_right` reveals the order of the compared
/// pair (plus the index of the first differing block); right ciphertexts
/// are deterministic, so stored ones also leak equality and common-prefix
/// length among themselves.
#[derive(Clone)]
pub struct LewiWuOre {
    prf: HmacPrf,
}

impl LewiWuOre {
    /// Creates an instance from a key.
    pub fn new(key: SymmetricKey) -> Self {
        LewiWuOre { prf: HmacPrf::new(key) }
    }

    fn block_of(m: u64, i: usize) -> u8 {
        ((m >> (64 - (i + 1) * LW_BLOCK_BITS)) & (LW_DOMAIN as u64 - 1)) as u8
    }

    fn prefix_of(m: u64, i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            m >> (64 - i * LW_BLOCK_BITS)
        }
    }

    /// Pseudorandom permutation position of value `v` under `prefix`
    /// (a keyed "random shift" permutation — sufficient for hiding the
    /// block value's identity across prefixes).
    fn position(&self, prefix: u64, i: usize, v: u8) -> u8 {
        let mut input = [0u8; 14];
        input[..8].copy_from_slice(&prefix.to_be_bytes());
        input[8..12].copy_from_slice(&(i as u32).to_be_bytes());
        input[12] = 0x02;
        input[13] = 0x00;
        let shift = self.prf.eval(&input)[0];
        v.wrapping_add(shift)
    }

    /// Per-(prefix, position) comparison mark key.
    fn mark_key(&self, prefix: u64, i: usize) -> [u8; 32] {
        let mut input = [0u8; 14];
        input[..8].copy_from_slice(&prefix.to_be_bytes());
        input[8..12].copy_from_slice(&(i as u32).to_be_bytes());
        input[12] = 0x02;
        input[13] = 0x01;
        self.prf.eval(&input)
    }

    /// Produces the left (query) ciphertext of `m`.
    pub fn encrypt_left(&self, m: u64) -> LewiWuLeft {
        let blocks = (0..LW_BLOCKS)
            .map(|i| {
                let prefix = Self::prefix_of(m, i);
                let v = Self::block_of(m, i);
                (self.mark_key(prefix, i), self.position(prefix, i, v))
            })
            .collect();
        LewiWuLeft { blocks }
    }

    /// Produces the right (stored) ciphertext of `m`.
    pub fn encrypt_right(&self, m: u64) -> LewiWuRight {
        let blocks = (0..LW_BLOCKS)
            .map(|i| {
                let prefix = Self::prefix_of(m, i);
                let v = Self::block_of(m, i) as i32;
                let key = self.mark_key(prefix, i);
                // One HMAC context serves every candidate in this block —
                // LW_DOMAIN pad evaluations share a single key preparation.
                let pad_mac = HmacCtx::new(&key);
                let mut marks = vec![0u8; LW_DOMAIN];
                for candidate in 0..LW_DOMAIN as i32 {
                    // cmp(candidate, v): candidate < v -> 0, == -> 1, > -> 2
                    let cmp = match candidate.cmp(&v) {
                        std::cmp::Ordering::Less => 0u8,
                        std::cmp::Ordering::Equal => 1,
                        std::cmp::Ordering::Greater => 2,
                    };
                    let pos = self.position(prefix, i, candidate as u8);
                    // Blind the mark with a PRF over (key, pos) so marks do
                    // not directly reveal the ordering table.
                    let pad = pad_mac.mac(&[pos])[0] % 3;
                    marks[pos as usize] = (cmp + pad) % 3;
                }
                marks
            })
            .collect();
        LewiWuRight { blocks }
    }

    /// Compares a left (query) against a right (stored) ciphertext.
    pub fn compare_left_right(left: &LewiWuLeft, right: &LewiWuRight) -> Comparison {
        for ((key, pos), marks) in left.blocks.iter().zip(right.blocks.iter()) {
            let pad = hmac_sha256(key, &[*pos])[0] % 3;
            let mark = (marks[*pos as usize] + 3 - pad) % 3;
            // mark = cmp(query block, stored block): 0 less, 1 equal, 2 greater.
            match mark {
                1 => continue,
                0 => return Comparison::Less,
                _ => return Comparison::Greater,
            }
        }
        Comparison::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SymmetricKey {
        SymmetricKey::from_bytes(&[7u8; 32])
    }

    #[test]
    fn lewi_wu_total_order() {
        let ore = LewiWuOre::new(key());
        let values = [0u64, 1, 255, 256, 257, 65535, 1 << 40, u64::MAX];
        for &a in &values {
            for &b in &values {
                let l = ore.encrypt_left(a);
                let r = ore.encrypt_right(b);
                let expect = Comparison::from(a.cmp(&b));
                assert_eq!(LewiWuOre::compare_left_right(&l, &r), expect, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn lewi_wu_bytes_roundtrip() {
        let ore = LewiWuOre::new(key());
        let (l, r) = (ore.encrypt_left(999), ore.encrypt_right(999));
        assert_eq!(LewiWuLeft::from_bytes(&l.to_bytes()), Some(l));
        assert_eq!(LewiWuRight::from_bytes(&r.to_bytes()), Some(r));
        assert!(LewiWuLeft::from_bytes(&[0u8; 10]).is_none());
        assert!(LewiWuRight::from_bytes(&[3u8; LW_BLOCKS * LW_DOMAIN]).is_none(), "a mark outside Z_3");
        assert!(LewiWuRight::from_bytes(&[0u8; 10]).is_none());
    }

    #[test]
    fn lewi_wu_right_hides_value() {
        // Two right ciphertexts of different values under the same key are
        // not trivially comparable (no shared positions revealed): check
        // that equal blocks of different prefixes have different mark
        // tables.
        let ore = LewiWuOre::new(key());
        let r1 = ore.encrypt_right(0x0101_0101_0101_0101);
        let r2 = ore.encrypt_right(0x0201_0101_0101_0101);
        // Same block value (0x01) at index 1 but different prefix.
        assert_ne!(r1.blocks[1], r2.blocks[1]);
    }

    #[test]
    fn lewi_wu_exhaustive_one_block_boundary() {
        // Exercise comparisons around block boundaries densely.
        let ore = LewiWuOre::new(key());
        for a in 250u64..260 {
            for b in 250u64..260 {
                let l = ore.encrypt_left(a);
                let r = ore.encrypt_right(b);
                assert_eq!(LewiWuOre::compare_left_right(&l, &r), Comparison::from(a.cmp(&b)), "{a} vs {b}");
            }
        }
    }
}
