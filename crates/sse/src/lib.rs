//! Searchable symmetric encryption (SSE) schemes.
//!
//! This crate implements the data protection tactics of Table 2 of the
//! DataBlinder paper, each split into a **client** (gateway) half that
//! holds keys and produces tokens, and a **server** (cloud) half that
//! operates over a [`datablinder_kvstore::KvStore`] and never sees keys or
//! plaintexts:
//!
//! | Scheme | Module | Class | Leakage | Properties |
//! |--------|--------|-------|---------|------------|
//! | DET    | [`det`]    | 4 | Equalities  | deterministic, equality search |
//! | RND    | [`rnd`]    | 1 | Structure   | probabilistic AEAD, no search |
//! | Mitra  | [`mitra`]  | 2 | Identifiers | forward & backward private, dynamic |
//! | Sophos | [`sophos`] | 2 | Identifiers | forward private via RSA trapdoor permutation |
//! | 2Lev   | [`twolev`] | — | (substrate) | static, read-efficient dictionary+array index |
//! | BIEX-2Lev | [`biex`] | 3 | Predicates | boolean (CNF) queries, read-efficient |
//! | BIEX-ZMF  | [`biex`] | 3 | Predicates | boolean queries, space-efficient (Bloom/matryoshka filters) |
//!
//! All tokens and responses have explicit byte encodings so they can cross
//! the simulated gateway↔cloud channel.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod biex;
pub mod bloom;
pub mod det;
pub mod inverted;
pub mod mitra;
pub mod rnd;
pub mod sophos;
pub mod twolev;

use datablinder_primitives::CryptoError;

/// A fixed-size document identifier.
///
/// The middleware's `DocIDGen` SPI mints these; SSE payloads need
/// fixed-width identifiers for XOR masking and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub [u8; 16]);

impl DocId {
    /// Lowercase hex rendering (the form stored in the document store).
    pub fn to_hex(self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(32);
        for b in self.0 {
            out.push(DIGITS[usize::from(b >> 4)] as char);
            out.push(DIGITS[usize::from(b & 0xf)] as char);
        }
        out
    }

    /// Parses the hex rendering (either case).
    pub fn from_hex(s: &str) -> Option<DocId> {
        let nibble = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
        let digits: &[u8; 32] = s.as_bytes().try_into().ok()?;
        let mut out = [0u8; 16];
        for (byte, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
            *byte = nibble(pair[0])? << 4 | nibble(pair[1])?;
        }
        Some(DocId(out))
    }

    /// Derives a stable id from an arbitrary string (for external ids).
    pub fn from_name(name: &str) -> DocId {
        let h = datablinder_primitives::sha256::digest(name.as_bytes());
        let mut out = [0u8; 16];
        out.copy_from_slice(&h[..16]);
        DocId(out)
    }
}

/// Whether an index update adds or removes a (keyword, document) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// The document now contains the keyword.
    Add,
    /// The pair is revoked.
    Delete,
}

impl UpdateOp {
    fn to_byte(self) -> u8 {
        match self {
            UpdateOp::Add => 0,
            UpdateOp::Delete => 1,
        }
    }

    fn from_byte(b: u8) -> Option<UpdateOp> {
        match b {
            0 => Some(UpdateOp::Add),
            1 => Some(UpdateOp::Delete),
            _ => None,
        }
    }
}

/// Errors across the SSE schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SseError {
    /// A token, entry or response failed to decode.
    Malformed(&'static str),
    /// Underlying cipher failure (bad tag, wrong key...).
    Crypto(CryptoError),
    /// The server-side store rejected an operation.
    Storage(String),
    /// A static index (2Lev/BIEX) was asked to update after setup.
    StaticScheme,
    /// An update named an index address that already holds a different
    /// entry. The stored entry stays: a client whose counters or chain went
    /// back (a restart that lost its state) would otherwise overwrite an
    /// acknowledged entry, reusing its pad.
    AddressTaken,
}

impl std::fmt::Display for SseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SseError::Malformed(what) => write!(f, "malformed {what}"),
            SseError::Crypto(e) => write!(f, "crypto failure: {e}"),
            SseError::Storage(e) => write!(f, "storage failure: {e}"),
            SseError::StaticScheme => write!(f, "static scheme does not support updates"),
            SseError::AddressTaken => write!(f, "index address already holds a different entry"),
        }
    }
}

impl std::error::Error for SseError {}

impl From<datablinder_codec::Malformed> for SseError {
    fn from(e: datablinder_codec::Malformed) -> Self {
        SseError::Malformed(e.0)
    }
}

impl From<CryptoError> for SseError {
    fn from(e: CryptoError) -> Self {
        SseError::Crypto(e)
    }
}

impl From<datablinder_kvstore::KvError> for SseError {
    fn from(e: datablinder_kvstore::KvError) -> Self {
        SseError::Storage(e.to_string())
    }
}

/// Stores an index entry at an address nothing holds yet. Storing the entry
/// an address already holds is `Ok` (a replayed update); a different one is
/// [`SseError::AddressTaken`], and the stored entry stays.
pub(crate) fn set_once(kv: &datablinder_kvstore::KvStore, key: &[u8], entry: &[u8]) -> Result<(), SseError> {
    if kv.set_nx(key, entry) || kv.get(key).as_deref() == Some(entry) {
        Ok(())
    } else {
        Err(SseError::AddressTaken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn docid_hex_roundtrip() {
        let id = DocId([0xAB; 16]);
        let hex = id.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(DocId::from_hex(&hex), Some(id));
        assert_eq!(DocId::from_hex("short"), None);
        assert_eq!(DocId::from_hex(&"zz".repeat(16)), None);

        // The digit table writes what `{:02x}` writes, for every byte.
        for chunk in (0..=255u8).collect::<Vec<_>>().chunks(16) {
            let id = DocId(chunk.try_into().unwrap());
            let formatted: String = chunk.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(id.to_hex(), formatted);
            assert_eq!(DocId::from_hex(&formatted), Some(id));
            assert_eq!(DocId::from_hex(&formatted.to_uppercase()), Some(id));
        }
        // Ids come back from the untrusted cloud: 32 bytes that are not 32
        // hex digits are no id (`from_str_radix` took "+f" for 15, and a
        // two-byte character used to split mid-slice and panic).
        assert_eq!(DocId::from_hex(&"+f".repeat(16)), None);
        assert_eq!(DocId::from_hex(&"é".repeat(16)), None);
        assert_eq!(DocId::from_hex(&format!("a{}b", "é".repeat(15))), None);
    }

    #[test]
    fn docid_from_name_stable_and_distinct() {
        assert_eq!(DocId::from_name("a"), DocId::from_name("a"));
        assert_ne!(DocId::from_name("a"), DocId::from_name("b"));
    }

    #[test]
    fn update_op_bytes() {
        assert_eq!(UpdateOp::from_byte(UpdateOp::Add.to_byte()), Some(UpdateOp::Add));
        assert_eq!(UpdateOp::from_byte(UpdateOp::Delete.to_byte()), Some(UpdateOp::Delete));
        assert_eq!(UpdateOp::from_byte(9), None);
    }
}
