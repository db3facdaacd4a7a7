//! A Redis-like in-process key-value store.
//!
//! DataBlinder deploys "an instance of Redis in a semi-persistent
//! durability mode" on both the gateway and the cloud side, using its
//! "persistent sets, maps, and so on, to build custom indexes" (§4.3).
//! This crate reproduces that substrate: string keys with string, hash,
//! set and counter values, thread-safe, with an optional append-only log
//! for the paper's *semi-durable* mode.
//!
//! # Examples
//!
//! ```
//! use datablinder_kvstore::KvStore;
//!
//! let kv = KvStore::new();
//! kv.set(b"greeting", b"hello");
//! assert_eq!(kv.get(b"greeting"), Some(b"hello".to_vec()));
//! kv.hset(b"index", b"word", b"posting");
//! assert_eq!(kv.hlen(b"index"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
mod log;
mod store;

pub use log::{read_frames, scan_frames, AppendLog, FrameScan, FrameWriter, LogRecord};
pub use store::{ExportedSlot, KvStore};

/// Errors produced by the KV store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The key exists but holds a different value kind (e.g. `get` on a hash).
    WrongType {
        /// The key holding the conflicting slot.
        key: Vec<u8>,
        /// The value kind the operation expects.
        expected: &'static str,
    },
    /// An I/O failure in the append log.
    Io(String),
    /// The append log contains a corrupt record.
    CorruptLog {
        /// Byte offset of the corrupt record.
        offset: u64,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::WrongType { key, expected } => {
                write!(f, "wrong value type at key {key:?}: operation expects {expected}")
            }
            KvError::Io(e) => write!(f, "append log i/o error: {e}"),
            KvError::CorruptLog { offset } => write!(f, "corrupt log record at offset {offset}"),
        }
    }
}

impl std::error::Error for KvError {}

/// A malformed record body sits inside a CRC-valid frame: structural
/// corruption, reported at the body's own offset 0.
impl From<datablinder_codec::Malformed> for KvError {
    fn from(_: datablinder_codec::Malformed) -> Self {
        KvError::CorruptLog { offset: 0 }
    }
}

impl From<std::io::Error> for KvError {
    fn from(e: std::io::Error) -> Self {
        KvError::Io(e.to_string())
    }
}
