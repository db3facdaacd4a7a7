//! Append-only log for the paper's "semi-persistent durability mode".
//!
//! Every record travels in the workspace's one CRC frame
//! ([`datablinder_codec::encode_frame`]), `len ‖ body ‖ crc32(body)`.
//! The body of a KV record is `tag:u8 || nfields:u8 || (len:u32 || bytes)*`.
//! On replay, an *incomplete* trailing frame is a torn tail (the crash
//! window of a buffered append) and is truncated away; a *complete* frame
//! whose CRC does not match is corruption and is reported at its byte
//! offset. The frame layer is generic over opaque bodies, so the cloud
//! WAL (`datablinder-core::durability`) reuses it for its own records and
//! snapshots.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use datablinder_codec::{encode_frame, split_frame, Split, Writer};

use crate::KvError;

// ------------------------------------------------------------- frame layer

/// Outcome of scanning a frame file.
#[derive(Debug)]
pub struct FrameScan {
    /// Bodies of every complete, CRC-valid frame, in file order.
    pub frames: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (end of the last complete frame).
    pub valid_len: u64,
    /// Whether bytes past `valid_len` were dropped as a torn tail.
    pub torn_tail: bool,
}

/// Reads every complete frame from `path`.
///
/// An incomplete trailing frame is reported as a torn tail (callers
/// typically truncate to `valid_len` before appending again). A complete
/// frame with a CRC mismatch is *corruption*, not truncation.
///
/// # Errors
///
/// Propagates I/O errors; [`KvError::CorruptLog`] at the offending
/// frame's offset on CRC mismatch.
pub fn read_frames(path: &Path) -> Result<FrameScan, KvError> {
    let mut file = File::open(path)?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw)?;
    scan_frames(&raw)
}

/// [`read_frames`] over an in-memory buffer.
///
/// # Errors
///
/// [`KvError::CorruptLog`] at the offending frame's offset on CRC mismatch.
pub fn scan_frames(raw: &[u8]) -> Result<FrameScan, KvError> {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    loop {
        match split_frame(&raw[offset..], 0..=u32::MAX) {
            Split::Frame { covered, total } => {
                frames.push(covered.to_vec());
                offset += total;
            }
            // Torn tail: frame announced but not fully on disk.
            Split::NeedMore => break,
            Split::BadCrc | Split::BadLength(_) => return Err(KvError::CorruptLog { offset: offset as u64 }),
        }
    }
    Ok(FrameScan { frames, valid_len: offset as u64, torn_tail: offset < raw.len() })
}

/// A buffered appender of CRC-checked frames.
pub struct FrameWriter {
    writer: BufWriter<File>,
    appended: u64,
    flush_every: u64,
}

impl FrameWriter {
    /// Opens (creating if needed) `path` for appending frames.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path) -> Result<Self, KvError> {
        Self::with_flush_every(path, 256)
    }

    /// [`FrameWriter::open`] with an explicit buffered-flush interval
    /// (`0` flushes every append).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn with_flush_every(path: &Path, flush_every: u64) -> Result<Self, KvError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FrameWriter { writer: BufWriter::new(file), appended: 0, flush_every })
    }

    /// Appends one framed body; returns the frame's on-disk length.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append(&mut self, body: &[u8]) -> Result<u64, KvError> {
        let frame = encode_frame(&[body]);
        self.writer.write_all(&frame)?;
        self.appended += 1;
        if self.flush_every == 0 || self.appended.is_multiple_of(self.flush_every.max(1)) {
            self.writer.flush()?;
        }
        Ok(frame.len() as u64)
    }

    /// Writes `raw` bytes verbatim and flushes — the crash injector uses
    /// this to leave a deliberately torn frame prefix on disk.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_raw(&mut self, raw: &[u8]) -> Result<(), KvError> {
        self.writer.write_all(raw)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Forces buffered frames to the OS.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn flush(&mut self) -> Result<(), KvError> {
        self.writer.flush()?;
        Ok(())
    }
}

impl Drop for FrameWriter {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

// ----------------------------------------------------------- KV record log

/// A single logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// String set.
    Set {
        /// Slot key.
        key: Vec<u8>,
        /// New value.
        value: Vec<u8>,
    },
    /// Slot delete.
    Del {
        /// Slot key.
        key: Vec<u8>,
    },
    /// Hash field set.
    HSet {
        /// Hash key.
        key: Vec<u8>,
        /// Field within the hash.
        field: Vec<u8>,
        /// New value.
        value: Vec<u8>,
    },
    /// Hash field delete.
    HDel {
        /// Hash key.
        key: Vec<u8>,
        /// Field within the hash.
        field: Vec<u8>,
    },
    /// Set member add.
    SAdd {
        /// Set key.
        key: Vec<u8>,
        /// Member added.
        member: Vec<u8>,
    },
    /// Set member remove.
    SRem {
        /// Set key.
        key: Vec<u8>,
        /// Member removed.
        member: Vec<u8>,
    },
    /// Counter increment.
    Incr {
        /// Counter key.
        key: Vec<u8>,
        /// Signed delta.
        by: i64,
    },
}

impl LogRecord {
    fn tag(&self) -> u8 {
        match self {
            LogRecord::Set { .. } => 1,
            LogRecord::Del { .. } => 2,
            LogRecord::HSet { .. } => 3,
            LogRecord::HDel { .. } => 4,
            LogRecord::SAdd { .. } => 5,
            LogRecord::SRem { .. } => 6,
            LogRecord::Incr { .. } => 7,
        }
    }

    fn fields(&self) -> Vec<&[u8]> {
        match self {
            LogRecord::Set { key, value } => vec![key, value],
            LogRecord::Del { key } => vec![key],
            LogRecord::HSet { key, field, value } => vec![key, field, value],
            LogRecord::HDel { key, field } => vec![key, field],
            LogRecord::SAdd { key, member } => vec![key, member],
            LogRecord::SRem { key, member } => vec![key, member],
            LogRecord::Incr { key, .. } => vec![key],
        }
    }

    /// Encodes the record *body* (frame-less).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut fields = self.fields();
        let by;
        if let LogRecord::Incr { by: delta, .. } = self {
            by = delta.to_be_bytes();
            fields.push(&by);
        }
        let mut w = Writer::from(Vec::with_capacity(64));
        w.u8(self.tag()).u8(fields.len() as u8);
        for f in fields {
            w.bytes(f);
        }
        w.finish()
    }

    /// Decodes a record from a complete frame body.
    ///
    /// # Errors
    ///
    /// [`KvError::CorruptLog`] if the body is short, malformed, or holds
    /// trailing bytes — inside a CRC-valid frame that is structural
    /// corruption, not truncation.
    pub fn from_body(body: &[u8]) -> Result<LogRecord, KvError> {
        datablinder_codec::decode(body, |r| {
            let tag = r.u8()?;
            let fields = (0..r.u8()?).map(|_| r.bytes()).collect::<Result<Vec<_>, _>>()?;
            Ok(match (tag, fields.as_slice()) {
                (1, [key, value]) => LogRecord::Set { key: key.to_vec(), value: value.to_vec() },
                (2, [key]) => LogRecord::Del { key: key.to_vec() },
                (3, [key, field, value]) => {
                    LogRecord::HSet { key: key.to_vec(), field: field.to_vec(), value: value.to_vec() }
                }
                (4, [key, field]) => LogRecord::HDel { key: key.to_vec(), field: field.to_vec() },
                (5, [key, member]) => LogRecord::SAdd { key: key.to_vec(), member: member.to_vec() },
                (6, [key, member]) => LogRecord::SRem { key: key.to_vec(), member: member.to_vec() },
                (7, [key, by]) => {
                    let by = (*by).try_into().map_err(|_| KvError::CorruptLog { offset: 0 })?;
                    LogRecord::Incr { key: key.to_vec(), by: i64::from_be_bytes(by) }
                }
                _ => return Err(KvError::CorruptLog { offset: 0 }),
            })
        })
    }
}

/// A buffered append-only KV record log over CRC frames.
pub struct AppendLog {
    frames: FrameWriter,
}

impl AppendLog {
    /// Opens (creating if needed) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path) -> Result<Self, KvError> {
        Ok(AppendLog { frames: FrameWriter::open(path)? })
    }

    /// Appends one record (buffered; flushed every 256 records —
    /// the "semi" in semi-durable).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append(&mut self, rec: &LogRecord) -> Result<(), KvError> {
        self.frames.append(&rec.to_bytes())?;
        Ok(())
    }

    /// Forces buffered records to the OS.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn flush(&mut self) -> Result<(), KvError> {
        self.frames.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvStore;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("datablinder-kvlog-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn encode_decode_roundtrip() {
        let records = vec![
            LogRecord::Set { key: b"k".to_vec(), value: b"v".to_vec() },
            LogRecord::Del { key: b"k".to_vec() },
            LogRecord::HSet { key: b"h".to_vec(), field: b"f".to_vec(), value: b"v".to_vec() },
            LogRecord::HDel { key: b"h".to_vec(), field: b"f".to_vec() },
            LogRecord::SAdd { key: b"s".to_vec(), member: b"m".to_vec() },
            LogRecord::SRem { key: b"s".to_vec(), member: b"m".to_vec() },
            LogRecord::Incr { key: b"c".to_vec(), by: -42 },
        ];
        for r in &records {
            assert_eq!(&LogRecord::from_body(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn partial_record_and_unknown_tag_are_corrupt() {
        let body = LogRecord::Set { key: b"key".to_vec(), value: b"value".to_vec() }.to_bytes();
        for cut in 0..body.len() {
            assert!(matches!(LogRecord::from_body(&body[..cut]), Err(KvError::CorruptLog { .. })), "cut at {cut}");
        }
        assert!(matches!(LogRecord::from_body(&[99, 0]), Err(KvError::CorruptLog { .. })));
    }

    /// Flipping any byte of a mid-file record — its frame length (low
    /// byte), tag, field count, a field length, field bytes, or the CRC
    /// itself — is detected as corruption at that frame's offset, not
    /// silently absorbed or mistaken for a torn tail.
    #[test]
    fn byte_flip_in_each_field_detected() {
        let first = LogRecord::HSet { key: b"hash-key".to_vec(), field: b"field".to_vec(), value: b"value".to_vec() };
        // A long second record so a ±255 perturbation of the first frame's
        // low length byte still lands inside the file.
        let second = LogRecord::Set { key: b"pad".to_vec(), value: vec![0x5A; 400] };
        let mut file = encode_frame(&[&first.to_bytes()]);
        let first_len = file.len();
        file.extend_from_slice(&encode_frame(&[&second.to_bytes()]));

        // Byte 3 is the low byte of the length header; 4.. is the body
        // (tag, nfields, field lengths, field bytes); the last 4 are the CRC.
        let positions: Vec<usize> = (3..first_len).collect();
        for pos in positions {
            let mut tampered = file.clone();
            tampered[pos] ^= 0xA5;
            let outcome = scan_frames(&tampered);
            match outcome {
                Err(KvError::CorruptLog { offset }) => {
                    assert_eq!(offset, 0, "flip at byte {pos} blamed the wrong frame");
                }
                other => panic!("flip at byte {pos} went undetected: {other:?}"),
            }
        }
        // Untampered file still scans clean.
        let scan = scan_frames(&file).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert!(!scan.torn_tail);
    }

    #[test]
    fn semi_durable_recovery() {
        let path = temp_path("recovery");
        let _ = std::fs::remove_file(&path);
        {
            let kv = KvStore::open_semi_durable(&path).unwrap();
            kv.set(b"a", b"1");
            kv.hset(b"h", b"f", b"v").unwrap();
            kv.sadd(b"s", b"m").unwrap();
            kv.incr_by(b"c", 5).unwrap();
            kv.set(b"gone", b"x");
            kv.del(b"gone");
            // store drops here, flushing the log
        }
        let kv = KvStore::open_semi_durable(&path).unwrap();
        assert_eq!(kv.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(kv.hget(b"h", b"f"), Some(b"v".to_vec()));
        assert!(kv.sismember(b"s", b"m"));
        assert_eq!(kv.counter(b"c"), 5);
        assert!(!kv.exists(b"gone"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_ignored_on_replay() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let kv = KvStore::open_semi_durable(&path).unwrap();
            kv.set(b"a", b"1");
            kv.set(b"b", b"2");
        }
        // Simulate a crash mid-append: chop the last 3 bytes.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let kv = KvStore::open_semi_durable(&path).unwrap();
        assert_eq!(kv.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(kv.get(b"b"), None, "torn record must be dropped");
        std::fs::remove_file(&path).unwrap();
    }

    /// Reopening after a torn tail truncates the garbage, so the next
    /// append starts at a frame boundary instead of extending the tear.
    #[test]
    fn torn_tail_truncated_on_reopen() {
        let path = temp_path("torn-reopen");
        let _ = std::fs::remove_file(&path);
        {
            let kv = KvStore::open_semi_durable(&path).unwrap();
            kv.set(b"a", b"1");
            kv.set(b"b", b"2");
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        {
            let kv = KvStore::open_semi_durable(&path).unwrap();
            kv.set(b"c", b"3");
        }
        // A third generation sees a clean log: a + the new c, no b, no error.
        let kv = KvStore::open_semi_durable(&path).unwrap();
        assert_eq!(kv.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(kv.get(b"b"), None);
        assert_eq!(kv.get(b"c"), Some(b"3".to_vec()));
        std::fs::remove_file(&path).unwrap();
    }
}
