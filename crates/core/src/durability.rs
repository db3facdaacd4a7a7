//! Crash consistency for the untrusted zone: a unified cloud WAL +
//! snapshot mechanism, and the restart harness that rebuilds a
//! [`CloudEngine`](crate::cloud::CloudEngine) from disk mid-workload.
//!
//! The paper deploys the resource subsystem on real stores (MongoDB, Redis
//! in "semi-persistent durability mode") that restart and recover; the
//! in-memory `CloudEngine` reproduced here previously evaporated on crash,
//! and a single document insert fans out to several tactic indexes with no
//! atomicity if the cloud dies mid-fan-out. This module closes that gap:
//!
//! * **WAL** (`wal.bin`) — every mutating route is journaled *before* it
//!   is applied, as a [`WalRecord`] carrying a monotonically increasing
//!   sequence number and the PR-1 idempotency fingerprint as its record
//!   id. Frames reuse `kvstore::log`'s CRC-checked framing, so a torn
//!   append is truncated on recovery and mid-file corruption is detected
//!   at its offset.
//! * **Snapshots** (`snapshot.bin`) — a single CRC frame holding the full
//!   KV state (as replayable `LogRecord`s), every DocStore collection
//!   (documents + secondary-index fields) and the WAL high-water sequence
//!   number. Written to a temp file and atomically renamed, then the WAL
//!   is truncated — the snapshot *compacts* the log.
//! * **Recovery** — startup restores the snapshot, replays the WAL tail
//!   (skipping records at or below the snapshot's sequence, so a crash
//!   between snapshot rename and WAL truncation never double-applies),
//!   truncates any torn tail, and resumes appending. Replaying journaled
//!   idempotency envelopes also repopulates the dedup cache, so gateway
//!   retries that bridge a crash are answered from the recorded outcome
//!   instead of re-executing.
//!
//! [`RestartableCloud`] packages the protocol as a [`CloudService`]: when
//! the active incarnation's crash injector fires, the next call rebuilds
//! the engine from disk, invisibly to the gateway beyond a retryable
//! timeout.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, TryLockError};

use datablinder_codec::{encode_frame_into, Malformed, StreamedFrame, Writer};
use datablinder_docstore::DocStore;
use datablinder_kvstore::{read_frames, ExportedSlot, FrameWriter, KvError, KvStore, LogRecord};
use datablinder_netsim::{CloudService, CrashInjector, CrashVerdict, NetError};

use crate::cloud::CloudEngine;
use crate::cloudproto::{Idempotent, IDEM_ROUTE};
use crate::error::CoreError;
use crate::wire::{decode_document_in, document_len, put_document};

/// WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.bin";
/// Snapshot file name inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Snapshot format magic + version.
const SNAP_MAGIC: &[u8] = b"DBSNAP1";

/// Path of the WAL inside `dir`.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Path of the snapshot inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

// -------------------------------------------------------------- WAL record

/// One journaled cloud mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonically increasing sequence number (1-based; the snapshot
    /// stores the high-water mark so replay can skip covered records).
    pub seq: u64,
    /// Record id: the idempotency token for [`IDEM_ROUTE`] envelopes,
    /// otherwise the first 16 bytes of the request fingerprint
    /// (SHA-256 over route and payload) — the PR-1 dedup identity.
    pub id: [u8; 16],
    /// The journaled route.
    pub route: String,
    /// The journaled payload.
    pub payload: Vec<u8>,
}

impl WalRecord {
    /// Builds a record for `(route, payload)` at sequence `seq`, deriving
    /// the record id.
    pub fn new(seq: u64, route: &str, payload: &[u8]) -> Self {
        WalRecord { seq, id: record_id(route, payload), route: route.to_string(), payload: payload.to_vec() }
    }

    /// Serializes the record body (frame-less; the WAL wraps it in a CRC
    /// frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.seq).bytes(&self.id).str(&self.route).bytes(&self.payload);
        w.finish()
    }

    /// Deserializes a record body.
    ///
    /// # Errors
    ///
    /// [`CoreError::Storage`] on malformed bodies — inside a CRC-valid
    /// frame that is corruption, not truncation.
    pub fn decode(body: &[u8]) -> Result<Self, CoreError> {
        datablinder_codec::decode(body, |r| {
            Ok(WalRecord { seq: r.u64()?, id: r.array()?, route: r.str()?.into(), payload: r.bytes()?.to_vec() })
        })
        .map_err(|e: Malformed| CoreError::Storage(format!("wal record: {e}")))
    }
}

/// The id a record of `(route, payload)` carries ([`WalRecord::id`]).
fn record_id(route: &str, payload: &[u8]) -> [u8; 16] {
    match route {
        IDEM_ROUTE => Idempotent::parts(payload).map_or_else(|_| fingerprint_id(route, payload), |(token, _, _)| token),
        _ => fingerprint_id(route, payload),
    }
}

/// Appends to `out` the frame of the record `(seq, id, route, payload)`:
/// the bytes `encode_frame(&[&record.encode()])` gives, with route and
/// payload copied once and no record built.
fn frame_record(out: &mut Vec<u8>, seq: u64, id: &[u8; 16], route: &str, payload: &[u8]) {
    let len = |bytes: &[u8]| (bytes.len() as u32).to_be_bytes();
    encode_frame_into(
        out,
        &[&seq.to_be_bytes(), &len(id), id, &len(route.as_bytes()), route.as_bytes(), &len(payload), payload],
    );
}

fn fingerprint_id(route: &str, payload: &[u8]) -> [u8; 16] {
    let mut h = datablinder_primitives::sha256::Sha256::new();
    h.update(&(route.len() as u32).to_be_bytes());
    h.update(route.as_bytes());
    h.update(payload);
    h.finalize()[..16].try_into().unwrap()
}

// ------------------------------------------------------------- options

/// Tuning knobs for [`CloudEngine::open_durable_with`].
#[derive(Clone, Default)]
pub struct DurabilityOptions {
    /// Auto-snapshot after this many journaled records (`None` = only on
    /// explicit [`CloudEngine::snapshot_now`] calls).
    pub snapshot_every: Option<u64>,
    /// Deterministic crash injection for the write path (tests). The
    /// injector is consulted on every WAL append; once it fires, the
    /// engine answers every call with [`NetError::Timeout`] until a
    /// restart harness rebuilds it from disk.
    pub crash: Option<Arc<CrashInjector>>,
}

// ----------------------------------------------------------- WAL machinery

/// Sequence assignment + the pending group-commit buffer. Held only for
/// short enqueue/drain critical sections — never across disk I/O.
struct WalQueue {
    /// Encoded frames awaiting the next group flush.
    pending: Vec<u8>,
    /// Last assigned sequence number.
    seq: u64,
    /// Records journaled since the last snapshot.
    since_snapshot: u64,
}

impl WalQueue {
    /// Takes every queued frame, with the sequence number of the last one
    /// assigned: what [`Durability::drain`] appends.
    fn take(&mut self) -> (Vec<u8>, u64) {
        (std::mem::take(&mut self.pending), self.seq)
    }
}

/// The journal + snapshot state attached to a durable [`CloudEngine`].
///
/// # Group commit
///
/// The WAL keeps a single serialized append point (`io`), but concurrent
/// writers no longer serialize on the disk flush itself: each `journal`
/// call enqueues its encoded frame under the short `queue` lock, then
/// whoever wins `io.try_lock()` becomes the *leader* and flushes the whole
/// pending buffer in one write — absorbing every record enqueued while the
/// previous flush was in flight. Followers spin on `durable_seq` until the
/// leader publishes their record as durable (no condvar: flushes on this
/// path are microseconds, and the spin yields the thread each miss).
/// Lock order where both are held: `io` → `queue` (enqueueing takes only
/// `queue`).
///
/// There is one write path. A crash injector judges each frame as it is
/// enqueued, and [`Durability::drain`] is the only code that appends, so a
/// crash storm exercises the group commit the product runs.
pub(crate) struct Durability {
    dir: PathBuf,
    snapshot_every: Option<u64>,
    injector: Option<Arc<CrashInjector>>,
    queue: Mutex<WalQueue>,
    io: Mutex<FrameWriter>,
    /// Highest sequence number known flushed to disk.
    durable_seq: AtomicU64,
    /// Group flushes performed (each covering ≥ 1 record).
    group_commits: AtomicU64,
    /// Set when an append failed; every later drain fails instead of
    /// publishing a sequence whose bytes never reached disk.
    io_failed: std::sync::atomic::AtomicBool,
}

/// What [`Durability::journal`] concluded about one write.
pub(crate) enum JournalOutcome {
    /// The record is durable; apply it.
    Written,
    /// The crash point fired at this write; the machine is down and the
    /// mutation must NOT be applied (whether the frame reached disk in
    /// full, in part, or not at all).
    Died,
}

impl Durability {
    pub(crate) fn attach(
        dir: &Path,
        seq: u64,
        since_snapshot: u64,
        snapshot_every: Option<u64>,
        injector: Option<Arc<CrashInjector>>,
    ) -> Result<Self, CoreError> {
        // Every drain appends through `append_raw`, which flushes: a frame
        // buffered in userspace at crash time would break the acknowledged
        // = durable invariant the recovery protocol relies on.
        let writer = FrameWriter::open(&wal_path(dir))?;
        Ok(Durability {
            dir: dir.to_path_buf(),
            snapshot_every,
            injector,
            queue: Mutex::new(WalQueue { pending: Vec::new(), seq, since_snapshot }),
            io: Mutex::new(writer),
            durable_seq: AtomicU64::new(seq),
            group_commits: AtomicU64::new(0),
            io_failed: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Whether the crash injector has fired (the simulated machine is down).
    pub(crate) fn crashed(&self) -> bool {
        self.injector.as_ref().is_some_and(|i| i.crashed())
    }

    /// Journals one mutation ahead of its application. Returns only after
    /// the record, and every record enqueued before it, is flushed to disk.
    ///
    /// An armed crash injector judges the frame under the queue lock, so in
    /// sequence order: `Proceed` keeps it, `Refuse` drops it, `Torn(n)`
    /// keeps its first `n` bytes and `DieAfterAppend` keeps it whole. A
    /// dying writer drains what is queued, torn prefix last, so the disk
    /// holds what a per-record append would have left at that point.
    pub(crate) fn journal(&self, route: &str, payload: &[u8]) -> Result<JournalOutcome, CoreError> {
        let id = record_id(route, payload);
        let (seq, died) = {
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            let (seq, start) = (q.seq + 1, q.pending.len());
            frame_record(&mut q.pending, seq, &id, route, payload);
            let verdict =
                self.injector.as_ref().map_or(CrashVerdict::Proceed, |inj| inj.on_append(q.pending.len() - start));
            match verdict {
                CrashVerdict::Proceed => {
                    q.seq = seq;
                    q.since_snapshot += 1;
                }
                CrashVerdict::Refuse => q.pending.truncate(start),
                CrashVerdict::Torn(n) => q.pending.truncate(start + n),
                CrashVerdict::DieAfterAppend => {}
            }
            (seq, verdict != CrashVerdict::Proceed)
        };
        if died {
            // What reached the queue reaches disk; the mutation is not
            // applied, and recovery truncates a torn frame or rolls a whole
            // one forward.
            let mut io = self.io.lock().unwrap_or_else(PoisonError::into_inner);
            let queued = self.queue.lock().unwrap_or_else(PoisonError::into_inner).take();
            self.drain(&mut io, queued)?;
            return Ok(JournalOutcome::Died);
        }
        self.commit_until(seq)?;
        Ok(JournalOutcome::Written)
    }

    /// Waits until every record up to `seq` is durable, flushing pending
    /// batches whenever this thread wins the io lock.
    fn commit_until(&self, seq: u64) -> Result<(), CoreError> {
        while self.durable_seq.load(Ordering::Acquire) < seq {
            let mut io = match self.io.try_lock() {
                Ok(io) => io,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    // A leader is flushing; its release publishes durable_seq.
                    std::thread::yield_now();
                    continue;
                }
            };
            // The queue lock is released before the disk write.
            let queued = self.queue.lock().unwrap_or_else(PoisonError::into_inner).take();
            self.drain(&mut io, queued)?;
        }
        Ok(())
    }

    /// Appends `batch`, every frame queued up to sequence `high`, and
    /// publishes `high` as durable: the one place queued bytes reach the
    /// WAL. A failed append latches `io_failed`, after which every drain
    /// fails and `durable_seq` never moves again, so no record is
    /// acknowledged over bytes that were dropped and no frame lands after a
    /// partial one.
    fn drain(&self, io: &mut FrameWriter, (batch, high): (Vec<u8>, u64)) -> Result<(), CoreError> {
        if self.io_failed.load(Ordering::Acquire) {
            return Err(CoreError::Storage("wal: an earlier append failed".into()));
        }
        if !batch.is_empty() {
            if let Err(e) = io.append_raw(&batch) {
                self.io_failed.store(true, Ordering::Release);
                return Err(e.into());
            }
            self.group_commits.fetch_add(1, Ordering::Relaxed);
        }
        self.durable_seq.fetch_max(high, Ordering::AcqRel);
        Ok(())
    }

    /// Whether the auto-snapshot cadence is due.
    pub(crate) fn snapshot_due(&self) -> bool {
        match self.snapshot_every {
            Some(n) => self.queue.lock().unwrap_or_else(PoisonError::into_inner).since_snapshot >= n,
            None => false,
        }
    }

    /// Writes a snapshot of `(kv, docs)` and compacts the WAL. Both locks
    /// are held throughout, so no record can slip between the capture and
    /// the truncation.
    pub(crate) fn snapshot(&self, kv: &KvStore, docs: &DocStore) -> Result<(), CoreError> {
        let mut io = self.io.lock().unwrap_or_else(PoisonError::into_inner);
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        self.drain(&mut io, q.take())?;
        let tmp = self.dir.join("snapshot.tmp");
        write_snapshot(&tmp, kv, docs, q.seq).map_err(KvError::from)?;
        // Atomic cutover: a crash before the rename leaves the old
        // snapshot + full WAL; after it, the new snapshot's high-water seq
        // makes any not-yet-truncated WAL prefix a no-op on replay.
        std::fs::rename(&tmp, snapshot_path(&self.dir)).map_err(KvError::from)?;
        let wal = std::fs::OpenOptions::new().write(true).open(wal_path(&self.dir)).map_err(KvError::from)?;
        wal.set_len(0).map_err(KvError::from)?;
        q.since_snapshot = 0;
        Ok(())
    }

    pub(crate) fn seq(&self) -> u64 {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).seq
    }

    pub(crate) fn since_snapshot(&self) -> u64 {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).since_snapshot
    }

    /// Group flushes performed so far (each covering one or more records).
    pub(crate) fn group_commits(&self) -> u64 {
        self.group_commits.load(Ordering::Relaxed)
    }

    /// Every record in the WAL, in order — what a donor ships to a
    /// rejoining peer. Pending group-commit bytes are flushed first, so the
    /// tail reflects every record this node has acknowledged.
    pub(crate) fn wal_tail(&self) -> Result<Vec<WalRecord>, CoreError> {
        let mut io = self.io.lock().unwrap_or_else(PoisonError::into_inner);
        let queued = self.queue.lock().unwrap_or_else(PoisonError::into_inner).take();
        self.drain(&mut io, queued)?;
        // Still under the io lock: no append or compaction can interleave
        // with the file read below.
        let scan = read_frames(&wal_path(&self.dir))?;
        scan.frames().map(WalRecord::decode).collect()
    }
}

// ------------------------------------------------------------- snapshots

/// Writes the full cloud state to `path` as one CRC frame, streamed: the
/// body goes to the file as it is encoded, its CRC and length running, so
/// no copy of the state is built. The KV section is the store's own
/// replayable records; the document section holds, per collection in name
/// order, the name, the indexed fields and the documents in id order.
fn write_snapshot(path: &Path, kv: &KvStore, docs: &DocStore, seq: u64) -> std::io::Result<()> {
    let mut out = BufWriter::with_capacity(1 << 16, StreamedFrame::begin(std::fs::File::create(path)?)?);
    write_state(&mut out, kv, docs, seq)?;
    out.into_inner().map_err(std::io::IntoInnerError::into_error)?.finish()?;
    Ok(())
}

/// The snapshot body: the bytes [`apply_snapshot`] reads. Each piece is
/// encoded into one reused buffer and written out; every length prefix is
/// worked out before what it counts, a collection's from its documents'
/// lengths.
fn write_state(out: &mut impl Write, kv: &KvStore, docs: &DocStore, seq: u64) -> std::io::Result<()> {
    let len = |n: usize| (n as u32).to_be_bytes();
    let mut w = Writer::new();
    w.bytes(SNAP_MAGIC).u64(seq);
    out.write_all(w.as_slice())?;
    let mut scratch = Vec::new();
    kv.export(|slots| {
        out.write_all(&len(slots.iter().map(ExportedSlot::records).sum()))?;
        for slot in slots {
            slot.bodies(&mut scratch, |body| {
                out.write_all(&len(body.len()))?;
                out.write_all(body)
            })?;
        }
        Ok::<_, std::io::Error>(())
    })?;
    let mut collections = docs.collection_names();
    collections.sort();
    out.write_all(&len(collections.len()))?;
    for name in &collections {
        docs.collection(name).in_id_order(|fields, stored| {
            let head = 4 + name.len() + 4 + fields.iter().map(|f| 4 + f.len()).sum::<usize>() + 4;
            let blob = head + stored.iter().map(|doc| 4 + document_len(doc)).sum::<usize>();
            w.clear();
            w.u32(blob as u32).str(name).list(fields).u32(stored.len() as u32);
            out.write_all(w.as_slice())?;
            for doc in stored {
                w.clear();
                w.u32(document_len(doc) as u32);
                put_document(doc, &mut w);
                debug_assert_eq!(w.as_slice().len(), 4 + document_len(doc));
                out.write_all(w.as_slice())?;
            }
            Ok::<_, std::io::Error>(())
        })?;
    }
    Ok(())
}

/// A malformed snapshot body sits inside a CRC-valid frame: that is storage
/// corruption, not a wire error.
fn snapshot_error(e: CoreError) -> CoreError {
    match e {
        CoreError::Wire(what) => CoreError::Storage(format!("snapshot: malformed {what}")),
        other => other,
    }
}

/// Restores a snapshot body into `(kv, docs)`; returns the snapshot's
/// high-water sequence number.
fn apply_snapshot(kv: &KvStore, docs: &DocStore, body: &[u8]) -> Result<u64, CoreError> {
    datablinder_codec::decode(body, |r| {
        if r.bytes()? != SNAP_MAGIC {
            return Err(CoreError::Storage("snapshot: bad magic".into()));
        }
        let seq = r.u64()?;
        for rec_body in r.list()? {
            kv.apply_record(&LogRecord::from_body(rec_body)?);
        }
        for blob in r.list()? {
            datablinder_codec::decode(blob, |cr| {
                let coll = docs.collection(cr.str()?);
                for field in cr.list()? {
                    coll.create_index(std::str::from_utf8(field).map_err(|_| Malformed("index field utf8"))?);
                }
                let stored = cr.list()?;
                coll.reserve(stored.len());
                for doc in stored {
                    coll.insert(coll.names(|names| decode_document_in(doc, names))?)?;
                }
                Ok::<_, CoreError>(())
            })?;
        }
        Ok(seq)
    })
    .map_err(snapshot_error)
}

/// What recovery found on disk (returned by
/// [`CloudEngine::open_durable_with`] via [`CloudEngine::recovery_report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was restored.
    pub snapshot_restored: bool,
    /// High-water sequence number of the restored snapshot.
    pub snapshot_seq: u64,
    /// WAL tail records replayed (rolled forward) after the snapshot.
    pub replayed: u64,
    /// Whether a torn WAL tail was truncated.
    pub torn_tail: bool,
}

/// Restores `(kv, docs)` from `dir` and replays the WAL tail through
/// `apply`; truncates any torn tail; returns the recovery report and the
/// final sequence number.
pub(crate) fn recover_into(
    dir: &Path,
    kv: &KvStore,
    docs: &DocStore,
    mut apply: impl FnMut(&WalRecord),
) -> Result<(RecoveryReport, u64), CoreError> {
    let mut report = RecoveryReport::default();
    let mut high = 0u64;
    let snap = snapshot_path(dir);
    if snap.exists() {
        let scan = read_frames(&snap)?;
        let body = scan.frames().next().ok_or_else(|| CoreError::Storage("snapshot: no complete frame".into()))?;
        high = apply_snapshot(kv, docs, body)?;
        report.snapshot_restored = true;
        report.snapshot_seq = high;
    }
    let wal = wal_path(dir);
    if wal.exists() {
        let scan = read_frames(&wal)?;
        for body in scan.frames() {
            let rec = WalRecord::decode(body)?;
            if rec.seq <= high {
                continue; // covered by the snapshot (rename-before-truncate crash window)
            }
            apply(&rec);
            high = rec.seq;
            report.replayed += 1;
        }
        if scan.torn_tail {
            report.torn_tail = true;
            let f = std::fs::OpenOptions::new().write(true).open(&wal).map_err(KvError::from)?;
            f.set_len(scan.valid_len).map_err(KvError::from)?;
        }
    }
    Ok((report, high))
}

// ------------------------------------------------------- restart harness

/// A [`CloudService`] that owns a durable [`CloudEngine`] and *restarts*
/// it from disk when its crash injector fires — the simulated
/// "supervisor brings the cloud VM back up" loop. The crashing call and
/// any call racing the outage surface as retryable [`NetError::Timeout`];
/// the first call after the crash rebuilds the engine via snapshot + WAL
/// replay (without the injector — one planned crash per harness) and then
/// serves normally, so a gateway's retry policy bridges the whole outage.
pub struct RestartableCloud {
    dir: PathBuf,
    opts: DurabilityOptions,
    engine: RwLock<Option<CloudEngine>>,
    restarts: AtomicU64,
}

impl RestartableCloud {
    /// Opens (or recovers) a durable engine in `dir`, armed with
    /// `opts.crash` for its first incarnation.
    ///
    /// # Errors
    ///
    /// Propagates recovery failures.
    pub fn open(dir: &Path, opts: DurabilityOptions) -> Result<Self, CoreError> {
        let engine = CloudEngine::open_durable_with(dir, opts.clone())?;
        Ok(RestartableCloud {
            dir: dir.to_path_buf(),
            opts,
            engine: RwLock::new(Some(engine)),
            restarts: AtomicU64::new(0),
        })
    }

    /// Number of times the engine was rebuilt from disk.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Runs `f` against the live engine (`None` while the cloud is down
    /// and not yet rebuilt).
    pub fn with_engine<R>(&self, f: impl FnOnce(&CloudEngine) -> R) -> Option<R> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner).as_ref().map(f)
    }
}

impl CloudService for RestartableCloud {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        {
            let guard = self.engine.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(engine) = guard.as_ref() {
                if !engine.crashed() {
                    return engine.handle(route, payload);
                }
            }
        }
        let mut guard = self.engine.write().unwrap_or_else(PoisonError::into_inner);
        let dead = match guard.as_ref() {
            None => true,
            Some(engine) => engine.crashed(),
        };
        if dead {
            // Drop the dead incarnation first so its WAL handle is closed
            // before the new one re-reads and truncates the file.
            *guard = None;
            let mut opts = self.opts.clone();
            opts.crash = None;
            match CloudEngine::open_durable_with(&self.dir, opts) {
                Ok(engine) => {
                    *guard = Some(engine);
                    self.restarts.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => return Err(CoreError::Storage(format!("cloud recovery failed: {e}")).into()),
            }
        }
        guard.as_ref().expect("engine rebuilt above").handle(route, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablinder_codec::encode_frame;

    #[test]
    fn wal_record_roundtrip_and_fingerprint_id() {
        let rec = WalRecord::new(7, "doc/insert", b"payload");
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
        // Same request, same id; different request, different id.
        assert_eq!(rec.id, WalRecord::new(9, "doc/insert", b"payload").id);
        assert_ne!(rec.id, WalRecord::new(7, "doc/insert", b"other").id);
    }

    #[test]
    fn wal_record_id_is_idem_token_for_envelopes() {
        let env = Idempotent { token: [0xAB; 16], route: "doc/insert".into(), payload: vec![1, 2, 3] };
        let rec = WalRecord::new(1, IDEM_ROUTE, &env.encode());
        assert_eq!(rec.id, [0xAB; 16]);
    }

    #[test]
    fn a_journaled_frame_is_the_framed_record() {
        let env = Idempotent { token: [0xCD; 16], route: "batch".into(), payload: vec![7; 300] }.encode();
        for (route, payload) in
            [("doc/insert", &b"payload"[..]), (IDEM_ROUTE, &env[..]), (IDEM_ROUTE, &b"not an envelope"[..])]
        {
            let mut pending = vec![0xEE];
            frame_record(&mut pending, 42, &record_id(route, payload), route, payload);
            let record = WalRecord::new(42, route, payload);
            assert_eq!(pending[1..], encode_frame(&[&record.encode()]), "{route}");
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("datablinder-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A WAL whose file refuses every write (`/dev/full`), with record 1
    /// queued and not yet drained.
    fn queued_on_a_full_disk(name: &str) -> (PathBuf, Durability) {
        let dir = temp_dir(name);
        let mut d = Durability::attach(&dir, 0, 0, None, None).unwrap();
        d.io = Mutex::new(FrameWriter::open(Path::new("/dev/full")).unwrap());
        let mut q = d.queue.lock().unwrap();
        frame_record(&mut q.pending, 1, &record_id("doc/delete", b"d0"), "doc/delete", b"d0");
        q.seq = 1;
        drop(q);
        (dir, d)
    }

    #[test]
    fn a_snapshot_that_fails_to_drain_acknowledges_nothing() {
        let (dir, d) = queued_on_a_full_disk("full-snapshot");
        assert!(d.snapshot(&KvStore::new(), &DocStore::new()).is_err());
        assert!(d.commit_until(1).is_err(), "record 1 never reached disk");
        assert_eq!(d.durable_seq.load(Ordering::Acquire), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wal_tail_that_fails_to_drain_acknowledges_nothing() {
        let (dir, d) = queued_on_a_full_disk("full-tail");
        assert!(d.wal_tail().is_err());
        assert!(d.commit_until(1).is_err(), "record 1 never reached disk");
        assert_eq!(d.durable_seq.load(Ordering::Acquire), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An armed engine journals through the group commit an unarmed one
    /// runs, and writes the same bytes. Each crash point leaves on disk
    /// what a per-record append would have: the frames before it, plus
    /// the torn prefix or the whole never-applied frame.
    #[test]
    fn crash_points_judge_the_group_commit() {
        use datablinder_netsim::{CrashPlan, CrashPoint};
        let dir = temp_dir("armed");
        let run = |name: &str, point: Option<CrashPoint>| {
            let at = dir.join(name);
            let crash = point.map(|point| Arc::new(CrashInjector::new(CrashPlan::at(point))));
            let engine =
                CloudEngine::open_durable_with(&at, DurabilityOptions { snapshot_every: None, crash }).unwrap();
            for i in 0..6 {
                let doc = datablinder_docstore::Document::new(format!("d{i}"));
                let insert = crate::cloud::with_collection("obs", &crate::wire::encode_document(&doc));
                if engine.handle("doc/insert", &insert).is_err() {
                    break;
                }
            }
            let commits = engine.wal_group_commits();
            drop(engine);
            (std::fs::read(wal_path(&at)).unwrap(), commits)
        };
        let (unarmed, _) = run("unarmed", None);
        let (armed, commits) = run("never", Some(CrashPoint::BeforeAppend(u64::MAX)));
        assert!(commits > 0, "the armed engine ran group commit");
        assert_eq!(armed, unarmed);

        // Frame k of the unarmed WAL spans bounds[k]..bounds[k + 1].
        let scan = read_frames(&wal_path(&dir.join("unarmed"))).unwrap();
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(scan.frames().scan(0, |end, body| {
                *end += 8 + body.len();
                Some(*end)
            }))
            .collect();
        for (name, point, kept) in [
            ("before", CrashPoint::BeforeAppend(2), bounds[2]),
            ("torn", CrashPoint::MidAppend { record: 3, byte: 9 }, bounds[3] + 9),
            ("after", CrashPoint::AfterAppend(1), bounds[2]),
        ] {
            let (wal, _) = run(name, Some(point));
            assert_eq!(wal, unarmed[..kept], "{point:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_roundtrip_restores_kv_and_docs() {
        use datablinder_docstore::{Document, Value};
        let kv = KvStore::new();
        kv.set(b"k", b"v");
        kv.hset(b"h", b"f", b"x").unwrap();
        kv.sadd(b"s", b"m").unwrap();
        kv.incr_by(b"c", 9).unwrap();
        let docs = DocStore::new();
        let coll = docs.collection("obs");
        coll.create_index("status__det");
        coll.insert(Document::new("a1").with("status__det", Value::from("final"))).unwrap();

        let body = encode_state(&kv, &docs, 42);
        let (kv2, docs2) = (KvStore::new(), DocStore::new());
        let seq = apply_snapshot(&kv2, &docs2, &body).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(kv2.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(kv2.hget(b"h", b"f"), Some(b"x".to_vec()));
        assert!(kv2.sismember(b"s", b"m"));
        assert_eq!(kv2.counter(b"c"), 9);
        let coll2 = docs2.collection("obs");
        assert_eq!(coll2.len(), 1);
        coll2.in_id_order(|fields, _| assert_eq!(fields, ["status__det"]));
        assert!(coll2.contains("a1"));
        // Determinism: equal state encodes byte-identically.
        assert_eq!(body, encode_state(&kv2, &docs2, 42));
    }

    fn encode_state(kv: &KvStore, docs: &DocStore, seq: u64) -> Vec<u8> {
        let mut body = Vec::new();
        write_state(&mut body, kv, docs, seq).unwrap();
        body
    }

    /// A snapshot that is torn, has a flipped body byte or announces a
    /// wrong length is refused as storage corruption, and nothing of it or
    /// of the WAL behind it reaches the stores.
    #[test]
    fn a_damaged_snapshot_is_refused_before_anything_is_applied() {
        use datablinder_docstore::{Document, Value};
        let dir = std::env::temp_dir().join(format!("datablinder-damaged-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (kv, docs) = (KvStore::new(), DocStore::new());
        kv.hset(b"h", b"f", b"v").unwrap();
        let coll = docs.collection("obs");
        coll.create_index("s");
        for i in 0..50 {
            coll.insert(Document::new(format!("d{i:02}")).with("s", Value::from(i))).unwrap();
        }
        write_snapshot(&snapshot_path(&dir), &kv, &docs, 7).unwrap();
        let whole = std::fs::read(snapshot_path(&dir)).unwrap();
        assert_eq!(whole, encode_frame(&[&encode_state(&kv, &docs, 7)]), "the streamed frame");
        let wal = WalRecord::new(8, "doc/delete", &crate::cloud::with_collection("obs", b"d00"));
        std::fs::write(wal_path(&dir), encode_frame(&[&wal.encode()])).unwrap();

        let body = whole.len() - 8;
        let with_len = |len: usize| [&(len as u32).to_be_bytes()[..], &whole[4..]].concat();
        let mut flipped = whole.clone();
        flipped[4 + body / 2] ^= 0x10;
        for (what, file) in [
            ("torn", whole[..whole.len() - 1].to_vec()),
            ("flipped body byte", flipped),
            ("length too long", with_len(body + 1)),
            ("length too short", with_len(body - 1)),
        ] {
            std::fs::write(snapshot_path(&dir), &file).unwrap();
            let (kv2, docs2) = (KvStore::new(), DocStore::new());
            let refused = recover_into(&dir, &kv2, &docs2, |rec| panic!("{what}: WAL record {} applied", rec.seq));
            assert!(matches!(refused, Err(CoreError::Storage(_))), "{what}: {refused:?}");
            assert!(kv2.is_empty() && docs2.collection_names().is_empty(), "{what}: state was applied");
            let opened = CloudEngine::open_durable(&dir);
            assert!(matches!(opened, Err(CoreError::Storage(_))), "{what}: the engine opened");
        }
        // Whole again, it restores, and the WAL rolls forward over it.
        std::fs::write(snapshot_path(&dir), &whole).unwrap();
        let engine = CloudEngine::open_durable(&dir).unwrap();
        assert_eq!((engine.recovery_report().snapshot_seq, engine.recovery_report().replayed), (7, 1));
        assert_eq!(engine.docs().collection("obs").len(), 49);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let (kv, docs) = (KvStore::new(), DocStore::new());
        assert!(apply_snapshot(&kv, &docs, b"not a snapshot").is_err());
        let mut w = Writer::new();
        w.bytes(b"WRONGMAG");
        assert!(apply_snapshot(&kv, &docs, &w.finish()).is_err());
    }
}
