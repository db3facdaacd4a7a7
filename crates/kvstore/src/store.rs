//! The in-memory store engine.
//!
//! Since the shared-gateway work the keyspace is sharded N ways by key
//! hash: each shard holds its own `RwLock<BTreeMap>` so writes to
//! independent keys (different fields, different collections) proceed in
//! parallel. The append log stays a **single serialized append point**,
//! and a write appends its record while it holds its shard's write lock,
//! so each key's records reach the log in the order they reached the map.
//! Sharding changes lock granularity, not durability semantics. Prefix
//! scans and exports gather across shards and sort, so observable
//! ordering is identical to the unsharded store.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

use crate::log::{read_frames, AppendLog, LogRecord};
use crate::KvError;

/// Default number of keyspace shards. Power of two so the hash mixes
/// into the index cheaply; 16 comfortably exceeds the worker counts the
/// benchmarks drive (1/2/4/8).
pub const DEFAULT_SHARDS: usize = 16;

/// One value slot: Redis-style polymorphic values.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Str(Vec<u8>),
    Hash(HashMap<Vec<u8>, Vec<u8>>),
    Set(HashSet<Vec<u8>>),
    Counter(i64),
}

/// One keyspace shard: its own lock plus a counter of the times a lock
/// acquisition found the shard already held and had to block.
#[derive(Default)]
struct Shard {
    // BTreeMap so `keys_with_prefix` is efficient and iteration stable.
    map: RwLock<BTreeMap<Vec<u8>, Slot>>,
    contention: AtomicU64,
}

impl Shard {
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<Vec<u8>, Slot>> {
        match self.map.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.map.read().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<Vec<u8>, Slot>> {
        match self.map.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.map.write().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
}

/// A thread-safe Redis-like store.
///
/// Cloning is cheap and shares the underlying data (like handles to one
/// server).
#[derive(Clone)]
pub struct KvStore {
    inner: Arc<Inner>,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::with_shards(DEFAULT_SHARDS)
    }
}

struct Inner {
    shards: Vec<Shard>,
    /// Fixed when the store is opened: `Some` only for a semi-durable
    /// store, attached after its replay and before any handle is shared.
    log: Option<Mutex<AppendLog>>,
}

/// FNV-1a over the key bytes: deterministic across runs and platforms,
/// so the same key always lands on the same shard.
fn key_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl KvStore {
    /// Creates an empty volatile store with the default shard count.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Creates an empty volatile store with exactly `shards` keyspace
    /// shards (`shards = 1` reproduces the old single-lock store; the
    /// observable behaviour is identical either way).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        KvStore { inner: Arc::new(Inner { shards: (0..n).map(|_| Shard::default()).collect(), log: None }) }
    }

    /// Creates a store in the paper's *semi-durable* mode: every write is
    /// appended to `path`, and existing records are replayed first.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corrupt-log errors.
    pub fn open_semi_durable(path: &std::path::Path) -> Result<Self, KvError> {
        let mut store = KvStore::new();
        if path.exists() {
            let scan = read_frames(path)?;
            for body in &scan.frames {
                store.apply_record(&LogRecord::from_body(body)?);
            }
            if scan.torn_tail {
                // Drop the torn tail so the appender resumes at a frame
                // boundary instead of extending garbage.
                let file = std::fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(scan.valid_len)?;
            }
        }
        let inner = Arc::get_mut(&mut store.inner).expect("a store being opened has no other handle");
        inner.log = Some(Mutex::new(AppendLog::open(path)?));
        Ok(store)
    }

    /// Number of keyspace shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Per-shard contention counters: how many lock acquisitions on each
    /// shard found it held and had to block. Feed these into the
    /// observability recorder as `cloud.kv.shard.<i>.contention`.
    pub fn shard_contention(&self) -> Vec<u64> {
        self.inner.shards.iter().map(|s| s.contention.load(Ordering::Relaxed)).collect()
    }

    fn shard(&self, key: &[u8]) -> &Shard {
        let n = self.inner.shards.len();
        &self.inner.shards[(key_hash(key) % n as u64) as usize]
    }

    /// Appends the record `rec` builds, if the store has a log. Callers
    /// hold the written key's shard lock, so each key's records reach the
    /// log in the order they reached the map (lock order: shard, then log).
    fn log(&self, rec: impl FnOnce() -> LogRecord) {
        if let Some(log) = &self.inner.log {
            let rec = rec();
            // Semi-durable: buffered append through the single serialized
            // append point; production code would expose a flush error API.
            let _ = log.lock().unwrap_or_else(PoisonError::into_inner).append(&rec);
        }
    }

    /// Applies a log record through the matching write operation. Snapshot
    /// restore and WAL replay run it on stores without a log, and
    /// [`KvStore::open_semi_durable`] replays before it attaches its own,
    /// so an applied record is never journaled a second time.
    pub fn apply_record(&self, rec: &LogRecord) {
        match rec {
            LogRecord::Set { key, value } => self.set(key, value),
            LogRecord::Del { key } => {
                self.del(key);
            }
            LogRecord::HSet { key, field, value } => {
                let _ = self.hset(key, field, value);
            }
            LogRecord::HDel { key, field } => {
                let _ = self.hdel(key, field);
            }
            LogRecord::SAdd { key, member } => {
                let _ = self.sadd(key, member);
            }
            LogRecord::SRem { key, member } => {
                let _ = self.srem(key, member);
            }
            LogRecord::Incr { key, by } => {
                let _ = self.incr_by(key, *by);
            }
        }
    }

    /// Dumps the live state as a deterministic record sequence: replaying
    /// the sequence into an empty store reproduces this store exactly.
    /// Keys are gathered across shards and sorted; hash fields and set
    /// members are sorted, so two equal stores export byte-identical
    /// snapshots regardless of shard count.
    pub fn export_records(&self) -> Vec<LogRecord> {
        let mut slots: Vec<(Vec<u8>, Slot)> = Vec::new();
        for shard in &self.inner.shards {
            let map = shard.read();
            slots.extend(map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        slots.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::with_capacity(slots.len());
        for (key, slot) in slots {
            match slot {
                Slot::Str(v) => out.push(LogRecord::Set { key, value: v }),
                Slot::Hash(h) => {
                    let mut fields: Vec<_> = h.into_iter().collect();
                    fields.sort();
                    for (f, v) in fields {
                        out.push(LogRecord::HSet { key: key.clone(), field: f, value: v });
                    }
                }
                Slot::Set(s) => {
                    let mut members: Vec<_> = s.into_iter().collect();
                    members.sort();
                    for m in members {
                        out.push(LogRecord::SAdd { key: key.clone(), member: m });
                    }
                }
                Slot::Counter(c) => out.push(LogRecord::Incr { key, by: c }),
            }
        }
        out
    }

    // -------------------------------------------------------------- strings

    /// Sets a string value, replacing any previous slot.
    pub fn set(&self, key: &[u8], value: &[u8]) {
        let mut map = self.shard(key).write();
        self.log(|| LogRecord::Set { key: key.to_vec(), value: value.to_vec() });
        map.insert(key.to_vec(), Slot::Str(value.to_vec()));
    }

    /// Sets a string value only if no slot exists at `key` (compare-and-set
    /// on vacancy). Returns `true` if the value was stored, `false` if the
    /// key was already occupied (by any slot type) — in which case nothing
    /// changes. The check-and-insert happens under one shard lock, so two
    /// racing `set_nx` calls on the same key serialize: exactly one wins.
    pub fn set_nx(&self, key: &[u8], value: &[u8]) -> bool {
        let mut map = self.shard(key).write();
        if map.contains_key(key) {
            return false;
        }
        self.log(|| LogRecord::Set { key: key.to_vec(), value: value.to_vec() });
        map.insert(key.to_vec(), Slot::Str(value.to_vec()));
        true
    }

    /// Reads a string value.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        match self.shard(key).read().get(key) {
            Some(Slot::Str(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Deletes any slot at `key`; returns whether something was removed.
    pub fn del(&self, key: &[u8]) -> bool {
        let mut map = self.shard(key).write();
        self.log(|| LogRecord::Del { key: key.to_vec() });
        map.remove(key).is_some()
    }

    /// Deletes every slot whose key starts with `prefix`; returns the
    /// number of slots removed. Used by index-rebuild flows to drop a
    /// tactic scope wholesale.
    pub fn del_prefix(&self, prefix: &[u8]) -> usize {
        let keys = self.keys_with_prefix(prefix);
        for k in &keys {
            self.del(k);
        }
        keys.len()
    }

    /// Whether any slot exists at `key`.
    pub fn exists(&self, key: &[u8]) -> bool {
        self.shard(key).read().contains_key(key)
    }

    /// All keys with the given prefix (lexicographic order, gathered
    /// across shards and sorted).
    pub fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for shard in &self.inner.shards {
            let map = shard.read();
            keys.extend(
                map.range(prefix.to_vec()..).take_while(|(k, _)| k.starts_with(prefix)).map(|(k, _)| k.clone()),
            );
        }
        keys.sort();
        keys
    }

    // --------------------------------------------------------------- hashes

    /// Sets `field` in the hash at `key`; returns `true` if the field is new.
    ///
    /// # Errors
    ///
    /// [`KvError::WrongType`] if `key` holds a non-hash slot.
    pub fn hset(&self, key: &[u8], field: &[u8], value: &[u8]) -> Result<bool, KvError> {
        let mut map = self.shard(key).write();
        self.log(|| LogRecord::HSet { key: key.to_vec(), field: field.to_vec(), value: value.to_vec() });
        match map.entry(key.to_vec()).or_insert_with(|| Slot::Hash(HashMap::new())) {
            Slot::Hash(h) => Ok(h.insert(field.to_vec(), value.to_vec()).is_none()),
            _ => Err(KvError::WrongType { key: key.to_vec(), expected: "hash" }),
        }
    }

    /// Reads `field` from the hash at `key`.
    pub fn hget(&self, key: &[u8], field: &[u8]) -> Option<Vec<u8>> {
        match self.shard(key).read().get(key) {
            Some(Slot::Hash(h)) => h.get(field).cloned(),
            _ => None,
        }
    }

    /// Removes `field` from the hash at `key`; `true` if it existed.
    pub fn hdel(&self, key: &[u8], field: &[u8]) -> Result<bool, KvError> {
        let mut map = self.shard(key).write();
        self.log(|| LogRecord::HDel { key: key.to_vec(), field: field.to_vec() });
        match map.get_mut(key) {
            Some(Slot::Hash(h)) => Ok(h.remove(field).is_some()),
            Some(_) => Err(KvError::WrongType { key: key.to_vec(), expected: "hash" }),
            None => Ok(false),
        }
    }

    /// All `(field, value)` pairs of the hash at `key`.
    pub fn hgetall(&self, key: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self.shard(key).read().get(key) {
            Some(Slot::Hash(h)) => h.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            _ => Vec::new(),
        }
    }

    /// Number of fields in the hash at `key` (0 if absent).
    pub fn hlen(&self, key: &[u8]) -> usize {
        match self.shard(key).read().get(key) {
            Some(Slot::Hash(h)) => h.len(),
            _ => 0,
        }
    }

    // ----------------------------------------------------------------- sets

    /// Adds `member` to the set at `key`; `true` if newly added.
    ///
    /// # Errors
    ///
    /// [`KvError::WrongType`] if `key` holds a non-set slot.
    pub fn sadd(&self, key: &[u8], member: &[u8]) -> Result<bool, KvError> {
        let mut map = self.shard(key).write();
        self.log(|| LogRecord::SAdd { key: key.to_vec(), member: member.to_vec() });
        match map.entry(key.to_vec()).or_insert_with(|| Slot::Set(HashSet::new())) {
            Slot::Set(s) => Ok(s.insert(member.to_vec())),
            _ => Err(KvError::WrongType { key: key.to_vec(), expected: "set" }),
        }
    }

    /// Removes `member` from the set at `key`; `true` if it was present.
    pub fn srem(&self, key: &[u8], member: &[u8]) -> Result<bool, KvError> {
        let mut map = self.shard(key).write();
        self.log(|| LogRecord::SRem { key: key.to_vec(), member: member.to_vec() });
        match map.get_mut(key) {
            Some(Slot::Set(s)) => Ok(s.remove(member)),
            Some(_) => Err(KvError::WrongType { key: key.to_vec(), expected: "set" }),
            None => Ok(false),
        }
    }

    /// Membership test.
    pub fn sismember(&self, key: &[u8], member: &[u8]) -> bool {
        match self.shard(key).read().get(key) {
            Some(Slot::Set(s)) => s.contains(member),
            _ => false,
        }
    }

    /// All members of the set at `key`.
    pub fn smembers(&self, key: &[u8]) -> Vec<Vec<u8>> {
        match self.shard(key).read().get(key) {
            Some(Slot::Set(s)) => s.iter().cloned().collect(),
            _ => Vec::new(),
        }
    }

    /// Set cardinality (0 if absent).
    pub fn scard(&self, key: &[u8]) -> usize {
        match self.shard(key).read().get(key) {
            Some(Slot::Set(s)) => s.len(),
            _ => 0,
        }
    }

    // ------------------------------------------------------------- counters

    /// Atomically increments the counter at `key` by 1, returning the new value.
    ///
    /// # Errors
    ///
    /// [`KvError::WrongType`] if `key` holds a non-counter slot.
    pub fn incr(&self, key: &[u8]) -> Result<i64, KvError> {
        self.incr_by(key, 1)
    }

    /// Atomically adds `by`, returning the new value.
    pub fn incr_by(&self, key: &[u8], by: i64) -> Result<i64, KvError> {
        let mut map = self.shard(key).write();
        self.log(|| LogRecord::Incr { key: key.to_vec(), by });
        match map.entry(key.to_vec()).or_insert(Slot::Counter(0)) {
            Slot::Counter(c) => {
                *c += by;
                Ok(*c)
            }
            _ => Err(KvError::WrongType { key: key.to_vec(), expected: "counter" }),
        }
    }

    /// Reads the counter at `key` (`0` if absent).
    pub fn counter(&self, key: &[u8]) -> i64 {
        match self.shard(key).read().get(key) {
            Some(Slot::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Total number of slots.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.shards.iter().all(|s| s.read().is_empty())
    }
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore").field("slots", &self.len()).field("shards", &self.shard_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_ops() {
        let kv = KvStore::new();
        assert_eq!(kv.get(b"k"), None);
        kv.set(b"k", b"v1");
        assert_eq!(kv.get(b"k"), Some(b"v1".to_vec()));
        kv.set(b"k", b"v2");
        assert_eq!(kv.get(b"k"), Some(b"v2".to_vec()));
        assert!(kv.exists(b"k"));
        assert!(kv.del(b"k"));
        assert!(!kv.del(b"k"));
        assert!(!kv.exists(b"k"));
    }

    #[test]
    fn set_nx_first_writer_wins() {
        let kv = KvStore::new();
        assert!(kv.set_nx(b"k", b"first"));
        assert!(!kv.set_nx(b"k", b"second"), "occupied key rejects the CAS");
        assert_eq!(kv.get(b"k"), Some(b"first".to_vec()));
        // Any slot type occupies the key, not just strings.
        kv.hset(b"h", b"f", b"v").unwrap();
        assert!(!kv.set_nx(b"h", b"x"));
        // Racing setters on a fresh key: exactly one wins.
        let kv2 = kv.clone();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let kv = kv2.clone();
                std::thread::spawn(move || kv.set_nx(b"race", format!("w{i}").as_bytes()))
            })
            .collect();
        let wins = handles.into_iter().map(|h| h.join().unwrap()).filter(|&w| w).count();
        assert_eq!(wins, 1, "exactly one racing set_nx succeeds");
        let winner = kv.get(b"race").unwrap();
        assert!(winner.starts_with(b"w"));
    }

    #[test]
    fn hash_ops() {
        let kv = KvStore::new();
        assert!(kv.hset(b"h", b"a", b"1").unwrap());
        assert!(!kv.hset(b"h", b"a", b"2").unwrap());
        assert!(kv.hset(b"h", b"b", b"3").unwrap());
        assert_eq!(kv.hget(b"h", b"a"), Some(b"2".to_vec()));
        assert_eq!(kv.hlen(b"h"), 2);
        let mut all = kv.hgetall(b"h");
        all.sort();
        assert_eq!(all, vec![(b"a".to_vec(), b"2".to_vec()), (b"b".to_vec(), b"3".to_vec())]);
        assert!(kv.hdel(b"h", b"a").unwrap());
        assert!(!kv.hdel(b"h", b"a").unwrap());
        assert_eq!(kv.hlen(b"h"), 1);
    }

    #[test]
    fn set_ops() {
        let kv = KvStore::new();
        assert!(kv.sadd(b"s", b"x").unwrap());
        assert!(!kv.sadd(b"s", b"x").unwrap());
        assert!(kv.sismember(b"s", b"x"));
        assert!(!kv.sismember(b"s", b"y"));
        assert_eq!(kv.scard(b"s"), 1);
        assert!(kv.srem(b"s", b"x").unwrap());
        assert_eq!(kv.scard(b"s"), 0);
        assert_eq!(kv.smembers(b"missing"), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn counter_ops() {
        let kv = KvStore::new();
        assert_eq!(kv.counter(b"c"), 0);
        assert_eq!(kv.incr(b"c").unwrap(), 1);
        assert_eq!(kv.incr(b"c").unwrap(), 2);
        assert_eq!(kv.incr_by(b"c", -5).unwrap(), -3);
        assert_eq!(kv.counter(b"c"), -3);
    }

    #[test]
    fn wrong_type_errors() {
        let kv = KvStore::new();
        kv.set(b"k", b"string");
        assert!(matches!(kv.hset(b"k", b"f", b"v"), Err(KvError::WrongType { .. })));
        assert!(matches!(kv.sadd(b"k", b"m"), Err(KvError::WrongType { .. })));
        assert!(matches!(kv.incr(b"k"), Err(KvError::WrongType { .. })));
        // Reads on wrong types degrade to absent, like decoupled clients expect.
        assert_eq!(kv.hget(b"k", b"f"), None);
        assert!(!kv.sismember(b"k", b"m"));
        assert_eq!(kv.counter(b"k"), 0);
    }

    #[test]
    fn prefix_scan() {
        let kv = KvStore::new();
        kv.set(b"idx:1", b"a");
        kv.set(b"idx:2", b"b");
        kv.set(b"other", b"c");
        assert_eq!(kv.keys_with_prefix(b"idx:"), vec![b"idx:1".to_vec(), b"idx:2".to_vec()]);
        assert!(kv.keys_with_prefix(b"zzz").is_empty());
    }

    #[test]
    fn clone_shares_state() {
        let kv = KvStore::new();
        let kv2 = kv.clone();
        kv.set(b"k", b"v");
        assert_eq!(kv2.get(b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn concurrent_counters() {
        let kv = KvStore::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let kv = kv.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        kv.incr(b"shared").unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.counter(b"shared"), 8000);
    }

    #[test]
    fn sharded_matches_single_shard() {
        // Same op sequence against 1 shard and N shards: every observable
        // (gets, prefix scans, exports, len) must be identical.
        let one = KvStore::with_shards(1);
        let many = KvStore::with_shards(8);
        for kv in [&one, &many] {
            for i in 0..64u32 {
                let key = format!("k/{:02}", i % 16).into_bytes();
                kv.set(&key, &i.to_be_bytes());
                kv.hset(format!("h/{}", i % 8).as_bytes(), &key, b"v").unwrap();
                kv.sadd(b"members", &key).unwrap();
                kv.incr_by(b"count", i as i64).unwrap();
            }
            kv.del(b"k/03");
        }
        assert_eq!(one.len(), many.len());
        assert_eq!(one.keys_with_prefix(b"k/"), many.keys_with_prefix(b"k/"));
        assert_eq!(one.keys_with_prefix(b"h/"), many.keys_with_prefix(b"h/"));
        assert_eq!(one.export_records(), many.export_records());
        assert_eq!(one.counter(b"count"), many.counter(b"count"));
    }

    #[test]
    fn shard_contention_reported() {
        let kv = KvStore::with_shards(4);
        assert_eq!(kv.shard_contention().len(), 4);
        assert!(kv.shard_contention().iter().all(|&c| c == 0));
    }
}
