//! The cloud engine: the untrusted-zone half of the middleware (Fig. 4,
//! right side). Dispatches channel requests to the document store, the KV
//! substrate and the cloud halves of the tactics. Sees only ciphertexts,
//! tokens and opaque index entries.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use datablinder_codec::{Reader, Writer};
use datablinder_docstore::{DocStore, Document, Filter, Value};
use datablinder_kvstore::{KvStore, LogRecord};
use datablinder_netsim::{CloudService, NetError};
use datablinder_obs::Recorder;
use datablinder_sse::DocId;

use crate::cloudproto::{
    batch_items, check_inner, BlobList, DigestRequest, DigestResponse, Fetch, FindIdsDnf, FindIdsEq, FindIdsRange,
    GetMany, Idempotent, RangeSelect, RangedRead, Route, SyncEntries, BATCH_ROUTE, ENTRY_DOC, ENTRY_INDEX, ENTRY_KV,
    IDEM_ROUTE, READ_BATCH_ROUTE,
};
use crate::durability::{self, Durability, DurabilityOptions, JournalOutcome, RecoveryReport, WalRecord};
use crate::error::CoreError;
use crate::spi::CloudTactic;
use crate::sync::{selects_doc, Selector};
use crate::tactics;
use crate::tactics::{decode_ids, encode_ids};
use crate::wire::{decode_document_in, encode_answer, encode_document};

/// Default capacity of the idempotency dedup cache: entries only need to
/// outlive the retry window of their request, so a small FIFO bounded well
/// above `max_attempts × in-flight writes` suffices.
pub const DEFAULT_DEDUP_CAPACITY: usize = 1024;

/// Dedup-cache shard count for full-capacity caches. Tokens from one
/// gateway spread uniformly (seed-mixed prefix + sequence), so N-way
/// sharding divides lock hold times under concurrent writers.
const DEDUP_SHARDS: usize = 8;

/// Recorded outcome of a deduplicated request: the request fingerprint plus
/// the first execution's result.
type DedupOutcome = (u64, Result<Vec<u8>, CoreError>);

/// FIFO-bounded map from idempotency token to the recorded outcome of the
/// first execution. The request fingerprint guards against token collisions
/// (two gateways seeding the same token stream must not read each other's
/// cached outcomes for *different* requests).
struct DedupCache {
    capacity: usize,
    entries: HashMap<[u8; 16], DedupOutcome>,
    order: VecDeque<[u8; 16]>,
}

impl DedupCache {
    fn new(capacity: usize) -> Self {
        DedupCache { capacity: capacity.max(1), entries: HashMap::new(), order: VecDeque::new() }
    }

    fn get(&self, token: &[u8; 16], fingerprint: u64) -> Option<Result<Vec<u8>, CoreError>> {
        match self.entries.get(token) {
            Some((fp, outcome)) if *fp == fingerprint => Some(outcome.clone()),
            _ => None,
        }
    }

    fn put(&mut self, token: [u8; 16], fingerprint: u64, outcome: Result<Vec<u8>, CoreError>) {
        if self.entries.insert(token, (fingerprint, outcome)).is_none() {
            self.order.push_back(token);
            if self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
        }
    }
}

/// The dedup cache sharded by token hash: one mutex per shard, so
/// concurrent writers with distinct tokens rarely contend. Tiny caches
/// (tests, tight bounds) stay single-sharded to keep FIFO eviction
/// meaningful.
struct ShardedDedup {
    shards: Vec<Mutex<DedupCache>>,
    contention: Vec<AtomicU64>,
}

impl ShardedDedup {
    fn new(capacity: usize) -> Self {
        let n = if capacity >= DEDUP_SHARDS * 8 { DEDUP_SHARDS } else { 1 };
        let per_shard = capacity.max(1).div_ceil(n);
        ShardedDedup {
            shards: (0..n).map(|_| Mutex::new(DedupCache::new(per_shard))).collect(),
            contention: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn shard_of(&self, token: &[u8; 16]) -> usize {
        // FNV-1a over the token; shard count is small so modulo is fine.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in token {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Locks one shard, counting the acquisition as contended when the
    /// uncontended fast path fails.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, DedupCache> {
        match self.shards[idx].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contention[idx].fetch_add(1, Ordering::Relaxed);
                self.shards[idx].lock().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Contended acquisitions per shard since construction.
    fn contention(&self) -> Vec<u64> {
        self.contention.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }
}

fn request_fingerprint(route: &str, payload: &[u8]) -> u64 {
    let mut h = datablinder_primitives::sha256::Sha256::new();
    h.update(&(route.len() as u32).to_be_bytes());
    h.update(route.as_bytes());
    h.update(payload);
    u64::from_be_bytes(h.finalize()[..8].try_into().unwrap())
}

/// The cloud-side engine. Construct, then wrap into a
/// [`datablinder_netsim::Channel`].
pub struct CloudEngine {
    docs: DocStore,
    kv: KvStore,
    tactics: HashMap<&'static str, Arc<dyn CloudTactic>>,
    dedup: ShardedDedup,
    dedup_hits: AtomicU64,
    durability: Option<Durability>,
    recovery: RecoveryReport,
    /// Observability recorder (disabled by default; see
    /// [`CloudEngine::set_recorder`]).
    obs: Recorder,
}

impl CloudEngine {
    /// Creates an engine with every built-in cloud tactic registered.
    pub fn new() -> Self {
        CloudEngine::with_dedup_capacity(DEFAULT_DEDUP_CAPACITY)
    }

    /// Like [`CloudEngine::new`] with an explicit idempotency-cache bound.
    pub fn with_dedup_capacity(capacity: usize) -> Self {
        let docs = DocStore::new();
        let kv = KvStore::new();
        let mut engine = CloudEngine {
            docs: docs.clone(),
            kv: kv.clone(),
            tactics: HashMap::new(),
            dedup: ShardedDedup::new(capacity),
            dedup_hits: AtomicU64::new(0),
            durability: None,
            recovery: RecoveryReport::default(),
            obs: Recorder::default(),
        };
        engine.register(Arc::new(tactics::mitra::MitraCloud::new(kv.clone())));
        engine.register(Arc::new(tactics::sophos::SophosCloud::new(kv.clone())));
        engine.register(Arc::new(tactics::ore::OreCloud::new(kv.clone())));
        engine.register(Arc::new(tactics::paillier::PaillierCloud::new(docs.clone())));
        engine.register(Arc::new(tactics::biex::BiexCloud::new(kv.clone(), tactics::biex::BiexVariant::TwoLev)));
        engine.register(Arc::new(tactics::biex::BiexCloud::new(kv, tactics::biex::BiexVariant::Zmf)));
        engine
    }

    /// Opens a crash-consistent engine backed by `dir`: restores the
    /// snapshot (if any), rolls the WAL tail forward, truncates a torn
    /// tail, and journals every subsequent mutation before applying it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and on-disk corruption
    /// ([`CoreError::Storage`]).
    pub fn open_durable(dir: &Path) -> Result<Self, CoreError> {
        CloudEngine::open_durable_with(dir, DurabilityOptions::default())
    }

    /// Like [`CloudEngine::open_durable`] with an explicit snapshot cadence
    /// and (for tests) a crash injector.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and on-disk corruption.
    pub fn open_durable_with(dir: &Path, opts: DurabilityOptions) -> Result<Self, CoreError> {
        CloudEngine::open_durable_observed(dir, opts, Recorder::default())
    }

    /// Like [`CloudEngine::open_durable_with`] with an observability
    /// [`Recorder`] installed *before* recovery, so the replay itself is
    /// measured: `cloud.recovery.replayed` counts rolled-forward WAL
    /// records and the `cloud.recovery.latency` histogram captures the
    /// time from open to the engine being query-ready (time to first
    /// query after a crash).
    ///
    /// # Errors
    ///
    /// As [`CloudEngine::open_durable_with`].
    pub fn open_durable_observed(dir: &Path, opts: DurabilityOptions, recorder: Recorder) -> Result<Self, CoreError> {
        let started = recorder.start();
        std::fs::create_dir_all(dir).map_err(datablinder_kvstore::KvError::from)?;
        let mut engine = CloudEngine::new();
        engine.set_recorder(recorder);
        let engine = engine;
        // Replay journaled mutations through the normal dispatcher so
        // every tactic index rebuilds exactly as it was built live, and
        // replayed idempotency envelopes repopulate the dedup cache (a
        // gateway retry that bridges the crash gets the recorded outcome).
        // Application-level errors are part of the recorded history (e.g.
        // a rolled-forward duplicate insert), not recovery failures.
        let (report, seq) = durability::recover_into(dir, &engine.kv, &engine.docs, |rec| {
            if let Some(route) = Route::parse(&rec.route) {
                let _ = engine.dispatch(route, &rec.payload);
            }
        })?;
        let wal_backlog = report.replayed;
        let mut engine = engine;
        engine.recovery = report;
        engine.durability = Some(Durability::attach(dir, seq, wal_backlog, opts.snapshot_every, opts.crash)?);
        engine.obs.count("cloud.recovery.replayed", engine.recovery.replayed);
        if engine.recovery.snapshot_restored {
            engine.obs.count("cloud.recovery.snapshots_restored", 1);
        }
        if let Some(t0) = started {
            engine.obs.observe("cloud.recovery.latency", t0.elapsed());
        }
        Ok(engine)
    }

    /// What the last [`CloudEngine::open_durable`] recovery found on disk
    /// (all-default for volatile engines).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Whether the crash injector has fired (the simulated machine is
    /// down; always `false` for volatile engines).
    pub fn crashed(&self) -> bool {
        self.durability.as_ref().is_some_and(Durability::crashed)
    }

    /// Last durable WAL sequence number (0 for volatile engines).
    pub fn wal_seq(&self) -> u64 {
        self.durability.as_ref().map_or(0, Durability::seq)
    }

    /// Records journaled since the last snapshot (0 for volatile engines).
    pub fn wal_since_snapshot(&self) -> u64 {
        self.durability.as_ref().map_or(0, Durability::since_snapshot)
    }

    /// WAL group flushes performed (0 for volatile engines), with or
    /// without a crash injector armed. Each group commit covers one or more
    /// records, so under concurrent writers this is strictly less than
    /// `wal_seq` when batching is effective.
    pub fn wal_group_commits(&self) -> u64 {
        self.durability.as_ref().map_or(0, Durability::group_commits)
    }

    /// Forces a snapshot, compacting the WAL.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] on a volatile engine; I/O
    /// failures otherwise.
    pub fn snapshot_now(&self) -> Result<(), CoreError> {
        match &self.durability {
            Some(d) => {
                d.snapshot(&self.kv, &self.docs)?;
                self.obs.count("cloud.snapshot.compactions", 1);
                Ok(())
            }
            None => Err(CoreError::UnsupportedOperation("snapshot on volatile engine".into())),
        }
    }

    /// Idempotent envelopes answered from the dedup cache instead of
    /// re-executing (i.e. duplicate deliveries absorbed).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Registers a cloud tactic handler (SPI extension point).
    pub fn register(&mut self, tactic: Arc<dyn CloudTactic>) {
        tactic.attach_recorder(&self.obs);
        self.tactics.insert(tactic.name(), tactic);
    }

    /// Attaches an observability [`Recorder`]: per-tactic index-op
    /// counters, dedup-cache hits and WAL/snapshot activity record into
    /// it. The default recorder is disabled (one atomic load per call).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for tactic in self.tactics.values() {
            tactic.attach_recorder(&recorder);
        }
        self.obs = recorder;
    }

    /// The observability recorder (disabled unless
    /// [`CloudEngine::set_recorder`] installed an enabled one).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Publishes per-shard lock-contention gauges into the recorder:
    /// `cloud.kv.shard.<i>.contention` (KV substrate, where all tactic
    /// index state lives) and `cloud.dedup.shard.<i>.contention`
    /// (idempotency cache). Cumulative counts of acquisitions that missed
    /// the uncontended fast path; call before snapshotting so the hot
    /// shards of a run are visible.
    pub fn publish_shard_metrics(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        for (i, c) in self.kv.shard_contention().iter().enumerate() {
            self.obs.gauge_set(&format!("cloud.kv.shard.{i}.contention"), *c as i64);
        }
        for (i, c) in self.dedup.contention().iter().enumerate() {
            self.obs.gauge_set(&format!("cloud.dedup.shard.{i}.contention"), *c as i64);
        }
        if let Some(d) = &self.durability {
            self.obs.gauge_set("cloud.wal.group_commits", d.group_commits() as i64);
        }
    }

    /// The underlying document store (inspection/tests).
    pub fn docs(&self) -> &DocStore {
        &self.docs
    }

    /// The underlying KV store (inspection/tests).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Runs one parsed route.
    pub(crate) fn dispatch(&self, route: Route<'_>, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        if let Some(t) = route.tactic {
            let tactic = self
                .tactics
                .get(t.name)
                .ok_or_else(|| CoreError::UnsupportedOperation(format!("unknown cloud tactic {}", t.name)))?;
            if self.obs.is_enabled() {
                let ops = format!("cloud.tactic.{}.ops", t.name);
                self.obs.count(&ops, 1);
            }
            return tactic.handle(t.scope, t.op, payload);
        }
        match route.name {
            IDEM_ROUTE => {
                // Idempotent write envelope: execute once, record the
                // outcome, and answer retries/duplicates from the record so
                // a redelivered insert never double-applies index entries.
                let (token, inner, inner_payload) = Idempotent::open(payload)?;
                let fingerprint = request_fingerprint(inner.name, inner_payload);
                let shard = self.dedup.shard_of(&token);
                if let Some(outcome) = self.dedup.lock_shard(shard).get(&token, fingerprint) {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    self.obs.count("cloud.dedup.hits", 1);
                    return outcome;
                }
                let outcome = self.dispatch(inner, inner_payload);
                self.dedup.lock_shard(shard).put(token, fingerprint, outcome.clone());
                outcome
            }
            // A list of (route, payload) calls in one round trip, answered in
            // order: a write group, or (read-only) the reads of one query.
            BATCH_ROUTE => self.run_batch(payload, false),
            READ_BATCH_ROUTE => self.run_batch(payload, true),
            "kv/del_prefix" => Ok((self.kv.del_prefix(payload) as u64).to_be_bytes().to_vec()),
            "kv/bulk_put" => {
                let mut r = Reader::new(payload);
                let pairs = r.list()?;
                if pairs.len() % 2 != 0 {
                    return Err(CoreError::Wire("bulk_put pair count"));
                }
                for kv in pairs.chunks(2) {
                    self.kv.set(kv[0], kv[1]);
                }
                Ok(Vec::new())
            }
            "obs/snapshot" => {
                // Metrics federation: export this node's recorder snapshot
                // so a cluster coordinator can merge per-node observability
                // into one cluster-wide view.
                Ok(self.obs.snapshot().to_json().into_bytes())
            }
            // Cluster synchronization: the WAL tail, leaf digests, range
            // exports, and the two journaled apply ops (see crate::sync).
            "sync/tail" => {
                let records = match &self.durability {
                    Some(d) => d.wal_tail()?,
                    None => Vec::new(),
                };
                Ok(BlobList { items: records.iter().map(WalRecord::encode).collect() }.encode())
            }
            "sync/digest" => {
                let req = DigestRequest::decode(payload)?;
                if req.boundaries.is_empty() {
                    return Err(CoreError::Wire("digest boundaries"));
                }
                // Computed from the stores at each request, so the answer
                // sees every change, made through this dispatch or not.
                let entries = crate::sync::export_entries(&self.kv, &self.docs, req.seed, &Selector::All);
                let (leaves, broadcast) = crate::sync::leaf_digests(&entries, req.seed, &req.boundaries);
                Ok(DigestResponse { leaves, broadcast }.encode())
            }
            "sync/entries" => {
                let req = RangeSelect::decode(payload)?;
                let sel = Selector::Ranges { ranges: &req.ranges, include_broadcast: req.include_broadcast };
                let entries = crate::sync::export_entries(&self.kv, &self.docs, req.seed, &sel);
                Ok(SyncEntries { entries: entries.into_iter().map(|(e, _)| e).collect() }.encode())
            }
            "sync/put" => self.apply_sync_entries(payload),
            "sync/retire" => {
                let req = RangeSelect::decode(payload)?;
                // Drop scoped state in the given ranges (after a handoff the
                // old owner no longer serves them; a node must never answer
                // a scatter from state it retired). Broadcast state — setup
                // keys, index definitions — is never retired.
                let sel = Selector::Ranges { ranges: &req.ranges, include_broadcast: false };
                let entries = crate::sync::export_entries(&self.kv, &self.docs, req.seed, &sel);
                let mut removed = 0u64;
                for (e, _) in entries {
                    match e.kind {
                        ENTRY_KV => {
                            self.kv.del(&e.key);
                            removed += 1;
                        }
                        ENTRY_DOC => {
                            let (collection, id) = split_doc_key(&e.key)?;
                            if self.docs.collection(&collection).delete(&id).is_ok() {
                                removed += 1;
                            }
                        }
                        _ => {}
                    }
                }
                Ok(removed.to_be_bytes().to_vec())
            }
            "doc/insert" | "doc/update" => {
                let (collection, rest) = split_collection(payload)?;
                let coll = self.docs.collection(collection);
                let doc = coll.names(|names| decode_document_in(rest, names))?;
                if route.name == "doc/insert" {
                    coll.insert(doc)?;
                } else {
                    coll.update(doc)?;
                }
                Ok(Vec::new())
            }
            "doc/get" => {
                let (collection, rest) = split_collection(payload)?;
                let id = std::str::from_utf8(rest).map_err(|_| CoreError::Wire("utf8 id"))?;
                // Encoded from the stored document, borrowed under the read
                // lock: the answer is the only copy made.
                self.docs
                    .collection(collection)
                    .lookup([id], |docs| docs.next().map(encode_document))
                    .ok_or_else(|| CoreError::NotFound(id.to_string()))
            }
            "doc/get_many" => {
                let req = GetMany::decode(payload)?;
                // Non-UTF-8 ids name nothing.
                let ids = req.ids.iter().filter_map(|id| std::str::from_utf8(id).ok());
                Ok(self.documents(req.collection, ids, &req.keep))
            }
            "doc/fetch" => {
                let req = Fetch::decode(payload)?;
                let inner = check_inner(req.route, true)?;
                let ids: Vec<String> =
                    decode_ids(&self.dispatch(inner, req.payload)?)?.into_iter().map(DocId::to_hex).collect();
                Ok(self.documents(req.collection, ids.iter().map(String::as_str), &req.keep))
            }
            "doc/delete" => {
                let (collection, rest) = split_collection(payload)?;
                let id = std::str::from_utf8(rest).map_err(|_| CoreError::Wire("utf8 id"))?;
                self.docs.collection(collection).delete(id)?;
                Ok(Vec::new())
            }
            "doc/count" => {
                let (collection, _) = split_collection(payload)?;
                let n = self.docs.collection(collection).len() as u64;
                Ok(n.to_be_bytes().to_vec())
            }
            "doc/extreme" => {
                // Min/max over a stored order-preserving field: the cloud
                // picks the extreme *ciphertext* (byte order = plaintext
                // order for OPE shadow fields) and returns the document id.
                let (collection, rest) = split_collection(payload)?;
                if rest.is_empty() {
                    return Err(CoreError::Wire("extreme payload"));
                }
                let want_max = rest[0] == 1;
                let field = std::str::from_utf8(&rest[1..]).map_err(|_| CoreError::Wire("utf8 field"))?;
                let id = self.docs.collection(collection).scan(&Filter::Exists(field.to_string()), |docs| {
                    let hits = docs.filter_map(|d| d.get(field).and_then(Value::as_bytes).map(|b| (b, d.id())));
                    // Ties go to the smaller id, whatever order the scan visits in.
                    let best =
                        if want_max { hits.max_by_key(|&(b, id)| (b, std::cmp::Reverse(id))) } else { hits.min() };
                    best.map(|(_, id)| id.as_bytes().to_vec())
                });
                Ok(id.unwrap_or_default())
            }
            "doc/list_ids" => {
                let (collection, _) = split_collection(payload)?;
                let mut ids = self.docs.collection(collection).ids();
                ids.sort();
                let mut w = Writer::new();
                w.list(&ids);
                Ok(w.finish())
            }
            "doc/ensure_index" => {
                let (collection, rest) = split_collection(payload)?;
                let field = std::str::from_utf8(rest).map_err(|_| CoreError::Wire("utf8 field"))?;
                self.docs.collection(collection).create_index(field);
                Ok(Vec::new())
            }
            "doc/find_ids_eq" => {
                let req = FindIdsEq::decode(payload)?;
                Ok(self.find_ids(&req.collection, &Filter::eq(req.field, req.value)))
            }
            "doc/find_ids_range" => {
                let req = FindIdsRange::decode(payload)?;
                Ok(self.find_ids(&req.collection, &Filter::between(req.field, req.lo, req.hi)))
            }
            "doc/find_ids_dnf" => {
                let req = FindIdsDnf::decode(payload)?;
                let filter = Filter::or(
                    req.dnf
                        .into_iter()
                        .map(|conj| Filter::and(conj.into_iter().map(|(f, v)| Filter::eq(f, v)).collect()))
                        .collect(),
                );
                Ok(self.find_ids(&req.collection, &filter))
            }
            // Plaintext aggregate for the S_A baseline: avg/sum over a
            // numeric field, like a database would compute natively.
            "doc/agg_plain" => self.agg_plain(payload, None),
            // The same over the ring ranges a cluster node serves first.
            "doc/agg_plain_ranges" => {
                let ranged = RangedRead::decode(payload)?;
                self.agg_plain(&ranged.request, Some(&ranged.select))
            }
            // An envelope carried where none may go.
            other => Err(CoreError::UnsupportedOperation(format!("nested {other}"))),
        }
    }

    /// Executes a batch's items in order, aborting on the first failure,
    /// and answers them as one list. Every item is checked before the first
    /// runs ([`batch_items`]).
    fn run_batch(&self, payload: &[u8], read_only: bool) -> Result<Vec<u8>, CoreError> {
        let responses = batch_items(payload, read_only)?
            .into_iter()
            .map(|(route, payload)| self.dispatch(route, payload))
            .collect::<Result<Vec<_>, _>>()?;
        let mut w = Writer::new();
        w.list(&responses);
        Ok(w.finish())
    }

    /// Applies a batch of [`SyncEntries`]: each entry *replaces* this
    /// node's state for its key with the canonical bytes — KV slots are
    /// rebuilt from their record list (empty list = delete), docs are
    /// upserted (empty value = delete), index definitions union in.
    /// Deterministic and idempotent, so it replays safely from the WAL and
    /// through the idempotent-envelope dedup path.
    fn apply_sync_entries(&self, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        let req = SyncEntries::decode(payload)?;
        let mut applied = 0u64;
        for e in &req.entries {
            match e.kind {
                ENTRY_KV => {
                    self.kv.del(&e.key);
                    for body in BlobList::decode(&e.value)?.items {
                        self.kv.apply_record(&LogRecord::from_body(&body)?);
                    }
                }
                ENTRY_DOC => {
                    let (collection, id) = split_doc_key(&e.key)?;
                    let coll = self.docs.collection(&collection);
                    if e.value.is_empty() {
                        let _ = coll.delete(&id);
                    } else {
                        coll.upsert(coll.names(|names| decode_document_in(&e.value, names))?);
                    }
                }
                ENTRY_INDEX => {
                    let name = std::str::from_utf8(&e.key).map_err(|_| CoreError::Wire("utf8 collection"))?;
                    let coll = self.docs.collection(name);
                    for field in BlobList::decode(&e.value)?.items {
                        let field = String::from_utf8(field).map_err(|_| CoreError::Wire("utf8 index field"))?;
                        coll.create_index(&field);
                    }
                }
                _ => return Err(CoreError::Wire("unknown entry kind")),
            }
            applied += 1;
        }
        Ok(applied.to_be_bytes().to_vec())
    }

    /// The sorted, encoded DocIds of the documents matching `filter`,
    /// counting whether the docstore served it from a secondary index
    /// (`cloud.doc.scan.indexed`) or had to visit every document
    /// (`cloud.doc.scan.full`) — a search that silently fell off its index
    /// shows in the counters, not only in its latency.
    fn find_ids(&self, collection: &str, filter: &Filter) -> Vec<u8> {
        let coll = self.docs.collection(collection);
        if self.obs.is_enabled() {
            let served = if coll.index_serves(filter) { "cloud.doc.scan.indexed" } else { "cloud.doc.scan.full" };
            self.obs.count(served, 1);
        }
        coll.scan(filter, ids_of)
    }

    /// The documents of `collection` under `ids`, encoded as one list,
    /// whole or projected onto `keep` ([`GetMany`]): unknown ids are
    /// skipped, the rest keep the caller's order. One buffer, one lock hold,
    /// no clone.
    fn documents<'i>(&self, collection: &str, ids: impl Iterator<Item = &'i str>, keep: &[&str]) -> Vec<u8> {
        self.docs.collection(collection).lookup(ids, |docs| encode_answer(docs, keep))
    }

    /// The `agg_plain` answer over the documents of the payload's
    /// collection that have its field and, with `select`, route into its
    /// ranges — summed in id order, because f64 addition is not associative.
    fn agg_plain(&self, payload: &[u8], select: Option<&RangeSelect>) -> Result<Vec<u8>, CoreError> {
        let (collection, rest) = split_collection(payload)?;
        let field = std::str::from_utf8(rest).map_err(|_| CoreError::Wire("utf8 field"))?;
        Ok(self.docs.collection(collection).scan(&Filter::Exists(field.to_string()), |docs| {
            let mut docs: Vec<&Document> =
                docs.filter(|doc| select.is_none_or(|s| selects_doc(s, collection, doc.id()))).collect();
            docs.sort_by(|a, b| a.id().cmp(b.id()));
            sum_plain(field, &mut docs.into_iter())
        }))
    }
}

impl Default for CloudEngine {
    fn default() -> Self {
        CloudEngine::new()
    }
}

impl CloudService for CloudEngine {
    /// Parses the route once; a route [`ROUTES`](crate::cloudproto::ROUTES)
    /// does not name is [`NetError::UnknownRoute`] before anything is
    /// journaled.
    fn handle(&self, name: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let route = Route::parse(name).ok_or_else(|| NetError::UnknownRoute(name.into()))?;
        if route.name == datablinder_obs::trace::TRACED_ROUTE {
            // Traced envelope: adopt the caller's trace context and recurse
            // on the inner route, so the crash check, journal and dedup all
            // see the real operation — the envelope never reaches the WAL.
            let (ctx, inner_route, inner_payload) =
                datablinder_obs::trace::decode_traced(payload).map_err(CoreError::from)?;
            let _scope = ctx.enter();
            let mut guard = self.obs.quiet_span("cloud.apply");
            guard.set_detail(inner_route);
            let out = self.handle(inner_route, inner_payload);
            if let Err(e) = &out {
                guard.fail();
                guard.set_detail(&e.to_string());
            }
            return out;
        }
        if self.crashed() {
            // The simulated machine is down: everything times out until a
            // restart harness rebuilds the engine from disk.
            return Err(NetError::Timeout);
        }
        let Some(d) = self.durability.as_ref().filter(|_| route.writes()) else {
            return Ok(self.dispatch(route, payload)?);
        };
        // What an envelope carries is parsed before it is journaled too, as
        // a cluster does before it fans out: the WAL holds only routes that
        // apply.
        let (_, inner, inner_payload) = route.unseal(payload)?;
        if inner.name == BATCH_ROUTE {
            batch_items(inner_payload, false)?;
        }
        // Journal-before-apply. The journaling sits here rather than in
        // `dispatch` so nested batch/idem sub-calls are covered by their
        // enclosing envelope's single WAL record, not re-journaled. The
        // journal call blocks on the group-commit flush, so the span around
        // it is the per-operation WAL fsync latency.
        let flush = {
            let mut guard = self.obs.quiet_span("cloud.wal.flush");
            let outcome = d.journal(name, payload);
            if outcome.is_err() {
                guard.fail();
            }
            outcome
        };
        match flush {
            Ok(JournalOutcome::Written) => {
                self.obs.count("cloud.wal.appends", 1);
                self.obs.count("cloud.wal.bytes", (name.len() + payload.len()) as u64);
            }
            // The crash point fired at this write: whatever reached disk
            // (nothing, a torn prefix, or a full never-applied frame), the
            // caller sees a retryable timeout and recovery sorts it out.
            Ok(JournalOutcome::Died) => return Err(NetError::Timeout),
            Err(e) => return Err(CoreError::Storage(format!("wal: {e}")).into()),
        }
        let out = self.dispatch(route, payload).map_err(NetError::from);
        if d.snapshot_due() {
            if let Err(e) = d.snapshot(&self.kv, &self.docs) {
                return Err(CoreError::Storage(format!("snapshot: {e}")).into());
            }
            self.obs.count("cloud.snapshot.compactions", 1);
        }
        out
    }
}

/// Encodes a `(collection, rest)` payload.
pub fn with_collection(collection: &str, rest: &[u8]) -> Vec<u8> {
    let mut w = Writer::from(Vec::with_capacity(4 + collection.len() + rest.len()));
    w.str(collection).raw(rest);
    w.finish()
}

/// Splits a doc entry key (collection ‖ 0x00 ‖ id) back into its parts.
pub(crate) fn split_doc_key(key: &[u8]) -> Result<(String, String), CoreError> {
    let sep = key.iter().position(|&b| b == 0).ok_or(CoreError::Wire("doc key separator"))?;
    let collection = String::from_utf8(key[..sep].to_vec()).map_err(|_| CoreError::Wire("utf8 collection"))?;
    let id = String::from_utf8(key[sep + 1..].to_vec()).map_err(|_| CoreError::Wire("utf8 id"))?;
    Ok((collection, id))
}

pub(crate) fn split_collection(payload: &[u8]) -> Result<(&str, &[u8]), CoreError> {
    let mut r = Reader::new(payload);
    Ok((r.str()?, r.rest()))
}

/// Extracts and encodes the DocIds of documents whose ids are DocId-hex.
fn ids_of(docs: &mut dyn Iterator<Item = &Document>) -> Vec<u8> {
    let mut ids: Vec<DocId> = docs.filter_map(|d| DocId::from_hex(d.id())).collect();
    ids.sort();
    encode_ids(&ids)
}

/// The `agg_plain` response: the f64 sum of `field` over `docs` in the
/// order given, then the number of documents that had a numeric value.
fn sum_plain(field: &str, docs: &mut dyn Iterator<Item = &Document>) -> Vec<u8> {
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for v in docs.filter_map(|d| d.get(field).and_then(Value::as_f64)) {
        sum += v;
        count += 1;
    }
    let mut out = sum.to_be_bytes().to_vec();
    out.extend_from_slice(&count.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloudproto::{encode_batch, SyncEntry, FETCH_ROUTE};
    use crate::spi::CloudCall;
    use crate::wire::{decode_document, encode_documents};
    use datablinder_obs::trace::{encode_traced, TraceCtx, TRACED_ROUTE};

    fn engine() -> CloudEngine {
        CloudEngine::new()
    }

    impl CloudEngine {
        /// Runs `route` as a batch item reaches `dispatch`: parsed, and an
        /// unknown one refused.
        fn run(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
            self.dispatch(Route::carried(route)?, payload)
        }
    }

    fn doc(idx: u8, status: &str) -> (DocId, Vec<u8>) {
        let id = DocId([idx; 16]);
        let d = Document::new(id.to_hex()).with("status", Value::from(status));
        (id, with_collection("obs", &encode_document(&d)))
    }

    #[test]
    fn doc_crud_over_routes() {
        let e = engine();
        let (id, payload) = doc(1, "final");
        e.run("doc/insert", &payload).unwrap();
        // Duplicate insert fails.
        assert!(e.run("doc/insert", &payload).is_err());

        let get = with_collection("obs", id.to_hex().as_bytes());
        let fetched = decode_document(&e.run("doc/get", &get).unwrap()).unwrap();
        assert_eq!(fetched.get("status"), Some(&Value::from("final")));

        let count = e.run("doc/count", &with_collection("obs", b"")).unwrap();
        assert_eq!(u64::from_be_bytes(count.try_into().unwrap()), 1);

        e.run("doc/delete", &get).unwrap();
        assert!(e.run("doc/get", &get).is_err());
    }

    /// Documents that reach one collection by each storing path — an
    /// insert, an update, a sync entry, a snapshot restore and a WAL
    /// replay — hold one allocation per distinct name, the collection's. A
    /// name the collection has not seen joins its table; a refused or
    /// malformed write adds none, and a name leaves with its last holder.
    #[test]
    fn every_storing_path_shares_the_collections_names() {
        let dir = std::env::temp_dir().join(format!("datablinder-shared-names-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let doc =
            |id: &str, names: &[&str]| names.iter().fold(Document::new(id), |d, &name| d.with(name, Value::from(name)));
        let insert = |id: &str, names: &[&str]| with_collection("obs", &encode_document(&doc(id, names)));
        {
            let e = CloudEngine::open_durable(&dir).unwrap();
            e.handle("doc/insert", &insert("restored", &["a", "b"])).unwrap();
            e.snapshot_now().unwrap();
            e.handle("doc/insert", &insert("replayed", &["a", "b"])).unwrap();
        }
        let e = CloudEngine::open_durable(&dir).unwrap();
        assert_eq!((e.recovery_report().snapshot_restored, e.recovery_report().replayed), (true, 1));
        e.handle("doc/insert", &insert("inserted", &["a", "b"])).unwrap();
        e.handle("doc/insert", &insert("updated", &["b"])).unwrap();
        e.handle("doc/update", &insert("updated", &["a", "b", "c"])).unwrap();
        let synced = SyncEntry {
            kind: ENTRY_DOC,
            key: crate::sync::doc_key("obs", b"synced"),
            value: encode_document(&doc("synced", &["a", "b"])),
        };
        e.handle("sync/put", &SyncEntries { entries: vec![synced] }.encode()).unwrap();

        let coll = e.docs().collection("obs");
        let mut held: HashMap<String, *const u8> = HashMap::new();
        let stored = coll.scan(&Filter::All, |docs| {
            docs.map(|d| {
                for name in d.field_names() {
                    assert_eq!(*held.entry(name.to_string()).or_insert(name.as_ptr()), name.as_ptr(), "{name}");
                }
                d.id().to_string()
            })
            .collect::<Vec<_>>()
        });
        assert_eq!(stored.len(), 5);
        assert_eq!(held.len(), 3);
        assert_eq!(coll.names(|table| table.len()), 3);

        let many: Vec<String> = (0..1000).map(|i| format!("n{i:04}")).collect();
        let many: Vec<&str> = many.iter().map(String::as_str).collect();
        let mut torn = insert("fresh", &many);
        torn.pop();
        for refused in [insert("inserted", &many), torn] {
            assert!(e.handle("doc/insert", &refused).is_err());
        }
        assert!(e.handle("doc/update", &insert("absent", &many)).is_err());
        assert_eq!(coll.names(|table| table.len()), 3);
        e.handle("doc/insert", &insert("fresh", &many)).unwrap();
        assert_eq!(coll.names(|table| table.len()), 1003);
        e.handle("doc/delete", &with_collection("obs", b"fresh")).unwrap();
        assert_eq!(coll.names(|table| table.len()), 3);
        drop(e);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn find_ids_routes() {
        let e = engine();
        for (i, s) in [(1u8, "final"), (2, "draft"), (3, "final")] {
            let (_, payload) = doc(i, s);
            e.run("doc/insert", &payload).unwrap();
        }
        let req = FindIdsEq { collection: "obs".into(), field: "status".into(), value: Value::from("final") };
        let out = e.run("doc/find_ids_eq", &req.encode()).unwrap();
        let ids = crate::tactics::decode_ids(&out).unwrap();
        assert_eq!(ids, vec![DocId([1; 16]), DocId([3; 16])]);

        let req = FindIdsDnf { collection: "obs".into(), dnf: vec![vec![("status".into(), Value::from("draft"))]] };
        let out = e.run("doc/find_ids_dnf", &req.encode()).unwrap();
        assert_eq!(crate::tactics::decode_ids(&out).unwrap(), vec![DocId([2; 16])]);
    }

    #[test]
    fn get_many_skips_missing() {
        let e = engine();
        let (id, payload) = doc(1, "x");
        e.run("doc/insert", &payload).unwrap();
        let (held, unknown) = (id.to_hex(), DocId([9; 16]).to_hex());
        let req = GetMany { collection: "obs", ids: vec![held.as_bytes(), unknown.as_bytes()], keep: vec![] };
        let req = req.encode();
        let docs = crate::wire::decode_documents(&e.run("doc/get_many", &req).unwrap()).unwrap();
        assert_eq!(docs.len(), 1);
    }

    #[test]
    fn get_many_bytes_are_the_list_of_the_stored_documents_in_request_order() {
        let e = engine();
        for (i, status) in [(1u8, "final"), (2, "draft"), (3, "amended")] {
            e.run("doc/insert", &doc(i, status).1).unwrap();
        }
        let hex = |i: u8| DocId([i; 16]).to_hex().into_bytes();
        // Out of order, repeated, unknown, not DocId-shaped and not UTF-8.
        let asked: Vec<Vec<u8>> =
            vec![hex(3), hex(9), hex(1), b"no-such-id".to_vec(), vec![0xFF, 0xFE], hex(3), Vec::new(), hex(2)];
        let mut w = Writer::new();
        w.list(&asked);
        let answer = e.run("doc/get_many", &with_collection("obs", &w.finish())).unwrap();

        let coll = e.docs().collection("obs");
        let expected: Vec<Document> =
            asked.iter().filter_map(|id| std::str::from_utf8(id).ok().and_then(|id| coll.get(id))).collect();
        assert_eq!(expected.len(), 4);
        assert_eq!(answer, encode_documents(&expected));
        // `doc/get` answers with the same per-document bytes.
        let one = e.run("doc/get", &with_collection("obs", &hex(2))).unwrap();
        assert_eq!(one, encode_document(&coll.get(&DocId([2; 16]).to_hex()).unwrap()));

        let mut none = Writer::new();
        none.list(&[b"nope".to_vec()]);
        let empty = e.run("doc/get_many", &with_collection("obs", &none.finish())).unwrap();
        assert_eq!(empty, encode_documents(&[]));
    }

    #[test]
    fn find_ids_routes_count_indexed_and_full_scans() {
        let mut e = engine();
        let recorder = Recorder::new();
        e.set_recorder(recorder.clone());
        e.run("doc/ensure_index", &with_collection("obs", b"status")).unwrap();
        e.run("doc/insert", &doc(1, "final").1).unwrap();
        let scans = |name: &str| recorder.snapshot().counter(name);

        let eq = |field: &str| FindIdsEq { collection: "obs".into(), field: field.into(), value: Value::from("final") };
        e.run("doc/find_ids_eq", &eq("status").encode()).unwrap();
        let range = FindIdsRange {
            collection: "obs".into(),
            field: "status".into(),
            lo: Value::from("a"),
            hi: Value::from("z"),
        };
        e.run("doc/find_ids_range", &range.encode()).unwrap();
        assert_eq!((scans("cloud.doc.scan.indexed"), scans("cloud.doc.scan.full")), (2, 0));

        e.run("doc/find_ids_eq", &eq("other").encode()).unwrap();
        let dnf = FindIdsDnf { collection: "obs".into(), dnf: vec![vec![("status".into(), Value::from("final"))]] };
        e.run("doc/find_ids_dnf", &dnf.encode()).unwrap();
        assert_eq!((scans("cloud.doc.scan.indexed"), scans("cloud.doc.scan.full")), (2, 2));
    }

    #[test]
    fn kv_bulk_put() {
        let e = engine();
        let mut w = Writer::new();
        w.list(&[b"k1".to_vec(), b"v1".to_vec(), b"k2".to_vec(), b"v2".to_vec()]);
        e.run("kv/bulk_put", &w.finish()).unwrap();
        assert_eq!(e.kv().get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(e.kv().get(b"k2"), Some(b"v2".to_vec()));
        // Odd pair count rejected.
        let mut w = Writer::new();
        w.list(&[b"k".to_vec()]);
        assert!(e.run("kv/bulk_put", &w.finish()).is_err());
    }

    #[test]
    fn batch_route_executes_in_order_and_rejects_nesting() {
        let e = engine();
        let (_, ins) = doc(1, "final");
        let mut w = Writer::new();
        w.list(&[b"doc/insert".to_vec(), ins, b"doc/count".to_vec(), with_collection("obs", b"")]);
        let out = e.run("batch", &w.finish()).unwrap();
        let mut r = datablinder_codec::Reader::new(&out);
        let responses = r.list().unwrap();
        assert_eq!(responses.len(), 2);
        assert_eq!(u64::from_be_bytes(responses[1].try_into().unwrap()), 1);

        // Nested batches are rejected.
        let mut inner = Writer::new();
        inner.list(&[b"doc/count".to_vec(), with_collection("obs", b"")]);
        let mut outer = Writer::new();
        outer.list(&[b"batch".to_vec(), inner.finish()]);
        assert!(e.run("batch", &outer.finish()).is_err());

        // Odd item count rejected.
        let mut odd = Writer::new();
        odd.list(&[b"doc/count".to_vec()]);
        assert!(e.run("batch", &odd.finish()).is_err());
    }

    #[test]
    fn read_batch_answers_reads_and_refuses_writes_and_nesting_before_running_any() {
        let e = engine();
        let (id, ins) = doc(1, "final");
        e.run("doc/insert", &ins).unwrap();
        let count = || CloudCall::new("doc/count", with_collection("obs", b""));
        let get = CloudCall::new("doc/get", with_collection("obs", id.to_hex().as_bytes()));
        let out = e.run("batch/read", &encode_batch(&[count(), get.clone()])).unwrap();
        let answers = crate::cloudproto::decode_batch_answer(&out, 2).unwrap();
        assert_eq!(u64::from_be_bytes(answers[0].clone().try_into().unwrap()), 1);
        assert_eq!(answers[1], e.run("doc/get", &get.payload).unwrap());

        // A write item, a nested batch of either kind or an envelope is
        // refused.
        let (_, second) = doc(2, "draft");
        let envelope = Idempotent { token: [3; 16], route: "doc/count".into(), payload: Vec::new() };
        let nested = [
            CloudCall::new("batch", encode_batch(&[count()])),
            CloudCall::new("batch/read", encode_batch(&[count()])),
            CloudCall::new("idem", envelope.encode()),
        ];
        for refused in nested.iter().cloned().chain([CloudCall::new("doc/insert", second.clone())]) {
            let err = e.run("batch/read", &encode_batch(&[count(), refused.clone()])).unwrap_err();
            assert!(matches!(err, CoreError::UnsupportedOperation(_)), "{}: {err}", refused.route);
        }
        // Every item is checked before the first runs: the insert ahead of
        // a nested batch never happens.
        for refused in nested {
            let err = e.run("batch", &encode_batch(&[CloudCall::new("doc/insert", second.clone()), refused]));
            assert!(matches!(err, Err(CoreError::UnsupportedOperation(_))), "{err:?}");
        }
        assert_eq!(e.docs().collection("obs").len(), 1, "nothing in a refused batch ran");
    }

    #[test]
    fn get_many_answers_by_position_onto_a_keep_list_and_without_one_is_the_same_request() {
        let e = engine();
        let docs: Vec<Document> = (1..=3u8)
            .map(|i| {
                Document::new(DocId([i; 16]).to_hex())
                    .with("a__det", Value::Bytes(vec![i]))
                    .with("a__ope", Value::Bytes(vec![i; 16]))
                    .with("note", Value::from("kept"))
                    .with("v__phe", Value::Bytes(vec![i; 64]))
            })
            .collect();
        for d in &docs {
            e.run("doc/insert", &with_collection("obs", &encode_document(d))).unwrap();
        }
        let hex: Vec<String> = [3u8, 9, 1].iter().map(|&i| DocId([i; 16]).to_hex()).collect();
        let ids: Vec<&[u8]> = hex.iter().map(String::as_bytes).collect();
        let bare = GetMany { collection: "obs", ids: ids.clone(), keep: vec![] };
        let mut today = Writer::new();
        today.list(&ids);
        assert_eq!(bare.encode(), with_collection("obs", &today.finish()), "an empty list adds no byte");
        assert_eq!(e.run("doc/get_many", &bare.encode()).unwrap(), encode_documents([&docs[2], &docs[0]]));

        // Per kept name the stored value, or the absent tag; no name, no
        // count, and a__ope, v__phe stay behind.
        let projected = GetMany { keep: vec!["a__det", "absent", "note"], ..bare };
        let mut expected = Writer::new();
        expected.list_with([&docs[2], &docs[0]], |d, w| {
            w.str(d.id());
            crate::wire::put_value(d.get("a__det").unwrap(), w);
            w.u8(crate::wire::ABSENT);
            crate::wire::put_value(d.get("note").unwrap(), w);
        });
        assert_eq!(e.run("doc/get_many", &projected.encode()).unwrap(), expected.finish());
        assert_eq!(GetMany::decode(&projected.encode()).unwrap(), projected);
        let mut trailing = projected.encode();
        trailing.push(0);
        assert!(matches!(e.run("doc/get_many", &trailing), Err(CoreError::Wire(_))));
        for keep in [vec!["note", "a__det"], vec!["a__det", "a__det"]] {
            let refused = GetMany { keep: keep.clone(), ..projected.clone() };
            let err = e.run("doc/get_many", &refused.encode());
            assert_eq!(err, Err(CoreError::Wire("keep list not strictly ascending")), "{keep:?}");
        }
    }

    #[test]
    fn fetch_answers_as_its_read_then_get_many_and_refuses_writes_batches_and_envelopes() {
        let e = engine();
        for (i, status) in [(1u8, "final"), (2, "draft"), (3, "final")] {
            e.run("doc/insert", &doc(i, status).1).unwrap();
        }
        let find = FindIdsEq { collection: "obs".into(), field: "status".into(), value: Value::from("final") };
        let find = CloudCall::new("doc/find_ids_eq", find.encode());
        let fetch = |route: &str, payload: &[u8], keep: Vec<&'static str>| {
            Fetch { collection: "obs", keep, route, payload }.encode()
        };
        let hex: Vec<String> =
            decode_ids(&e.run(&find.route, &find.payload).unwrap()).unwrap().iter().map(|id| id.to_hex()).collect();
        assert_eq!(hex.len(), 2);
        for keep in [vec![], vec!["status"]] {
            let fused = e.run(FETCH_ROUTE, &fetch(&find.route, &find.payload, keep.clone())).unwrap();
            let two_calls = GetMany { collection: "obs", ids: hex.iter().map(String::as_bytes).collect(), keep };
            assert_eq!(fused, e.run("doc/get_many", &two_calls.encode()).unwrap());
        }

        // The wrapped route passes batch/read's checks before it runs.
        let (_, insert) = doc(4, "final");
        let count = CloudCall::new("doc/count", with_collection("obs", b""));
        let envelope = Idempotent { token: [3; 16], route: "doc/insert".into(), payload: insert.clone() };
        for (route, payload) in [
            ("doc/insert", insert.clone()),
            ("batch", encode_batch(std::slice::from_ref(&count))),
            ("batch/read", encode_batch(std::slice::from_ref(&count))),
            ("idem", envelope.encode()),
            (TRACED_ROUTE, encode_traced(TraceCtx { trace_id: 1, span_id: 1 }, "doc/insert", &insert)),
            (FETCH_ROUTE, fetch(&find.route, &find.payload, vec![])),
        ] {
            let err = e.run(FETCH_ROUTE, &fetch(route, &payload, vec![])).unwrap_err();
            assert!(matches!(err, CoreError::UnsupportedOperation(_)), "{route}: {err}");
        }
        assert_eq!(e.docs().collection("obs").len(), 3, "the refused write never ran");
        // A wrapped read whose answer is not an id list.
        let err = e.run(FETCH_ROUTE, &fetch(&count.route, &count.payload, vec![])).unwrap_err();
        assert!(matches!(err, CoreError::Wire(_)), "{err}");
    }

    #[test]
    fn kv_del_prefix_route() {
        let e = engine();
        e.kv().set(b"t/mitra/s/one", b"1");
        e.kv().set(b"t/mitra/s/two", b"2");
        e.kv().set(b"t/mitra/other/x", b"3");
        let out = e.run("kv/del_prefix", b"t/mitra/s/").unwrap();
        assert_eq!(u64::from_be_bytes(out.try_into().unwrap()), 2);
        assert!(e.kv().get(b"t/mitra/s/one").is_none());
        assert!(e.kv().get(b"t/mitra/other/x").is_some());
    }

    #[test]
    fn unknown_routes_rejected() {
        let e = engine();
        assert!(e.run("doc/get", &with_collection("c", b"x")).is_err());
        assert!(e.run("tactic/unknown/s/search", &[]).is_err());
        // A route the table does not name — a segment too many or too few
        // included — is refused before it runs, and touches nothing.
        let (_, ins) = doc(1, "final");
        for route in [
            "nope",
            "doc/nope",
            "doc/insert/x",
            "doc",
            "tactic/mitra/s",
            "tactic/mitra/s/update/x",
            "batch/",
            "sync",
            "idem/x",
        ] {
            assert_eq!(e.handle(route, &ins), Err(NetError::UnknownRoute(route.into())), "{route}");
            let unknown = format!("unknown route {route}");
            assert_eq!(e.run(route, &ins), Err(CoreError::UnsupportedOperation(unknown)), "{route}");
        }
        assert_eq!(e.docs().collection("obs").len(), 0);
        assert!(e.kv().keys_with_prefix(b"").is_empty());
    }

    fn idem(token: u8, route: &str, payload: &[u8]) -> Vec<u8> {
        Idempotent { token: [token; 16], route: route.into(), payload: payload.to_vec() }.encode()
    }

    #[test]
    fn idem_replay_returns_recorded_outcome_without_reexecuting() {
        let e = engine();
        let (_, ins) = doc(1, "final");
        let env = idem(7, "doc/insert", &ins);
        e.run("idem", &env).unwrap();
        // Replaying the same envelope (duplicate delivery / gateway retry)
        // is answered from the cache — a bare re-insert would error.
        e.run("idem", &env).unwrap();
        e.run("idem", &env).unwrap();
        assert_eq!(e.dedup_hits(), 2);
        let count = e.run("doc/count", &with_collection("obs", b"")).unwrap();
        assert_eq!(u64::from_be_bytes(count.try_into().unwrap()), 1, "executed exactly once");
    }

    #[test]
    fn idem_records_errors_too() {
        let e = engine();
        let (_, ins) = doc(1, "final");
        e.run("doc/insert", &ins).unwrap();
        // This envelope's execution fails (duplicate document id)...
        let env = idem(8, "doc/insert", &ins);
        let first = e.run("idem", &env).unwrap_err();
        // ...and the retry sees the *same* recorded error, not a fresh one.
        let second = e.run("idem", &env).unwrap_err();
        assert_eq!(first, second);
        assert_eq!(e.dedup_hits(), 1);
    }

    #[test]
    fn idem_token_collision_with_different_request_reexecutes() {
        let e = engine();
        let (_, ins1) = doc(1, "final");
        let (_, ins2) = doc(2, "draft");
        // Same token, different request: the fingerprint guard must treat
        // this as a distinct request, not serve the cached outcome.
        e.run("idem", &idem(7, "doc/insert", &ins1)).unwrap();
        e.run("idem", &idem(7, "doc/insert", &ins2)).unwrap();
        assert_eq!(e.dedup_hits(), 0);
        let count = e.run("doc/count", &with_collection("obs", b"")).unwrap();
        assert_eq!(u64::from_be_bytes(count.try_into().unwrap()), 2);
    }

    #[test]
    fn idem_cache_is_bounded_fifo() {
        let e = CloudEngine::with_dedup_capacity(2);
        let (_, ins1) = doc(1, "a");
        let (_, ins2) = doc(2, "b");
        let (_, ins3) = doc(3, "c");
        let env1 = idem(1, "doc/insert", &ins1);
        e.run("idem", &env1).unwrap();
        e.run("idem", &idem(2, "doc/insert", &ins2)).unwrap();
        e.run("idem", &idem(3, "doc/insert", &ins3)).unwrap();
        // Token 1 was evicted: the replay re-executes and hits the duplicate
        // document error instead of the cached Ok.
        assert!(e.run("idem", &env1).is_err());
        assert_eq!(e.dedup_hits(), 0);
    }

    #[test]
    fn idem_rejects_nesting_and_garbage() {
        let e = engine();
        let inner = idem(1, "doc/count", &with_collection("obs", b""));
        assert!(e.run("idem", &idem(2, "idem", &inner)).is_err());
        assert!(e.run("idem", &[0; 5]).is_err());
    }

    #[test]
    fn sharded_dedup_still_deduplicates_across_tokens() {
        let e = engine(); // full capacity → 8 shards
        for t in 0..32u8 {
            let (_, ins) = doc(t, "x");
            let env = idem(t, "doc/insert", &ins);
            e.run("idem", &env).unwrap();
            e.run("idem", &env).unwrap(); // duplicate delivery
        }
        assert_eq!(e.dedup_hits(), 32);
        let count = e.run("doc/count", &with_collection("obs", b"")).unwrap();
        assert_eq!(u64::from_be_bytes(count.try_into().unwrap()), 32);
    }

    #[test]
    fn publish_shard_metrics_emits_per_shard_gauges() {
        let mut e = engine();
        let recorder = Recorder::new();
        e.set_recorder(recorder.clone());
        e.kv().set(b"k", b"v");
        e.publish_shard_metrics();
        let snap = recorder.snapshot();
        assert!(snap.gauges.iter().any(|(name, _)| name == "cloud.kv.shard.0.contention"));
        assert!(snap.gauges.iter().any(|(name, _)| name == "cloud.dedup.shard.7.contention"));
    }

    #[test]
    fn agg_plain_computes() {
        let e = engine();
        for (i, v) in [(1u8, 10.0f64), (2, 20.0)] {
            let id = DocId([i; 16]);
            let d = Document::new(id.to_hex()).with("value", Value::from(v));
            e.run("doc/insert", &with_collection("obs", &encode_document(&d))).unwrap();
        }
        let out = e.run("doc/agg_plain", &with_collection("obs", b"value")).unwrap();
        let sum = f64::from_be_bytes(out[..8].try_into().unwrap());
        let count = u64::from_be_bytes(out[8..].try_into().unwrap());
        assert_eq!(sum, 30.0);
        assert_eq!(count, 2);
    }

    /// A ranged plain aggregate counts exactly the documents whose ring hash
    /// falls in its ranges, so two ranges that split the circle add up to
    /// the whole collection.
    #[test]
    fn ranged_agg_plain_selects_by_ring_hash() {
        let e = engine();
        for i in 1..=16u8 {
            let d = Document::new(DocId([i; 16]).to_hex()).with("value", Value::from(f64::from(i)));
            e.run("doc/insert", &with_collection("obs", &encode_document(&d))).unwrap();
        }
        let mut totals = (0.0, 0);
        for half in [(u64::MAX, u64::MAX / 2), (u64::MAX / 2, u64::MAX)] {
            let select = RangeSelect { seed: 9, ranges: vec![half], include_broadcast: false };
            let held = (1..=16u8).filter(|&i| selects_doc(&select, "obs", &DocId([i; 16]).to_hex())).count() as u64;
            let ranged = RangedRead { request: with_collection("obs", b"value"), select };
            let out = e.run("doc/agg_plain_ranges", &ranged.encode()).unwrap();
            let count = u64::from_be_bytes(out[8..].try_into().unwrap());
            assert!(count == held && count > 0, "{count} of {held}");
            totals = (totals.0 + f64::from_be_bytes(out[..8].try_into().unwrap()), totals.1 + count);
        }
        assert_eq!(totals, (136.0, 16));
    }

    /// Both ranged routes decode their range list exactly: a truncated
    /// list, a count larger than the bytes left and a broadcast flag of 2
    /// are wire errors, never a panic.
    #[test]
    fn malformed_range_lists_are_wire_errors() {
        let e = engine();
        let sum = crate::cloudproto::PaillierSum {
            collection: "obs".into(),
            field: "value__phe".into(),
            modulus: vec![0xc5, 0x01],
            ids: vec![],
        };
        for (route, request) in
            [("doc/agg_plain_ranges", with_collection("obs", b"value")), ("tactic/paillier/s/sum_ranges", sum.encode())]
        {
            let select = RangeSelect { seed: 9, ranges: vec![(1, 2), (3, 4)], include_broadcast: false };
            let honest = RangedRead { request: request.clone(), select }.encode();
            // The flag follows the request field and the seed; the count follows the flag.
            let flag_at = 4 + request.len() + 8;
            let mut overcount = honest.clone();
            overcount[flag_at + 1..flag_at + 5].copy_from_slice(&33u32.to_be_bytes());
            let mut flag = honest.clone();
            flag[flag_at] = 2;
            let cuts = (flag_at + 1..honest.len()).map(|cut| honest[..cut].to_vec());
            for bad in cuts.chain([overcount, flag]) {
                let out = e.run(route, &bad);
                assert!(matches!(out, Err(CoreError::Wire(_))), "{route}: {out:?} for {bad:02x?}");
            }
        }
    }
}
