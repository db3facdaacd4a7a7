//! ClusterCloud: N replicated [`CloudEngine`] nodes behind one
//! [`CloudService`] facade, with elastic membership.
//!
//! The gateway keeps talking to a single channel; behind it a consistent-hash
//! ring (virtual nodes, deterministic seed) places every write on R replicas,
//! a write is acknowledged once W of them have durably journaled it, and
//! reads either probe a key's replica set (with read repair when replicas
//! diverge) or scatter-gather across the cluster for collection-wide queries.
//! Node failures come from [`NodeFailureInjector`] events or from observing a
//! node's crash injector fire. Quorums that cannot be met surface as typed
//! [`NetError::Unavailable`] errors — never hangs.
//!
//! Membership is *elastic*:
//!
//! * A rejoining durable node streams each live peer's compacted snapshot
//!   (chunked, CRC-framed, resumable) plus the WAL tail above the snapshot
//!   sequence — so a peer that compacted its WAL no longer leaves a resync
//!   gap. A transfer torn by a crash leaves the node down; the next rejoin
//!   restarts cleanly from disk.
//! * [`ClusterCloud::add_node`] / [`ClusterCloud::remove_node`] recompute
//!   vnode ownership and hand off exactly the key ranges that changed
//!   owners before the new ring serves quorums. Operations arriving during
//!   the transfer window fail fast with a typed
//!   [`NetError::Unavailable`] instead of reading a half-moved ring.
//! * A background anti-entropy pass ([`ClusterCloud::run_anti_entropy`],
//!   optionally ticked every [`ClusterConfig::anti_entropy_every`] ops)
//!   compares per-leaf Merkle digests pairwise across replicas and repairs
//!   divergent keys through the idempotent `sync/put` envelope.
//!
//! # Examples
//!
//! ```
//! use datablinder_core::cluster::{ClusterCloud, ClusterConfig};
//! use datablinder_core::cloud::with_collection;
//! use datablinder_core::wire::encode_document;
//! use datablinder_docstore::{Document, Value};
//! use datablinder_netsim::CloudService;
//!
//! let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 7)).unwrap();
//! let doc = Document::new("00ff").with("status", Value::from("ok"));
//! cluster.handle("doc/insert", &with_collection("notes", &encode_document(&doc))).unwrap();
//! // Grow the cluster: the new node pulls the ranges it now owns before serving.
//! let added = cluster.add_node().unwrap();
//! assert_eq!(added, 3);
//! let got = cluster.handle("doc/get", &with_collection("notes", b"00ff")).unwrap();
//! assert_eq!(got, encode_document(&doc));
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datablinder_codec::{crc32, Reader, Writer};
use datablinder_docstore::{DocStore, Value};
use datablinder_kvstore::{read_frames, KvStore};
use datablinder_netsim::{
    BreakerConfig, Channel, CloudService, CrashInjector, LatencyModel, NetError, NodeEvent, NodeFailureInjector,
    NodeFailurePlan, ResilienceConfig, ResilientChannel, RetryPolicy,
};
use datablinder_obs::{ClusterSnapshot, Recorder, Snapshot};
use datablinder_primitives::sha256::Sha256;
use datablinder_sse::DocId;
use parking_lot::{Mutex, RwLock};

use crate::cloud::{split_collection, with_collection, CloudEngine};
use crate::cloudproto::{
    is_write_route, BlobList, ChunkRequest, ChunkResponse, DigestRequest, DigestResponse, Idempotent, PaillierCombine,
    PaillierSum, PaillierSumResponse, RangeSelect, SyncEntries, SyncEntry, TransferBegin, TransferInfo, WalTailRequest,
    ENTRY_DOC, ENTRY_INDEX, ENTRY_KV, IDEM_ROUTE,
};
use crate::durability::{apply_snapshot, snapshot_path, wal_path, DurabilityOptions, WalRecord};
use crate::error::CoreError;
use crate::sync::{doc_key, empty_bucket_digest, export_entries, hash_bytes, mix64, Selector};
use crate::tactics::{decode_ids, encode_ids};
use crate::wire::decode_document;

/// Default virtual nodes per physical node: enough to spread keys evenly
/// for single-digit cluster sizes without making replica lookups slow.
pub const DEFAULT_VNODES: usize = 16;

/// How long a rejoining node's channel clock is advanced so an open circuit
/// breaker admits its half-open probe immediately.
const REJOIN_COOLDOWN: Duration = Duration::from_millis(50);

/// Snapshot stream chunk size: small enough that a mid-stream crash point
/// exercises the resumable framing, large enough to amortize per-call cost.
const SYNC_CHUNK_LEN: u32 = 16 * 1024;

/// Entries per idempotent `sync/put` envelope during a fill.
const SYNC_PUT_BATCH: usize = 32;

/// Shape of a [`ClusterCloud`]: node count, replication/quorum levels and
/// per-node durability.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Initial physical node count (N); membership may grow or shrink later.
    pub nodes: usize,
    /// Replicas per key (R ≤ N).
    pub replication: usize,
    /// Durable acks required before a write succeeds (W ≤ R).
    pub write_quorum: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: usize,
    /// Seed for ring placement and per-node channel jitter; equal seeds
    /// give equal key placement.
    pub seed: u64,
    /// Per-call deadline on every gateway→node hop (`None` = unbounded).
    pub node_deadline: Option<Duration>,
    /// Base directory for per-node durability (`node<i>` subdirectories);
    /// `None` runs every node volatile.
    pub data_dir: Option<PathBuf>,
    /// Per-node auto-snapshot cadence (see
    /// [`DurabilityOptions::snapshot_every`]).
    pub snapshot_every: Option<u64>,
    /// Per-node idempotency dedup-cache bound.
    pub dedup_capacity: Option<usize>,
    /// Run one background anti-entropy pass every this many handled ops
    /// (`None` or `Some(0)` disables the cadence; explicit
    /// [`ClusterCloud::run_anti_entropy`] calls always work).
    pub anti_entropy_every: Option<u64>,
}

impl ClusterConfig {
    /// A volatile cluster: `nodes` nodes, `replication`-way replication,
    /// `write_quorum` acks per write.
    pub fn volatile(nodes: usize, replication: usize, write_quorum: usize, seed: u64) -> Self {
        ClusterConfig {
            nodes,
            replication,
            write_quorum,
            vnodes: DEFAULT_VNODES,
            seed,
            node_deadline: None,
            data_dir: None,
            snapshot_every: None,
            dedup_capacity: None,
            anti_entropy_every: None,
        }
    }

    /// Builder: back every node with a WAL + snapshot under
    /// `dir/node<i>`.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Builder: run a background anti-entropy pass every `every` ops.
    pub fn anti_entropy(mut self, every: u64) -> Self {
        self.anti_entropy_every = Some(every);
        self
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.nodes == 0 {
            return Err(CoreError::UnsupportedOperation("cluster needs at least one node".into()));
        }
        if self.replication == 0 || self.replication > self.nodes {
            return Err(CoreError::UnsupportedOperation(format!(
                "replication {} must be in 1..={}",
                self.replication, self.nodes
            )));
        }
        if self.write_quorum == 0 || self.write_quorum > self.replication {
            return Err(CoreError::UnsupportedOperation(format!(
                "write quorum {} must be in 1..={}",
                self.write_quorum, self.replication
            )));
        }
        Ok(())
    }
}

// ------------------------------------------------------------------- ring

/// The consistent-hash ring over the current member slots: `(hash, slot)`
/// points sorted by hash. A member's vnode points depend only on its slot
/// id and the seed, so adding or removing a member moves the minimal set of
/// key ranges.
#[derive(Debug)]
struct Ring {
    points: Vec<(u64, usize)>,
    replication: usize,
    seed: u64,
}

impl Ring {
    fn new(members: &[usize], vnodes: usize, replication: usize, seed: u64) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &n in members {
            for v in 0..vnodes {
                let point = mix64(seed ^ (((n as u64) << 20) | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                points.push((point, n));
            }
        }
        points.sort_unstable();
        Ring { points, replication, seed }
    }

    /// The first `replication` distinct nodes clockwise from the key's hash.
    fn replicas(&self, key: &[u8]) -> Vec<usize> {
        self.replicas_at(hash_bytes(self.seed, key))
    }

    /// Replica set of an already-hashed position.
    fn replicas_at(&self, h: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        self.owners_from(start)
    }

    fn owners_from(&self, start: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.replication);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == self.replication {
                    break;
                }
            }
        }
        out
    }

    /// The sorted vnode hash points — the Merkle leaf boundaries every
    /// digest request carries, so replicas bucket identically.
    fn boundaries(&self) -> Vec<u64> {
        self.points.iter().map(|&(p, _)| p).collect()
    }

    /// The `(lo, hi]` hash interval of leaf `j` (wraps for leaf 0).
    fn leaf_range(&self, j: usize) -> (u64, u64) {
        let n = self.points.len();
        (self.points[(j + n - 1) % n].0, self.points[j].0)
    }

    /// The nodes owning leaf `j` — the distinct-node walk starting at its
    /// boundary point, identical to [`Ring::replicas_at`] for any hash
    /// inside the leaf.
    fn leaf_owners(&self, j: usize) -> Vec<usize> {
        self.owners_from(j)
    }

    /// Every hash range `node` owns (`owned == true`) or does not own,
    /// merged into maximal `(lo, hi]` intervals. A node owning the whole
    /// circle collapses to one `(p, p)` interval, which range checks treat
    /// as everything.
    fn ranges_of(&self, node: usize, owned: bool) -> Vec<(u64, u64)> {
        let mut segs = Vec::new();
        for j in 0..self.points.len() {
            if self.owners_from(j).contains(&node) == owned {
                segs.push(self.leaf_range(j));
            }
        }
        merge_segments(segs)
    }
}

/// Merges adjacent ring segments (given in leaf order) into maximal
/// intervals, folding the wraparound join between the last and first.
fn merge_segments(segs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for seg in segs {
        match out.last_mut() {
            Some(last) if last.1 == seg.0 => last.1 = seg.1,
            _ => out.push(seg),
        }
    }
    if out.len() > 1 {
        let first = out[0];
        if out.last().expect("non-empty").1 == first.0 {
            let last = out.pop().expect("non-empty");
            out[0] = (last.0, first.1);
        }
    }
    out
}

/// The hash ranges `node` owns under `new` but not under `old`: exactly the
/// key ranges it must pull before the new ring serves. Computed over the
/// union of both rings' boundary points, so every returned interval has
/// constant ownership in both rings.
fn gained_ranges(old: &Ring, new: &Ring, node: usize) -> Vec<(u64, u64)> {
    let mut bounds: Vec<u64> = old.boundaries();
    bounds.extend(new.boundaries());
    bounds.sort_unstable();
    bounds.dedup();
    let n = bounds.len();
    let mut segs = Vec::new();
    for j in 0..n {
        let hi = bounds[j];
        let lo = bounds[(j + n - 1) % n];
        if new.replicas_at(hi).contains(&node) && !old.replicas_at(hi).contains(&node) {
            segs.push((lo, hi));
        }
    }
    merge_segments(segs)
}

/// The hash ranges `node` owned under `old` but no longer owns under `new`:
/// what it retires after a handoff.
fn lost_ranges(old: &Ring, new: &Ring, node: usize) -> Vec<(u64, u64)> {
    gained_ranges(new, old, node)
}

// ------------------------------------------------------------------- nodes

/// One cluster member: an optional engine (present while the node is up)
/// plus its durable home on disk.
struct NodeState {
    dir: Option<PathBuf>,
    engine: RwLock<Option<CloudEngine>>,
    alive: AtomicBool,
    /// The node's own recorder, labeled `node{slot}`. It outlives engine
    /// rebuilds (kill/rejoin), so per-node counters survive restarts, and
    /// it is what `obs/snapshot` federation reads.
    obs: Recorder,
}

impl NodeState {
    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Calls the engine regardless of the `alive` flag — the resync path
    /// replays into a node that is not yet serving.
    fn engine_call(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        match &*self.engine.read() {
            Some(engine) => engine.handle(route, payload),
            None => Err(NetError::Timeout),
        }
    }
}

impl CloudService for NodeState {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        if !self.is_alive() {
            return Err(NetError::Timeout);
        }
        self.engine_call(route, payload)
    }
}

/// The live view of the cluster: the ring, the member slots it covers, and
/// the per-slot node state. Slots are never reused — a removed member's
/// slot stays allocated (dead) so surviving slot ids keep their meaning —
/// and the whole view swaps atomically under the topology lock during a
/// membership change.
struct Topology {
    ring: Ring,
    members: Vec<usize>,
    nodes: Vec<Arc<NodeState>>,
    channels: Vec<ResilientChannel>,
    node_ops: Vec<String>,
    node_errors: Vec<String>,
}

impl Topology {
    fn alive(&self, i: usize) -> bool {
        self.nodes[i].is_alive()
    }
}

// ------------------------------------------------------------------ target

/// Where a write lands: one key's replica set, or every node.
enum WriteTarget {
    Key(Vec<u8>),
    Broadcast,
}

/// The id prefix of an [`crate::wire::encode_document`] body (the id is its
/// first length-prefixed field — by design, so routing never decodes the
/// whole document).
fn encoded_doc_id(rest: &[u8]) -> Result<&[u8], CoreError> {
    Ok(Reader::new(rest).bytes()?)
}

/// Derives the idempotency token of batch item `idx` from the enclosing
/// envelope's token: deterministic, so a retried batch re-derives the same
/// per-item tokens and every replica's dedup cache absorbs the replay even
/// when the retry reaches a different subset of nodes.
fn sub_token(token: &[u8; 16], idx: u64) -> [u8; 16] {
    let mut h = Sha256::new();
    h.update(token);
    h.update(&idx.to_be_bytes());
    h.finalize()[..16].try_into().expect("16-byte prefix")
}

/// The dedup/digest identity of a sync entry: `kind ‖ key`.
fn entry_key(e: &SyncEntry) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + e.key.len());
    k.push(e.kind);
    k.extend_from_slice(&e.key);
    k
}

fn remote(e: CoreError) -> NetError {
    NetError::Remote(e.to_string())
}

/// A whole buffer as one count-prefixed list of byte fields: a `get_many`
/// request's ids, a node's answer to it.
fn byte_list(buf: &[u8]) -> Result<Vec<&[u8]>, NetError> {
    datablinder_codec::decode(buf, |r| Ok::<_, CoreError>(r.list()?)).map_err(remote)
}

fn is_not_found(err: &NetError) -> bool {
    matches!(err, NetError::Remote(m) if m.starts_with("document not found"))
}

/// Whether a peer's WAL no longer starts at record 1 because a snapshot
/// compacted it — the condition under which a *failed* snapshot pull can
/// leave a resync gap.
fn peer_wal_compacted(dir: &Path) -> bool {
    if !snapshot_path(dir).exists() {
        return false;
    }
    let Ok(scan) = read_frames(&wal_path(dir)) else { return true };
    scan.frames.first().and_then(|b| WalRecord::decode(b).ok()).is_none_or(|r| r.seq > 1)
}

/// Why a state pull from one peer failed.
enum PullFailure {
    /// The peer went away or served a corrupt stream; other peers may still
    /// cover the same ranges.
    Peer,
    /// The pulling node itself failed to apply state; the whole resync
    /// aborts and the node stays down.
    Local(CoreError),
}

/// The outcome of one anti-entropy pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct AntiEntropyRound {
    /// Keys whose replicas disagreed (distinct values, or present/absent).
    pub divergent_keys: u64,
    /// Repair writes issued (one per lagging replica per divergent key).
    pub repairs: u64,
    /// Bytes of key+value shipped in repair writes.
    pub repaired_bytes: u64,
    /// Out-of-place leaves retired from nodes that do not own them.
    pub strays_retired: u64,
}

impl AntiEntropyRound {
    /// Whether the pass found nothing to fix — replicas were already
    /// converged.
    pub fn converged(&self) -> bool {
        self.divergent_keys == 0 && self.strays_retired == 0
    }
}

/// Majority vote over the replica versions of one key. Present beats
/// absent on ties (an acked write survives a minority of missed deletes),
/// then the lexicographically smallest value wins so repair is
/// deterministic. Index definitions are additive: the union of advertised
/// fields wins.
fn vote_winner(kind: u8, key: &[u8], values: &[Option<&[u8]>]) -> Option<SyncEntry> {
    if kind == ENTRY_INDEX {
        let mut fields: BTreeSet<Vec<u8>> = BTreeSet::new();
        for v in values.iter().flatten() {
            if let Ok(list) = BlobList::decode(v) {
                fields.extend(list.items);
            }
        }
        if fields.is_empty() {
            return None;
        }
        let value = BlobList { items: fields.into_iter().collect() }.encode();
        return Some(SyncEntry { kind, key: key.to_vec(), value });
    }
    let mut counts: BTreeMap<Option<&[u8]>, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(*v).or_default() += 1;
    }
    let (winner, _) = counts
        .iter()
        .max_by(|(va, ca), (vb, cb)| {
            ca.cmp(cb).then(va.is_some().cmp(&vb.is_some())).then_with(|| match (va, vb) {
                (Some(a), Some(b)) => b.cmp(a),
                _ => std::cmp::Ordering::Equal,
            })
        })
        .expect("at least one version");
    winner.map(|v| SyncEntry { kind, key: key.to_vec(), value: v.to_vec() })
}

/// The entry that erases a key on replicas holding a minority leftover
/// (`None` for index definitions, which only ever grow).
fn tombstone(kind: u8, key: &[u8]) -> Option<SyncEntry> {
    match kind {
        ENTRY_DOC => Some(SyncEntry { kind, key: key.to_vec(), value: Vec::new() }),
        ENTRY_KV => Some(SyncEntry { kind, key: key.to_vec(), value: BlobList { items: Vec::new() }.encode() }),
        _ => None,
    }
}

// ----------------------------------------------------------------- cluster

/// N replicated cloud nodes behind one [`CloudService`] facade.
///
/// Construct with [`ClusterCloud::new`], optionally attach a
/// [`NodeFailurePlan`] and a [`Recorder`], then wrap in a
/// [`Channel`](datablinder_netsim::Channel) via `Channel::from_arc`.
pub struct ClusterCloud {
    cfg: ClusterConfig,
    topo: RwLock<Topology>,
    injector: Option<Arc<NodeFailureInjector>>,
    /// Crash injectors to arm on a node's *next* (re)join (tests: crash a
    /// node again while it is resyncing or joining).
    rejoin_crash: Mutex<HashMap<usize, Arc<CrashInjector>>>,
    /// Serializes membership transitions (kill/rejoin/add/remove/resync) so
    /// an op that drains several injector events applies them atomically.
    membership: Mutex<()>,
    obs: Recorder,
    ops: AtomicU64,
    transfer_seq: AtomicU64,
    kills: AtomicU64,
    rejoins: AtomicU64,
    adds: AtomicU64,
    removes: AtomicU64,
    read_repairs: AtomicU64,
    resync_replayed: AtomicU64,
    resync_filled: AtomicU64,
    resync_wal_gaps: AtomicU64,
    ae_rounds: AtomicU64,
    ae_divergent: AtomicU64,
    ae_repaired_bytes: AtomicU64,
}

impl ClusterCloud {
    /// Builds the cluster, opening every node (durably when
    /// [`ClusterConfig::data_dir`] is set).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] on an invalid config; I/O and
    /// recovery failures from durable node opens.
    pub fn new(cfg: ClusterConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let members: Vec<usize> = (0..cfg.nodes).collect();
        let ring = Ring::new(&members, cfg.vnodes, cfg.replication, cfg.seed);
        let mut nodes = Vec::with_capacity(cfg.nodes);
        let mut channels = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let dir = cfg.data_dir.as_ref().map(|base| base.join(format!("node{i}")));
            let mut engine = match &dir {
                Some(d) => CloudEngine::open_durable_with(
                    d,
                    DurabilityOptions {
                        snapshot_every: cfg.snapshot_every,
                        dedup_capacity: cfg.dedup_capacity,
                        crash: None,
                    },
                )?,
                None => CloudEngine::new(),
            };
            let obs = node_recorder(i);
            engine.set_recorder(obs.clone());
            let node =
                Arc::new(NodeState { dir, engine: RwLock::new(Some(engine)), alive: AtomicBool::new(true), obs });
            channels.push(make_channel(&cfg, &node, i));
            nodes.push(node);
        }
        let node_ops = (0..cfg.nodes).map(|i| format!("cluster.node.{i}.ops")).collect();
        let node_errors = (0..cfg.nodes).map(|i| format!("cluster.node.{i}.errors")).collect();
        let topo = Topology { ring, members, nodes, channels, node_ops, node_errors };
        Ok(ClusterCloud {
            cfg,
            topo: RwLock::new(topo),
            injector: None,
            rejoin_crash: Mutex::new(HashMap::new()),
            membership: Mutex::new(()),
            obs: Recorder::default(),
            ops: AtomicU64::new(0),
            transfer_seq: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            adds: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
            resync_replayed: AtomicU64::new(0),
            resync_filled: AtomicU64::new(0),
            resync_wal_gaps: AtomicU64::new(0),
            ae_rounds: AtomicU64::new(0),
            ae_divergent: AtomicU64::new(0),
            ae_repaired_bytes: AtomicU64::new(0),
        })
    }

    /// Arms a deterministic kill/rejoin/add/remove schedule, ticked once
    /// per handled cluster operation.
    pub fn set_failure_plan(&mut self, plan: NodeFailurePlan) {
        self.injector = Some(Arc::new(NodeFailureInjector::new(plan)));
    }

    /// The armed failure injector, if any (inspect progress from tests).
    pub fn failure_injector(&self) -> Option<&Arc<NodeFailureInjector>> {
        self.injector.as_ref()
    }

    /// Arms a crash injector for slot `idx`'s *next* rejoin or join: the
    /// node's engine (re)opens with it, so the snapshot pull or tail replay
    /// itself can die mid-transfer (satellite: durability under membership
    /// change).
    pub fn arm_rejoin_crash(&self, idx: usize, injector: Arc<CrashInjector>) {
        self.rejoin_crash.lock().insert(idx, injector);
    }

    /// Attaches an observability recorder for cluster-level counters,
    /// quorum-latency histograms and per-node op/error counts. Also wires
    /// the whole cluster for tracing and federation: the coordinator's
    /// node channels record their retry/breaker spans here, and every
    /// member's own recorder is switched to the same enabled state so
    /// [`ClusterCloud::snapshot`] has per-node data to merge.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
        if self.obs.label().is_none() {
            self.obs.set_label("cluster");
        }
        let mut topo = self.topo.write();
        self.obs.gauge_set("cluster.nodes", topo.members.len() as i64);
        self.obs.gauge_set("cluster.ring.vnodes", topo.ring.points.len() as i64);
        for &i in &topo.members {
            self.obs.gauge_set(&format!("cluster.node.{i}.alive"), i64::from(topo.alive(i)));
        }
        for channel in &mut topo.channels {
            channel.set_recorder(self.obs.clone());
        }
        for node in &topo.nodes {
            node.obs.set_enabled(self.obs.is_enabled());
        }
    }

    /// Federates observability across the cluster: the coordinator's own
    /// snapshot plus every live member's, pulled over the node channels via
    /// the `obs/snapshot` route and merged into one [`ClusterSnapshot`].
    /// Dead or unreachable members are skipped (their slots reappear after
    /// a rejoin, counters intact — node recorders outlive engine rebuilds).
    pub fn snapshot(&self) -> ClusterSnapshot {
        let topo = self.topo.read();
        let mut nodes = vec![self.obs.snapshot()];
        for &m in &topo.members {
            if !topo.alive(m) {
                continue;
            }
            let Ok(resp) = topo.channels[m].call("obs/snapshot", b"") else { continue };
            let Ok(text) = String::from_utf8(resp) else { continue };
            if let Ok(snap) = Snapshot::from_json(&text) {
                nodes.push(snap);
            }
        }
        ClusterSnapshot::federate(nodes)
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The current member slots, in slot order.
    pub fn members(&self) -> Vec<usize> {
        self.topo.read().members.clone()
    }

    /// Whether node `idx` is currently serving.
    pub fn node_alive(&self, idx: usize) -> bool {
        self.topo.read().nodes[idx].is_alive()
    }

    /// Runs `f` against node `idx`'s engine (`None` while the node is down).
    pub fn with_node_engine<T>(&self, idx: usize, f: impl FnOnce(&CloudEngine) -> T) -> Option<T> {
        let topo = self.topo.read();
        let guard = topo.nodes[idx].engine.read();
        guard.as_ref().map(f)
    }

    /// The replica set of one document key, in ring (preference) order.
    pub fn doc_replicas(&self, collection: &str, id: &str) -> Vec<usize> {
        self.topo.read().ring.replicas(&doc_key(collection, id.as_bytes()))
    }

    /// Nodes killed so far (events + observed crash injectors).
    pub fn kills(&self) -> u64 {
        self.kills.load(Ordering::Relaxed)
    }

    /// Successful rejoins so far.
    pub fn rejoins(&self) -> u64 {
        self.rejoins.load(Ordering::Relaxed)
    }

    /// Members added so far.
    pub fn nodes_added(&self) -> u64 {
        self.adds.load(Ordering::Relaxed)
    }

    /// Members removed so far.
    pub fn nodes_removed(&self) -> u64 {
        self.removes.load(Ordering::Relaxed)
    }

    /// Divergent or missing replicas repaired by reads.
    pub fn read_repairs(&self) -> u64 {
        self.read_repairs.load(Ordering::Relaxed)
    }

    /// WAL tail records replayed into rejoining nodes from their peers.
    pub fn resync_replayed(&self) -> u64 {
        self.resync_replayed.load(Ordering::Relaxed)
    }

    /// Entries installed into rejoining nodes from shipped peer snapshots.
    pub fn resync_filled(&self) -> u64 {
        self.resync_filled.load(Ordering::Relaxed)
    }

    /// Resyncs that could not cover a peer's compacted history: the peer
    /// had compacted its WAL *and* its snapshot pull failed. Snapshot
    /// shipping keeps this at zero in healthy clusters; anti-entropy closes
    /// any remaining gap.
    pub fn resync_wal_gaps(&self) -> u64 {
        self.resync_wal_gaps.load(Ordering::Relaxed)
    }

    /// Anti-entropy passes completed.
    pub fn anti_entropy_rounds(&self) -> u64 {
        self.ae_rounds.load(Ordering::Relaxed)
    }

    /// Divergent keys found across all anti-entropy passes.
    pub fn anti_entropy_divergent(&self) -> u64 {
        self.ae_divergent.load(Ordering::Relaxed)
    }

    /// Bytes shipped in anti-entropy repair writes.
    pub fn anti_entropy_repaired_bytes(&self) -> u64 {
        self.ae_repaired_bytes.load(Ordering::Relaxed)
    }

    /// Marks node `idx` down and drops its engine (disk state stays).
    pub fn kill_node(&self, idx: usize) {
        let _guard = self.membership.lock();
        let topo = self.topo.read();
        if idx < topo.nodes.len() {
            self.kill_in(&topo, idx);
        }
    }

    /// Restarts node `idx` from its own disk, resyncs it from live peers
    /// (snapshot stream + WAL tail) and marks it serving. Returns the
    /// number of replayed tail records.
    ///
    /// # Errors
    ///
    /// Recovery/I-O failures, [`CoreError::UnsupportedOperation`] for a
    /// slot that is not a member, or [`CoreError::Storage`] when the node
    /// dies again mid-resync (it stays down; a later rejoin retries).
    pub fn rejoin_node(&self, idx: usize) -> Result<u64, CoreError> {
        let _guard = self.membership.lock();
        let topo = self.topo.read();
        if !topo.members.contains(&idx) {
            return Err(CoreError::UnsupportedOperation(format!("node {idx} is not a cluster member")));
        }
        self.rejoin_in(&topo, idx)
    }

    fn kill_in(&self, topo: &Topology, idx: usize) {
        let node = &topo.nodes[idx];
        if !node.is_alive() && node.engine.read().is_none() {
            return;
        }
        node.alive.store(false, Ordering::SeqCst);
        // Dropping the engine models the process dying: in-memory state is
        // gone; `journal` only acks flushed records, so every acknowledged
        // write is already on disk.
        *node.engine.write() = None;
        self.kills.fetch_add(1, Ordering::Relaxed);
        self.obs.count("cluster.kill", 1);
        self.obs.gauge_set(&format!("cluster.node.{idx}.alive"), 0);
    }

    fn rejoin_in(&self, topo: &Topology, idx: usize) -> Result<u64, CoreError> {
        let node = &topo.nodes[idx];
        let mut engine = match &node.dir {
            Some(dir) => {
                let crash = self.rejoin_crash.lock().remove(&idx);
                CloudEngine::open_durable_with(
                    dir,
                    DurabilityOptions {
                        snapshot_every: self.cfg.snapshot_every,
                        dedup_capacity: self.cfg.dedup_capacity,
                        crash,
                    },
                )?
            }
            None => CloudEngine::new(),
        };
        // Re-attach the slot's long-lived recorder so counters and spans
        // accumulated before the crash stay in the same federated view.
        engine.set_recorder(node.obs.clone());
        *node.engine.write() = Some(engine);
        match self.resync_in(topo, idx) {
            Ok((filled, replayed)) => {
                node.alive.store(true, Ordering::SeqCst);
                // Let an open breaker admit the next call as its half-open
                // probe instead of fast-failing through the cooldown.
                topo.channels[idx].advance(REJOIN_COOLDOWN);
                self.rejoins.fetch_add(1, Ordering::Relaxed);
                self.obs.count("cluster.rejoin", 1);
                self.obs.count("cluster.resync.replayed", replayed);
                self.obs.count("cluster.resync.filled", filled);
                self.obs.gauge_set(&format!("cluster.node.{idx}.alive"), 1);
                Ok(replayed)
            }
            Err(e) => {
                // Died again mid-resync: stay down, disk keeps whatever the
                // crash point left (recovery truncates a torn tail on the
                // next rejoin).
                *node.engine.write() = None;
                Err(e)
            }
        }
    }
}

/// A per-node recorder, labeled by slot. Starts disabled (near-zero cost)
/// until [`ClusterCloud::set_recorder`] turns cluster observability on.
fn node_recorder(slot: usize) -> Recorder {
    let obs = Recorder::disabled();
    obs.set_label(&format!("node{slot}"));
    obs
}

fn make_channel(cfg: &ClusterConfig, node: &Arc<NodeState>, slot: usize) -> ResilientChannel {
    let channel = Channel::from_arc(node.clone(), LatencyModel::instant());
    ResilientChannel::new(
        channel,
        ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(5),
                jitter: 0.5,
                retry_remote: false,
            },
            breaker: BreakerConfig { failure_threshold: 4, cooldown: REJOIN_COOLDOWN },
            deadline: cfg.node_deadline,
            seed: cfg.seed ^ 0xC10D_5EED ^ ((slot as u64) << 48),
        },
    )
}

// ------------------------------------------------- resync and membership

impl ClusterCloud {
    /// Brings a reopened node back to its owed state: pull every live
    /// durable peer's snapshot + WAL tail (fill-missing semantics — local
    /// state wins ties, the anti-entropy majority arbitrates divergence),
    /// then retire whatever the node holds outside its owned ranges.
    fn resync_in(&self, topo: &Topology, idx: usize) -> Result<(u64, u64), CoreError> {
        // Background work: detach from whatever client operation triggered
        // the rejoin so the resync gets its own root trace.
        let mut root = self.obs.span_root("cluster.resync");
        root.set_detail(&format!("node{idx}"));
        let out = self.resync_body(topo, idx);
        if let Err(e) = &out {
            root.fail();
            root.set_detail(&e.to_string());
        }
        out
    }

    fn resync_body(&self, topo: &Topology, idx: usize) -> Result<(u64, u64), CoreError> {
        let node = &topo.nodes[idx];
        let owned = topo.ring.ranges_of(idx, true);
        let unowned = topo.ring.ranges_of(idx, false);
        let mut filled = 0u64;
        let mut replayed = 0u64;
        if let Some(own_dir) = &node.dir {
            // Records this node already journaled itself are the "already
            // durable" watermark: the tail replay skips them.
            let mut seen: HashSet<[u8; 16]> = HashSet::new();
            if let Ok(scan) = read_frames(&wal_path(own_dir)) {
                for body in &scan.frames {
                    if let Ok(rec) = WalRecord::decode(body) {
                        seen.insert(rec.id);
                    }
                }
            }
            for &peer in &topo.members {
                if peer == idx || !topo.alive(peer) {
                    continue;
                }
                let Some(peer_dir) = &topo.nodes[peer].dir else { continue };
                match self.pull_peer_state(topo, idx, peer, &owned, &mut seen) {
                    Ok((f, r)) => {
                        filled += f;
                        replayed += r;
                    }
                    Err(PullFailure::Peer) => {
                        self.obs.count("cluster.resync.peer_failed", 1);
                        if peer_wal_compacted(peer_dir) {
                            // Snapshot shipping normally closes the
                            // compaction gap; only a failed pull from a
                            // compacted peer can leave one open.
                            self.resync_wal_gaps.fetch_add(1, Ordering::Relaxed);
                            self.obs.count("cluster.resync.wal_gap", 1);
                        }
                    }
                    Err(PullFailure::Local(e)) => return Err(e),
                }
            }
        } else {
            // Volatile node: no WAL on either side — refill owned ranges
            // directly from live peers' exported entries.
            let sel = RangeSelect { seed: self.cfg.seed, ranges: owned.clone(), include_broadcast: true };
            let payload = sel.encode();
            for &peer in &topo.members {
                if peer == idx || !topo.alive(peer) {
                    continue;
                }
                let Ok(resp) = topo.channels[peer].call("sync/entries", &payload) else {
                    self.obs.count("cluster.resync.peer_failed", 1);
                    continue;
                };
                let Ok(entries) = SyncEntries::decode(&resp) else {
                    self.obs.count("cluster.resync.peer_failed", 1);
                    continue;
                };
                filled += self.fill_missing(node, &entries.entries, &[peer as u8])?;
            }
        }
        if !unowned.is_empty() {
            let sel = RangeSelect { seed: self.cfg.seed, ranges: unowned, include_broadcast: false };
            node.engine_call("sync/retire", &sel.encode())
                .map_err(|e| CoreError::Storage(format!("node {idx} failed retiring unowned ranges: {e}")))?;
        }
        self.resync_replayed.fetch_add(replayed, Ordering::Relaxed);
        self.resync_filled.fetch_add(filled, Ordering::Relaxed);
        Ok((filled, replayed))
    }

    /// Pulls one peer's state into node `idx`: stream its pinned snapshot,
    /// install the owned subset the node is missing, then replay the
    /// peer's WAL tail above the snapshot sequence — eliminating the gap a
    /// compacted WAL used to leave.
    fn pull_peer_state(
        &self,
        topo: &Topology,
        idx: usize,
        peer: usize,
        owned: &[(u64, u64)],
        seen: &mut HashSet<[u8; 16]>,
    ) -> Result<(u64, u64), PullFailure> {
        let node = &topo.nodes[idx];
        let token = self.transfer_token();
        let body = self.stream_snapshot(topo, peer, token)?;
        let mut filled = 0u64;
        let mut snapshot_seq = 0u64;
        if !body.is_empty() {
            let kv = KvStore::new();
            let docs = DocStore::new();
            snapshot_seq = apply_snapshot(&kv, &docs, &body).map_err(|_| PullFailure::Peer)?;
            let sel = Selector::Ranges { ranges: owned, include_broadcast: true };
            let entries: Vec<SyncEntry> =
                export_entries(&kv, &docs, self.cfg.seed, &sel).into_iter().map(|(e, _)| e).collect();
            filled = self.fill_missing(node, &entries, &token).map_err(PullFailure::Local)?;
        }
        let tail = topo.channels[peer]
            .call("sync/tail", &WalTailRequest { from_seq: snapshot_seq }.encode())
            .map_err(|_| PullFailure::Peer)?;
        let list = BlobList::decode(&tail).map_err(|_| PullFailure::Peer)?;
        let mut replayed = 0u64;
        for item in &list.items {
            let Ok(rec) = WalRecord::decode(item) else { continue };
            // Sync-apply records are a peer's own resync history, not
            // client writes: every acked client write is carried as a
            // normal record by at least W original ackers.
            if seen.contains(&rec.id)
                || rec.route.starts_with("sync/")
                || !targets_node(topo, &rec.route, &rec.payload, idx)
            {
                continue;
            }
            seen.insert(rec.id);
            match node.engine_call(&rec.route, &rec.payload) {
                // Application errors are recorded history (e.g. a
                // duplicate insert whose first application was compacted
                // out of our own WAL) — not resync failures.
                Ok(_) | Err(NetError::Remote(_)) => replayed += 1,
                Err(_) => {
                    return Err(PullFailure::Local(CoreError::Storage(format!("node {idx} crashed during resync"))));
                }
            }
        }
        Ok((filled, replayed))
    }

    /// Streams a peer's pinned snapshot body in CRC-framed chunks, resuming
    /// each chunk once on a torn frame, and verifies the whole-body CRC
    /// advertised at `sync/begin`.
    fn stream_snapshot(&self, topo: &Topology, peer: usize, token: [u8; 16]) -> Result<Vec<u8>, PullFailure> {
        let begin =
            topo.channels[peer].call("sync/begin", &TransferBegin { token }.encode()).map_err(|_| PullFailure::Peer)?;
        let info = TransferInfo::decode(&begin).map_err(|_| PullFailure::Peer)?;
        let mut body = Vec::with_capacity(info.total_len as usize);
        while (body.len() as u64) < info.total_len {
            let req = ChunkRequest { token, offset: body.len() as u64, max_len: SYNC_CHUNK_LEN };
            let chunk = self.fetch_chunk(topo, peer, &req)?;
            body.extend_from_slice(&chunk);
        }
        let _ = topo.channels[peer].call("sync/end", &TransferBegin { token }.encode());
        if crc32(&body) != info.crc {
            return Err(PullFailure::Peer);
        }
        Ok(body)
    }

    /// One chunk fetch with one resume retry: the transfer stays pinned
    /// peer-side, so the retry picks back up at the same offset.
    fn fetch_chunk(&self, topo: &Topology, peer: usize, req: &ChunkRequest) -> Result<Vec<u8>, PullFailure> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let outcome = topo.channels[peer]
                .call("sync/chunk", &req.encode())
                .map_err(|_| ())
                .and_then(|resp| ChunkResponse::decode(&resp).map_err(|_| ()))
                .and_then(|c| {
                    if c.offset != req.offset || c.data.is_empty() || crc32(&c.data) != c.crc {
                        Err(())
                    } else {
                        Ok(c.data)
                    }
                });
            match outcome {
                Ok(data) => return Ok(data),
                Err(()) if attempts == 1 => self.obs.count("cluster.resync.chunk_retry", 1),
                Err(()) => return Err(PullFailure::Peer),
            }
        }
    }

    /// Installs the subset of `entries` the node does not already hold:
    /// local keys keep their local value (the anti-entropy majority vote
    /// arbitrates divergence later), missing keys are applied through the
    /// idempotent `sync/put` envelope so a torn fill replays exactly once.
    fn fill_missing(&self, node: &NodeState, entries: &[SyncEntry], salt: &[u8]) -> Result<u64, CoreError> {
        if entries.is_empty() {
            return Ok(0);
        }
        let whole = RangeSelect { seed: self.cfg.seed, ranges: vec![(0, 0)], include_broadcast: true };
        let have: HashSet<Vec<u8>> = node
            .engine_call("sync/entries", &whole.encode())
            .ok()
            .and_then(|resp| SyncEntries::decode(&resp).ok())
            .map(|local| local.entries.iter().map(entry_key).collect())
            .unwrap_or_default();
        let missing: Vec<&SyncEntry> = entries.iter().filter(|e| !have.contains(&entry_key(e))).collect();
        let mut applied = 0u64;
        for (batch_idx, batch) in missing.chunks(SYNC_PUT_BATCH).enumerate() {
            let put = SyncEntries { entries: batch.iter().map(|&e| e.clone()).collect() };
            let payload = put.encode();
            let mut h = Sha256::new();
            h.update(b"cluster-fill");
            h.update(salt);
            h.update(&(batch_idx as u64).to_be_bytes());
            h.update(&payload);
            let token: [u8; 16] = h.finalize()[..16].try_into().expect("16-byte prefix");
            let env = Idempotent { token, route: "sync/put".into(), payload };
            match node.engine_call(IDEM_ROUTE, &env.encode()) {
                Ok(_) => applied += batch.len() as u64,
                Err(NetError::Remote(m)) => {
                    return Err(CoreError::Storage(format!("sync/put rejected during fill: {m}")));
                }
                Err(_) => return Err(CoreError::Storage("node crashed applying synced entries".into())),
            }
        }
        Ok(applied)
    }

    fn transfer_token(&self) -> [u8; 16] {
        let mut h = Sha256::new();
        h.update(b"cluster-transfer");
        h.update(&self.cfg.seed.to_be_bytes());
        h.update(&self.transfer_seq.fetch_add(1, Ordering::Relaxed).to_be_bytes());
        h.finalize()[..16].try_into().expect("16-byte prefix")
    }

    /// Adds a member on a fresh slot: the new node pulls exactly the key
    /// ranges it gains from the current owners *before* the new ring
    /// serves, then the members that lost those ranges retire them.
    /// Returns the new slot id.
    ///
    /// Operations racing the change observe a typed
    /// [`NetError::Unavailable`] while the topology lock is write-held.
    ///
    /// # Errors
    ///
    /// I/O failures opening the node, or [`CoreError::Storage`] when the
    /// handoff pull dies: the ring stays unchanged and the slot is not
    /// installed (its partial on-disk state is recovered and reused by the
    /// next attempt).
    pub fn add_node(&self) -> Result<usize, CoreError> {
        let _guard = self.membership.lock();
        let mut topo = self.topo.write();
        let slot = topo.nodes.len();
        let dir = self.cfg.data_dir.as_ref().map(|base| base.join(format!("node{slot}")));
        let crash = self.rejoin_crash.lock().remove(&slot);
        let mut engine = match &dir {
            Some(d) => CloudEngine::open_durable_with(
                d,
                DurabilityOptions {
                    snapshot_every: self.cfg.snapshot_every,
                    dedup_capacity: self.cfg.dedup_capacity,
                    crash,
                },
            )?,
            None => CloudEngine::new(),
        };
        let obs = node_recorder(slot);
        obs.set_enabled(self.obs.is_enabled());
        engine.set_recorder(obs.clone());
        let node = Arc::new(NodeState { dir, engine: RwLock::new(Some(engine)), alive: AtomicBool::new(false), obs });
        let mut new_members = topo.members.clone();
        new_members.push(slot);
        let new_ring = Ring::new(&new_members, self.cfg.vnodes, self.cfg.replication, self.cfg.seed);
        let gained = gained_ranges(&topo.ring, &new_ring, slot);
        self.pull_ranges_into(&topo, &node, None, &gained, true)?;
        for m in topo.members.clone() {
            let lost = lost_ranges(&topo.ring, &new_ring, m);
            if lost.is_empty() || !topo.alive(m) {
                continue;
            }
            let sel = RangeSelect { seed: self.cfg.seed, ranges: lost, include_broadcast: false };
            if topo.nodes[m].engine_call("sync/retire", &sel.encode()).is_err() {
                self.kill_in(&topo, m);
            }
        }
        node.alive.store(true, Ordering::SeqCst);
        topo.channels.push(make_channel(&self.cfg, &node, slot).with_recorder(self.obs.clone()));
        topo.node_ops.push(format!("cluster.node.{slot}.ops"));
        topo.node_errors.push(format!("cluster.node.{slot}.errors"));
        topo.nodes.push(node);
        topo.members = new_members;
        topo.ring = new_ring;
        self.adds.fetch_add(1, Ordering::Relaxed);
        self.obs.count("cluster.node_added", 1);
        self.obs.gauge_set("cluster.nodes", topo.members.len() as i64);
        self.obs.gauge_set("cluster.ring.vnodes", topo.ring.points.len() as i64);
        self.obs.gauge_set(&format!("cluster.node.{slot}.alive"), 1);
        Ok(slot)
    }

    /// Removes member `idx`: every remaining live member first pulls the
    /// ranges it inherits (the leaving node is still a source), then the
    /// slot is decommissioned and the ring forgets it.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] for a non-member or when the
    /// removal would leave fewer members than the replication factor;
    /// [`CoreError::Storage`] when a handoff pull dies (the ring stays
    /// unchanged).
    pub fn remove_node(&self, idx: usize) -> Result<(), CoreError> {
        let _guard = self.membership.lock();
        let mut topo = self.topo.write();
        if !topo.members.contains(&idx) {
            return Err(CoreError::UnsupportedOperation(format!("node {idx} is not a cluster member")));
        }
        if topo.members.len() <= self.cfg.replication {
            return Err(CoreError::UnsupportedOperation(format!(
                "removing node {idx} would leave {} members with {}-way replication",
                topo.members.len() - 1,
                self.cfg.replication
            )));
        }
        let new_members: Vec<usize> = topo.members.iter().copied().filter(|&m| m != idx).collect();
        let new_ring = Ring::new(&new_members, self.cfg.vnodes, self.cfg.replication, self.cfg.seed);
        for &g in &new_members {
            if !topo.alive(g) {
                // A dead member inherits its new ranges on rejoin, when its
                // resync consults the post-removal ring.
                continue;
            }
            let gained = gained_ranges(&topo.ring, &new_ring, g);
            if gained.is_empty() {
                continue;
            }
            if let Err(e) = self.pull_ranges_into(&topo, &topo.nodes[g], Some(g), &gained, false) {
                self.kill_in(&topo, g);
                return Err(e);
            }
        }
        // Decommission: the slot stays allocated (dead) so surviving slot
        // ids keep their meaning; only the ring forgets it.
        let node = &topo.nodes[idx];
        node.alive.store(false, Ordering::SeqCst);
        *node.engine.write() = None;
        self.obs.gauge_set(&format!("cluster.node.{idx}.alive"), 0);
        topo.members = new_members;
        topo.ring = new_ring;
        self.removes.fetch_add(1, Ordering::Relaxed);
        self.obs.count("cluster.node_removed", 1);
        self.obs.gauge_set("cluster.nodes", topo.members.len() as i64);
        self.obs.gauge_set("cluster.ring.vnodes", topo.ring.points.len() as i64);
        Ok(())
    }

    /// Pulls `ranges` into `target` from every live member (minus
    /// `exclude`, the target's own slot when it is already a member).
    /// Peer failures skip that peer — another replica covers the range —
    /// but at least one peer must source the handoff.
    fn pull_ranges_into(
        &self,
        topo: &Topology,
        target: &NodeState,
        exclude: Option<usize>,
        ranges: &[(u64, u64)],
        include_broadcast: bool,
    ) -> Result<(), CoreError> {
        if ranges.is_empty() {
            return Ok(());
        }
        let salt = self.transfer_token();
        let sel = RangeSelect { seed: self.cfg.seed, ranges: ranges.to_vec(), include_broadcast };
        let payload = sel.encode();
        let mut sourced = false;
        for &peer in &topo.members {
            if Some(peer) == exclude || !topo.alive(peer) {
                continue;
            }
            let resp = match topo.channels[peer].call("sync/entries", &payload) {
                Ok(r) => r,
                Err(_) => {
                    self.obs.count("cluster.handoff.peer_failed", 1);
                    continue;
                }
            };
            let Ok(entries) = SyncEntries::decode(&resp) else {
                self.obs.count("cluster.handoff.peer_failed", 1);
                continue;
            };
            self.fill_missing(target, &entries.entries, &salt)?;
            sourced = true;
        }
        if !sourced {
            return Err(CoreError::Storage("no live peer could source the handoff ranges".into()));
        }
        Ok(())
    }
}

// ------------------------------------------------------------ anti-entropy

impl ClusterCloud {
    /// One anti-entropy pass: every live member reports its per-leaf
    /// Merkle digests over the ring's vnode boundaries, divergent leaves
    /// and the broadcast pseudo-leaf are diffed pairwise down to keys, and
    /// lagging replicas are repaired through the idempotent `sync/put`
    /// path. Leaves reported non-empty by a non-owner are retired as
    /// strays. Returns what the pass found and fixed.
    pub fn run_anti_entropy(&self) -> AntiEntropyRound {
        let _guard = self.membership.lock();
        let topo = self.topo.read();
        self.anti_entropy_in(&topo)
    }

    fn anti_entropy_in(&self, topo: &Topology) -> AntiEntropyRound {
        // Background repair gets its own root trace, detached from the
        // client operation whose tick triggered it.
        let _root = self.obs.span_root("cluster.antientropy.round");
        let mut round = AntiEntropyRound::default();
        let boundaries = topo.ring.boundaries();
        let req = DigestRequest { seed: self.cfg.seed, boundaries: boundaries.clone() }.encode();
        let mut digests: BTreeMap<usize, DigestResponse> = BTreeMap::new();
        for &m in &topo.members {
            if !topo.alive(m) {
                continue;
            }
            match topo.channels[m].call("sync/digest", &req) {
                Ok(resp) => {
                    if let Ok(d) = DigestResponse::decode(&resp) {
                        if d.leaves.len() == boundaries.len() {
                            digests.insert(m, d);
                        }
                    }
                }
                Err(NetError::Remote(_)) => {}
                Err(_) => self.note_node_failure(topo, m),
            }
        }
        // Broadcast state lives on every member: one pseudo-leaf covers it.
        let bcast: BTreeSet<&[u8; 32]> = digests.values().map(|d| &d.broadcast).collect();
        if bcast.len() > 1 {
            let group: Vec<usize> = digests.keys().copied().collect();
            self.repair_group(topo, &group, &[], true, &mut round);
        }
        let empty = empty_bucket_digest();
        for j in 0..boundaries.len() {
            let owners = topo.ring.leaf_owners(j);
            let present: Vec<usize> = owners.iter().copied().filter(|o| digests.contains_key(o)).collect();
            let leaf: BTreeSet<&[u8; 32]> = present.iter().map(|o| &digests[o].leaves[j]).collect();
            if leaf.len() > 1 {
                self.repair_group(topo, &present, &[topo.ring.leaf_range(j)], false, &mut round);
            }
            for (&m, d) in &digests {
                if !owners.contains(&m) && d.leaves[j] != empty {
                    // Stray state outside the node's owned ranges (e.g.
                    // left by a membership change it slept through).
                    let sel = RangeSelect {
                        seed: self.cfg.seed,
                        ranges: vec![topo.ring.leaf_range(j)],
                        include_broadcast: false,
                    };
                    if topo.channels[m].call("sync/retire", &sel.encode()).is_ok() {
                        round.strays_retired += 1;
                    }
                }
            }
        }
        self.ae_rounds.fetch_add(1, Ordering::Relaxed);
        self.ae_divergent.fetch_add(round.divergent_keys, Ordering::Relaxed);
        self.ae_repaired_bytes.fetch_add(round.repaired_bytes, Ordering::Relaxed);
        self.obs.count("cluster.antientropy.rounds", 1);
        self.obs.count("cluster.antientropy.divergent_keys", round.divergent_keys);
        self.obs.count("cluster.antientropy.bytes_repaired", round.repaired_bytes);
        round
    }

    /// Diffs one leaf (or the broadcast pseudo-leaf) down to keys across
    /// `group` and repairs every lagging member toward the majority vote.
    fn repair_group(
        &self,
        topo: &Topology,
        group: &[usize],
        ranges: &[(u64, u64)],
        broadcast: bool,
        round: &mut AntiEntropyRound,
    ) {
        let sel = RangeSelect { seed: self.cfg.seed, ranges: ranges.to_vec(), include_broadcast: broadcast };
        let payload = sel.encode();
        let mut responders: Vec<usize> = Vec::new();
        let mut versions: BTreeMap<Vec<u8>, BTreeMap<usize, SyncEntry>> = BTreeMap::new();
        for &m in group {
            let Ok(resp) = topo.channels[m].call("sync/entries", &payload) else { continue };
            let Ok(entries) = SyncEntries::decode(&resp) else { continue };
            responders.push(m);
            for e in entries.entries {
                versions.entry(entry_key(&e)).or_default().insert(m, e);
            }
        }
        if responders.len() < 2 {
            return;
        }
        for (key, holders) in versions {
            let any = holders.values().next().expect("non-empty holder set");
            let (kind, raw_key) = (any.kind, any.key.clone());
            let values: Vec<Option<&[u8]>> =
                responders.iter().map(|m| holders.get(m).map(|e| e.value.as_slice())).collect();
            let distinct: BTreeSet<&Option<&[u8]>> = values.iter().collect();
            if distinct.len() <= 1 {
                continue;
            }
            round.divergent_keys += 1;
            let winner = vote_winner(kind, &raw_key, &values);
            for (i, &m) in responders.iter().enumerate() {
                let target = winner.as_ref().map(|e| e.value.as_slice());
                if values[i] == target {
                    continue;
                }
                let entry = match &winner {
                    Some(e) => e.clone(),
                    None => match tombstone(kind, &raw_key) {
                        Some(t) => t,
                        None => continue,
                    },
                };
                let put = SyncEntries { entries: vec![entry.clone()] }.encode();
                let mut h = Sha256::new();
                h.update(b"anti-entropy");
                h.update(&key);
                h.update(&entry.value);
                let token: [u8; 16] = h.finalize()[..16].try_into().expect("16-byte prefix");
                let env = Idempotent { token, route: "sync/put".into(), payload: put };
                // A failed repair is retried by the next pass.
                if topo.channels[m].call(IDEM_ROUTE, &env.encode()).is_ok() {
                    round.repairs += 1;
                    round.repaired_bytes += (raw_key.len() + entry.value.len()) as u64;
                }
            }
        }
    }

    /// Whether every live member currently reports byte-identical Merkle
    /// state: owners of each leaf agree on its digest, non-owners report
    /// the empty-bucket digest, and the broadcast pseudo-leaf matches
    /// everywhere.
    pub fn replica_digests_converged(&self) -> bool {
        let _guard = self.membership.lock();
        let topo = self.topo.read();
        let boundaries = topo.ring.boundaries();
        let req = DigestRequest { seed: self.cfg.seed, boundaries: boundaries.clone() }.encode();
        let mut digests: BTreeMap<usize, DigestResponse> = BTreeMap::new();
        for &m in &topo.members {
            if !topo.alive(m) {
                continue;
            }
            let Ok(resp) = topo.channels[m].call("sync/digest", &req) else { return false };
            let Ok(d) = DigestResponse::decode(&resp) else { return false };
            if d.leaves.len() != boundaries.len() {
                return false;
            }
            digests.insert(m, d);
        }
        if digests.is_empty() {
            return true;
        }
        let bcast: BTreeSet<&[u8; 32]> = digests.values().map(|d| &d.broadcast).collect();
        if bcast.len() > 1 {
            return false;
        }
        let empty = empty_bucket_digest();
        for j in 0..boundaries.len() {
            let owners = topo.ring.leaf_owners(j);
            let mut leaf: BTreeSet<&[u8; 32]> = BTreeSet::new();
            for (&m, d) in &digests {
                if owners.contains(&m) {
                    leaf.insert(&d.leaves[j]);
                } else if d.leaves[j] != empty {
                    return false;
                }
            }
            if leaf.len() > 1 {
                return false;
            }
        }
        true
    }

    /// Write-holds the topology while `f` runs — exactly the transfer
    /// window an `add_node`/`remove_node` handoff opens. Concurrent
    /// operations observe a typed [`NetError::Unavailable`] instead of a
    /// half-moved ring. Maintenance/test hook.
    pub fn with_membership_frozen<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = self.membership.lock();
        let _topo = self.topo.write();
        f()
    }

    /// Ticks the background anti-entropy cadence, running one pass when it
    /// comes due. Runs *before* the caller takes the topology read lock.
    fn maybe_anti_entropy(&self) {
        let Some(every) = self.cfg.anti_entropy_every else { return };
        if every == 0 {
            return;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(every) {
            self.run_anti_entropy();
        }
    }

    /// Drains pending membership events before handling an operation.
    fn pump_events(&self) {
        let Some(injector) = &self.injector else { return };
        let events = {
            let _guard = self.membership.lock();
            injector.on_op()
        };
        for event in events {
            match event {
                NodeEvent::Kill(i) => self.kill_node(i),
                NodeEvent::Rejoin(i) => {
                    // A failed rejoin (crash mid-resync) leaves the node
                    // down; only a later rejoin event retries it.
                    let _ = self.rejoin_node(i);
                }
                NodeEvent::AddNode => {
                    let _ = self.add_node();
                }
                NodeEvent::RemoveNode(i) => {
                    let _ = self.remove_node(i);
                }
            }
        }
    }

    /// A node that answered with a transport error may have crashed for
    /// good (its crash injector fired): observe that and mark it down so
    /// later operations skip it instead of burning retries. Must not take
    /// the membership lock — it runs while the caller holds the topology
    /// read lock, concurrently with membership changes waiting on write.
    fn note_node_failure(&self, topo: &Topology, idx: usize) {
        self.obs.count(&topo.node_errors[idx], 1);
        let crashed = topo.nodes[idx].engine.read().as_ref().is_some_and(CloudEngine::crashed);
        if crashed {
            self.kill_in(topo, idx);
        }
    }
}

/// Whether a journaled `(route, payload)` belongs on node `idx` under the
/// given topology. Sync-apply records never transfer between nodes.
fn targets_node(topo: &Topology, route: &str, payload: &[u8], idx: usize) -> bool {
    if route == IDEM_ROUTE {
        let Ok(env) = Idempotent::decode(payload) else { return true };
        if env.route.starts_with("sync/") {
            return false;
        }
        return match write_target(&env.route, &env.payload) {
            Ok(WriteTarget::Key(k)) => topo.ring.replicas(&k).contains(&idx),
            _ => true,
        };
    }
    if route.starts_with("sync/") {
        return false;
    }
    match write_target(route, payload) {
        Ok(WriteTarget::Key(k)) => topo.ring.replicas(&k).contains(&idx),
        _ => true,
    }
}

/// Where a write route lands: one key's replica set, or every node.
fn write_target(route: &str, payload: &[u8]) -> Result<WriteTarget, CoreError> {
    if let Some(op) = route.strip_prefix("doc/") {
        let (collection, rest) = split_collection(payload)?;
        return Ok(match op {
            "insert" | "update" => WriteTarget::Key(doc_key(collection, encoded_doc_id(rest)?)),
            "delete" => WriteTarget::Key(doc_key(collection, rest)),
            // ensure_index and future doc-level writes shape every
            // replica's view of the collection.
            _ => WriteTarget::Broadcast,
        });
    }
    let parts: Vec<&str> = route.split('/').collect();
    if let ["tactic", name, scope, op] = parts[..] {
        // Index mutations cluster on the scope so its search route reads
        // the same replicas the updates wrote; setup broadcasts (every
        // node may need the scope's public parameters).
        return Ok(if op == "setup" {
            WriteTarget::Broadcast
        } else {
            WriteTarget::Key(format!("tactic/{name}/{scope}").into_bytes())
        });
    }
    // kv/* and unknown write routes touch shared substrate state.
    Ok(WriteTarget::Broadcast)
}

// ------------------------------------------------------ writes and reads

impl ClusterCloud {
    /// Sends one write to its replica set and succeeds once W replicas
    /// durably acked. Replicas are tried in ring order (deterministic);
    /// down nodes count as missing acks.
    fn quorum_write(
        &self,
        topo: &Topology,
        target: &WriteTarget,
        route: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let replicas: Vec<usize> = match target {
            WriteTarget::Key(k) => topo.ring.replicas(k),
            WriteTarget::Broadcast => topo.members.clone(),
        };
        let quorum = self.cfg.write_quorum.min(replicas.len()).max(1);
        let mut span = self.obs.quiet_span("cluster.quorum_write");
        span.set_detail(route);
        let started = self.obs.start();
        let mut acks = 0usize;
        let mut first: Option<Vec<u8>> = None;
        let mut app_err: Option<NetError> = None;
        for &i in &replicas {
            if !topo.alive(i) {
                continue;
            }
            self.obs.count(&topo.node_ops[i], 1);
            match topo.channels[i].call(route, payload) {
                Ok(resp) => {
                    acks += 1;
                    if first.is_none() {
                        first = Some(resp);
                    }
                }
                Err(NetError::Remote(m)) => app_err = Some(NetError::Remote(m)),
                Err(_) => self.note_node_failure(topo, i),
            }
        }
        if let Some(t0) = started {
            self.obs.observe("cluster.write.quorum_latency", t0.elapsed());
        }
        if acks >= quorum {
            self.obs.count("cluster.write.quorum_ok", 1);
            return Ok(first.unwrap_or_default());
        }
        if let Some(e) = app_err {
            // Deterministic engines fail identically on every replica: the
            // application error *is* the answer, not an availability issue.
            span.fail();
            span.set_detail(&e.to_string());
            return Err(e);
        }
        self.obs.count("cluster.write.quorum_fail", 1);
        let message = format!("write quorum not met: {acks}/{quorum} acks for {route}");
        span.fail();
        span.set_detail(&message);
        Err(NetError::Unavailable(message))
    }

    /// Decomposes a sealed batch: every write item becomes its own quorum
    /// write under a token derived from the envelope's (so cross-replica
    /// retries dedup), reads run through the clustered read paths, and
    /// responses keep the original order. Like the single-node engine, the
    /// batch aborts on the first failing item.
    fn handle_batch(&self, topo: &Topology, env: &Idempotent) -> Result<Vec<u8>, NetError> {
        let mut r = Reader::new(&env.payload);
        let items = r.list().map_err(|e| remote(e.into()))?;
        if items.len() % 2 != 0 {
            return Err(remote(CoreError::Wire("batch item count")));
        }
        let mut responses = Vec::with_capacity(items.len() / 2);
        for (idx, pair) in items.chunks(2).enumerate() {
            let route = std::str::from_utf8(pair[0]).map_err(|_| remote(CoreError::Wire("utf8 route")))?;
            if route == "batch" || route == IDEM_ROUTE {
                return Err(remote(CoreError::UnsupportedOperation("nested batch".into())));
            }
            let resp = if is_write_route(route) {
                let target = write_target(route, pair[1]).map_err(remote)?;
                let sub = Idempotent {
                    token: sub_token(&env.token, idx as u64),
                    route: route.to_string(),
                    payload: pair[1].to_vec(),
                };
                self.quorum_write(topo, &target, IDEM_ROUTE, &sub.encode())?
            } else {
                self.clustered_read(topo, route, pair[1])?
            };
            responses.push(resp);
        }
        let mut w = Writer::new();
        w.list(&responses);
        Ok(w.finish())
    }

    fn clustered_read(&self, topo: &Topology, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        match route {
            "doc/get" => self.read_doc(topo, payload),
            "doc/get_many" => self.read_get_many(topo, payload),
            "doc/count" => {
                let (collection, _) = split_collection(payload).map_err(remote)?;
                let ids = self.union_ids(topo, collection)?;
                Ok((ids.len() as u64).to_be_bytes().to_vec())
            }
            "doc/list_ids" => {
                let (collection, _) = split_collection(payload).map_err(remote)?;
                let ids = self.union_ids(topo, collection)?;
                let mut w = Writer::new();
                w.list(&ids);
                Ok(w.finish())
            }
            "doc/find_ids_eq" | "doc/find_ids_range" | "doc/find_ids_dnf" => {
                let mut union: BTreeSet<DocId> = BTreeSet::new();
                for resp in self.scatter(topo, route, payload)? {
                    union.extend(decode_ids(&resp).map_err(remote)?);
                }
                Ok(encode_ids(&union.into_iter().collect::<Vec<_>>()))
            }
            "doc/extreme" => self.read_extreme(topo, payload),
            "doc/agg_plain" => self.read_agg_plain(topo, payload),
            _ => self.read_tactic(topo, route, payload),
        }
    }

    /// Probes every live replica of the document, answers with the majority
    /// value (lexicographically smallest on ties, so the answer is
    /// deterministic) and repairs divergent or missing replicas in place.
    fn read_doc(&self, topo: &Topology, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let (collection, id) = split_collection(payload).map_err(remote)?;
        let replicas = topo.ring.replicas(&doc_key(collection, id));
        let mut results: Vec<(usize, Result<Vec<u8>, NetError>)> = Vec::with_capacity(replicas.len());
        for &i in &replicas {
            if !topo.alive(i) {
                continue;
            }
            self.obs.count(&topo.node_ops[i], 1);
            let outcome = topo.channels[i].call("doc/get", payload);
            if matches!(&outcome, Err(e) if !is_not_found(e) && !matches!(e, NetError::Remote(_))) {
                self.note_node_failure(topo, i);
            }
            results.push((i, outcome));
        }
        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for (_, outcome) in &results {
            if let Ok(body) = outcome {
                *counts.entry(body.as_slice()).or_default() += 1;
            }
        }
        let Some(winner) = counts.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0))).map(|(body, _)| body.to_vec())
        else {
            // No replica produced the document.
            if let Some((_, Err(e))) = results.iter().find(|(_, o)| matches!(o, Err(e) if is_not_found(e))) {
                return Err(e.clone());
            }
            if let Some((_, Err(NetError::Remote(m)))) =
                results.iter().find(|(_, o)| matches!(o, Err(NetError::Remote(_))))
            {
                return Err(NetError::Remote(m.clone()));
            }
            return Err(NetError::Unavailable(format!("no live replica answered doc/get in {collection}")));
        };
        for (i, outcome) in &results {
            let repair_route = match outcome {
                Ok(body) if *body != winner => "doc/update",
                Err(e) if is_not_found(e) => "doc/insert",
                _ => continue,
            };
            if topo.channels[*i].call(repair_route, &with_collection(collection, &winner)).is_ok() {
                self.read_repairs.fetch_add(1, Ordering::Relaxed);
                self.obs.count("cluster.read_repair", 1);
            }
        }
        Ok(winner)
    }

    /// Answers `get_many` from where the documents live: each id is asked of
    /// its first live replica only, an id that node does not return is asked
    /// of the id's next live replica, and the answer is the byte slices the
    /// nodes sent, spliced together in request order — no document is
    /// decoded or encoded here. Like one engine, it skips ids nobody holds;
    /// an id none of whose replicas answered at all is
    /// [`NetError::Unavailable`], since the document may exist.
    fn read_get_many(&self, topo: &Topology, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        /// One requested id still looking for its document.
        struct Want {
            /// Position in the request.
            pos: usize,
            /// Replicas not yet asked, in ring order.
            untried: std::vec::IntoIter<usize>,
            /// Whether any replica has answered for this id.
            answered: bool,
        }

        let (collection, rest) = split_collection(payload).map_err(remote)?;
        let requested = byte_list(rest)?;
        // Non-UTF-8 ids name nothing, here as on one engine.
        let mut wanted: Vec<Want> = (0..requested.len())
            .filter(|&pos| std::str::from_utf8(requested[pos]).is_ok())
            .map(|pos| Want {
                pos,
                untried: topo.ring.replicas(&doc_key(collection, requested[pos])).into_iter(),
                answered: false,
            })
            .collect();

        // Node answers, and per requested position the answer and the place
        // in it where the document lies.
        let mut answers: Vec<Vec<u8>> = Vec::new();
        let mut found: Vec<Option<(usize, usize)>> = vec![None; requested.len()];
        while !wanted.is_empty() {
            let mut per_node: BTreeMap<usize, Vec<Want>> = BTreeMap::new();
            for mut want in wanted.drain(..) {
                match want.untried.find(|&node| topo.alive(node)) {
                    Some(node) => per_node.entry(node).or_default().push(want),
                    None if want.answered => {}
                    None => {
                        let id = String::from_utf8_lossy(requested[want.pos]);
                        return Err(NetError::Unavailable(format!("every replica of document {id} is unreachable")));
                    }
                }
            }
            for (node, asked) in per_node {
                let mut w = Writer::new();
                w.list_with(&asked, |want, w| {
                    w.raw(requested[want.pos]);
                });
                self.obs.count(&topo.node_ops[node], 1);
                let answer = match topo.channels[node].call("doc/get_many", &with_collection(collection, &w.finish())) {
                    Ok(answer) => answer,
                    Err(NetError::Remote(m)) => return Err(NetError::Remote(m)),
                    Err(_) => {
                        self.note_node_failure(topo, node);
                        wanted.extend(asked);
                        continue;
                    }
                };
                // The node answers in the order asked and leaves out what it
                // does not hold: one walk over both pairs them up.
                let docs = byte_list(&answer)?;
                let mut asked = asked.into_iter().map(|want| Want { answered: true, ..want });
                for (at, doc) in docs.iter().enumerate() {
                    let id = Reader::new(doc).bytes().map_err(|e| remote(e.into()))?;
                    loop {
                        let want = asked.next().ok_or_else(|| remote(CoreError::Wire("get_many answer")))?;
                        if requested[want.pos] == id {
                            found[want.pos] = Some((answers.len(), at));
                            break;
                        }
                        wanted.push(want);
                    }
                }
                wanted.extend(asked);
                answers.push(answer);
            }
        }

        let answers: Vec<Vec<&[u8]>> = answers.iter().map(|answer| byte_list(answer)).collect::<Result<_, _>>()?;
        let mut w = Writer::new();
        w.list_with(found.into_iter().flatten(), |(answer, at), w| {
            w.raw(answers[answer][at]);
        });
        Ok(w.finish())
    }

    /// Scatter-gathers `extreme`: each node nominates its local extreme,
    /// the cluster fetches the candidates and compares their stored bytes
    /// (ties break toward the smaller id, so the answer is deterministic).
    fn read_extreme(&self, topo: &Topology, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let (collection, rest) = split_collection(payload).map_err(remote)?;
        if rest.is_empty() {
            return Err(remote(CoreError::Wire("extreme payload")));
        }
        let want_max = rest[0] == 1;
        let field = std::str::from_utf8(&rest[1..]).map_err(|_| remote(CoreError::Wire("utf8 field")))?;
        let mut candidates: BTreeSet<String> = BTreeSet::new();
        for resp in self.scatter(topo, "doc/extreme", payload)? {
            if !resp.is_empty() {
                candidates.insert(String::from_utf8(resp).map_err(|_| remote(CoreError::Wire("utf8 id")))?);
            }
        }
        let mut best: Option<(Vec<u8>, String)> = None;
        for id in candidates {
            let body = match self.read_doc(topo, &with_collection(collection, id.as_bytes())) {
                Ok(body) => body,
                // The candidate vanished between the scatter and the fetch.
                Err(e) if is_not_found(&e) => continue,
                Err(e) => return Err(e),
            };
            let doc = decode_document(&body).map_err(remote)?;
            let Some(bytes) = doc.get(field).and_then(Value::as_bytes).map(<[u8]>::to_vec) else {
                continue;
            };
            best = Some(match best {
                None => (bytes, id),
                Some(prev) => {
                    let challenger = (bytes, id);
                    let challenger_wins = match challenger.0.cmp(&prev.0) {
                        std::cmp::Ordering::Equal => challenger.1 < prev.1,
                        std::cmp::Ordering::Greater => want_max,
                        std::cmp::Ordering::Less => !want_max,
                    };
                    if challenger_wins {
                        challenger
                    } else {
                        prev
                    }
                }
            });
        }
        Ok(best.map(|(_, id)| id.into_bytes()).unwrap_or_default())
    }

    /// Distributes a plaintext aggregate: every document is assigned to its
    /// first live replica, each node aggregates only its assignment via
    /// `doc/agg_plain_ids`, and the partial sums/counts are combined here.
    fn read_agg_plain(&self, topo: &Topology, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let (collection, rest) = split_collection(payload).map_err(remote)?;
        let field = std::str::from_utf8(rest).map_err(|_| remote(CoreError::Wire("utf8 field")))?;
        let per_node = self.partition_ids(topo, collection, self.union_ids(topo, collection)?)?;
        let mut sum = 0.0f64;
        let mut count = 0u64;
        for (node, ids) in per_node {
            let mut w = Writer::new();
            w.str(field).list(&ids);
            let resp = match topo.channels[node].call("doc/agg_plain_ids", &with_collection(collection, &w.finish())) {
                Ok(resp) => resp,
                Err(NetError::Remote(m)) => return Err(NetError::Remote(m)),
                Err(_) => {
                    self.note_node_failure(topo, node);
                    return Err(NetError::Unavailable(format!("aggregate partition on node {node} unreachable")));
                }
            };
            if resp.len() < 16 {
                return Err(remote(CoreError::Wire("agg response")));
            }
            sum += f64::from_be_bytes(resp[..8].try_into().expect("8-byte slice"));
            count += u64::from_be_bytes(resp[8..16].try_into().expect("8-byte slice"));
        }
        let mut out = sum.to_be_bytes().to_vec();
        out.extend_from_slice(&count.to_be_bytes());
        Ok(out)
    }

    fn read_tactic(&self, topo: &Topology, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let parts: Vec<&str> = route.split('/').collect();
        if let ["tactic", name, scope, op] = parts[..] {
            if name == "paillier" && op == "sum" {
                return self.read_paillier_sum(topo, scope, route, payload);
            }
            // Index reads go to the replicas its writes clustered on, in
            // ring order, failing over past dead nodes.
            let key = format!("tactic/{name}/{scope}").into_bytes();
            let replicas = topo.ring.replicas(&key);
            return self.first_live_of(topo, &replicas, route, payload);
        }
        // Unknown read route: any live node (replicated state or none).
        self.first_live_of(topo, &topo.members.clone(), route, payload)
    }

    /// Distributes a Paillier sum: each partition node folds its own
    /// documents under the public key the request carries, and one of them
    /// multiplies the partial ciphertexts together (`combine`) — the cluster
    /// never needs the secret key, preserving the tactic's security model,
    /// and no node needs to have seen the key before.
    fn read_paillier_sum(
        &self,
        topo: &Topology,
        scope: &str,
        route: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let req = PaillierSum::decode(payload).map_err(remote)?;
        let ids = if req.ids.is_empty() { self.union_ids(topo, &req.collection)? } else { req.ids };
        if ids.is_empty() {
            return Ok(PaillierSumResponse { ciphertext: Vec::new(), count: 0 }.encode());
        }
        let per_node = self.partition_ids(topo, &req.collection, ids)?;
        let mut partials = Vec::with_capacity(per_node.len());
        let mut combine_at = None;
        let mut sub = PaillierSum { ids: Vec::new(), ..req };
        for (node, ids) in per_node {
            sub.ids = ids;
            match topo.channels[node].call(route, &sub.encode()) {
                Ok(resp) => {
                    combine_at.get_or_insert(node);
                    partials.push(resp);
                }
                Err(NetError::Remote(m)) => return Err(NetError::Remote(m)),
                Err(_) => {
                    self.note_node_failure(topo, node);
                    return Err(NetError::Unavailable(format!("paillier partition on node {node} unreachable")));
                }
            }
        }
        if partials.len() == 1 {
            return Ok(partials.pop().expect("one partial"));
        }
        let combine = PaillierCombine { modulus: sub.modulus, partials };
        let combine_route = format!("tactic/paillier/{scope}/combine");
        // A node that just served a partial is reachable.
        let at = combine_at.expect("at least one partition");
        match topo.channels[at].call(&combine_route, &combine.encode()) {
            Ok(resp) => Ok(resp),
            Err(NetError::Remote(m)) => Err(NetError::Remote(m)),
            Err(_) => Err(NetError::Unavailable(format!("paillier combine on node {at} unreachable"))),
        }
    }

    /// Fans a read out to every live node. Fails with
    /// [`NetError::Unavailable`] when the unreachable set is large enough
    /// that some key could have *no* live replica (the union might miss
    /// documents) and propagates application errors conservatively.
    fn scatter(&self, topo: &Topology, route: &str, payload: &[u8]) -> Result<Vec<Vec<u8>>, NetError> {
        let mut out = Vec::with_capacity(topo.members.len());
        let mut unreachable = 0usize;
        let mut app_err: Option<NetError> = None;
        for &i in &topo.members {
            if !topo.alive(i) {
                unreachable += 1;
                continue;
            }
            self.obs.count(&topo.node_ops[i], 1);
            match topo.channels[i].call(route, payload) {
                Ok(resp) => out.push(resp),
                Err(NetError::Remote(m)) => app_err = Some(NetError::Remote(m)),
                Err(_) => {
                    unreachable += 1;
                    self.note_node_failure(topo, i);
                }
            }
        }
        if unreachable >= self.cfg.replication {
            return Err(NetError::Unavailable(format!(
                "{unreachable} of {} nodes unreachable with {}-way replication: scatter result would be partial",
                topo.members.len(),
                self.cfg.replication
            )));
        }
        if let Some(e) = app_err {
            return Err(e);
        }
        Ok(out)
    }

    /// Tries `candidates` in order; the first node that answers (success or
    /// application error) decides.
    fn first_live_of(
        &self,
        topo: &Topology,
        candidates: &[usize],
        route: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        for &i in candidates {
            if !topo.alive(i) {
                continue;
            }
            self.obs.count(&topo.node_ops[i], 1);
            match topo.channels[i].call(route, payload) {
                Ok(resp) => return Ok(resp),
                Err(NetError::Remote(m)) => return Err(NetError::Remote(m)),
                Err(_) => self.note_node_failure(topo, i),
            }
        }
        Err(NetError::Unavailable(format!("no live replica for {route}")))
    }

    /// The distinct document ids of a collection across all live nodes.
    fn union_ids(&self, topo: &Topology, collection: &str) -> Result<Vec<String>, NetError> {
        let payload = with_collection(collection, &[]);
        let mut union: BTreeSet<String> = BTreeSet::new();
        for resp in self.scatter(topo, "doc/list_ids", &payload)? {
            let mut r = Reader::new(&resp);
            for id in r.list().map_err(|e| remote(e.into()))? {
                union.insert(String::from_utf8(id.to_vec()).map_err(|_| remote(CoreError::Wire("utf8 id")))?);
            }
        }
        Ok(union.into_iter().collect())
    }

    /// Assigns each document id to the first live node of its replica set.
    fn partition_ids(
        &self,
        topo: &Topology,
        collection: &str,
        ids: Vec<String>,
    ) -> Result<BTreeMap<usize, Vec<String>>, NetError> {
        let mut per_node: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for id in ids {
            let replicas = topo.ring.replicas(&doc_key(collection, id.as_bytes()));
            let Some(&live) = replicas.iter().find(|&&r| topo.alive(r)) else {
                return Err(NetError::Unavailable(format!("every replica of document {id} is down")));
            };
            per_node.entry(live).or_default().push(id);
        }
        Ok(per_node)
    }
}

impl CloudService for ClusterCloud {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        if route == datablinder_obs::trace::TRACED_ROUTE {
            // Adopt the gateway's trace context before fanning out, so the
            // per-replica channel spans hang off the caller's tree.
            let (ctx, inner_route, inner_payload) = datablinder_obs::trace::decode_traced(payload)
                .map_err(|e| NetError::Remote(format!("trace envelope: {e}")))?;
            let _scope = ctx.enter();
            return self.handle(inner_route, inner_payload);
        }
        if route == "obs/snapshot" {
            // Metric scraping must not perturb the deterministic failure
            // schedule or op counters: answer before any event pump.
            return Ok(self.snapshot().to_json().into_bytes());
        }
        self.pump_events();
        self.maybe_anti_entropy();
        self.obs.count("cluster.ops", 1);
        // A membership change write-holds the topology: fail fast with a
        // typed error instead of reading a half-moved ring.
        let Some(topo) = self.topo.try_read() else {
            return Err(NetError::Unavailable("cluster membership change in progress".into()));
        };
        let topo = &*topo;
        if route == IDEM_ROUTE {
            let env = Idempotent::decode(payload).map_err(remote)?;
            if env.route == "batch" {
                return self.handle_batch(topo, &env);
            }
            let target = write_target(&env.route, &env.payload).map_err(remote)?;
            // The whole envelope replicates: every replica dedups on the
            // same token, so a retry that lands on a different replica
            // subset cannot double-apply.
            return self.quorum_write(topo, &target, IDEM_ROUTE, payload);
        }
        if route == "batch" {
            // A bare batch (no envelope) still decomposes; its item tokens
            // derive from the batch content so retries stay idempotent.
            let mut h = Sha256::new();
            h.update(payload);
            let token: [u8; 16] = h.finalize()[..16].try_into().expect("16-byte prefix");
            let env = Idempotent { token, route: "batch".into(), payload: payload.to_vec() };
            return self.handle_batch(topo, &env);
        }
        if is_write_route(route) {
            let target = write_target(route, payload).map_err(remote)?;
            return self.quorum_write(topo, &target, route, payload);
        }
        self.clustered_read(topo, route, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{in_any_range, in_range};
    use crate::wire::encode_document;
    use datablinder_docstore::Document;

    fn insert_payload(collection: &str, idx: u8) -> Vec<u8> {
        let id = DocId([idx; 16]);
        let doc = Document::new(id.to_hex()).with("v", Value::from(i64::from(idx)));
        with_collection(collection, &encode_document(&doc))
    }

    #[test]
    fn ring_is_deterministic_and_distinct() {
        let a = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 42);
        let b = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 42);
        for key in [b"alpha".as_slice(), b"beta", b"gamma", b""] {
            let reps = a.replicas(key);
            assert_eq!(reps, b.replicas(key), "same seed, same placement");
            assert_eq!(reps.len(), 3);
            let distinct: BTreeSet<_> = reps.iter().collect();
            assert_eq!(distinct.len(), 3, "replicas are distinct nodes");
        }
        let c = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 43);
        let moved = (0u32..64).filter(|i| a.replicas(&i.to_be_bytes()) != c.replicas(&i.to_be_bytes())).count();
        assert!(moved > 0, "a different seed moves keys");
    }

    #[test]
    fn ring_spreads_keys_across_nodes() {
        let ring = Ring::new(&[0, 1, 2, 3], 16, 1, 7);
        let mut hits = [0usize; 4];
        for i in 0u32..256 {
            hits[ring.replicas(&i.to_be_bytes())[0]] += 1;
        }
        for (node, &h) in hits.iter().enumerate() {
            assert!(h > 0, "node {node} owns no keys: {hits:?}");
        }
    }

    #[test]
    fn adding_a_member_moves_keys_only_toward_it() {
        let old = Ring::new(&[0, 1, 2], 16, 2, 42);
        let new = Ring::new(&[0, 1, 2, 3], 16, 2, 42);
        let mut moved = 0usize;
        for i in 0u32..512 {
            let key = i.to_be_bytes();
            let before = old.replicas(&key);
            let after = new.replicas(&key);
            if before != after {
                moved += 1;
                assert!(
                    after.contains(&3),
                    "a changed replica set must involve the new member: {before:?} -> {after:?}"
                );
            }
        }
        assert!(moved > 0, "the new member takes over some keys");
        assert!(moved < 512, "membership change must not reshuffle everything");
    }

    #[test]
    fn gained_and_lost_ranges_match_ownership_diff() {
        let old = Ring::new(&[0, 1, 2], 16, 2, 42);
        let new = Ring::new(&[0, 1, 2, 3], 16, 2, 42);
        for node in 0..4usize {
            let gained = gained_ranges(&old, &new, node);
            let lost = lost_ranges(&old, &new, node);
            for i in 0u32..512 {
                let h = hash_bytes(42, &i.to_be_bytes());
                let owns_old = old.replicas_at(h).contains(&node);
                let owns_new = new.replicas_at(h).contains(&node);
                assert_eq!(
                    in_any_range(h, &gained),
                    owns_new && !owns_old,
                    "gained ranges of node {node} disagree at hash {h:#x}"
                );
                assert_eq!(
                    in_any_range(h, &lost),
                    owns_old && !owns_new,
                    "lost ranges of node {node} disagree at hash {h:#x}"
                );
            }
        }
    }

    #[test]
    fn owned_and_unowned_ranges_partition_the_circle() {
        let ring = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 9);
        for node in 0..5usize {
            let owned = ring.ranges_of(node, true);
            let unowned = ring.ranges_of(node, false);
            for i in 0u32..512 {
                let h = hash_bytes(9, &i.to_be_bytes());
                let owns = ring.replicas_at(h).contains(&node);
                assert_eq!(in_any_range(h, &owned), owns);
                assert_eq!(in_any_range(h, &unowned), !owns);
            }
        }
    }

    #[test]
    fn leaf_owners_agree_with_replica_lookup() {
        let ring = Ring::new(&[0, 1, 2, 3], 16, 2, 77);
        let boundaries = ring.boundaries();
        for i in 0u32..256 {
            let h = hash_bytes(77, &i.to_be_bytes());
            let j = crate::sync::leaf_of(h, &boundaries);
            assert_eq!(ring.leaf_owners(j), ring.replicas_at(h));
            assert!(in_range(h, ring.leaf_range(j)), "hash falls inside its leaf's range");
        }
    }

    #[test]
    fn write_replicates_and_survives_replica_loss() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 9)).unwrap();
        cluster.handle("doc/insert", &insert_payload("notes", 1)).unwrap();
        let id = DocId([1; 16]).to_hex();
        let replicas = cluster.doc_replicas("notes", &id);
        assert_eq!(replicas.len(), 3);
        for &r in &replicas {
            let held = cluster.with_node_engine(r, |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
            assert!(held, "replica {r} holds the document");
        }
        // Killing R-1 replicas leaves the read answerable.
        cluster.kill_node(replicas[0]);
        cluster.kill_node(replicas[1]);
        let got = cluster.handle("doc/get", &with_collection("notes", id.as_bytes())).unwrap();
        assert!(!got.is_empty());
    }

    #[test]
    fn unmet_quorum_is_typed_unavailable_not_a_hang() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 3, 3, 5)).unwrap();
        cluster.kill_node(0);
        let err = cluster.handle("doc/insert", &insert_payload("notes", 2)).unwrap_err();
        assert!(matches!(err, NetError::Unavailable(_)), "got {err:?}");
    }

    #[test]
    fn read_repair_heals_a_stale_replica() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 1, 11)).unwrap();
        cluster.handle("doc/insert", &insert_payload("notes", 3)).unwrap();
        let id = DocId([3; 16]).to_hex();
        let replicas = cluster.doc_replicas("notes", &id);
        // Erase the document on one replica behind the cluster's back.
        cluster.with_node_engine(replicas[1], |e| e.docs().collection("notes").delete(&id).unwrap()).unwrap();
        cluster.handle("doc/get", &with_collection("notes", id.as_bytes())).unwrap();
        assert_eq!(cluster.read_repairs(), 1);
        let healed =
            cluster.with_node_engine(replicas[1], |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
        assert!(healed, "read repair reinserted the lost replica");
    }

    #[test]
    fn batch_sub_tokens_are_deterministic_and_distinct() {
        let t = [7u8; 16];
        assert_eq!(sub_token(&t, 0), sub_token(&t, 0));
        assert_ne!(sub_token(&t, 0), sub_token(&t, 1));
        assert_ne!(sub_token(&t, 0), sub_token(&[8u8; 16], 0));
    }

    #[test]
    fn scatter_reads_union_across_partitions() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(4, 1, 1, 13)).unwrap();
        for i in 1..=6u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        // With R=1 every doc lives on exactly one node, so the count only
        // comes out right if the read really unions all partitions.
        let count = cluster.handle("doc/count", &with_collection("notes", &[])).unwrap();
        assert_eq!(u64::from_be_bytes(count[..8].try_into().unwrap()), 6);
        let ids = cluster.handle("doc/list_ids", &with_collection("notes", &[])).unwrap();
        let mut r = Reader::new(&ids);
        assert_eq!(r.list().unwrap().len(), 6);
    }

    #[test]
    fn add_node_hands_off_gained_ranges_before_serving() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 21)).unwrap();
        for i in 1..=20u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        let slot = cluster.add_node().unwrap();
        assert_eq!(slot, 3);
        assert_eq!(cluster.members(), vec![0, 1, 2, 3]);
        assert_eq!(cluster.nodes_added(), 1);
        // Every document is still fully replicated on its (new) replica set.
        for i in 1..=20u8 {
            let id = DocId([i; 16]).to_hex();
            for r in cluster.doc_replicas("notes", &id) {
                let held = cluster.with_node_engine(r, |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
                assert!(held, "replica {r} of doc {i} holds it after the handoff");
            }
            let got = cluster.handle("doc/get", &with_collection("notes", id.as_bytes())).unwrap();
            assert!(!got.is_empty());
        }
        // The handoff itself must have given the new node some keys.
        let on_new = cluster.with_node_engine(slot, |e| e.docs().collection("notes").len()).unwrap();
        assert!(on_new > 0, "the new member took over part of the keyspace");
    }

    #[test]
    fn remove_node_hands_off_and_refuses_below_replication() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(4, 2, 2, 23)).unwrap();
        for i in 1..=20u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        cluster.remove_node(1).unwrap();
        assert_eq!(cluster.members(), vec![0, 2, 3]);
        assert_eq!(cluster.nodes_removed(), 1);
        assert!(!cluster.node_alive(1));
        for i in 1..=20u8 {
            let id = DocId([i; 16]).to_hex();
            let replicas = cluster.doc_replicas("notes", &id);
            assert!(!replicas.contains(&1), "the ring forgot the removed member");
            for r in replicas {
                let held = cluster.with_node_engine(r, |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
                assert!(held, "replica {r} of doc {i} holds it after the removal");
            }
        }
        // A second removal would leave 2 members with 2-way replication: ok.
        cluster.remove_node(2).unwrap();
        // A third would leave 1 member below the replication factor.
        let err = cluster.remove_node(3).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedOperation(_)), "got {err:?}");
        // Removing a non-member is typed, not a panic.
        let err = cluster.remove_node(1).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedOperation(_)), "got {err:?}");
    }

    #[test]
    fn anti_entropy_heals_a_tampered_replica_without_reads() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 31)).unwrap();
        for i in 1..=8u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        let id = DocId([5; 16]).to_hex();
        let replicas = cluster.doc_replicas("notes", &id);
        // Tamper before any digest request so the digest cache never saw
        // the pre-tamper state (behind-the-back writes bypass its
        // invalidation hooks by construction).
        cluster.with_node_engine(replicas[0], |e| e.docs().collection("notes").delete(&id).unwrap()).unwrap();
        assert!(!cluster.replica_digests_converged(), "tampering must show up in the digests");
        let round = cluster.run_anti_entropy();
        assert!(round.divergent_keys >= 1, "the tampered key is divergent: {round:?}");
        assert!(round.repairs >= 1, "the lagging replica got repaired: {round:?}");
        let mut rounds = 0;
        while !cluster.run_anti_entropy().converged() {
            rounds += 1;
            assert!(rounds < 8, "anti-entropy must converge");
        }
        assert!(cluster.replica_digests_converged());
        let healed =
            cluster.with_node_engine(replicas[0], |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
        assert!(healed, "anti-entropy restored the majority value");
        assert_eq!(cluster.read_repairs(), 0, "no read repair was involved");
    }

    #[test]
    fn anti_entropy_cadence_ticks_with_ops() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 37).anti_entropy(4)).unwrap();
        for i in 1..=8u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        assert_eq!(cluster.anti_entropy_rounds(), 2, "8 ops at a cadence of 4");
    }

    #[test]
    fn merged_ranges_round_trip_through_wrap() {
        assert_eq!(merge_segments(vec![(10, 20), (20, 30)]), vec![(10, 30)]);
        assert_eq!(merge_segments(vec![(90, 5), (5, 10), (40, 50)]), vec![(90, 10), (40, 50)]);
        // Trailing segment meets the leading one across the wrap point.
        assert_eq!(merge_segments(vec![(90, 10), (80, 90)]), vec![(80, 10)]);
        // Everything owned collapses to a full-circle (p, p) interval.
        let all = merge_segments(vec![(30, 10), (10, 20), (20, 30)]);
        assert_eq!(all, vec![(30, 30)]);
        assert!(in_range(123, all[0]));
    }
}
