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
//! * A rejoining node replays the records its live peers' WALs hold for it,
//!   then pulls the hash ranges it owns from their live state, exactly as a
//!   handoff does — so history a peer compacted out of its WAL still
//!   arrives. A resync torn by a crash leaves the node down; the next
//!   rejoin restarts cleanly from disk.
//! * [`ClusterCloud::add_node`] / [`ClusterCloud::remove_node`] recompute
//!   vnode ownership and hand off exactly the key ranges that changed
//!   owners before the new ring serves quorums. Operations arriving during
//!   the transfer window fail fast with a typed
//!   [`NetError::Unavailable`] instead of reading a half-moved ring.
//! * An anti-entropy pass ([`ClusterCloud::run_anti_entropy`], run on
//!   demand; nothing in the cluster schedules one) compares the flat
//!   per-leaf digests each replica computes when asked, and repairs
//!   divergent keys through the idempotent `sync/put` envelope.
//!
//! # Layout
//!
//! | module | owns |
//! |---|---|
//! | `ring` | key → member slots; the ranges a membership change moves (pure) |
//! | `replica` | one member: `LocalNode` (engine, disk, liveness) behind a `Replica` handle whose `call` answers *answered / refused / unreachable* |
//! | `write` | where a write route lands, the quorum fan-out, batch decomposition |
//! | `read` | replica probes with read repair, partitioned `get_many`, scatter-gather, read-only batches |
//! | `membership` | kill / rejoin / add / remove and the resync and handoff pulls |
//! | `repair` | the digest sweep, anti-entropy repair, the `sync/put` envelope |
//!
//! This file holds the configuration, the topology the six share, and the
//! route dispatch. Only `replica` names the engine and its files on disk;
//! everything else speaks routes to a `Replica`.
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

mod membership;
mod read;
mod repair;
mod replica;
mod ring;
mod write;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, TryLockError};

use datablinder_netsim::{CloudService, CrashInjector, NetError, NodeEvent, NodeFailureInjector, NodeFailurePlan};
use datablinder_obs::{ClusterSnapshot, Recorder, Snapshot};
use datablinder_primitives::sha256::Sha256;

use self::replica::{LocalNode, Replica};
use self::ring::Ring;
use self::write::write_replicas;
use crate::cloud::CloudEngine;
use crate::cloudproto::{Route, BATCH_ROUTE};
use crate::error::CoreError;
use crate::sync::doc_key;

pub use self::repair::AntiEntropyRound;

/// Virtual nodes per physical node on the hash ring: enough to spread keys
/// evenly for single-digit cluster sizes without making replica lookups
/// slow.
pub const DEFAULT_VNODES: usize = 16;

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
    /// Seed for ring placement and per-node channel jitter; equal seeds
    /// give equal key placement.
    pub seed: u64,
    /// Base directory for per-node durability (`node<i>` subdirectories);
    /// `None` runs every node volatile.
    pub data_dir: Option<PathBuf>,
    /// Per-node auto-snapshot cadence (see
    /// [`crate::durability::DurabilityOptions::snapshot_every`]).
    pub snapshot_every: Option<u64>,
}

impl ClusterConfig {
    /// A volatile cluster: `nodes` nodes, `replication`-way replication,
    /// `write_quorum` acks per write.
    pub fn volatile(nodes: usize, replication: usize, write_quorum: usize, seed: u64) -> Self {
        ClusterConfig { nodes, replication, write_quorum, seed, data_dir: None, snapshot_every: None }
    }

    /// Builder: back every node with a WAL + snapshot under
    /// `dir/node<i>`.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
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

/// The live view of the cluster: the ring, the member slots it covers, and
/// one [`Replica`] per slot ever allocated. Slots are never reused — a
/// removed member's slot stays allocated (dead) so surviving slot ids keep
/// their meaning — and the whole view swaps atomically under the topology
/// lock during a membership change.
struct Topology {
    ring: Ring,
    members: Vec<usize>,
    replicas: Vec<Replica>,
}

impl Topology {
    fn replica(&self, slot: usize) -> &Replica {
        &self.replicas[slot]
    }

    /// The members currently serving, in slot order.
    fn live_members(&self) -> impl Iterator<Item = &Replica> {
        self.members.iter().map(|&m| &self.replicas[m]).filter(|r| r.is_alive())
    }
}

/// The first 16 bytes of SHA-256 over `parts` in order: every idempotency
/// token the cluster mints, and the salt of each range pull's `sync/put`
/// tokens.
fn token16(parts: &[&[u8]]) -> [u8; 16] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()[..16].try_into().expect("16-byte prefix")
}

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
    transfer_seq: AtomicU64,
    kills: Arc<AtomicU64>,
    rejoins: AtomicU64,
    adds: AtomicU64,
    removes: AtomicU64,
    read_repairs: AtomicU64,
    resync_replayed: AtomicU64,
    resync_filled: AtomicU64,
    ae_rounds: AtomicU64,
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
        let ring = Ring::new(&members, DEFAULT_VNODES, cfg.replication, cfg.seed);
        let kills = Arc::new(AtomicU64::new(0));
        let mut replicas = Vec::with_capacity(cfg.nodes);
        for slot in 0..cfg.nodes {
            let replica =
                Replica::new(&cfg, slot, LocalNode::open(&cfg, slot, None)?, Recorder::default(), kills.clone());
            replica.serve();
            replicas.push(replica);
        }
        Ok(ClusterCloud {
            cfg,
            topo: RwLock::new(Topology { ring, members, replicas }),
            injector: None,
            rejoin_crash: Mutex::new(HashMap::new()),
            membership: Mutex::new(()),
            obs: Recorder::default(),
            transfer_seq: AtomicU64::new(0),
            kills,
            rejoins: AtomicU64::new(0),
            adds: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
            resync_replayed: AtomicU64::new(0),
            resync_filled: AtomicU64::new(0),
            ae_rounds: AtomicU64::new(0),
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
    /// node's engine (re)opens with it, so the tail replay or range pull
    /// itself can die mid-resync (tests: durability under membership
    /// change).
    pub fn arm_rejoin_crash(&self, idx: usize, injector: Arc<CrashInjector>) {
        self.rejoin_crash.lock().unwrap_or_else(PoisonError::into_inner).insert(idx, injector);
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
        let mut topo = self.topo.write().unwrap_or_else(PoisonError::into_inner);
        self.obs.gauge_set("cluster.nodes", topo.members.len() as i64);
        self.obs.gauge_set("cluster.ring.vnodes", topo.ring.vnodes() as i64);
        for replica in &mut topo.replicas {
            replica.set_recorder(self.obs.clone());
            replica.node().recorder().set_enabled(self.obs.is_enabled());
        }
        for replica in topo.members.iter().map(|&m| &topo.replicas[m]) {
            replica.set_alive_gauge(replica.is_alive());
        }
    }

    /// Federates observability across the cluster: the coordinator's own
    /// snapshot plus every live member's, pulled over the node channels via
    /// the `obs/snapshot` route and merged into one [`ClusterSnapshot`].
    /// Dead or unreachable members are skipped (their slots reappear after
    /// a rejoin, counters intact — node recorders outlive engine rebuilds).
    pub fn snapshot(&self) -> ClusterSnapshot {
        let topo = self.topo.read().unwrap_or_else(PoisonError::into_inner);
        let mut nodes = vec![self.obs.snapshot()];
        for member in topo.live_members() {
            let Some(resp) = member.call_background("obs/snapshot", b"").answered() else { continue };
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
        self.topo.read().unwrap_or_else(PoisonError::into_inner).members.clone()
    }

    /// Whether node `idx` is currently serving.
    pub fn node_alive(&self, idx: usize) -> bool {
        self.topo.read().unwrap_or_else(PoisonError::into_inner).replica(idx).is_alive()
    }

    /// Runs `f` against node `idx`'s engine (`None` while the node is down).
    pub fn with_node_engine<T>(&self, idx: usize, f: impl FnOnce(&CloudEngine) -> T) -> Option<T> {
        self.topo.read().unwrap_or_else(PoisonError::into_inner).replica(idx).node().with_engine(f)
    }

    /// The replica set of one document key, in ring (preference) order.
    pub fn doc_replicas(&self, collection: &str, id: &str) -> Vec<usize> {
        self.topo.read().unwrap_or_else(PoisonError::into_inner).ring.replicas(&doc_key(collection, id.as_bytes()))
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

    /// Entries installed into rejoining nodes from their peers' owned-range
    /// exports.
    pub fn resync_filled(&self) -> u64 {
        self.resync_filled.load(Ordering::Relaxed)
    }

    /// Anti-entropy passes completed.
    pub fn anti_entropy_rounds(&self) -> u64 {
        self.ae_rounds.load(Ordering::Relaxed)
    }

    /// Write-holds the topology while `f` runs — exactly the transfer
    /// window an `add_node`/`remove_node` handoff opens. Concurrent
    /// operations observe a typed [`NetError::Unavailable`] instead of a
    /// half-moved ring. Maintenance/test hook.
    pub fn with_membership_frozen<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
        let _topo = self.topo.write().unwrap_or_else(PoisonError::into_inner);
        f()
    }

    /// Drains pending membership events before handling an operation.
    fn pump_events(&self) {
        let Some(injector) = &self.injector else { return };
        let events = {
            let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
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
}

impl CloudService for ClusterCloud {
    /// Parses the route once; a route [`ROUTES`](crate::cloudproto::ROUTES)
    /// does not name is [`NetError::UnknownRoute`] before any node sees it.
    fn handle(&self, name: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let route = Route::parse(name).ok_or_else(|| NetError::UnknownRoute(name.into()))?;
        if route.name == datablinder_obs::trace::TRACED_ROUTE {
            // Adopt the gateway's trace context before fanning out, so the
            // per-replica channel spans hang off the caller's tree.
            let (ctx, inner_route, inner_payload) =
                datablinder_obs::trace::decode_traced(payload).map_err(CoreError::from)?;
            let _scope = ctx.enter();
            return self.handle(inner_route, inner_payload);
        }
        if route.name == "obs/snapshot" {
            // Metric scraping must not perturb the deterministic failure
            // schedule or op counters: answer before any event pump.
            return Ok(self.snapshot().to_json().into_bytes());
        }
        self.pump_events();
        self.obs.count("cluster.ops", 1);
        // A membership change write-holds the topology: fail fast with a
        // typed error instead of reading a half-moved ring.
        let topo = match self.topo.try_read() {
            Ok(topo) => topo,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                return Err(NetError::Unavailable("cluster membership change in progress".into()));
            }
        };
        let topo = &*topo;
        let (token, inner, inner_payload) = route.unseal(payload)?;
        if inner.name == BATCH_ROUTE {
            // A bare batch (no envelope) still decomposes; its item tokens
            // derive from the batch content so retries stay idempotent.
            let token = token.unwrap_or_else(|| token16(&[inner_payload]));
            return self.handle_batch(topo, &token, inner_payload);
        }
        if route.writes() {
            // An envelope replicates whole: every replica dedups on the
            // same token, so a retry that lands on a different replica
            // subset cannot double-apply.
            let replicas = write_replicas(topo, inner, inner_payload)?;
            return self.quorum_write(topo, &replicas, name, payload);
        }
        self.clustered_read(topo, route, payload)
    }
}

#[cfg(test)]
mod tests {
    use datablinder_docstore::{Document, Value};
    use datablinder_sse::DocId;

    use crate::cloud::with_collection;
    use crate::wire::encode_document;

    pub(super) fn insert_payload(collection: &str, idx: u8) -> Vec<u8> {
        let id = DocId([idx; 16]);
        let doc = Document::new(id.to_hex()).with("v", Value::from(i64::from(idx)));
        with_collection(collection, &encode_document(&doc))
    }
}
