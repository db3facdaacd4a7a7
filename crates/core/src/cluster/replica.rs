//! One cluster member as the coordinator sees it: a [`Replica`] handle whose
//! [`Replica::call`] decides liveness, counts, calls and classifies, over a
//! [`LocalNode`] lifecycle object — the only type under `cluster/` that names
//! the engine or its disk layout.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use datablinder_kvstore::read_frames;
use datablinder_netsim::{
    BreakerConfig, Channel, CloudService, CrashInjector, LatencyModel, NetError, Refusal, ResilienceConfig,
    ResilientChannel, RetryPolicy,
};
use datablinder_obs::Recorder;

use super::ClusterConfig;
use crate::cloud::CloudEngine;
use crate::durability::{wal_path, DurabilityOptions, WalRecord};
use crate::error::CoreError;

/// How long a rejoining node's channel clock is advanced so an open circuit
/// breaker admits its half-open probe immediately.
const REJOIN_COOLDOWN: Duration = Duration::from_millis(50);

/// One member's process and disk: an engine while the process is up, the
/// directory its WAL and snapshot live in, and whether it is serving.
pub(super) struct LocalNode {
    dir: Option<PathBuf>,
    engine: RwLock<Option<CloudEngine>>,
    alive: AtomicBool,
    /// The node's own recorder, labeled `node{slot}`. It outlives engine
    /// rebuilds (kill/rejoin), so per-node counters survive restarts, and
    /// it is what `obs/snapshot` federation reads.
    obs: Recorder,
}

impl LocalNode {
    /// Starts member `slot`'s process from `data_dir/node{slot}` (volatile
    /// without a data dir). The node is up but not serving until
    /// [`LocalNode::serve`]: a joining or rejoining member is filled first.
    /// Its recorder starts disabled (near-zero cost) until
    /// [`super::ClusterCloud::set_recorder`] turns cluster observability on.
    pub(super) fn open(
        cfg: &ClusterConfig,
        slot: usize,
        crash: Option<Arc<CrashInjector>>,
    ) -> Result<Arc<Self>, CoreError> {
        let obs = Recorder::disabled();
        obs.set_label(&format!("node{slot}"));
        let node = LocalNode {
            dir: cfg.data_dir.as_ref().map(|base| base.join(format!("node{slot}"))),
            engine: RwLock::new(None),
            alive: AtomicBool::new(false),
            obs,
        };
        node.restart(cfg, crash)?;
        Ok(Arc::new(node))
    }

    /// Restarts the process from the node's own disk (recovery truncates a
    /// torn WAL tail) and re-attaches the slot's long-lived recorder, so
    /// counters and spans from before a crash stay in the same federated
    /// view. `crash` arms the new engine to die at a chosen append.
    pub(super) fn restart(&self, cfg: &ClusterConfig, crash: Option<Arc<CrashInjector>>) -> Result<(), CoreError> {
        let mut engine = match &self.dir {
            Some(dir) => CloudEngine::open_durable_with(
                dir,
                DurabilityOptions { snapshot_every: cfg.snapshot_every, dedup_capacity: None, crash },
            )?,
            None => CloudEngine::new(),
        };
        engine.set_recorder(self.obs.clone());
        *self.engine.write().unwrap_or_else(PoisonError::into_inner) = Some(engine);
        Ok(())
    }

    /// The process dies: in-memory state is gone, the disk stays — `journal`
    /// only acks flushed records, so every acknowledged write is already
    /// there. Returns whether there was a process to kill.
    pub(super) fn kill(&self) -> bool {
        if !self.is_alive() && self.engine.read().unwrap_or_else(PoisonError::into_inner).is_none() {
            return false;
        }
        self.alive.store(false, Ordering::SeqCst);
        *self.engine.write().unwrap_or_else(PoisonError::into_inner) = None;
        true
    }

    pub(super) fn serve(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    pub(super) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Whether the engine's crash injector has fired: the process is gone
    /// for good, whatever the serving flag still says.
    pub(super) fn crashed(&self) -> bool {
        self.engine.read().unwrap_or_else(PoisonError::into_inner).as_ref().is_some_and(CloudEngine::crashed)
    }

    pub(super) fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Ids of the records the node journaled itself — the "already durable"
    /// watermark a WAL-tail replay into it skips.
    pub(super) fn journaled_ids(&self) -> HashSet<[u8; 16]> {
        let Some(scan) = self.dir.as_ref().and_then(|dir| read_frames(&wal_path(dir)).ok()) else {
            return HashSet::new();
        };
        scan.frames.iter().filter_map(|body| WalRecord::decode(body).ok()).map(|rec| rec.id).collect()
    }

    /// Calls the engine whether or not the node is serving — resync and
    /// handoff fill a node before it serves. Liveness is [`Replica`]'s
    /// decision; a node without a process times out.
    pub(super) fn engine_call(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        match &*self.engine.read().unwrap_or_else(PoisonError::into_inner) {
            Some(engine) => engine.handle(route, payload),
            None => Err(NetError::Timeout),
        }
    }

    /// Runs `f` against the engine (`None` while the process is down).
    pub(super) fn with_engine<T>(&self, f: impl FnOnce(&CloudEngine) -> T) -> Option<T> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner).as_ref().map(f)
    }
}

impl CloudService for LocalNode {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.engine_call(route, payload)
    }
}

/// What a member said to one call.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Reply {
    /// The member's answer.
    Answered(Vec<u8>),
    /// The member's engine refused the request deterministically
    /// ([`Refusal::is_deterministic`]): every replica would, so it is the
    /// application's answer, not an availability problem.
    Refused(Refusal, String),
    /// The member is down, the call to it failed in transport, or its
    /// storage refused the request — another replica may answer.
    Unreachable,
}

impl Reply {
    /// What the member decided — its answer, or its refusal as the
    /// application error it is; `None` when it could not be reached.
    pub(super) fn decided(self) -> Option<Result<Vec<u8>, NetError>> {
        match self {
            Reply::Answered(answer) => Some(Ok(answer)),
            Reply::Refused(kind, refusal) => Some(Err(NetError::Remote(kind, refusal))),
            Reply::Unreachable => None,
        }
    }

    /// The answer, if the member gave one.
    pub(super) fn answered(self) -> Option<Vec<u8>> {
        match self {
            Reply::Answered(answer) => Some(answer),
            _ => None,
        }
    }
}

/// The coordinator's handle on member `slot`: its lifecycle object, the
/// resilient channel to it and its two per-node counter names.
pub(super) struct Replica {
    slot: usize,
    node: Arc<LocalNode>,
    channel: ResilientChannel,
    ops: String,
    errors: String,
    /// The cluster's kill count: a crash this handle observes is a kill.
    kills: Arc<AtomicU64>,
}

impl Replica {
    /// A handle on `node` over the in-process channel the cluster runs on.
    pub(super) fn new(
        cfg: &ClusterConfig,
        slot: usize,
        node: Arc<LocalNode>,
        obs: Recorder,
        kills: Arc<AtomicU64>,
    ) -> Self {
        let channel = ResilientChannel::new(
            Channel::from_arc(node.clone(), LatencyModel::instant()),
            ResilienceConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(5),
                    jitter: 0.5,
                },
                breaker: BreakerConfig { failure_threshold: 4, cooldown: REJOIN_COOLDOWN },
                deadline: None,
                seed: cfg.seed ^ 0xC10D_5EED ^ ((slot as u64) << 48),
            },
        );
        Replica::over(slot, node, channel.with_recorder(obs), kills)
    }

    /// A handle whose calls travel over `channel`, whatever serves it; the
    /// channel's recorder takes the per-node counters.
    pub(super) fn over(slot: usize, node: Arc<LocalNode>, channel: ResilientChannel, kills: Arc<AtomicU64>) -> Self {
        Replica {
            slot,
            node,
            channel,
            ops: format!("cluster.node.{slot}.ops"),
            errors: format!("cluster.node.{slot}.errors"),
            kills,
        }
    }

    pub(super) fn slot(&self) -> usize {
        self.slot
    }

    pub(super) fn node(&self) -> &LocalNode {
        &self.node
    }

    pub(super) fn is_alive(&self) -> bool {
        self.node.is_alive()
    }

    pub(super) fn set_recorder(&mut self, recorder: Recorder) {
        self.channel.set_recorder(recorder);
    }

    /// One call on behalf of a client operation, counted in
    /// `cluster.node.{slot}.ops`. A down member is [`Reply::Unreachable`]
    /// without being called; a transport failure counts in
    /// `cluster.node.{slot}.errors`, and if the member's crash injector has
    /// fired it is marked down so later operations skip it instead of
    /// burning retries. Takes no cluster lock: it runs under the topology
    /// read lock, concurrently with membership changes waiting on write.
    pub(super) fn call(&self, route: &str, payload: &[u8]) -> Reply {
        self.dispatch(route, payload, true)
    }

    /// [`Replica::call`] for the cluster's own traffic — resync, handoff,
    /// anti-entropy, snapshot federation — which is not a client operation
    /// and stays out of `cluster.node.{slot}.ops`.
    pub(super) fn call_background(&self, route: &str, payload: &[u8]) -> Reply {
        self.dispatch(route, payload, false)
    }

    fn dispatch(&self, route: &str, payload: &[u8], client: bool) -> Reply {
        if !self.is_alive() {
            return Reply::Unreachable;
        }
        let obs = self.channel.recorder();
        if client {
            obs.count(&self.ops, 1);
        }
        match self.channel.call(route, payload) {
            Ok(answer) => Reply::Answered(answer),
            Err(NetError::Remote(kind, refusal)) if kind.is_deterministic() => Reply::Refused(kind, refusal),
            Err(_) => {
                obs.count(&self.errors, 1);
                if self.node.crashed() {
                    self.kill();
                }
                Reply::Unreachable
            }
        }
    }

    /// Marks the member down and drops its process (disk state stays);
    /// counts as a kill if it was up.
    pub(super) fn kill(&self) {
        if self.decommission() {
            self.kills.fetch_add(1, Ordering::Relaxed);
            self.channel.recorder().count("cluster.kill", 1);
        }
    }

    /// [`Replica::kill`] for a member leaving on purpose: not a kill.
    /// Returns whether it was up.
    pub(super) fn decommission(&self) -> bool {
        self.set_alive_gauge(false);
        self.node.kill()
    }

    /// Opens the (filled) member to client traffic.
    pub(super) fn serve(&self) {
        self.node.serve();
        self.set_alive_gauge(true);
    }

    /// Lets a breaker the member's downtime opened admit the next call as
    /// its half-open probe instead of fast-failing through the cooldown.
    pub(super) fn skip_breaker_cooldown(&self) {
        self.channel.advance(REJOIN_COOLDOWN);
    }

    pub(super) fn set_alive_gauge(&self, alive: bool) {
        self.channel.recorder().gauge_set(&format!("cluster.node.{}.alive", self.slot), i64::from(alive));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::with_collection;
    use crate::wire::encode_document;
    use datablinder_docstore::{Document, Value};
    use datablinder_netsim::{CrashPlan, CrashPoint};
    use std::sync::Mutex;

    /// A member's network face that answers from a script and counts how
    /// often it was asked.
    struct Scripted {
        answer: Mutex<Result<Vec<u8>, NetError>>,
        asked: AtomicU64,
    }

    impl CloudService for Scripted {
        fn handle(&self, _route: &str, _payload: &[u8]) -> Result<Vec<u8>, NetError> {
            self.asked.fetch_add(1, Ordering::Relaxed);
            self.answer.lock().unwrap_or_else(PoisonError::into_inner).clone()
        }
    }

    fn scripted_replica(node: Arc<LocalNode>) -> (Replica, Arc<Scripted>, Recorder) {
        let fake = Arc::new(Scripted { answer: Mutex::new(Ok(b"pong".to_vec())), asked: AtomicU64::new(0) });
        let obs = Recorder::new();
        let channel = ResilientChannel::new(
            Channel::from_arc(fake.clone(), LatencyModel::instant()),
            ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() },
        );
        let replica = Replica::over(4, node, channel.with_recorder(obs.clone()), Arc::new(AtomicU64::new(0)));
        (replica, fake, obs)
    }

    #[test]
    fn a_down_replica_is_unreachable_without_being_called_or_counted() {
        let cfg = ClusterConfig::volatile(1, 1, 1, 3);
        let (replica, fake, obs) = scripted_replica(LocalNode::open(&cfg, 4, None).unwrap());
        // Opened, not yet serving — and again after a kill.
        assert_eq!(replica.call("ping", b""), Reply::Unreachable);
        replica.serve();
        assert_eq!(replica.call("ping", b""), Reply::Answered(b"pong".to_vec()));
        replica.kill();
        assert_eq!(replica.call("ping", b""), Reply::Unreachable);
        assert_eq!(replica.call_background("ping", b""), Reply::Unreachable);
        assert_eq!(fake.asked.load(Ordering::Relaxed), 1, "only the serving replica was called");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("cluster.node.4.ops"), 1);
        assert_eq!(snap.counter("cluster.node.4.errors"), 0, "being down is not a transport error");
        assert_eq!((snap.counter("cluster.kill"), snap.gauge("cluster.node.4.alive")), (1, Some(0)));
    }

    #[test]
    fn a_refusal_is_an_op_not_an_error_and_background_calls_are_neither() {
        let cfg = ClusterConfig::volatile(1, 1, 1, 3);
        let (replica, fake, obs) = scripted_replica(LocalNode::open(&cfg, 4, None).unwrap());
        replica.serve();
        *fake.answer.lock().unwrap_or_else(PoisonError::into_inner) =
            Err(NetError::Remote(Refusal::NotFound, "00".into()));
        assert_eq!(replica.call("doc/get", b""), Reply::Refused(Refusal::NotFound, "00".into()));
        assert_eq!(replica.call_background("doc/get", b""), Reply::Refused(Refusal::NotFound, "00".into()));
        assert_eq!(fake.asked.load(Ordering::Relaxed), 2);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("cluster.node.4.ops"), 1, "the client call, not the background one");
        assert_eq!(snap.counter("cluster.node.4.errors"), 0);
        assert!(replica.is_alive(), "a refusing member is a live member");
    }

    #[test]
    fn a_storage_refusal_is_the_member_failing_not_the_answer() {
        let cfg = ClusterConfig::volatile(1, 1, 1, 3);
        let (replica, fake, obs) = scripted_replica(LocalNode::open(&cfg, 4, None).unwrap());
        replica.serve();
        *fake.answer.lock().unwrap_or_else(PoisonError::into_inner) =
            Err(NetError::Remote(Refusal::Storage, "wal: disk full".into()));
        assert_eq!(replica.call("doc/insert", b""), Reply::Unreachable);
        assert_eq!(obs.snapshot().counter("cluster.node.4.errors"), 1);
        assert!(replica.is_alive(), "its process is still there");
    }

    #[test]
    fn a_timeout_from_a_crashed_node_counts_one_error_and_marks_it_down() {
        let dir = std::env::temp_dir().join(format!("datablinder-replica-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ClusterConfig::volatile(1, 1, 1, 3).durable(&dir);
        let crash = Arc::new(CrashInjector::new(CrashPlan::at(CrashPoint::MidAppend { record: 0, byte: 3 })));
        let node = LocalNode::open(&cfg, 4, Some(crash)).unwrap();
        let (replica, fake, obs) = scripted_replica(node);
        replica.serve();

        // A timeout alone is a transport error, not a death.
        *fake.answer.lock().unwrap_or_else(PoisonError::into_inner) = Err(NetError::Timeout);
        assert_eq!(replica.call("doc/insert", b""), Reply::Unreachable);
        assert!(replica.is_alive(), "the process is still there");
        assert_eq!(obs.snapshot().counter("cluster.node.4.errors"), 1);

        // The node's first journal append tears: its crash injector fires.
        let doc = Document::new("00ff").with("v", Value::from(1i64));
        assert!(replica.node().engine_call("doc/insert", &with_collection("c", &encode_document(&doc))).is_err());
        assert!(replica.node().crashed());
        assert_eq!(replica.call("doc/insert", b""), Reply::Unreachable);
        assert!(!replica.is_alive(), "the observed crash marked the replica down");
        assert_eq!(replica.node().with_engine(|_| ()), None, "and dropped its process");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("cluster.node.4.errors"), 2, "one error per failed call");
        assert_eq!((snap.counter("cluster.kill"), snap.gauge("cluster.node.4.alive")), (1, Some(0)));
        assert_eq!(replica.kills.load(Ordering::Relaxed), 1);

        // Down now: no call, no further error.
        assert_eq!(replica.call("doc/insert", b""), Reply::Unreachable);
        assert_eq!(fake.asked.load(Ordering::Relaxed), 2);
        assert_eq!(obs.snapshot().counter("cluster.node.4.errors"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
