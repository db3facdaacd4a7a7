//! The one adapter onto the system under test. Every call into a product
//! crate is made from this file; the rest of the benchmark sees only the
//! types re-exported here. README.md, "Pinned entry points", lists what a
//! refactor of the product has to keep (or change here, in one place).
//!
//! Three things live here: building and driving a gateway → channel →
//! transport → cloud stack ([`Stack`]), the two timing decorators on the
//! product's public trait boundaries ([`TimedTransport`] on
//! `netsim::Transport`, [`ServiceSlot`] on `netsim::CloudService`), and
//! the kernel rungs ([`KERNELS`]).

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use datablinder_core::cloud::CloudEngine;
use datablinder_core::cloudproto::{Idempotent, IDEM_ROUTE};
use datablinder_core::cluster::{ClusterCloud, ClusterConfig};
use datablinder_core::durability::DurabilityOptions;
use datablinder_core::gateway::GatewayEngine;
use datablinder_core::pool::WorkerPool;
use datablinder_kms::Kms;
use datablinder_netsim::tcp::{CloudServer, ServerConfig, TcpChannel, TcpConfig};
use datablinder_netsim::{
    Channel, ChannelMetrics, CloudService, LatencyModel, NetError, ResilienceConfig, ResilientChannel, Transport,
};
use datablinder_obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use datablinder_core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
pub use datablinder_docstore::{Document, Value};
pub use datablinder_sse::DocId;

use crate::trace::{Name, Tracer};

/// Seed of everything random *inside* the product (master key, tactic
/// keys, nonces, document ids, ring placement). It is fixed so that every
/// set-up does the same key-generation work; `--seed` varies the inputs.
const PRODUCT_SEED: u64 = 0xDB11_4D3E;

/// What `vendor/` holds, for the host fingerprint: numbers measured over
/// stand-ins are comparable only with numbers measured over the same ones.
pub const DEPS: &str =
    "vendor stand-ins (rand 0.8.5 ChaCha12 StdRng, parking_lot 0.12.3 over std::sync, bytes 1.7.1, serde 1.0.210 no-op derive)";

/// Bytes of a document in the product's canonical plaintext encoding.
pub fn plain_bytes(doc: &Document) -> usize {
    datablinder_core::wire::encode_document(doc).len()
}

// ---------------------------------------------------------------- decorators

/// `netsim::Transport` decorator: one `transport.call` span per round trip
/// of a traced operation, nothing otherwise.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    /// Whether requests leave this thread (a socket), so the far side has
    /// to find its parent span through the tracer's in-flight slot.
    remote: bool,
}

impl Transport for TimedTransport {
    fn call_with_deadline(&self, route: &str, payload: &[u8], deadline: Option<Duration>) -> Result<Vec<u8>, NetError> {
        let Some(open) = self.tracer.open_child(Name::TransportCall) else {
            return self.inner.call_with_deadline(route, payload, deadline);
        };
        if self.remote {
            self.tracer.set_in_flight(Some(&open));
        }
        let out = self.inner.call_with_deadline(route, payload, deadline);
        if self.remote {
            self.tracer.set_in_flight(None);
        }
        self.tracer.close(open);
        out
    }

    fn advance(&self, delta: Duration) {
        self.inner.advance(delta);
    }

    fn metrics(&self) -> &ChannelMetrics {
        self.inner.metrics()
    }
}

/// `netsim::CloudService` decorator. It holds the cloud behind a slot so a
/// run can shut the cloud down and reopen it from disk under a live
/// gateway, and records one `cloud.handle.<family>` span per request of a
/// traced operation.
pub struct ServiceSlot {
    inner: RwLock<Option<Arc<dyn CloudService>>>,
    tracer: Option<Arc<Tracer>>,
}

impl ServiceSlot {
    fn new(tracer: Option<Arc<Tracer>>) -> Arc<Self> {
        Arc::new(ServiceSlot { inner: RwLock::new(None), tracer })
    }

    fn set(&self, service: Option<Arc<dyn CloudService>>) {
        *self.inner.write().expect("service slot") = service;
    }

    fn current(&self) -> Result<Arc<dyn CloudService>, NetError> {
        self.inner.read().expect("service slot").clone().ok_or_else(|| NetError::Unavailable("cloud is down".into()))
    }
}

/// The route family of a request, looking through the idempotency envelope.
fn route_family(route: &str, payload: &[u8]) -> Name {
    let inner;
    let route = if route == IDEM_ROUTE {
        match Idempotent::decode(payload) {
            Ok(env) => {
                inner = env.route;
                inner.as_str()
            }
            Err(_) => route,
        }
    } else {
        route
    };
    if route.starts_with("doc/") {
        Name::CloudDoc
    } else if route.starts_with("tactic/") {
        Name::CloudTactic
    } else if route == "batch" {
        Name::CloudBatch
    } else {
        Name::CloudOther
    }
}

impl CloudService for ServiceSlot {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let service = self.current()?;
        let Some(tracer) = &self.tracer else {
            return service.handle(route, payload);
        };
        // Same thread as the caller on the in-process channel; a server
        // worker thread behind a socket.
        let name = route_family(route, payload);
        let Some(open) = tracer.open_child(name).or_else(|| tracer.open_remote_child(name)) else {
            return service.handle(route, payload);
        };
        let out = service.handle(route, payload);
        tracer.close(open);
        out
    }

    fn take_injected_delay(&self) -> Duration {
        self.current().map_or(Duration::ZERO, |s| s.take_injected_delay())
    }
}

// --------------------------------------------------------------------- stack

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// The in-process `Channel` with the instant latency model.
    Instant,
    /// One `TcpChannel` to an in-process `CloudServer` on loopback.
    Tcp,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Engine,
    Cluster { nodes: usize, replication: usize, write_quorum: usize },
}

#[derive(Clone)]
pub struct StackSpec {
    pub schemas: Vec<Schema>,
    pub link: Link,
    pub backend: Backend,
    /// Durable directory; `None` runs the cloud volatile.
    pub dir: Option<PathBuf>,
    pub snapshot_every: Option<u64>,
    pub tracer: Option<Arc<Tracer>>,
}

enum Cloud {
    Down,
    Engine(Arc<CloudEngine>),
    Cluster(Arc<ClusterCloud>),
}

pub struct Stack {
    gateway: GatewayEngine,
    slot: Arc<ServiceSlot>,
    cloud: Cloud,
    /// Keeps the loopback server alive for the stack's lifetime.
    _server: Option<CloudServer>,
    spec: StackSpec,
    recorder: Recorder,
}

/// What one reopen of the durable directory cost and found.
pub struct Reopen {
    pub seconds: f64,
    pub replayed_records: u64,
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn open_cloud(spec: &StackSpec, recorder: &Recorder) -> Result<(Cloud, u64), String> {
    match spec.backend {
        Backend::Engine => {
            let engine = match &spec.dir {
                Some(dir) => CloudEngine::open_durable_observed(
                    dir,
                    DurabilityOptions { snapshot_every: spec.snapshot_every, ..DurabilityOptions::default() },
                    recorder.clone(),
                )
                .map_err(err)?,
                None => {
                    let mut engine = CloudEngine::new();
                    engine.set_recorder(recorder.clone());
                    engine
                }
            };
            let replayed = engine.recovery_report().replayed;
            Ok((Cloud::Engine(Arc::new(engine)), replayed))
        }
        Backend::Cluster { nodes, replication, write_quorum } => {
            let mut cfg = ClusterConfig::volatile(nodes, replication, write_quorum, PRODUCT_SEED);
            cfg.snapshot_every = spec.snapshot_every;
            if let Some(dir) = &spec.dir {
                cfg = cfg.durable(dir);
            }
            let cluster = ClusterCloud::new(cfg).map_err(err)?;
            let replayed =
                (0..nodes).filter_map(|i| cluster.with_node_engine(i, |e| e.recovery_report().replayed)).sum();
            Ok((Cloud::Cluster(Arc::new(cluster)), replayed))
        }
    }
}

impl Cloud {
    fn service(&self) -> Option<Arc<dyn CloudService>> {
        match self {
            Cloud::Down => None,
            Cloud::Engine(e) => Some(e.clone()),
            Cloud::Cluster(c) => Some(c.clone()),
        }
    }
}

impl Stack {
    /// Key generation, cloud open, transport, gateway and schema
    /// registration: everything before the first document.
    pub fn build(spec: StackSpec) -> Result<Stack, String> {
        // Installed disabled; `set_counters` turns it on for the short
        // phase that reads hit ratios from the product's own counters.
        let recorder = Recorder::disabled();
        let slot = ServiceSlot::new(spec.tracer.clone());
        let (cloud, _) = open_cloud(&spec, &recorder)?;
        slot.set(cloud.service());

        let service: Arc<dyn CloudService> = slot.clone();
        let (transport, server): (Arc<dyn Transport>, Option<CloudServer>) = match spec.link {
            Link::Instant => (Arc::new(Channel::from_arc(service, LatencyModel::instant())), None),
            Link::Tcp => {
                let server =
                    CloudServer::bind("127.0.0.1:0", service, ServerConfig { workers: 1, ..ServerConfig::default() })
                        .map_err(err)?;
                let tcp = TcpChannel::connect(server.local_addr(), TcpConfig::default()).map_err(err)?;
                (Arc::new(tcp), Some(server))
            }
        };
        let transport: Arc<dyn Transport> = match &spec.tracer {
            Some(tracer) => {
                Arc::new(TimedTransport { inner: transport, tracer: tracer.clone(), remote: spec.link == Link::Tcp })
            }
            None => transport,
        };
        let resilient =
            ResilientChannel::over(transport, ResilienceConfig { seed: PRODUCT_SEED, ..ResilienceConfig::default() });

        let kms = Kms::generate(&mut StdRng::seed_from_u64(PRODUCT_SEED));
        let mut gateway = GatewayEngine::with_resilience("benchmark", kms, resilient, PRODUCT_SEED);
        gateway.set_recorder(recorder.clone());
        gateway.set_worker_pool(Arc::new(WorkerPool::new(2)));
        for schema in &spec.schemas {
            gateway.register_schema(schema.clone()).map_err(err)?;
        }
        Ok(Stack { gateway, slot, cloud, _server: server, spec, recorder })
    }

    pub fn backend(&self) -> Backend {
        self.spec.backend
    }

    /// Forces a snapshot on every durable engine, compacting its WAL.
    pub fn checkpoint(&self) -> Result<(), String> {
        if self.spec.dir.is_none() {
            return Ok(());
        }
        self.engines(|e| e.snapshot_now().map_err(err)).into_iter().collect()
    }

    /// The tactics selected for a field, sorted (the §5.1 table row).
    pub fn selection(&self, collection: &str, field: &str) -> Vec<String> {
        let mut listed = self.gateway.selection(collection, field).map(|s| s.listed_tactics()).unwrap_or_default();
        listed.sort();
        listed
    }

    pub fn insert(&self, collection: &str, doc: &Document) -> Result<DocId, String> {
        self.gateway.insert(collection, doc).map_err(err)
    }

    pub fn insert_many(&self, collection: &str, docs: &[Document]) -> Result<Vec<DocId>, String> {
        self.gateway.insert_many(collection, docs).map_err(err)
    }

    pub fn migrate(&self, collection: &str, docs: &[Document]) -> Result<Vec<DocId>, String> {
        self.gateway.migrate(collection, docs).map_err(err)
    }

    pub fn get(&self, collection: &str, id: DocId) -> Result<Document, String> {
        self.gateway.get(collection, id).map_err(err)
    }

    pub fn find_equal(&self, collection: &str, field: &str, value: &Value) -> Result<Vec<Document>, String> {
        self.gateway.find_equal(collection, field, value).map_err(err)
    }

    /// A conjunction of `field = value` literals.
    pub fn find_all_of(&self, collection: &str, literals: &[(&str, Value)]) -> Result<Vec<Document>, String> {
        let dnf = vec![literals.iter().map(|(f, v)| (f.to_string(), v.clone())).collect()];
        self.gateway.find_boolean(collection, &dnf).map_err(err)
    }

    pub fn find_range(&self, collection: &str, field: &str, lo: i64, hi: i64) -> Result<Vec<Document>, String> {
        self.gateway.find_range(collection, field, &Value::from(lo), &Value::from(hi)).map_err(err)
    }

    pub fn average(&self, collection: &str, field: &str) -> Result<f64, String> {
        self.gateway.aggregate(collection, field, AggFn::Avg, None).map_err(err)
    }

    pub fn count(&self, collection: &str) -> Result<u64, String> {
        self.gateway.count(collection).map_err(err)
    }

    /// Round trips, bytes sent, bytes received and retries on the
    /// gateway's transport since the stack was built.
    pub fn wire(&self) -> [u64; 4] {
        let m = self.gateway.channel().metrics();
        [m.round_trips(), m.bytes_sent(), m.bytes_received(), m.retries()]
    }

    fn engines<T>(&self, f: impl Fn(&CloudEngine) -> T) -> Vec<T> {
        match &self.cloud {
            Cloud::Down => Vec::new(),
            Cloud::Engine(e) => vec![f(e)],
            Cloud::Cluster(c) => c.members().into_iter().filter_map(|i| c.with_node_engine(i, &f)).collect(),
        }
    }

    /// WAL records journaled and group commits performed, over all nodes.
    pub fn wal(&self) -> [u64; 2] {
        let per_node = self.engines(|e| [e.wal_seq(), e.wal_group_commits()]);
        [per_node.iter().map(|n| n[0]).sum(), per_node.iter().map(|n| n[1]).sum()]
    }

    pub fn dedup_hits(&self) -> u64 {
        self.engines(CloudEngine::dedup_hits).iter().sum()
    }

    /// Turns the product's own counters on or off (they are off whenever
    /// anything is timed).
    pub fn set_counters(&self, on: bool) {
        self.recorder.set_enabled(on);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.recorder.snapshot().counter(name)
    }

    /// Drops the cloud; the gateway stays. Everything acknowledged so far
    /// has been flushed by the WAL's group commit.
    pub fn shutdown_cloud(&mut self) {
        self.slot.set(None);
        self.cloud = Cloud::Down;
    }

    /// Opens the cloud again from the durable directory and puts it back
    /// under the gateway.
    pub fn reopen_cloud(&mut self) -> Result<Reopen, String> {
        self.shutdown_cloud();
        let t0 = Instant::now();
        let (cloud, replayed_records) = open_cloud(&self.spec, &self.recorder)?;
        let seconds = t0.elapsed().as_secs_f64();
        self.slot.set(cloud.service());
        self.cloud = cloud;
        Ok(Reopen { seconds, replayed_records })
    }

    fn cluster(&self) -> Option<&ClusterCloud> {
        match &self.cloud {
            Cloud::Cluster(c) => Some(c),
            _ => None,
        }
    }

    pub fn kill_node(&self, node: usize) {
        if let Some(c) = self.cluster() {
            c.kill_node(node);
        }
    }

    pub fn rejoin_node(&self, node: usize) -> Result<(), String> {
        self.cluster().map_or(Ok(()), |c| c.rejoin_node(node).map(|_| ()).map_err(err))
    }

    /// One anti-entropy pass; true when it found nothing left to repair.
    pub fn anti_entropy_converged(&self) -> bool {
        self.cluster().is_none_or(|c| c.run_anti_entropy().converged())
    }

    pub fn replicas_converged(&self) -> bool {
        self.cluster().is_none_or(ClusterCloud::replica_digests_converged)
    }

    pub fn read_repairs(&self) -> u64 {
        self.cluster().map_or(0, ClusterCloud::read_repairs)
    }
}

/// Total size of the regular files under `dir` whose name `counts`.
fn file_bytes(dir: &Path, counts: &dyn Fn(&std::ffi::OsStr) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => file_bytes(&e.path(), counts),
            Ok(m) if counts(&e.file_name()) => m.len(),
            _ => 0,
        })
        .sum()
}

/// Bytes a durable directory holds, all nodes together.
pub fn dir_bytes(dir: &Path) -> u64 {
    file_bytes(dir, &|_| true)
}

/// Bytes of the snapshot files in a durable directory (one per node).
pub fn snapshot_bytes(dir: &Path) -> u64 {
    file_bytes(dir, &|name| name == datablinder_core::durability::SNAPSHOT_FILE)
}

// ------------------------------------------------------------------- kernels

/// One kernel rung: a direct call into a product crate's public function on
/// fixed seeded inputs, timed from outside by [`crate::kernels::measure`].
pub struct Kernel {
    /// `<module>.<metric>`; the trailing `_ns` / `_us` is the unit.
    pub name: &'static str,
    pub unit: &'static str,
    /// Prepares inputs and returns the closure to time. `scratch` is a
    /// directory the rung may write to.
    pub prepare: fn(scratch: &Path) -> Box<dyn FnMut()>,
}

mod kernel_impl {
    use std::hint::black_box;
    use std::path::Path;
    use std::sync::Arc;

    use datablinder_bigint::BigUint;
    use datablinder_core::wire::{decode_document, encode_document};
    use datablinder_docstore::{Collection, Document, Filter, Value};
    use datablinder_kms::{KeyScope, Kms};
    use datablinder_kvstore::{AppendLog, KvStore, LogRecord};
    use datablinder_netsim::tcp::{
        encode_wire_frame, CloudServer, FrameDecoder, ServerConfig, TcpChannel, TcpConfig, DEFAULT_MAX_FRAME,
        PING_ROUTE,
    };
    use datablinder_netsim::{CloudService, NetError, Transport};
    use datablinder_ope::{Ope, OpeParams};
    use datablinder_ore::LewiWuOre;
    use datablinder_paillier::{Ciphertext, Keypair};
    use datablinder_primitives::gcm::AesGcm;
    use datablinder_primitives::hmac::HmacCtx;
    use datablinder_primitives::keys::SymmetricKey;
    use datablinder_primitives::sha256;
    use datablinder_sse::biex::{Biex2LevClient, Biex2LevServer, BiexQuery};
    use datablinder_sse::det::DetCipher;
    use datablinder_sse::inverted::InvertedIndex;
    use datablinder_sse::mitra::{MitraClient, MitraServer};
    use datablinder_sse::rnd::RndCipher;
    use datablinder_sse::{DocId, UpdateOp};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    type Rung = Box<dyn FnMut()>;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x4B45_524E)
    }

    fn key() -> SymmetricKey {
        SymmetricKey::generate(&mut rng(), 32)
    }

    fn bytes(len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        rng().fill_bytes(&mut out);
        out
    }

    /// The product's Paillier modulus size (`tactics::paillier`): n has 512
    /// bits, so arithmetic is modulo the 1024-bit n².
    fn keypair() -> Keypair {
        Keypair::generate(&mut rng(), 512)
    }

    fn id(i: u64) -> DocId {
        let mut raw = [0u8; 16];
        raw[8..].copy_from_slice(&i.to_be_bytes());
        DocId(raw)
    }

    fn stored_document(i: u64) -> Document {
        Document::new(id(i).to_hex())
            .with("identifier", Value::from(i as i64))
            .with("subject__rnd", Value::from(bytes(60)))
            .with("status__det", Value::from(bytes(40)))
            .with("code__det", Value::from(bytes(40)))
            .with("effective__det", Value::from(bytes(40)))
            .with("value__det", Value::from(bytes(40)))
            .with("value__paillier", Value::from(bytes(128)))
    }

    pub fn gcm_seal(_: &Path) -> Rung {
        let (gcm, pt) = (AesGcm::new(&key()).expect("aes key"), bytes(256));
        Box::new(move || {
            black_box(gcm.seal(&[7u8; 12], b"aad", black_box(&pt)));
        })
    }

    pub fn gcm_open(_: &Path) -> Rung {
        let gcm = AesGcm::new(&key()).expect("aes key");
        let sealed = gcm.seal(&[7u8; 12], b"aad", &bytes(256));
        Box::new(move || {
            black_box(gcm.open(&[7u8; 12], b"aad", black_box(&sealed)).expect("authentic"));
        })
    }

    pub fn hmac(_: &Path) -> Rung {
        let (ctx, msg) = (HmacCtx::new(key().as_bytes()), bytes(64));
        Box::new(move || {
            black_box(ctx.mac(black_box(&msg)));
        })
    }

    pub fn sha256_1k(_: &Path) -> Rung {
        let msg = bytes(1024);
        Box::new(move || {
            black_box(sha256::digest(black_box(&msg)));
        })
    }

    pub fn kms_derive(_: &Path) -> Rung {
        let kms = Kms::generate(&mut rng());
        let scope = KeyScope::new("benchmark", "observation.status", "det");
        Box::new(move || {
            black_box(kms.key_for(black_box(&scope)));
        })
    }

    pub fn mulmod(_: &Path) -> Rung {
        let kp = keypair();
        let pk = kp.public().clone();
        let a = BigUint::random_below(&mut rng(), pk.modulus_squared());
        let b = &a + &BigUint::one();
        let b = &b % pk.modulus_squared();
        Box::new(move || {
            black_box(pk.montgomery_ctx().mul_mod(black_box(&a), black_box(&b)));
        })
    }

    pub fn modpow(_: &Path) -> Rung {
        let kp = keypair();
        let pk = kp.public().clone();
        let base = BigUint::random_below(&mut rng(), pk.modulus_squared());
        Box::new(move || {
            black_box(pk.montgomery_ctx().modpow(black_box(&base), pk.modulus()));
        })
    }

    pub fn paillier_obfuscator(_: &Path) -> Rung {
        let (kp, mut r) = (keypair(), rng());
        Box::new(move || {
            black_box(kp.public().fresh_obfuscator(&mut r));
        })
    }

    pub fn paillier_encrypt_pooled(_: &Path) -> Rung {
        let kp = keypair();
        let obfuscator = kp.public().fresh_obfuscator(&mut rng());
        let m = BigUint::from(63_000u64);
        Box::new(move || {
            black_box(kp.public().encrypt_with(black_box(&m), &obfuscator).expect("in range"));
        })
    }

    pub fn paillier_add(_: &Path) -> Rung {
        let kp = keypair();
        let stored = kp.public().encrypt_u64(&mut rng(), 63).to_bytes();
        let mut acc = kp.public().encrypt_u64(&mut rng(), 0);
        Box::new(move || {
            acc = kp.public().add(&acc, &Ciphertext::from_bytes(black_box(&stored)));
        })
    }

    pub fn paillier_decrypt(_: &Path) -> Rung {
        let kp = keypair();
        let c = kp.public().encrypt_u64(&mut rng(), 63_000);
        Box::new(move || {
            black_box(kp.decrypt(black_box(&c)).expect("decrypts"));
        })
    }

    pub fn ope_encrypt(_: &Path) -> Rung {
        let ope = Ope::new(key(), OpeParams::default());
        let mut m = 1_400_000_000u64;
        Box::new(move || {
            m += 86_400;
            black_box(ope.encrypt(black_box(m)));
        })
    }

    pub fn ore_encrypt(_: &Path) -> Rung {
        let ore = LewiWuOre::new(key());
        let mut m = 1_400_000_000u64;
        Box::new(move || {
            m += 86_400;
            black_box(ore.encrypt_right(black_box(m)));
        })
    }

    pub fn ore_compare(_: &Path) -> Rung {
        let ore = LewiWuOre::new(key());
        let (left, right) = (ore.encrypt_left(1_400_000_000), ore.encrypt_right(1_400_086_400));
        Box::new(move || {
            black_box(LewiWuOre::compare_left_right(black_box(&left), black_box(&right)));
        })
    }

    pub fn det_encrypt(_: &Path) -> Rung {
        let (det, pt) = (DetCipher::new(&key()).expect("det key"), bytes(24));
        Box::new(move || {
            black_box(det.encrypt(black_box(&pt)));
        })
    }

    pub fn rnd_encrypt(_: &Path) -> Rung {
        let (rnd, pt, mut r) = (RndCipher::new(&key()).expect("rnd key"), bytes(24), rng());
        Box::new(move || {
            black_box(rnd.encrypt(&mut r, black_box(&pt)));
        })
    }

    pub fn mitra_update(_: &Path) -> Rung {
        let mut client = MitraClient::new(&key());
        let mut i = 0u64;
        Box::new(move || {
            i += 1;
            black_box(client.update_token(b"subject:Patient 000042", id(i), UpdateOp::Add));
        })
    }

    pub fn mitra_resolve(_: &Path) -> Rung {
        let mut client = MitraClient::new(&key());
        let server = MitraServer::new(KvStore::new(), b"mitra:");
        for i in 0..100 {
            server.apply_update(&client.update_token(b"kw", id(i), UpdateOp::Add));
        }
        let values = server.search(&client.search_token(b"kw"));
        Box::new(move || {
            black_box(client.resolve(b"kw", black_box(&values)).expect("resolves"));
        })
    }

    /// A two-keyword conjunction over a static BIEX-2Lev index of 2,048
    /// documents, 4 × 8 keywords: token, server search and resolution.
    pub fn biex_query(_: &Path) -> Rung {
        let mut index = InvertedIndex::new();
        for i in 0..2_048u64 {
            let (s, c) = (format!("status:{}", i % 4), format!("code:{}", (i / 4) % 8));
            index.add_document([s.as_bytes(), c.as_bytes()], id(i));
        }
        let client = Biex2LevClient::new(&key());
        let server = Biex2LevServer::new(KvStore::new(), b"biex:");
        client.setup(&mut rng(), &index, &server).expect("biex setup");
        let query = BiexQuery::conjunction(vec![b"status:2".to_vec(), b"code:5".to_vec()]);
        Box::new(move || {
            let token = client.search_token(&query);
            let response = server.search(&token).expect("biex search");
            black_box(client.resolve(&query, &response).expect("biex resolve"));
        })
    }

    pub fn encode_doc(_: &Path) -> Rung {
        let doc = stored_document(1);
        Box::new(move || {
            black_box(encode_document(black_box(&doc)));
        })
    }

    pub fn decode_doc(_: &Path) -> Rung {
        let encoded = encode_document(&stored_document(1));
        Box::new(move || {
            black_box(decode_document(black_box(&encoded)).expect("decodes"));
        })
    }

    pub fn docstore_insert(_: &Path) -> Rung {
        let collection = Collection::new();
        collection.create_index("status__det");
        let template = stored_document(0);
        let mut i = 0u64;
        Box::new(move || {
            i += 1;
            let mut doc = Document::new(id(i).to_hex());
            for (f, v) in template.iter() {
                doc.set(f.clone(), v.clone());
            }
            collection.insert(doc).expect("fresh id");
        })
    }

    fn collection_of(n: u64) -> Collection {
        let collection = Collection::new();
        for i in 0..n {
            collection.insert(stored_document(i)).expect("fresh id");
        }
        collection
    }

    /// The scan the cloud-side Paillier sum runs over a collection.
    pub fn docstore_find_exists(_: &Path) -> Rung {
        let collection = collection_of(1_000);
        let filter = Filter::Exists("value__paillier".into());
        Box::new(move || {
            black_box(collection.find(black_box(&filter)));
        })
    }

    pub fn docstore_get_many(_: &Path) -> Rung {
        let collection = collection_of(1_000);
        let ids: Vec<String> = (0..100).map(|i| id(i * 7).to_hex()).collect();
        Box::new(move || {
            for id in &ids {
                black_box(collection.get(id));
            }
        })
    }

    pub fn kv_set(_: &Path) -> Rung {
        let (kv, value) = (KvStore::new(), bytes(17));
        let mut i = 0u64;
        Box::new(move || {
            i += 1;
            kv.set(&i.to_be_bytes(), &value);
        })
    }

    pub fn kv_get(_: &Path) -> Rung {
        let kv = KvStore::new();
        for i in 0..10_000u64 {
            kv.set(&i.to_be_bytes(), &[1u8; 17]);
        }
        let mut i = 0u64;
        Box::new(move || {
            i = (i + 7_919) % 10_000;
            black_box(kv.get(&i.to_be_bytes()));
        })
    }

    pub fn kv_log_append(scratch: &Path) -> Rung {
        let path = scratch.join("kernel-append.log");
        let _ = std::fs::remove_file(&path);
        let mut log = AppendLog::open(&path).expect("open log");
        let record = LogRecord::Set { key: bytes(40), value: bytes(17) };
        Box::new(move || {
            log.append(black_box(&record)).expect("append");
        })
    }

    pub fn frame_roundtrip(_: &Path) -> Rung {
        let body = bytes(512);
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        Box::new(move || {
            decoder.extend(&encode_wire_frame(9, black_box(&body)));
            black_box(decoder.next_frame().expect("valid frame"));
        })
    }

    struct Nothing;

    impl CloudService for Nothing {
        fn handle(&self, _: &str, _: &[u8]) -> Result<Vec<u8>, NetError> {
            Ok(Vec::new())
        }
    }

    /// `sys/ping` over loopback: the floor under `transport.self_us`.
    pub fn tcp_ping(_: &Path) -> Rung {
        let server =
            CloudServer::bind("127.0.0.1:0", Arc::new(Nothing), ServerConfig { workers: 1, ..ServerConfig::default() })
                .expect("bind loopback");
        let tcp = TcpChannel::connect(server.local_addr(), TcpConfig::default()).expect("connect loopback");
        let payload = bytes(64);
        Box::new(move || {
            let _keep_alive = &server;
            black_box(tcp.call(PING_ROUTE, &payload).expect("ping"));
        })
    }
}

macro_rules! kernel {
    ($name:literal, $unit:literal, $prepare:ident) => {
        Kernel { name: $name, unit: $unit, prepare: kernel_impl::$prepare }
    };
}

pub const KERNELS: [Kernel; 29] = [
    kernel!("primitives.gcm_seal_256B_ns", "ns", gcm_seal),
    kernel!("primitives.gcm_open_256B_ns", "ns", gcm_open),
    kernel!("primitives.hmac_64B_ns", "ns", hmac),
    kernel!("primitives.sha256_1KiB_ns", "ns", sha256_1k),
    kernel!("kms.derive_key_ns", "ns", kms_derive),
    kernel!("bigint.mulmod_1024_ns", "ns", mulmod),
    kernel!("bigint.modpow_1024_us", "us", modpow),
    kernel!("paillier.obfuscator_us", "us", paillier_obfuscator),
    kernel!("paillier.encrypt_pooled_us", "us", paillier_encrypt_pooled),
    kernel!("paillier.add_ns", "ns", paillier_add),
    kernel!("paillier.decrypt_crt_us", "us", paillier_decrypt),
    kernel!("ope.encrypt_us", "us", ope_encrypt),
    kernel!("ore.encrypt_us", "us", ore_encrypt),
    kernel!("ore.compare_ns", "ns", ore_compare),
    kernel!("sse.det_encrypt_ns", "ns", det_encrypt),
    kernel!("sse.rnd_encrypt_ns", "ns", rnd_encrypt),
    kernel!("sse.mitra_update_ns", "ns", mitra_update),
    kernel!("sse.mitra_resolve_us_per_100", "us", mitra_resolve),
    kernel!("sse.biex_query_us", "us", biex_query),
    kernel!("wire.encode_doc_ns", "ns", encode_doc),
    kernel!("wire.decode_doc_ns", "ns", decode_doc),
    kernel!("docstore.insert_ns", "ns", docstore_insert),
    kernel!("docstore.find_exists_us_per_1k", "us", docstore_find_exists),
    kernel!("docstore.get_many_us_per_100", "us", docstore_get_many),
    kernel!("kvstore.set_ns", "ns", kv_set),
    kernel!("kvstore.get_ns", "ns", kv_get),
    kernel!("kvstore.log_append_ns", "ns", kv_log_append),
    kernel!("netsim.frame_roundtrip_ns", "ns", frame_roundtrip),
    kernel!("netsim.tcp_ping_us", "us", tcp_ping),
];
