//! Shared harness code for the evaluation binaries.
//!
//! One binary per table/figure of the paper (see DESIGN.md §3):
//!
//! * `fig5_throughput` — Figure 5 (S_A/S_B/S_C throughput comparison),
//! * `table_latency` — the §5.2 latency percentile table,
//! * `table1_spi` — Table 1 (SPI interface matrix),
//! * `table2_tactics` — Table 2 (tactic inventory from live registry
//!   introspection).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
use std::sync::Arc;

use datablinder_core::cloud::CloudEngine;
use datablinder_core::pool::WorkerPool;
use datablinder_docstore::Document;
use datablinder_fhir::ObservationGenerator;
use datablinder_netsim::{
    Channel, CloudServer, CloudService, LatencyModel, ResilienceConfig, ResilientChannel, ServerConfig, TcpChannel,
    TcpConfig,
};
use datablinder_obs::Recorder;
use datablinder_workload::clients::{
    shared_gateway, shared_gateway_over, HardcodedClient, MiddlewareClient, PlainClient, SHARED_SCHEMA,
};
use datablinder_workload::runner::{
    run_scenario, run_scenario_observed, run_shared_scenario, ScenarioReport, ScenarioSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Workload sizing for the Figure-5 / latency-table runs.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Concurrent workers.
    pub workers: usize,
    /// Total requests per scenario.
    pub requests: usize,
    /// Distinct patients (search-result sizes).
    pub patient_pool: usize,
    /// Paillier modulus bits for the hard-coded client (the middleware
    /// client always uses its registry default, 512).
    pub paillier_bits: usize,
    /// Channel latency model (`instant`, `lan`, `metro`, `wan`). The
    /// paper's deployment crossed a real network (private OpenStack to a
    /// public cloud provider); `metro` with real sleeping is the default
    /// so round trips cost wall-clock time like they did there.
    pub net: &'static str,
    /// Run S_C through an enabled [`Recorder`] so its report carries a
    /// populated observability snapshot (per-route gateway counters,
    /// channel metrics, leakage ledger). Off by default: recording costs
    /// a little, and the headline S_B→S_C comparison should not pay it.
    pub observe: bool,
    /// Run the shared-gateway scaling ladder instead of the three-scenario
    /// comparison: ONE gateway engine serves every worker, at 1, 2, 4, …
    /// workers up to [`EvalConfig::workers`]. See [`run_shared_gateway`].
    pub shared_gateway: bool,
    /// Run the replicated-cluster node-count ladder instead: quorum-write
    /// and quorum-read throughput at 1/2/3/5 nodes, with a node killed and
    /// rejoined mid-run on the multi-node rungs. See [`run_cluster`].
    pub cluster: bool,
    /// Output path for the cluster ladder's `BENCH_cluster.json`.
    pub cluster_out: &'static str,
    /// Run the loopback-TCP rung instead: ONE shared gateway speaking the
    /// framed wire protocol over a real socket to an in-process
    /// [`CloudServer`] — the repo's first honest end-to-end latency
    /// numbers. See [`run_tcp`].
    pub tcp: bool,
    /// Output path for the TCP rung's `BENCH_tcp.json`.
    pub tcp_out: &'static str,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            workers: 8,
            requests: 4_000,
            patient_pool: 64,
            paillier_bits: 512,
            net: "metro",
            observe: false,
            shared_gateway: false,
            cluster: false,
            cluster_out: "BENCH_cluster.json",
            tcp: false,
            tcp_out: "BENCH_tcp.json",
        }
    }
}

impl EvalConfig {
    /// Parses `--workers N --requests N --observe --full` style CLI
    /// arguments.
    pub fn from_args() -> Self {
        let mut cfg = EvalConfig::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--workers" => {
                    cfg.workers = args.next().and_then(|v| v.parse().ok()).unwrap_or(cfg.workers);
                }
                "--requests" => {
                    cfg.requests = args.next().and_then(|v| v.parse().ok()).unwrap_or(cfg.requests);
                }
                "--patients" => {
                    cfg.patient_pool = args.next().and_then(|v| v.parse().ok()).unwrap_or(cfg.patient_pool);
                }
                "--net" => {
                    cfg.net = match args.next().as_deref() {
                        Some("instant") => "instant",
                        Some("lan") => "lan",
                        Some("wan") => "wan",
                        _ => "metro",
                    };
                }
                "--observe" => cfg.observe = true,
                "--shared-gateway" => cfg.shared_gateway = true,
                "--cluster" => cfg.cluster = true,
                "--tcp" => cfg.tcp = true,
                "--out" => {
                    if let Some(path) = args.next() {
                        let leaked: &'static str = Box::leak(path.into_boxed_str());
                        cfg.cluster_out = leaked;
                        cfg.tcp_out = leaked;
                    }
                }
                // The paper's full scale: ~151k requests, 1000 users.
                "--full" => {
                    cfg.workers = 64;
                    cfg.requests = 151_000;
                    cfg.patient_pool = 1000;
                }
                other => eprintln!("ignoring unknown argument {other}"),
            }
        }
        cfg
    }

    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            workers: self.workers,
            requests: self.requests,
            patient_pool: self.patient_pool,
            ..ScenarioSpec::default()
        }
    }

    fn latency_model(&self) -> LatencyModel {
        match self.net {
            "instant" => LatencyModel::instant(),
            "lan" => LatencyModel { real_sleep: true, ..LatencyModel::lan() },
            "wan" => LatencyModel { real_sleep: true, ..LatencyModel::wan() },
            _ => LatencyModel { real_sleep: true, ..LatencyModel::metro() },
        }
    }
}

/// Runs the three §5.2 scenarios against fresh cloud engines and returns
/// `(S_A, S_B, S_C)` reports.
pub fn run_all_scenarios(cfg: EvalConfig) -> (ScenarioReport, ScenarioReport, ScenarioReport) {
    // All scenarios share one latency model; each worker gets its own
    // channel handle to one shared per-scenario cloud engine.
    let spec = cfg.spec();
    let model = cfg.latency_model();

    eprintln!("running S_A (no middleware, no tactics): {} requests / {} workers", cfg.requests, cfg.workers);
    let cloud_a = Channel::connect(CloudEngine::new(), model);
    let sa = run_scenario("S_A", spec, |w| Box::new(PlainClient::new(cloud_a.clone(), w as u64)));

    eprintln!("running S_B (hard-coded tactics)");
    let cloud_b = Channel::connect(CloudEngine::new(), model);
    let sb =
        run_scenario("S_B", spec, |w| Box::new(HardcodedClient::new(cloud_b.clone(), w as u64, cfg.paillier_bits)));

    eprintln!("running S_C (DataBlinder middleware)");
    let cloud_c = Channel::connect(CloudEngine::new(), model);
    let sc = if cfg.observe {
        let recorder = Recorder::new();
        let rec = recorder.clone();
        run_scenario_observed(
            "S_C",
            spec,
            move |w| Box::new(MiddlewareClient::new_observed(cloud_c.clone(), w as u64, rec.clone())),
            recorder,
        )
    } else {
        run_scenario("S_C", spec, |w| Box::new(MiddlewareClient::new(cloud_c.clone(), w as u64)))
    };

    (sa, sb, sc)
}

/// Static labels for the shared-gateway scaling rungs (scenario labels are
/// `&'static str` throughout the runner).
fn rung_label(workers: usize) -> &'static str {
    match workers {
        1 => "Gx1",
        2 => "Gx2",
        4 => "Gx4",
        8 => "Gx8",
        16 => "Gx16",
        32 => "Gx32",
        64 => "Gx64",
        _ => "GxN",
    }
}

/// Powers of two up to and including `max` (so the default `--workers 8`
/// gives the 1/2/4/8 ladder).
fn ladder(max: usize) -> Vec<usize> {
    let mut rungs = Vec::new();
    let mut w = 1usize;
    while w <= max.max(1) {
        rungs.push(w);
        w *= 2;
    }
    rungs
}

/// Runs the shared-gateway scaling ladder: at each worker count (powers of
/// two up to `cfg.workers`), ONE [`GatewayEngine`] instance — with a
/// worker pool attached for parallel batch encryption — serves every
/// worker thread over ONE shared [`CloudEngine`]. Each rung's report
/// carries a snapshot from the run's shared recorder, taken *after*
/// [`CloudEngine::publish_shard_metrics`], so per-shard contention
/// counters (`cloud.kv.shard.N.contention`, `cloud.dedup.shard.N.contention`)
/// and the pool gauges are present in the JSON document the binary prints.
///
/// This is the deployment shape the `&self` engine routes exist for; the
/// three-scenario comparison in [`run_all_scenarios`] instead builds one
/// engine per worker.
///
/// [`GatewayEngine`]: datablinder_core::gateway::GatewayEngine
pub fn run_shared_gateway(cfg: EvalConfig) -> Vec<ScenarioReport> {
    let model = cfg.latency_model();
    let mut reports = Vec::new();
    for workers in ladder(cfg.workers) {
        eprintln!("running shared gateway: {} requests / {} workers on one engine", cfg.requests, workers);
        let recorder = Recorder::new();
        let mut cloud = CloudEngine::new();
        cloud.set_recorder(recorder.clone());
        let cloud = Arc::new(cloud);
        let channel = Channel::from_arc(cloud.clone(), model);
        let pool = Arc::new(WorkerPool::new(workers.min(4)));
        let engine = shared_gateway(channel, recorder.clone(), Some(pool));

        // Prime through the batch path so the run also exercises the
        // worker pool (the closed-loop mix inserts one document at a
        // time and would otherwise never fan out).
        let mut rng = StdRng::seed_from_u64(0x51AB);
        let mut gen = ObservationGenerator::new(cfg.patient_pool);
        let batch: Vec<Document> = (0..16).map(|_| gen.generate(&mut rng)).collect();
        engine.insert_many(SHARED_SCHEMA, &batch).expect("priming batch inserts");

        let spec =
            ScenarioSpec { workers, requests: cfg.requests, patient_pool: cfg.patient_pool, ..ScenarioSpec::default() };
        let mut report = run_shared_scenario(rung_label(workers), spec, &engine, recorder.clone());
        cloud.publish_shard_metrics();
        report.snapshot = recorder.snapshot();
        reports.push(report);
    }
    reports
}

/// The loopback-TCP rung: the shared-gateway closed loop, but every hop
/// crosses a real socket.
#[derive(Debug)]
pub struct TcpRunReport {
    /// The closed-loop scenario report (same shape as a shared-gateway rung).
    pub report: ScenarioReport,
    /// Worker threads that shared the one gateway (and its one socket).
    pub workers: usize,
    /// Wire round trips the gateway's channel completed.
    pub round_trips: u64,
    /// Requests the resilience layer re-sent after a transport failure
    /// (should be zero on loopback).
    pub retries: u64,
    /// Bytes written to the socket (frame overhead included).
    pub bytes_sent: u64,
    /// Bytes read back from the socket.
    pub bytes_received: u64,
    /// Requests the server's workers answered, priming traffic included.
    pub served: u64,
}

/// Runs the same closed-loop mix as one [`run_shared_gateway`] rung, but
/// over a real kernel socket: an in-process [`CloudServer`] bound to an
/// ephemeral loopback port serves the shared [`CloudEngine`], and the ONE
/// shared gateway reaches it through a pipelining [`TcpChannel`] wrapped
/// in the same [`ResilientChannel`] the simulated path uses. Identical
/// seeds and schema to [`run_shared_gateway`] — the only variable is the
/// wire.
pub fn run_tcp(cfg: EvalConfig) -> TcpRunReport {
    eprintln!("running tcp loopback: {} requests / {} workers over one socket", cfg.requests, cfg.workers);
    let recorder = Recorder::new();
    let mut cloud = CloudEngine::new();
    cloud.set_recorder(recorder.clone());
    let cloud = Arc::new(cloud);
    let service: Arc<dyn CloudService> = cloud.clone();
    let server = CloudServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig { workers: cfg.workers.max(2), ..ServerConfig::default() },
    )
    .expect("bind loopback cloud server");
    let tcp = Arc::new(TcpChannel::connect(server.local_addr(), TcpConfig::default()).expect("connect loopback"));
    let resilient = ResilientChannel::over(tcp, ResilienceConfig { seed: 0xC0DE, ..ResilienceConfig::default() });
    let pool = Arc::new(WorkerPool::new(cfg.workers.min(4)));
    let engine = shared_gateway_over(resilient, recorder.clone(), Some(pool));

    // Same priming batch as the shared-gateway ladder: exercises the
    // worker pool's parallel encryption and the pipelined multi-frame
    // insert path before timing starts.
    let mut rng = StdRng::seed_from_u64(0x51AB);
    let mut gen = ObservationGenerator::new(cfg.patient_pool);
    let batch: Vec<Document> = (0..16).map(|_| gen.generate(&mut rng)).collect();
    engine.insert_many(SHARED_SCHEMA, &batch).expect("priming batch inserts");

    let spec = ScenarioSpec {
        workers: cfg.workers,
        requests: cfg.requests,
        patient_pool: cfg.patient_pool,
        ..ScenarioSpec::default()
    };
    let mut report = run_shared_scenario("tcp-loopback", spec, &engine, recorder.clone());
    cloud.publish_shard_metrics();
    report.snapshot = recorder.snapshot();

    let metrics = engine.channel().metrics();
    TcpRunReport {
        workers: cfg.workers,
        round_trips: metrics.round_trips(),
        retries: metrics.retries(),
        bytes_sent: metrics.bytes_sent(),
        bytes_received: metrics.bytes_received(),
        served: server.served(),
        report,
    }
}

/// Renders `BENCH_tcp.json`: the rung's throughput (`ops_per_s`, what CI
/// greps for) plus the wire-level counters only a real socket produces.
pub fn render_tcp_json(run: &TcpRunReport) -> String {
    format!(
        "{{\"bench\":\"tcp\",\"label\":\"{}\",\"workers\":{},\"completed\":{},\"failed\":{},\
         \"ops_per_s\":{:.1},\"p50_us\":{:.1},\"p99_us\":{:.1},\"round_trips\":{},\"retries\":{},\
         \"bytes_sent\":{},\"bytes_received\":{},\"served\":{}}}",
        run.report.label,
        run.workers,
        run.report.completed,
        run.report.failed,
        run.report.throughput(),
        run.report.overall.percentile(0.50).as_secs_f64() * 1e6,
        run.report.overall.percentile(0.99).as_secs_f64() * 1e6,
        run.round_trips,
        run.retries,
        run.bytes_sent,
        run.bytes_received,
        run.served
    )
}

/// One rung of the replicated-cluster node-count ladder.
#[derive(Debug, Clone)]
pub struct ClusterRungReport {
    /// Cluster size (N).
    pub nodes: usize,
    /// Replicas per key (R).
    pub replication: usize,
    /// Durable acks per write (W).
    pub write_quorum: usize,
    /// Quorum writes per second (each write fans out to R replicas and
    /// waits for W durable acks).
    pub quorum_write_per_s: f64,
    /// Quorum reads per second (each read probes the key's live replicas
    /// and answers by majority).
    pub quorum_read_per_s: f64,
    /// Nodes killed mid-run.
    pub kills: u64,
    /// Nodes rejoined mid-run.
    pub rejoins: u64,
    /// Replicas healed by read repair after the rejoin.
    pub read_repairs: u64,
    /// Wall-clock milliseconds the mid-run rejoin spent resyncing state
    /// from its peers (0 on rungs without a kill/rejoin).
    pub resync_ms: f64,
    /// Anti-entropy passes until the quiesced cluster converged (every
    /// live replica reporting byte-identical per-shard Merkle state).
    pub anti_entropy_rounds: u64,
    /// Bytes shipped by anti-entropy repairs while converging.
    pub anti_entropy_repaired_bytes: u64,
}

impl ClusterRungReport {
    /// The rung as one JSON object (hand-written: the bench path has no serializer).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nodes\":{},\"replication\":{},\"write_quorum\":{},\"quorum_write_per_s\":{:.1},\
             \"quorum_read_per_s\":{:.1},\"kills\":{},\"rejoins\":{},\"read_repairs\":{},\
             \"resync_ms\":{:.2},\"anti_entropy_rounds\":{},\"anti_entropy_repaired_bytes\":{}}}",
            self.nodes,
            self.replication,
            self.write_quorum,
            self.quorum_write_per_s,
            self.quorum_read_per_s,
            self.kills,
            self.rejoins,
            self.read_repairs,
            self.resync_ms,
            self.anti_entropy_rounds,
            self.anti_entropy_repaired_bytes
        )
    }
}

/// Observability cost on the top cluster rung: the identical write-only
/// workload with recording off (the default) and fully on (enabled
/// recorder, every write rooted in a trace, per-node recorders federated).
#[derive(Debug, Clone, Copy)]
pub struct ObsOverheadReport {
    /// Quorum writes per second with the disabled (default) recorder.
    pub obs_disabled_write_per_s: f64,
    /// Quorum writes per second with tracing and metrics fully enabled.
    pub obs_enabled_write_per_s: f64,
}

impl ObsOverheadReport {
    /// The enabled path's slowdown relative to disabled, in percent
    /// (negative when enabled happened to measure faster).
    pub fn overhead_pct(&self) -> f64 {
        if self.obs_disabled_write_per_s <= 0.0 {
            return 0.0;
        }
        (self.obs_disabled_write_per_s / self.obs_enabled_write_per_s.max(f64::EPSILON) - 1.0) * 100.0
    }
}

/// Renders the full `BENCH_cluster.json` document: every rung plus the
/// top rung's headline throughputs at top level (what CI greps for).
pub fn render_cluster_json(rungs: &[ClusterRungReport], overhead: &ObsOverheadReport) -> String {
    let items: Vec<String> = rungs.iter().map(ClusterRungReport::to_json).collect();
    let top = rungs.last().expect("at least one rung");
    format!(
        "{{\"bench\":\"cluster\",\"rungs\":[{}],\"quorum_write_per_s\":{:.1},\"quorum_read_per_s\":{:.1},\
         \"resync_ms\":{:.2},\"anti_entropy_rounds\":{},\"obs_disabled_write_per_s\":{:.1},\
         \"obs_enabled_write_per_s\":{:.1},\"obs_overhead_pct\":{:.2}}}",
        items.join(","),
        top.quorum_write_per_s,
        top.quorum_read_per_s,
        top.resync_ms,
        top.anti_entropy_rounds,
        overhead.obs_disabled_write_per_s,
        overhead.obs_enabled_write_per_s,
        overhead.overhead_pct()
    )
}

/// Measures the observability tax on the top rung (5 nodes, R=3, W=2):
/// `cfg.requests` quorum writes against an un-instrumented cluster, then
/// the same writes against one with an enabled recorder where every write
/// opens a root trace — so the measured path includes span guards, traced
/// envelopes on every replica channel, per-node apply spans and federation
/// bookkeeping.
pub fn run_cluster_obs_overhead(cfg: EvalConfig) -> ObsOverheadReport {
    use datablinder_core::cluster::{ClusterCloud, ClusterConfig};

    let requests = cfg.requests.max(2);
    let rate = |instrument: bool| -> f64 {
        use datablinder_core::cloud::with_collection;
        use datablinder_core::wire::encode_document;
        use datablinder_docstore::Value;
        use datablinder_netsim::CloudService;

        let mut cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0xBE7C)).expect("valid config");
        let obs = instrument.then(|| {
            let recorder = Recorder::new();
            cluster.set_recorder(recorder.clone());
            recorder
        });
        let payloads: Vec<Vec<u8>> = (0..requests)
            .map(|i| {
                let id = format!("{i:032x}");
                let doc = Document::new(id).with("value", Value::from(i as i64));
                with_collection("bench", &encode_document(&doc))
            })
            .collect();
        let started = std::time::Instant::now();
        for payload in &payloads {
            let _root = obs.as_ref().map(|r| r.span_root("workload.insert"));
            cluster.handle("doc/insert", payload).expect("quorum write");
        }
        requests as f64 / started.elapsed().as_secs_f64().max(f64::EPSILON)
    };
    eprintln!("measuring observability overhead: {requests} writes, recorder off vs on");
    ObsOverheadReport { obs_disabled_write_per_s: rate(false), obs_enabled_write_per_s: rate(true) }
}

/// Runs the replicated-cluster ladder: at 1, 2, 3 and 5 nodes (R = min(3,
/// N), W = ⌊R/2⌋+1), a [`ClusterCloud`] takes `cfg.requests` quorum writes
/// followed by `cfg.requests` quorum reads over the inserted keys. On
/// rungs where the quorum tolerates it, one node is killed halfway through
/// the writes and rejoined before the reads — so the reported throughput
/// includes failover and the read-repair traffic that heals the rejoined
/// (volatile, therefore empty) node.
///
/// [`ClusterCloud`]: datablinder_core::cluster::ClusterCloud
pub fn run_cluster(cfg: EvalConfig) -> Vec<ClusterRungReport> {
    use datablinder_core::cloud::with_collection;
    use datablinder_core::cluster::{ClusterCloud, ClusterConfig};
    use datablinder_core::wire::encode_document;
    use datablinder_docstore::Value;
    use datablinder_netsim::CloudService;

    let requests = cfg.requests.max(2);
    let mut rungs = Vec::new();
    for nodes in [1usize, 2, 3, 5] {
        let replication = nodes.min(3);
        let write_quorum = replication / 2 + 1;
        // A kill mid-run must leave every quorum satisfiable: a key whose
        // replica set includes the dead node has R−1 live replicas left,
        // which must still reach W (the ring never re-routes).
        let survivable = replication > write_quorum;
        eprintln!(
            "running cluster rung: {nodes} nodes, R={replication}, W={write_quorum}, {requests} writes + reads{}",
            if survivable { ", one kill/rejoin mid-run" } else { "" }
        );
        let cluster = ClusterCloud::new(ClusterConfig::volatile(nodes, replication, write_quorum, 0xBE7C))
            .expect("valid rung config");

        let payloads: Vec<(String, Vec<u8>)> = (0..requests)
            .map(|i| {
                let id = format!("{i:032x}");
                let doc = Document::new(id.clone()).with("value", Value::from(i as i64));
                (id, with_collection("bench", &encode_document(&doc)))
            })
            .collect();
        let started = std::time::Instant::now();
        for (i, (_, payload)) in payloads.iter().enumerate() {
            if survivable && i == requests / 2 {
                cluster.kill_node(nodes - 1);
            }
            cluster.handle("doc/insert", payload).expect("quorum write");
        }
        let write_secs = started.elapsed().as_secs_f64();
        let resync_ms = if survivable {
            let started = std::time::Instant::now();
            cluster.rejoin_node(nodes - 1).expect("rejoin");
            started.elapsed().as_secs_f64() * 1_000.0
        } else {
            0.0
        };
        let started = std::time::Instant::now();
        for (id, _) in &payloads {
            cluster.handle("doc/get", &with_collection("bench", id.as_bytes())).expect("quorum read");
        }
        let read_secs = started.elapsed().as_secs_f64();
        // Quiesced convergence: how many Merkle-diff passes until every
        // live replica reports identical per-shard state. One clean pass
        // is the floor (the pass that observes convergence).
        let mut anti_entropy_rounds = 1u64;
        while !cluster.run_anti_entropy().converged() {
            anti_entropy_rounds += 1;
            assert!(anti_entropy_rounds < 32, "anti-entropy must converge on a quiet cluster");
        }
        rungs.push(ClusterRungReport {
            nodes,
            replication,
            write_quorum,
            quorum_write_per_s: requests as f64 / write_secs.max(f64::EPSILON),
            quorum_read_per_s: requests as f64 / read_secs.max(f64::EPSILON),
            kills: cluster.kills(),
            rejoins: cluster.rejoins(),
            read_repairs: cluster.read_repairs(),
            resync_ms,
            anti_entropy_rounds,
            anti_entropy_repaired_bytes: cluster.anti_entropy_repaired_bytes(),
        });
    }
    rungs
}
