//! Failure-injection integration tests: deterministic fault storms through
//! the resilient channel, circuit breaking, byzantine cloud responses,
//! batch partial-failure semantics, crash-safe gateway state, and cloud
//! crash storms recovered through the WAL + snapshot layer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datablinder::core::cloud::CloudEngine;
use datablinder::core::durability::{DurabilityOptions, RestartableCloud};
use datablinder::core::gateway::{GatewayEngine, PendingWriteReport};
use datablinder::core::model::*;
use datablinder::core::CoreError;
use datablinder::docstore::{Document, Value};
use datablinder::kms::Kms;
use datablinder::kvstore::KvStore;
use datablinder::netsim::{
    BreakerConfig, BreakerState, Channel, CloudService, CrashInjector, CrashPlan, CrashPoint, FaultPlan,
    FaultStatsSnapshot, FaultyService, LatencyModel, MetricsSnapshot, NetError, Refusal, ResilienceConfig,
    ResilientChannel, RetryPolicy, RouteFaults,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn simple_schema() -> Schema {
    Schema::new("notes")
        .sensitive_field(
            "owner",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
        )
        .plain_field("note", FieldType::Text, false)
}

// ---------------------------------------------------------------- fault storm

const STORM_DOCS: usize = 220;
const STORM_OWNERS: usize = 10;

/// Pushes a workload through a gateway whose channel suffers drops, duplicate
/// deliveries, detected corruption and latency spikes, all seeded — then
/// verifies every search is exact. Returns everything observable so the
/// determinism test can compare two runs bit for bit.
fn storm_run(seed: u64) -> (MetricsSnapshot, FaultStatsSnapshot, u64, Vec<Vec<String>>) {
    let faults = RouteFaults::none()
        .with_drop(0.05)
        .with_duplicate(0.04)
        .with_corrupt(0.02)
        .with_delay(0.10, Duration::from_millis(25));
    let svc = Arc::new(FaultyService::new(CloudEngine::new(), FaultPlan::uniform(faults), seed));
    let channel = Channel::from_arc(svc.clone(), LatencyModel::instant());
    let config = ResilienceConfig {
        retry: RetryPolicy { max_attempts: 12, ..RetryPolicy::default() },
        deadline: Some(Duration::from_millis(10)),
        seed,
        ..ResilienceConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let gw =
        GatewayEngine::with_resilience("storm", Kms::generate(&mut rng), ResilientChannel::new(channel, config), seed);
    gw.register_schema(simple_schema()).unwrap();

    let mut expected: Vec<Vec<String>> = vec![Vec::new(); STORM_OWNERS];
    for i in 0..STORM_DOCS {
        let owner = format!("o{}", i % STORM_OWNERS);
        let doc = Document::new("x").with("owner", Value::from(owner.as_str()));
        // The acceptance bar: with ≥5% drops/timeouts/duplicates on every
        // message, the application never sees a channel error.
        let id = gw.insert("notes", &doc).expect("faults must be absorbed by retries");
        expected[i % STORM_OWNERS].push(id.to_hex());
    }

    let mut results: Vec<Vec<String>> = Vec::with_capacity(STORM_OWNERS);
    for (o, expect) in expected.iter_mut().enumerate() {
        let owner = format!("o{o}");
        let hits = gw.find_equal("notes", "owner", &Value::from(owner.as_str())).expect("search survives faults");
        let mut got: Vec<String> = hits.iter().map(|d| d.id().to_string()).collect();
        got.sort();
        expect.sort();
        assert_eq!(&got, expect, "owner {owner}: every stored doc found, no duplicates, no ghosts");
        results.push(got);
    }

    (gw.channel().metrics().snapshot(), svc.stats().snapshot(), svc.inner().dedup_hits(), results)
}

#[test]
fn storm_of_faults_is_absorbed_with_exact_results() {
    let (metrics, faults, dedup_hits, _) = storm_run(0x57_0131);

    // The storm actually stormed.
    assert!(faults.drops > 0, "drops: {faults:?}");
    assert!(faults.duplicates > 0, "duplicates: {faults:?}");
    assert!(faults.corruptions > 0, "corruptions: {faults:?}");
    assert!(faults.delays > 0, "delays: {faults:?}");

    // The resilient channel worked for a living.
    assert!(
        metrics.attempts > metrics.round_trips,
        "attempts {} > round trips {}",
        metrics.attempts,
        metrics.round_trips
    );
    assert!(metrics.retries > 0, "retries recorded");
    assert!(metrics.timeouts > 0, "timeouts recorded");

    // Some retried writes found their first delivery already applied: the
    // idempotency cache answered instead of re-executing.
    assert!(dedup_hits > 0, "dedup hits: {dedup_hits}");
}

#[test]
fn fault_storm_is_deterministic_per_seed() {
    let a = storm_run(0xD1CE);
    let b = storm_run(0xD1CE);
    assert_eq!(a.0, b.0, "same seed, same traffic metrics");
    assert_eq!(a.1, b.1, "same seed, same injected faults");
    assert_eq!(a.2, b.2, "same seed, same dedup hits");
    assert_eq!(a.3, b.3, "same seed, same results");

    let c = storm_run(0xD1CF);
    assert_ne!((a.0, a.1), (c.0, c.1), "different seed, different faults");
}

// ------------------------------------------------------------ circuit breaker

#[test]
fn breaker_fast_fails_after_consecutive_transport_failures() {
    // Every message is lost: each insert times out until the breaker opens,
    // then the gateway fails fast without touching the wire.
    let svc =
        Arc::new(FaultyService::new(CloudEngine::new(), FaultPlan::uniform(RouteFaults::none().with_drop(1.0)), 9));
    let channel = Channel::from_arc(svc, LatencyModel::instant());
    let config = ResilienceConfig {
        retry: RetryPolicy::none(),
        breaker: BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(50) },
        deadline: Some(Duration::from_millis(5)),
        seed: 9,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let mut gw =
        GatewayEngine::with_resilience("breaker", Kms::generate(&mut rng), ResilientChannel::new(channel, config), 9);
    gw.register_schema(simple_schema()).unwrap();

    let insert = |gw: &mut GatewayEngine, i: usize| {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{i}")))).unwrap_err()
    };

    for i in 0..3 {
        let err = insert(&mut gw, i);
        assert!(matches!(err, CoreError::Net(NetError::Timeout)), "{err}");
        assert!(err.is_transient());
    }
    assert_eq!(gw.resilient_channel().breaker_state(), BreakerState::Open);

    let sent_before = gw.channel().metrics().bytes_sent();
    let err = insert(&mut gw, 3);
    assert!(matches!(err, CoreError::Net(NetError::CircuitOpen)), "{err}");
    assert!(err.is_transient(), "fast-fails are worth retrying later");
    assert_eq!(gw.channel().metrics().bytes_sent(), sent_before, "fast-fail sent nothing");

    // After the cooldown a half-open probe is admitted; it times out too, so
    // the breaker re-opens — all observable through the metrics.
    gw.resilient_channel().advance(Duration::from_millis(50));
    let err = insert(&mut gw, 4);
    assert!(matches!(err, CoreError::Net(NetError::Timeout)), "{err}");
    assert_eq!(gw.resilient_channel().breaker_state(), BreakerState::Open);
    let m = gw.channel().metrics().snapshot();
    assert_eq!(m.breaker_opens, 2);
    assert_eq!(m.breaker_half_opens, 1);
}

// ----------------------------------------------------- legacy fault scenarios

#[test]
fn channel_failures_surface_as_errors_not_corruption() {
    // Injected *remote* failures are application-level and not retried: they
    // must surface as clean `CoreError::Net` errors, never corrupt state.
    let svc = FaultyService::new(CloudEngine::new(), FaultPlan::uniform(RouteFaults::none().with_fail(0.2)), 21);
    let channel = Channel::connect(svc, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(1);
    let gw = GatewayEngine::new("flaky", Kms::generate(&mut rng), channel, 1);
    gw.register_schema(simple_schema()).unwrap();

    let mut ok = 0usize;
    let mut failed = 0usize;
    for i in 0..40 {
        match gw.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{}", i % 4)))) {
            Ok(_) => ok += 1,
            Err(CoreError::Net(_)) => failed += 1,
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    assert!(ok > 0 && failed > 0, "ok={ok} failed={failed}");

    // Reads after the storm: every search either succeeds with consistent
    // results or fails cleanly — never panics or returns wrong plaintext.
    for i in 0..4 {
        let owner = format!("o{i}");
        if let Ok(hits) = gw.find_equal("notes", "owner", &Value::from(owner.as_str())) {
            for h in &hits {
                assert_eq!(h.get("owner"), Some(&Value::from(owner.as_str())));
            }
        }
    }
}

#[test]
fn byzantine_cloud_responses_are_rejected() {
    // A byzantine cloud garbles every tactic response (well-framed junk, so
    // the channel cannot catch it): the SSE layer must reject it cleanly.
    let plan = FaultPlan::none().route("tactic/", RouteFaults::none().with_garble(1.0));
    let svc = FaultyService::new(CloudEngine::new(), plan, 2);
    let channel = Channel::connect(svc, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(2);
    let gw = GatewayEngine::new("byz", Kms::generate(&mut rng), channel, 2);
    gw.register_schema(simple_schema()).unwrap();
    // Inserts survive: writes travel inside the idempotency envelope (route
    // "idem"), which the tactic-only override leaves untouched.
    gw.insert("notes", &Document::new("x").with("owner", Value::from("a"))).unwrap();

    let err = gw.find_equal("notes", "owner", &Value::from("a")).unwrap_err();
    assert!(matches!(err, CoreError::Sse(_) | CoreError::Wire(_)), "{err}");
}

// ------------------------------------------------------- batch partial failure

#[test]
fn mid_batch_failure_leaves_no_half_indexed_documents() {
    // Two gateways with the same id seed share one cloud: the second mints
    // an id the first already used, so its `insert_many` batch fails on the
    // second document's `doc/insert`. The guarantee under test: documents
    // before the failure are fully applied and queryable, the failing and
    // following documents are invisible — never a half-indexed ghost.
    let cloud = Arc::new(CloudEngine::new());
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let kms = Kms::generate(&mut rng);
    const SEED: u64 = 42;

    let gw_a = GatewayEngine::new("app", kms.clone(), Channel::from_arc(cloud.clone(), LatencyModel::instant()), SEED);
    gw_a.register_schema(simple_schema()).unwrap();
    let id1 = gw_a
        .insert("notes", &Document::new("x").with("owner", Value::from("tmp")).with("note", Value::from("d1")))
        .unwrap();
    let id2 = gw_a
        .insert("notes", &Document::new("x").with("owner", Value::from("bob")).with("note", Value::from("original")))
        .unwrap();
    gw_a.delete("notes", id1).unwrap(); // free the first id slot

    // Same id-generator seed, fresh gateway: mints id1, id2, id3 again.
    let gw_b = GatewayEngine::new("app", kms, Channel::from_arc(cloud, LatencyModel::instant()), SEED);
    gw_b.register_schema(simple_schema()).unwrap();
    let batch = [
        Document::new("x").with("owner", Value::from("alice")).with("note", Value::from("e1")),
        Document::new("x").with("owner", Value::from("bob")).with("note", Value::from("e2")),
        Document::new("x").with("owner", Value::from("carol")).with("note", Value::from("e3")),
    ];
    let err = gw_b.insert_many("notes", &batch).unwrap_err();
    assert!(matches!(err, CoreError::Net(_)), "duplicate id aborts the batch: {err}");

    // The document before the failure is fully applied and searchable.
    let hits = gw_b.find_equal("notes", "owner", &Value::from("alice")).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].get("note"), Some(&Value::from("e1")));

    // The failing document was never stored: its id slot still holds the
    // original, and searches stay consistent.
    assert_eq!(gw_b.get("notes", id2).unwrap().get("note"), Some(&Value::from("original")));
    let hits = gw_b.find_equal("notes", "owner", &Value::from("bob")).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].get("note"), Some(&Value::from("original")));

    // The document after the failure was not applied at all — its index
    // chain advanced locally but the gap resolves to "no results", not an
    // error and not a ghost.
    assert!(gw_b.find_equal("notes", "owner", &Value::from("carol")).unwrap().is_empty());

    // Store-level census: the original survivor plus the one applied doc.
    assert_eq!(gw_b.count("notes").unwrap(), 2);
}

// ---------------------------------------------------------- state persistence

#[test]
fn gateway_state_survives_crash_via_semi_durable_store() {
    let path = std::env::temp_dir().join(format!("datablinder-gwstate-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cloud = CloudEngine::new();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(3);
    let kms = Kms::generate(&mut rng);

    {
        let state_store = KvStore::open_semi_durable(&path).unwrap();
        let gw = GatewayEngine::new("crashy", kms.clone(), channel.clone(), 3);
        gw.register_schema(simple_schema()).unwrap();
        for i in 0..5 {
            gw.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{}", i % 2)))).unwrap();
        }
        gw.save_state(&state_store);
        // "crash": gw and the store handle drop; the log is on disk.
    }

    let state_store = KvStore::open_semi_durable(&path).unwrap();
    let gw = GatewayEngine::new("crashy", kms, channel, 4);
    gw.register_schema(simple_schema()).unwrap();
    gw.load_state(&state_store).unwrap();

    // Searches see the pre-crash data...
    let hits = gw.find_equal("notes", "owner", &Value::from("o0")).unwrap();
    assert_eq!(hits.len(), 3);
    // ...and new inserts continue the chains without collisions.
    gw.insert("notes", &Document::new("x").with("owner", Value::from("o0"))).unwrap();
    let hits = gw.find_equal("notes", "owner", &Value::from("o0")).unwrap();
    assert_eq!(hits.len(), 4);

    std::fs::remove_file(&path).unwrap();
}

// ----------------------------------------------------------- crash storms

/// Equality + range + boolean in one schema: `status` rides the shared
/// boolean tactic (BIEX), `owner` a per-field SSE chain (Mitra), `when` an
/// order-preserving shadow (OPE) — so a crash mid-insert can strand any of
/// three differently-shaped index structures.
fn rich_schema() -> Schema {
    Schema::new("vault")
        .sensitive_field(
            "status",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean]),
        )
        .sensitive_field(
            "owner",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
        )
        .sensitive_field(
            "when",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C5, vec![FieldOp::Insert, FieldOp::Range]),
        )
}

const CRASH_DOCS: usize = 200;
const CRASH_SEED: u64 = 0xC4A5;
const STATUSES: [&str; 4] = ["draft", "active", "final", "void"];

/// Everything a run observes, for oracle comparison.
#[derive(Debug, PartialEq, Eq)]
struct RunOutput {
    eq_status: Vec<Vec<String>>,
    eq_owner: Vec<Vec<String>>,
    ranges: Vec<Vec<String>>,
    bools: Vec<Vec<String>>,
    live_docs: u64,
}

fn sorted_ids(docs: &[Document]) -> Vec<String> {
    let mut ids: Vec<String> = docs.iter().map(|d| d.id().to_string()).collect();
    ids.sort();
    ids
}

/// Drives the reference workload (≥200 inserts + periodic deletes, then
/// every search shape + fsck) through `channel`. The gateway never
/// crashes here — the cloud behind the channel might — so any injected
/// outage must be absorbed by retries, never surfacing to the caller.
fn run_crash_workload(channel: Channel, seed: u64) -> RunOutput {
    let config = ResilienceConfig {
        retry: RetryPolicy { max_attempts: 8, ..RetryPolicy::default() },
        seed,
        ..ResilienceConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gw =
        GatewayEngine::with_resilience("vault", Kms::generate(&mut rng), ResilientChannel::new(channel, config), seed);
    gw.enable_write_journal(KvStore::new());
    gw.register_schema(rich_schema()).unwrap();

    let mut ids = Vec::with_capacity(CRASH_DOCS);
    for i in 0..CRASH_DOCS {
        let doc = Document::new("x")
            .with("status", Value::from(STATUSES[i % STATUSES.len()]))
            .with("owner", Value::from(format!("o{}", i % 10)))
            .with("when", Value::from((i % 20) as i64));
        ids.push(gw.insert("vault", &doc).expect("cloud crash must be absorbed by retries"));
    }
    for i in (0..CRASH_DOCS).step_by(11) {
        gw.delete("vault", ids[i]).expect("delete survives the crash window");
    }
    assert_eq!(gw.pending_writes(), 0, "every journaled write group was acknowledged");

    let eq_status = STATUSES
        .iter()
        .map(|s| sorted_ids(&gw.find_equal("vault", "status", &Value::from(*s)).expect("equality after recovery")))
        .collect();
    let eq_owner = (0..10)
        .map(|o| {
            let owner = format!("o{o}");
            sorted_ids(&gw.find_equal("vault", "owner", &Value::from(owner.as_str())).expect("equality (mitra)"))
        })
        .collect();
    let ranges = [0i64, 5, 13]
        .iter()
        .map(|lo| {
            sorted_ids(&gw.find_range("vault", "when", &Value::from(*lo), &Value::from(lo + 4)).expect("range (ope)"))
        })
        .collect();
    let single = vec![vec![("status".to_string(), Value::from("final"))]];
    let disjunction =
        vec![vec![("status".to_string(), Value::from("draft"))], vec![("status".to_string(), Value::from("void"))]];
    let bools = [single, disjunction]
        .iter()
        .map(|dnf| sorted_ids(&gw.find_boolean("vault", dnf).expect("boolean (biex)")))
        .collect();
    let live_docs = gw.count("vault").unwrap();

    // The ISSUE's acceptance bar: after recovery the index↔store invariants
    // hold — every document reachable, no orphan index entries.
    let fsck = gw.fsck("vault").expect("fsck runs");
    assert!(fsck.is_clean(), "fsck after recovery: {fsck:?}");
    assert_eq!(fsck.docs_checked as u64, live_docs);
    assert!(fsck.searches_run > 0);

    RunOutput { eq_status, eq_owner, ranges, bools, live_docs }
}

fn crash_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("datablinder-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_storm_recovers_to_oracle_at_every_kth_mutation() {
    // Oracle: the same workload against a cloud that never crashes.
    let oracle = run_crash_workload(Channel::connect(CloudEngine::new(), LatencyModel::instant()), CRASH_SEED);
    let expected_live = (CRASH_DOCS - (0..CRASH_DOCS).step_by(11).count()) as u64;
    assert_eq!(oracle.live_docs, expected_live);

    // Durable but uncrashed run: measures the journaled-write horizon and
    // proves the WAL+snapshot layer is invisible when nothing goes wrong.
    let base = crash_dir("base");
    let opts = DurabilityOptions { snapshot_every: Some(64), dedup_capacity: Some(4096), crash: None };
    let svc = Arc::new(RestartableCloud::open(&base, opts).unwrap());
    let durable = run_crash_workload(Channel::from_arc(svc.clone(), LatencyModel::instant()), CRASH_SEED);
    assert_eq!(durable, oracle, "durability layer must not change results");
    assert_eq!(svc.restarts(), 0);
    let horizon = svc.with_engine(|e| e.wal_seq()).unwrap();
    assert!(horizon > CRASH_DOCS as u64, "every mutation journaled: {horizon}");

    // Cold restart from disk alone: snapshot + WAL tail rebuild the state.
    drop(svc);
    let reopened = CloudEngine::open_durable(&base).unwrap();
    assert!(reopened.recovery_report().snapshot_restored, "snapshot compaction happened");
    assert_eq!(reopened.docs().collection("vault").len() as u64, expected_live);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&base);

    // The storm: crash at every k-th journaled mutation, rotating through
    // all three crash modes (refuse / torn frame / journaled-not-applied),
    // restart mid-workload, and demand oracle-exact results + clean fsck.
    let k = (horizon / 6).max(1);
    let mut storms = 0u32;
    for (i, at) in (0..horizon).step_by(k as usize).enumerate() {
        let point = match i % 3 {
            0 => CrashPoint::BeforeAppend(at),
            1 => CrashPoint::MidAppend { record: at, byte: 9 },
            _ => CrashPoint::AfterAppend(at),
        };
        let dir = crash_dir(&format!("p{i}"));
        let opts = DurabilityOptions {
            snapshot_every: Some(64),
            dedup_capacity: Some(4096),
            crash: Some(Arc::new(CrashInjector::new(CrashPlan::at(point)))),
        };
        let svc = Arc::new(RestartableCloud::open(&dir, opts).unwrap());
        let out = run_crash_workload(Channel::from_arc(svc.clone(), LatencyModel::instant()), CRASH_SEED);
        assert_eq!(out, oracle, "crash at write {at} ({point:?}) must recover to oracle results");
        assert_eq!(svc.restarts(), 1, "the planned crash fired exactly once ({point:?})");
        if matches!(point, CrashPoint::MidAppend { .. }) {
            let torn = svc.with_engine(|e| e.recovery_report().torn_tail).unwrap();
            assert!(torn, "a mid-append crash leaves a torn tail for recovery to truncate");
        }
        storms += 1;
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(storms >= 6, "covered the workload: {storms} crash points");
}

// ---------------------------- concurrent batch inserts under cloud crashes

/// Concurrency × fault injection: several threads drive `insert_many`
/// through ONE shared gateway (worker pool attached, so per-field
/// encryption fans out) while the cloud crash-restarts mid-storm at a
/// planned WAL record — once per crash mode. The retrying channel must
/// absorb the outage, and after recovery no document may be partially
/// indexed: every batch is exactly and fully visible, and fsck is clean.
#[test]
fn concurrent_insert_many_crash_storm_leaves_no_partial_documents() {
    use std::thread;

    const THREADS: usize = 4;
    const BATCHES: usize = 4;
    const BATCH: usize = 3;
    let total = (THREADS * BATCHES * BATCH) as u64;

    // Each `insert_many` envelope journals as one WAL record, so the
    // whole storm writes THREADS×BATCHES records — crash points must sit
    // inside that window.
    for (i, point) in
        [CrashPoint::AfterAppend(5), CrashPoint::MidAppend { record: 9, byte: 9 }, CrashPoint::BeforeAppend(13)]
            .into_iter()
            .enumerate()
    {
        let dir = crash_dir(&format!("conc{i}"));
        let opts = DurabilityOptions {
            snapshot_every: Some(64),
            dedup_capacity: Some(4096),
            crash: Some(Arc::new(CrashInjector::new(CrashPlan::at(point)))),
        };
        let svc = Arc::new(RestartableCloud::open(&dir, opts).unwrap());
        let config = ResilienceConfig {
            retry: RetryPolicy { max_attempts: 16, ..RetryPolicy::default() },
            seed: 0xC0CC,
            ..ResilienceConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0xC0CC);
        let mut gw = GatewayEngine::with_resilience(
            "conc",
            Kms::generate(&mut rng),
            ResilientChannel::new(Channel::from_arc(svc.clone(), LatencyModel::instant()), config),
            0xC0CC,
        );
        gw.enable_write_journal(KvStore::new());
        gw.set_worker_pool(Arc::new(datablinder::core::pool::WorkerPool::new(2)));
        gw.register_schema(simple_schema()).unwrap();
        let gw = Arc::new(gw);

        // Each batch gets a unique owner so full-batch visibility is
        // checkable per batch afterwards.
        let committed: Vec<(String, Vec<String>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let gw = Arc::clone(&gw);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for b in 0..BATCHES {
                            let owner = format!("t{t}b{b}");
                            let docs: Vec<Document> = (0..BATCH)
                                .map(|k| {
                                    Document::new("x")
                                        .with("owner", Value::from(owner.as_str()))
                                        .with("note", Value::from(format!("n{k}")))
                                })
                                .collect();
                            let ids = gw.insert_many("notes", &docs).expect("cloud crash must be absorbed by retries");
                            assert_eq!(ids.len(), BATCH);
                            mine.push((owner, ids.into_iter().map(|id| id.to_hex()).collect::<Vec<_>>()));
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("no worker panics")).collect()
        });

        assert_eq!(svc.restarts(), 1, "the planned crash fired exactly once ({point:?})");
        assert_eq!(gw.pending_writes(), 0, "every journaled write group was acknowledged");
        assert_eq!(gw.count("notes").unwrap(), total, "crash at {point:?}: nothing lost, nothing duplicated");
        for (owner, mut ids) in committed {
            let hits = gw.find_equal("notes", "owner", &Value::from(owner.as_str())).unwrap();
            let mut got: Vec<String> = hits.iter().map(|d| d.id().to_string()).collect();
            got.sort();
            ids.sort();
            assert_eq!(got, ids, "batch {owner}: fully indexed, no ghosts, no partial documents");
        }
        let fsck = gw.fsck("notes").unwrap();
        assert!(fsck.is_clean(), "fsck after crash recovery: {fsck:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------- gateway write journal

/// A cloud whose *write* intake can be cut off after a budget of write
/// groups: reads keep flowing, writes time out — the shape of an outage
/// that strands an insert between the gateway and the cloud. With
/// `disk_full`, writes are refused as a storage failure instead.
struct MeteredCloud {
    inner: CloudEngine,
    write_budget: AtomicI64,
    disk_full: AtomicBool,
}

impl MeteredCloud {
    fn healthy() -> Self {
        MeteredCloud {
            inner: CloudEngine::new(),
            write_budget: AtomicI64::new(i64::MAX),
            disk_full: AtomicBool::new(false),
        }
    }
}

impl CloudService for MeteredCloud {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        // The gateway seals every write group into one idempotency
        // envelope, so gating on the envelope route meters exactly the
        // write groups.
        if route == "idem" && self.write_budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(NetError::Timeout);
        }
        if route == "idem" && self.disk_full.load(Ordering::SeqCst) {
            return Err(NetError::Remote(Refusal::Storage, "wal: no space left on device".into()));
        }
        self.inner.handle(route, payload)
    }
}

#[test]
fn interrupted_insert_rolls_forward_via_write_journal() {
    let svc = Arc::new(MeteredCloud::healthy());
    let journal = KvStore::new();
    let state = KvStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let kms = Kms::generate(&mut rng);
    let config = ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() };
    let mut gw = GatewayEngine::with_resilience(
        "journal",
        kms.clone(),
        ResilientChannel::new(Channel::from_arc(svc.clone(), LatencyModel::instant()), config),
        7,
    );
    gw.register_schema(simple_schema()).unwrap();
    gw.enable_write_journal(journal.clone());
    gw.insert("notes", &Document::new("x").with("owner", Value::from("alice"))).unwrap();
    assert_eq!(gw.pending_writes(), 0);

    // Pull the plug: bob's write group — index update and document in one
    // sealed batch — never reaches the cloud.
    svc.write_budget.store(0, Ordering::SeqCst);
    let err = gw.insert("notes", &Document::new("x").with("owner", Value::from("bob"))).unwrap_err();
    assert!(matches!(err, CoreError::Net(NetError::Timeout)), "{err}");
    assert_eq!(gw.pending_writes(), 1, "the interrupted group stays journaled");
    // The interrupted insert is invisible to queries (the chain advanced
    // locally; the missing entry resolves as no result).
    assert!(gw.find_equal("notes", "owner", &Value::from("bob")).unwrap().is_empty());

    // "Restart": plug restored, fresh gateway over the same journal and
    // saved tactic state rolls the group forward.
    svc.write_budget.store(i64::MAX, Ordering::SeqCst);
    gw.save_state(&state);
    drop(gw);
    let mut gw2 = GatewayEngine::new("journal", kms, Channel::from_arc(svc.clone(), LatencyModel::instant()), 8);
    gw2.register_schema(simple_schema()).unwrap();
    gw2.load_state(&state).unwrap();
    gw2.enable_write_journal(journal);
    assert_eq!(gw2.pending_writes(), 1, "the entry survived the restart");
    let report = gw2.recover_pending().unwrap();
    assert_eq!(report, PendingWriteReport { entries: 1, rolled_forward: 1, failed: 0, failures: Vec::new() });
    assert_eq!(gw2.pending_writes(), 0);

    // Bob is now fully indexed AND stored; the store is consistent again.
    let hits = gw2.find_equal("notes", "owner", &Value::from("bob")).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].get("owner"), Some(&Value::from("bob")));
    let fsck = gw2.fsck("notes").unwrap();
    assert!(fsck.is_clean(), "{fsck:?}");
}

#[test]
fn unapplyable_journal_entry_is_reported_failed() {
    // A pending group whose doc/insert collides with an already-stored id
    // cannot complete: recovery must report it failed and clear it — not
    // leave it pending forever, not half-apply it silently.
    let svc = Arc::new(MeteredCloud::healthy());
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let kms = Kms::generate(&mut rng);
    const ID_SEED: u64 = 42;

    let gw_a =
        GatewayEngine::new("journal", kms.clone(), Channel::from_arc(svc.clone(), LatencyModel::instant()), ID_SEED);
    gw_a.register_schema(simple_schema()).unwrap();
    gw_a.insert("notes", &Document::new("x").with("owner", Value::from("first"))).unwrap();

    // Same id seed → gw_b mints the same DocId; its insert is interrupted
    // on its way, leaving a pending group that can never apply.
    let journal = KvStore::new();
    let config = ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() };
    let mut gw_b = GatewayEngine::with_resilience(
        "journal",
        kms,
        ResilientChannel::new(Channel::from_arc(svc.clone(), LatencyModel::instant()), config),
        ID_SEED,
    );
    gw_b.register_schema(simple_schema()).unwrap();
    gw_b.enable_write_journal(journal);
    svc.write_budget.store(0, Ordering::SeqCst);
    gw_b.insert("notes", &Document::new("x").with("owner", Value::from("second"))).unwrap_err();
    assert_eq!(gw_b.pending_writes(), 1);

    svc.write_budget.store(i64::MAX, Ordering::SeqCst);
    let report = gw_b.recover_pending().unwrap();
    assert_eq!(report.entries, 1);
    assert_eq!(report.failed, 1);
    assert_eq!(report.rolled_forward, 0);
    assert_eq!(report.failures.len(), 1, "the reason is reported: {:?}", report.failures);
    assert_eq!(gw_b.pending_writes(), 0, "failed entries are cleared, not retried forever");
    // The collided slot still holds the original document (gw_a owns the
    // chain state for "first", so it does the lookup), and no phantom
    // second document appeared.
    let hits = gw_a.find_equal("notes", "owner", &Value::from("first")).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].get("owner"), Some(&Value::from("first")));
    assert_eq!(gw_a.count("notes").unwrap(), 1);
}

/// A journaling gateway over a [`MeteredCloud`] whose channel never
/// retries, with `owner` values inserted and acknowledged, then `pending`
/// inserted with the write intake cut: one journal entry each.
fn journal_with_pending(acked: &[&str], pending: &[&str]) -> (Arc<MeteredCloud>, KvStore, GatewayEngine) {
    let svc = Arc::new(MeteredCloud::healthy());
    let journal = KvStore::new();
    let config = ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() };
    let mut gw = GatewayEngine::with_resilience(
        "journal",
        Kms::generate(&mut StdRng::seed_from_u64(0x70A2)),
        ResilientChannel::new(Channel::from_arc(svc.clone(), LatencyModel::instant()), config),
        0x70A2,
    );
    gw.register_schema(simple_schema()).unwrap();
    gw.enable_write_journal(journal.clone());
    for owner in acked {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(*owner))).unwrap();
    }
    svc.write_budget.store(0, Ordering::SeqCst);
    for owner in pending {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(*owner))).unwrap_err();
    }
    svc.write_budget.store(i64::MAX, Ordering::SeqCst);
    assert_eq!(gw.pending_writes(), pending.len());
    (svc, journal, gw)
}

fn owners(gw: &GatewayEngine, owner: &str) -> usize {
    gw.find_equal("notes", "owner", &Value::from(owner)).unwrap().len()
}

#[test]
fn torn_journal_entry_is_reported_and_recovery_carries_on() {
    // Two entries that cannot decode — a truncated list and an odd field
    // count — sort ahead of a good one. Recovery reports and clears them
    // and still rolls the good one forward, instead of stopping at the
    // first and leaving everything behind it pending forever.
    let (_, journal, gw) = journal_with_pending(&["alice"], &["bob"]);
    let good = journal.keys_with_prefix(b"gwj/");
    let mut odd = datablinder::codec::Writer::new();
    odd.list(&[b"idem".to_vec()]);
    journal.set(b"gwj/", &journal.get(&good[0]).unwrap()[..9]);
    journal.set(b"gwj/0", &odd.finish());
    assert_eq!(gw.pending_writes(), 3);

    let report = gw.recover_pending().unwrap();
    assert_eq!((report.entries, report.rolled_forward, report.failed), (3, 1, 2), "{report:?}");
    assert!(report.failures.iter().all(|f| f.starts_with("malformed journal entry")), "{:?}", report.failures);
    assert_eq!(gw.pending_writes(), 0);
    assert_eq!((owners(&gw, "alice"), owners(&gw, "bob")), (1, 1));
    assert!(gw.fsck("notes").unwrap().is_clean());
}

#[test]
fn a_storage_refusal_leaves_the_entry_and_those_after_it_pending() {
    // A cloud whose disk refused a write has not decided it: unlike a
    // conflict, the next attempt may pass. Recovery stops there and keeps
    // that entry and the one after it for the next call.
    let (svc, _, gw) = journal_with_pending(&["alice"], &["bob", "carol"]);
    svc.disk_full.store(true, Ordering::SeqCst);
    let err = gw.recover_pending().unwrap_err();
    assert_eq!(err, CoreError::Net(NetError::Remote(Refusal::Storage, "wal: no space left on device".into())));
    assert_eq!(gw.pending_writes(), 2, "nothing was dropped");

    svc.disk_full.store(false, Ordering::SeqCst);
    let report = gw.recover_pending().unwrap();
    assert_eq!((report.entries, report.rolled_forward, report.failed), (2, 2, 0), "{report:?}");
    assert_eq!((owners(&gw, "bob"), owners(&gw, "carol")), (1, 1));
    assert!(gw.fsck("notes").unwrap().is_clean());
}

#[test]
fn journal_entry_in_the_list_format_still_replays() {
    // Entries were once the call list `[idem, sealed]` around the envelope.
    // A gateway upgraded with such an entry pending rolls it forward; a
    // list whose envelope is torn is still reported malformed.
    let (svc, journal, gw) = journal_with_pending(&["alice"], &["bob"]);
    let key = journal.keys_with_prefix(b"gwj/").pop().unwrap();
    let sealed = journal.get(&key).unwrap();
    let listed = |sealed: &[u8]| {
        let mut w = datablinder::codec::Writer::new();
        w.list(&[b"idem".as_slice(), sealed]);
        w.finish()
    };
    journal.set(&key, &listed(&sealed));
    journal.set(b"gwj/", &listed(&sealed[..9]));

    let report = gw.recover_pending().unwrap();
    assert_eq!((report.entries, report.rolled_forward, report.failed), (2, 1, 1), "{report:?}");
    assert!(report.failures[0].starts_with("malformed journal entry"), "{:?}", report.failures);
    assert_eq!(gw.pending_writes(), 0);
    assert_eq!((owners(&gw, "alice"), owners(&gw, "bob")), (1, 1));
    assert!(gw.fsck("notes").unwrap().is_clean());
    assert_eq!(svc.inner.dedup_hits(), 0, "nothing had applied: the group ran once");
}

// ------------------------------------------------------------------- fsck

#[test]
fn fsck_detects_orphans_and_missing_index_entries() {
    let cloud = Arc::new(CloudEngine::new());
    let mut rng = StdRng::seed_from_u64(0xF5C4);
    let gw = GatewayEngine::new(
        "fsck",
        Kms::generate(&mut rng),
        Channel::from_arc(cloud.clone(), LatencyModel::instant()),
        5,
    );
    gw.register_schema(simple_schema()).unwrap();
    let mut ids = Vec::new();
    for i in 0..5 {
        ids.push(gw.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{}", i % 2)))).unwrap());
    }
    let clean = gw.fsck("notes").unwrap();
    assert!(clean.is_clean(), "{clean:?}");
    assert_eq!(clean.docs_checked, 5);

    // Byzantine cloud-side deletion: the document vanishes, its index
    // entries do not. fsck must flag the orphan.
    cloud.docs().collection("notes").delete(&ids[0].to_hex()).unwrap();
    let report = gw.fsck("notes").unwrap();
    assert!(!report.is_clean());
    assert!(report.orphan_results.iter().any(|o| o.contains("orphan index entry")), "orphans flagged: {report:?}");

    // Now wipe the whole mitra index scope: every surviving document
    // becomes unreachable through equality search.
    cloud.kv().del_prefix(b"t/mitra/notes:owner/");
    let report = gw.fsck("notes").unwrap();
    assert!(!report.is_clean());
    assert!(!report.missing_index_entries.is_empty(), "missing entries flagged: {report:?}");
}

/// A gateway rebuilt without its tactic state restarts Mitra's counter at
/// 1, so its next update names the address of an acknowledged entry, under
/// the same pad, with another value. The cloud refuses that update loudly
/// and the acknowledged entry survives. On a durable cloud the refused
/// update is journaled ahead of its apply, and its replay refuses it the
/// same way without failing recovery. The pad itself still crossed the wire
/// once: journaling the state with the writes is what stops that.
#[test]
fn stale_state_is_refused_before_it_overwrites_a_chain() {
    let dir = crash_dir("stale-state");
    let state = KvStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let kms = Kms::generate(&mut rng);
    let o0 = Value::from("o0");
    let note = |i: u32| Document::new("x").with("owner", o0.clone()).with("note", Value::from(format!("n{i}")));
    let notes = |docs: Vec<Document>| {
        let mut notes: Vec<Value> = docs.iter().map(|d| d.get("note").unwrap().clone()).collect();
        notes.sort_by(|a, b| a.total_cmp(b));
        notes
    };
    {
        let channel = Channel::connect(CloudEngine::open_durable(&dir).unwrap(), LatencyModel::instant());
        let gw = GatewayEngine::new("stale", kms.clone(), channel.clone(), 5);
        gw.register_schema(simple_schema()).unwrap();
        for i in 0..3 {
            gw.insert("notes", &note(i)).unwrap();
        }
        assert_eq!(gw.find_equal("notes", "owner", &o0).unwrap().len(), 3);
        gw.save_state(&state);
        drop(gw);

        // Rebuilt without `load_state`: the counters are gone.
        let restarted = GatewayEngine::new("stale", kms.clone(), channel, 6);
        restarted.register_schema(simple_schema()).unwrap();
        assert!(restarted.find_equal("notes", "owner", &o0).unwrap().is_empty());
        let err = restarted.insert("notes", &note(3)).unwrap_err();
        assert!(
            matches!(&err, CoreError::Net(NetError::Remote(Refusal::Conflict, m)) if m.contains("index address already holds a different entry")),
            "{err}"
        );
    }

    let cloud = CloudEngine::open_durable(&dir).unwrap();
    assert!(cloud.recovery_report().replayed > 0, "the refused write group was journaled and replayed");
    let gw = GatewayEngine::new("stale", kms, Channel::connect(cloud, LatencyModel::instant()), 7);
    gw.register_schema(simple_schema()).unwrap();
    gw.load_state(&state).unwrap();
    let survivors = notes(gw.find_equal("notes", "owner", &o0).unwrap());
    assert_eq!(survivors, ["n0", "n1", "n2"].map(Value::from), "the acknowledged entries survive");
    gw.insert("notes", &note(4)).unwrap();
    assert_eq!(notes(gw.find_equal("notes", "owner", &o0).unwrap()), ["n0", "n1", "n2", "n4"].map(Value::from));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------- observability integration

/// The fault-storm metrics also land in an installed obs recorder: channel
/// attempts/retries/backoff counters agree with the channel's own metering,
/// gateway route counters see every op, and the breaker trip under a total
/// outage is visible as a state gauge plus a transition counter.
#[test]
fn fault_storm_metrics_land_in_recorder() {
    use datablinder::obs::Recorder;

    let seed = 0x0B5F;
    let faults = RouteFaults::none().with_drop(0.06).with_duplicate(0.04).with_corrupt(0.02);
    let svc = Arc::new(FaultyService::new(CloudEngine::new(), FaultPlan::uniform(faults), seed));
    let channel = Channel::from_arc(svc, LatencyModel::instant());
    let config = ResilienceConfig {
        retry: RetryPolicy { max_attempts: 12, ..RetryPolicy::default() },
        deadline: Some(Duration::from_millis(10)),
        seed,
        ..ResilienceConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gw =
        GatewayEngine::with_resilience("storm", Kms::generate(&mut rng), ResilientChannel::new(channel, config), seed);
    gw.set_recorder(Recorder::new());
    gw.register_schema(simple_schema()).unwrap();

    let docs = 80usize;
    for i in 0..docs {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{}", i % 8)))).unwrap();
    }
    for o in 0..8 {
        gw.find_equal("notes", "owner", &Value::from(format!("o{o}"))).unwrap();
    }

    let snap = gw.recorder().snapshot();
    let m = gw.channel().metrics().snapshot();
    assert_eq!(snap.counter("channel.call.attempts"), m.attempts, "recorder agrees with channel metering");
    assert_eq!(snap.counter("channel.call.retries"), m.retries);
    assert!(snap.counter("channel.call.retries") > 0, "the storm forced retries");
    assert_eq!(snap.counter("channel.backoff.sleeps"), m.retries, "every retry backed off");
    assert!(snap.counter("channel.backoff.nanos") > 0);
    assert_eq!(snap.counter("gateway.insert.count"), docs as u64);
    assert_eq!(snap.counter("gateway.find_equal.count"), 8);
    assert_eq!(snap.counter("gateway.insert.errors"), 0, "faults absorbed, not surfaced");

    // Now a total outage: the breaker trips, and the recorder sees the
    // transition and the Open state gauge.
    let dead =
        Arc::new(FaultyService::new(CloudEngine::new(), FaultPlan::uniform(RouteFaults::none().with_drop(1.0)), 7));
    let config = ResilienceConfig {
        retry: RetryPolicy::none(),
        breaker: BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(50) },
        deadline: Some(Duration::from_millis(5)),
        seed: 7,
    };
    let mut gw2 = GatewayEngine::with_resilience(
        "breaker",
        Kms::generate(&mut rng),
        ResilientChannel::new(Channel::from_arc(dead, LatencyModel::instant()), config),
        7,
    );
    let recorder = Recorder::new();
    gw2.set_recorder(recorder.clone());
    let _ = gw2.register_schema(simple_schema()); // schema prep may already time out
    for i in 0..4 {
        let _ = gw2.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{i}"))));
    }
    assert_eq!(gw2.resilient_channel().breaker_state(), BreakerState::Open);
    let snap = recorder.snapshot();
    assert!(snap.counter("channel.breaker.transitions") >= 1, "breaker trip counted");
    assert_eq!(snap.gauge("channel.breaker.state"), Some(1), "gauge shows Open");
    assert!(snap.counter("channel.call.errors") > 0);
}

/// WAL appends, snapshot compactions and crash recovery land in the cloud
/// engine's recorder: a durable engine journals every write, and a reopen
/// after a simulated power cut reports how many records rolled forward and
/// how long the engine took to become query-ready.
#[test]
fn wal_and_recovery_counters_reach_the_recorder() {
    use datablinder::obs::Recorder;

    let dir = crash_dir("obs");
    let opts = DurabilityOptions { snapshot_every: Some(1000), dedup_capacity: Some(1024), crash: None };

    // Live run: count WAL appends while the workload writes.
    let live = Recorder::new();
    let mut engine = CloudEngine::open_durable_observed(&dir, opts.clone(), live.clone()).unwrap();
    engine.set_recorder(live.clone());
    let svc = Arc::new(engine);
    let channel = Channel::from_arc(svc.clone(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(11);
    let gw = GatewayEngine::new("durable", Kms::generate(&mut rng), channel, 11);
    gw.register_schema(simple_schema()).unwrap();
    let docs = 20usize;
    for i in 0..docs {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{}", i % 4)))).unwrap();
    }
    svc.snapshot_now().unwrap();
    for i in docs..docs + 5 {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(format!("o{}", i % 4)))).unwrap();
    }

    let snap = live.snapshot();
    assert!(snap.counter("cloud.wal.appends") >= (docs + 5) as u64, "every write journaled: {:?}", snap.counters);
    assert!(snap.counter("cloud.wal.bytes") > snap.counter("cloud.wal.appends"), "journal bytes metered");
    assert_eq!(snap.counter("cloud.snapshot.compactions"), 1);
    assert_eq!(snap.counter("cloud.recovery.replayed"), 0, "first open had nothing to replay");

    // Power cut + reopen: the WAL tail written after the snapshot replays,
    // and the recovery counters + time-to-first-query land in the recorder.
    let wal_tail = svc.wal_since_snapshot();
    assert!(wal_tail > 0, "writes landed after the snapshot");
    drop(gw);
    drop(svc);
    let reopened_obs = Recorder::new();
    let reopened = CloudEngine::open_durable_observed(&dir, opts, reopened_obs.clone()).unwrap();
    let snap = reopened_obs.snapshot();
    assert_eq!(snap.counter("cloud.recovery.replayed"), reopened.recovery_report().replayed);
    assert!(snap.counter("cloud.recovery.replayed") > 0, "the WAL tail rolled forward");
    assert_eq!(snap.counter("cloud.recovery.snapshots_restored"), 1);
    let recovery = snap.histogram("cloud.recovery.latency").expect("time-to-first-query measured");
    assert_eq!(recovery.count, 1);

    // And the recovered store serves queries.
    let channel = Channel::from_arc(Arc::new(reopened), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(11);
    let gw = GatewayEngine::new("durable", Kms::generate(&mut rng), channel, 11);
    gw.register_schema(simple_schema()).unwrap();
    assert_eq!(gw.count("notes").unwrap(), (docs + 5) as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An aggregate is one read call. A hundred of them reach a durable cloud as
/// a hundred bare `sum` routes — no idempotency envelope, so no dedup slot
/// and no WAL record — and leave its journal counters where the inserts left
/// them. The product the cloud carries between sums lives in memory only: a
/// power cut loses it, the first aggregate after the reopen folds the
/// recovered documents again (one rescan, exact), and the next one carries.
#[test]
fn aggregates_write_nothing_and_are_exact_across_a_restart() {
    use datablinder::obs::Recorder;
    use std::sync::Mutex;

    struct Routes {
        inner: CloudEngine,
        seen: Mutex<Vec<String>>,
    }
    impl CloudService for Routes {
        fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
            self.seen.lock().unwrap().push(route.to_string());
            self.inner.handle(route, payload)
        }
    }
    let schema = || {
        Schema::new("ledger").sensitive_field(
            "amount",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]).with_aggs(vec![AggFn::Sum]),
        )
    };
    // Both gateway incarnations share the KMS (the Paillier keypair lives
    // there) and mint document ids from different seeds.
    let kms = Kms::generate(&mut StdRng::seed_from_u64(21));
    let gateway = |svc: Arc<Routes>, seed: u64| {
        let gw = GatewayEngine::new("ledger", kms.clone(), Channel::from_arc(svc, LatencyModel::instant()), seed);
        gw.register_schema(schema()).unwrap();
        gw
    };
    let folds = |obs: &Recorder| {
        let snap = obs.snapshot();
        (snap.counter("cloud.paillier.fold.carried"), snap.counter("cloud.paillier.fold.rescans"))
    };

    let dir = crash_dir("agg");
    let opts = DurabilityOptions { snapshot_every: Some(1000), dedup_capacity: Some(1024), crash: None };
    let obs = Recorder::new();
    let engine = CloudEngine::open_durable_observed(&dir, opts.clone(), obs.clone()).unwrap();
    let svc = Arc::new(Routes { inner: engine, seen: Mutex::new(Vec::new()) });
    let gw = gateway(svc.clone(), 21);
    let docs = 40i64;
    for amount in 1..=docs {
        gw.insert("ledger", &Document::new("x").with("amount", Value::from(amount))).unwrap();
    }
    let total = (docs * (docs + 1) / 2) as f64;

    let journal = |e: &CloudEngine| (e.wal_seq(), e.wal_group_commits(), e.dedup_hits());
    let before = (journal(&svc.inner), obs.snapshot().counter("cloud.wal.appends"));
    svc.seen.lock().unwrap().clear();
    for _ in 0..100 {
        assert_eq!(gw.aggregate("ledger", "amount", AggFn::Sum, None).unwrap(), total);
    }
    assert_eq!((journal(&svc.inner), obs.snapshot().counter("cloud.wal.appends")), before, "reads do not write");
    let seen = std::mem::take(&mut *svc.seen.lock().unwrap());
    assert_eq!(seen.len(), 100, "one call per aggregate");
    assert!(seen.iter().all(|r| r.starts_with("tactic/paillier/") && r.ends_with("/sum")), "bare reads: {seen:?}");
    assert_eq!(folds(&obs), (99 * docs as u64, 1), "one full fold, then every document skipped 99 times");

    // Power cut: the WAL holds the documents and nothing about any key.
    drop(gw);
    drop(svc);
    let obs = Recorder::new();
    let reopened = CloudEngine::open_durable_observed(&dir, opts, obs.clone()).unwrap();
    assert_eq!(reopened.recovery_report().replayed, before.0 .0, "everything journaled was a write");
    let svc = Arc::new(Routes { inner: reopened, seen: Mutex::new(Vec::new()) });
    let gw = gateway(svc.clone(), 22);
    assert_eq!(gw.aggregate("ledger", "amount", AggFn::Sum, None).unwrap(), total);
    assert_eq!(folds(&obs), (0, 1), "rebuilt by one rescan of the recovered documents");
    gw.insert("ledger", &Document::new("x").with("amount", Value::from(1000i64))).unwrap();
    assert_eq!(gw.aggregate("ledger", "amount", AggFn::Sum, None).unwrap(), total + 1000.0);
    assert_eq!(folds(&obs), (docs as u64, 1), "and carried from then on");
    let _ = std::fs::remove_dir_all(&dir);
}
