//! Model-based concurrency suite: M threads hammer ONE shared
//! [`GatewayEngine`] with a seeded mix of inserts, batch inserts, updates,
//! deletes, equality/range searches and Paillier sums; every committed
//! write is logged, then replayed against a fresh single-threaded oracle
//! engine and a plain `HashMap` model. The shared engine's final state
//! must match both.
//!
//! Threads own disjoint document-id sets (each mutates only documents it
//! inserted), so the committed logs commute: the final state is a
//! deterministic function of the seeds, whatever the interleaving. That
//! is what makes the differential check exact rather than heuristic —
//! and it mirrors the deployment the `&self` routes exist for: one
//! middleware instance shared by an application server's thread pool.
//!
//! During the run every thread also checks read-your-writes through
//! `get` (its ids are private to it, so its own last write must be
//! visible), and every concurrent query must complete without error.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use datablinder::core::cloud::CloudEngine;
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
use datablinder::core::pool::WorkerPool;
use datablinder::core::CoreError;
use datablinder::docstore::{Document, Value};
use datablinder::kms::Kms;
use datablinder::netsim::{Channel, LatencyModel};
use datablinder::sse::DocId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCHEMA: &str = "records";
const OWNERS: [&str; 6] = ["o0", "o1", "o2", "o3", "o4", "o5"];

fn schema() -> Schema {
    use FieldOp::*;
    Schema::new(SCHEMA)
        .sensitive_field(
            "owner",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![Insert, Equality]),
        )
        .sensitive_field(
            "score",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C5, vec![Insert, Range]).with_aggs(vec![AggFn::Sum]),
        )
}

fn engine(seed: u64, pool_threads: usize) -> GatewayEngine {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gw = GatewayEngine::new("conc", Kms::generate(&mut rng), channel, seed);
    if pool_threads > 0 {
        gw.set_worker_pool(Arc::new(WorkerPool::new(pool_threads)));
    }
    gw.register_schema(schema()).unwrap();
    gw
}

fn doc_of(owner: &str, score: i64) -> Document {
    Document::new("x").with("owner", Value::from(owner)).with("score", Value::from(score))
}

/// A committed write, logged by the thread that performed it.
#[derive(Clone)]
enum WriteOp {
    Insert { id: DocId, owner: String, score: i64 },
    Update { id: DocId, owner: String, score: i64 },
    Delete { id: DocId },
}

/// One worker's seeded session against the shared engine. Returns the
/// log of committed writes, in program order.
fn drive(gw: &GatewayEngine, seed: u64, ops: usize) -> Vec<WriteOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log: Vec<WriteOp> = Vec::new();
    // (id, owner, score) of documents this thread owns, as last written.
    let mut mine: Vec<(DocId, String, i64)> = Vec::new();
    // Prime with one insert (as the workload runner does): queries against
    // a scope no insert has set up yet fail identically on a
    // single-threaded engine, so they are out of contract here too.
    {
        let owner = OWNERS[rng.gen_range(0..OWNERS.len())].to_string();
        let score: i64 = rng.gen_range(-1_000..1_000);
        let id = gw.insert(SCHEMA, &doc_of(&owner, score)).unwrap();
        log.push(WriteOp::Insert { id, owner: owner.clone(), score });
        mine.push((id, owner, score));
    }
    for op in 0..ops {
        match rng.gen_range(0..10u32) {
            // Inserts dominate so the other ops have material to work on.
            0..=3 => {
                let owner = OWNERS[rng.gen_range(0..OWNERS.len())].to_string();
                let score: i64 = rng.gen_range(-1_000..1_000);
                let id = gw.insert(SCHEMA, &doc_of(&owner, score)).unwrap();
                log.push(WriteOp::Insert { id, owner: owner.clone(), score });
                mine.push((id, owner, score));
            }
            // Batch insert through the worker-pool path.
            4 => {
                let batch: Vec<(String, i64)> = (0..3)
                    .map(|_| (OWNERS[rng.gen_range(0..OWNERS.len())].to_string(), rng.gen_range(-1_000..1_000)))
                    .collect();
                let docs: Vec<Document> = batch.iter().map(|(o, s)| doc_of(o, *s)).collect();
                let ids = gw.insert_many(SCHEMA, &docs).unwrap();
                assert_eq!(ids.len(), docs.len());
                for (id, (owner, score)) in ids.into_iter().zip(batch) {
                    log.push(WriteOp::Insert { id, owner: owner.clone(), score });
                    mine.push((id, owner, score));
                }
            }
            5 => {
                if mine.is_empty() {
                    continue;
                }
                let k = rng.gen_range(0..mine.len());
                let owner = OWNERS[rng.gen_range(0..OWNERS.len())].to_string();
                let score: i64 = rng.gen_range(-1_000..1_000);
                let id = mine[k].0;
                gw.update(SCHEMA, id, &doc_of(&owner, score)).unwrap();
                log.push(WriteOp::Update { id, owner: owner.clone(), score });
                mine[k] = (id, owner, score);
            }
            6 => {
                if mine.is_empty() {
                    continue;
                }
                let k = rng.gen_range(0..mine.len());
                let (id, _, _) = mine.swap_remove(k);
                gw.delete(SCHEMA, id).unwrap();
                log.push(WriteOp::Delete { id });
                assert!(gw.get(SCHEMA, id).is_err(), "deleted doc must be gone for its owner thread");
            }
            7 => {
                let owner = OWNERS[rng.gen_range(0..OWNERS.len())];
                gw.find_equal(SCHEMA, "owner", &Value::from(owner)).unwrap();
            }
            8 => {
                let lo: i64 = rng.gen_range(-1_000..0);
                let hi: i64 = rng.gen_range(0..1_000);
                gw.find_range(SCHEMA, "score", &Value::from(lo), &Value::from(hi)).unwrap();
            }
            _ => {
                gw.aggregate(SCHEMA, "score", AggFn::Sum, None).unwrap();
            }
        }
        // Read-your-writes on a private id: no other thread touches it.
        if op % 7 == 0 && !mine.is_empty() {
            let (id, owner, score) = &mine[mine.len() - 1];
            let got = gw.get(SCHEMA, *id).unwrap();
            assert_eq!(got.get("owner"), Some(&Value::from(owner.as_str())), "read-your-writes owner");
            assert_eq!(got.get("score"), Some(&Value::from(*score)), "read-your-writes score");
        }
    }
    log
}

/// The final expected state, derived by replaying committed logs.
fn replay(logs: &[Vec<WriteOp>]) -> (GatewayEngine, HashMap<String, (String, i64)>) {
    let oracle = engine(0x0A_C1E, 0);
    // Model keyed by the SHARED run's id (hex): exact id-level expectations
    // for the shared engine. The oracle mints its own ids, so it is
    // compared by content multisets instead.
    let mut model: HashMap<String, (String, i64)> = HashMap::new();
    // shared-run id -> oracle id, so updates/deletes replay correctly.
    let mut remap: HashMap<String, DocId> = HashMap::new();
    for log in logs {
        for op in log {
            match op {
                WriteOp::Insert { id, owner, score } => {
                    let oid = oracle.insert(SCHEMA, &doc_of(owner, *score)).unwrap();
                    remap.insert(id.to_hex(), oid);
                    model.insert(id.to_hex(), (owner.clone(), *score));
                }
                WriteOp::Update { id, owner, score } => {
                    oracle.update(SCHEMA, remap[&id.to_hex()], &doc_of(owner, *score)).unwrap();
                    model.insert(id.to_hex(), (owner.clone(), *score));
                }
                WriteOp::Delete { id } => {
                    oracle.delete(SCHEMA, remap[&id.to_hex()]).unwrap();
                    remap.remove(&id.to_hex());
                    model.remove(&id.to_hex());
                }
            }
        }
    }
    (oracle, model)
}

/// Sorted (owner, score) multiset of a result set — the id-free view both
/// engines must agree on.
fn contents(docs: &[Document]) -> Vec<(String, i64)> {
    let mut v: Vec<(String, i64)> = docs
        .iter()
        .map(|d| (d.get("owner").unwrap().as_str().unwrap().to_string(), d.get("score").unwrap().as_i64().unwrap()))
        .collect();
    v.sort();
    v
}

fn sorted_ids(docs: &[Document]) -> Vec<String> {
    let mut v: Vec<String> = docs.iter().map(|d| d.id().to_string()).collect();
    v.sort();
    v
}

fn run_model(threads: usize, seed: u64, ops_per_thread: usize) {
    let shared = Arc::new(engine(seed, 2));
    let logs: Vec<Vec<WriteOp>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let gw = Arc::clone(&shared);
                s.spawn(move || drive(&gw, seed ^ (t as u64).wrapping_mul(0x9E37_79B9), ops_per_thread))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread must not panic")).collect()
    });

    let (oracle, model) = replay(&logs);

    // Cardinality: shared engine, oracle engine and model all agree.
    assert_eq!(shared.count(SCHEMA).unwrap(), model.len() as u64, "shared count vs model");
    assert_eq!(oracle.count(SCHEMA).unwrap(), model.len() as u64, "oracle count vs model");

    // Equality searches: the shared engine must return exactly the model's
    // ids (and decrypt to the model's contents); the oracle must return
    // the same contents under its own ids.
    for owner in OWNERS {
        let hits = shared.find_equal(SCHEMA, "owner", &Value::from(owner)).unwrap();
        let mut expect_ids: Vec<String> =
            model.iter().filter(|(_, (o, _))| o == owner).map(|(id, _)| id.clone()).collect();
        expect_ids.sort();
        assert_eq!(sorted_ids(&hits), expect_ids, "shared eq({owner}) ids");
        let mut expect_contents: Vec<(String, i64)> = model.values().filter(|(o, _)| o == owner).cloned().collect();
        expect_contents.sort();
        assert_eq!(contents(&hits), expect_contents, "shared eq({owner}) contents");
        let oracle_hits = oracle.find_equal(SCHEMA, "owner", &Value::from(owner)).unwrap();
        assert_eq!(contents(&oracle_hits), expect_contents, "oracle eq({owner}) contents");
    }

    // Range searches at fixed windows.
    for (lo, hi) in [(-1_000i64, 1_000i64), (-500, -1), (0, 250), (400, 999)] {
        let hits = shared.find_range(SCHEMA, "score", &Value::from(lo), &Value::from(hi)).unwrap();
        let mut expect_ids: Vec<String> =
            model.iter().filter(|(_, (_, s))| (lo..=hi).contains(s)).map(|(id, _)| id.clone()).collect();
        expect_ids.sort();
        assert_eq!(sorted_ids(&hits), expect_ids, "shared range[{lo},{hi}] ids");
        let oracle_hits = oracle.find_range(SCHEMA, "score", &Value::from(lo), &Value::from(hi)).unwrap();
        assert_eq!(contents(&oracle_hits), contents(&hits), "oracle range[{lo},{hi}]");
    }

    // Paillier sum over everything.
    let expect_sum: i64 = model.values().map(|(_, s)| *s).sum();
    let shared_sum = shared.aggregate(SCHEMA, "score", AggFn::Sum, None).unwrap();
    let oracle_sum = oracle.aggregate(SCHEMA, "score", AggFn::Sum, None).unwrap();
    assert!((shared_sum - expect_sum as f64).abs() < 1e-6, "shared sum {shared_sum} vs model {expect_sum}");
    assert!((oracle_sum - expect_sum as f64).abs() < 1e-6, "oracle sum {oracle_sum} vs model {expect_sum}");

    // Index/payload cross-consistency survived the storm.
    assert!(shared.fsck(SCHEMA).unwrap().is_clean(), "shared engine fsck");
    assert!(oracle.fsck(SCHEMA).unwrap().is_clean(), "oracle fsck");
}

/// An engine wired to a cloud we keep a handle on, so the test can
/// compare raw stored state (ciphertext bytes, index records) across runs.
fn engine_with_cloud(seed: u64, pool_threads: usize) -> (Arc<CloudEngine>, GatewayEngine) {
    let cloud = Arc::new(CloudEngine::new());
    let channel = Channel::from_arc(cloud.clone(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gw = GatewayEngine::new("conc", Kms::generate(&mut rng), channel, seed);
    if pool_threads > 0 {
        gw.set_worker_pool(Arc::new(WorkerPool::new(pool_threads)));
    }
    gw.register_schema(schema()).unwrap();
    (cloud, gw)
}

/// Seeded insert_many workload: mixed batch sizes (1..=5), so a pooled
/// gateway runs the planner's jobs on the pool (len > 1) and on the
/// caller's thread (len == 1) in one run.
fn drive_batches(gw: &GatewayEngine, seed: u64) -> Vec<DocId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = Vec::new();
    for round in 0..8usize {
        let n = 1 + round % 5;
        let docs: Vec<Document> =
            (0..n).map(|_| doc_of(OWNERS[rng.gen_range(0..OWNERS.len())], rng.gen_range(-1_000..1_000))).collect();
        ids.extend(gw.insert_many(SCHEMA, &docs).unwrap());
    }
    ids
}

/// The cloud's full observable state: every stored document (ids plus
/// shadow-field ciphertexts) per collection, and every key-value index
/// record, both canonically ordered.
fn cloud_state(cloud: &CloudEngine) -> (Vec<(String, Vec<Document>)>, Vec<String>) {
    let mut collections = cloud.docs().collection_names();
    collections.sort();
    let docs = collections
        .into_iter()
        .map(|name| {
            let coll = cloud.docs().collection(&name);
            let mut ids = coll.ids();
            ids.sort();
            let docs = ids.iter().map(|id| coll.get(id).unwrap()).collect();
            (name, docs)
        })
        .collect();
    let mut kv: Vec<String> = cloud.kv().export_records().iter().map(|r| format!("{r:?}")).collect();
    kv.sort();
    (docs, kv)
}

/// `insert_many` with the planner's per-tactic partitions (each one loop
/// over `protect` under one hold of the instance lock) running on a worker pool must
/// leave the cloud **byte-identical** to the same run with no pool, where
/// they run on the caller's thread — same document ids, same shadow-field
/// ciphertexts, same index records — at 1, 2 and 4 worker threads. The
/// no-pool run is itself pinned by `tests/golden_bytes.rs::gateway_writes`.
/// Abort atomicity holds too: a batch with an invalid document ships
/// nothing, pool or not.
#[test]
fn batched_insert_many_is_byte_identical_to_sequential() {
    const SEED: u64 = 0xBA7C4;
    let (seq_cloud, seq_gw) = engine_with_cloud(SEED, 0);
    let seq_ids = drive_batches(&seq_gw, SEED);
    let baseline = cloud_state(&seq_cloud);

    for threads in [1usize, 2, 4] {
        let (cloud, gw) = engine_with_cloud(SEED, threads);
        let ids = drive_batches(&gw, SEED);
        assert_eq!(ids, seq_ids, "doc ids with {threads}-thread pool");
        let state = cloud_state(&cloud);
        assert_eq!(state.0, baseline.0, "stored documents with {threads}-thread pool");
        assert_eq!(state.1, baseline.1, "kv index records with {threads}-thread pool");

        // Abort atomicity: one invalid document poisons the whole batch.
        let before = gw.count(SCHEMA).unwrap();
        let bad = vec![
            doc_of("o0", 1),
            Document::new("x").with("owner", Value::from("o1")).with("score", Value::from("not-a-number")),
        ];
        assert!(gw.insert_many(SCHEMA, &bad).is_err(), "invalid doc must abort the batch");
        assert_eq!(gw.count(SCHEMA).unwrap(), before, "aborted batch must ship nothing");
    }
}

#[test]
fn two_threads_match_oracle() {
    run_model(2, 0xC0_01, 30);
}

#[test]
fn four_threads_match_oracle() {
    run_model(4, 0xC0_02, 18);
}

#[test]
fn eight_threads_match_oracle() {
    run_model(8, 0xC0_03, 10);
}

/// The very first insert racing an aggregate on a shared gateway: there is
/// no key to deliver before a `sum` can be answered — it travels inside the
/// request — so neither order can fail, and the aggregate sees the empty
/// collection or the one document. The barrier releases both threads into
/// the race; thirty fresh engines give the scheduler thirty tries.
#[test]
fn first_insert_racing_an_aggregate_never_errors() {
    for round in 0..30 {
        let gw = engine(0xC0_10 + round, 0);
        let start = std::sync::Barrier::new(2);
        let sum = thread::scope(|s| {
            let writer = s.spawn(|| {
                start.wait();
                gw.insert(SCHEMA, &doc_of("o0", 7)).expect("first insert");
            });
            let reader = s.spawn(|| {
                start.wait();
                gw.aggregate(SCHEMA, "score", AggFn::Sum, None).expect("aggregate beside the first insert")
            });
            writer.join().expect("writer must not panic");
            reader.join().expect("reader must not panic")
        });
        assert!(sum == 0.0 || sum == 7.0, "round {round}: sum {sum}");
        assert_eq!(gw.aggregate(SCHEMA, "score", AggFn::Sum, None).unwrap(), 7.0);
    }
}

/// A reader loops `find_equal` while the payload key of the field it reads
/// rotates behind a barrier. A search answer is opened a column at a time,
/// each column under one lock of its payload tactic, and rotation swaps
/// the instance inside that lock: every answer is the right documents or a
/// clean `CoreError::Sse` (a ciphertext read under the other key), never a
/// wrong value, and once the rotation returns every answer is right again.
#[test]
fn reads_racing_a_payload_rotation_are_right_or_refused() {
    let gw = Arc::new(engine(0x2071, 0));
    gw.register_schema(schema()).unwrap();
    let docs: Vec<Document> = (0..48).map(|i| doc_of(OWNERS[i % 2], i as i64 * 7 - 100)).collect();
    gw.insert_many(SCHEMA, &docs).unwrap();
    let want = contents(&gw.find_equal(SCHEMA, "owner", &Value::from("o0")).unwrap());
    assert_eq!(want.len(), 24);

    let (barrier, rotated) = (Arc::new(Barrier::new(2)), Arc::new(AtomicBool::new(false)));
    let reader = {
        let (gw, barrier, rotated, want) = (Arc::clone(&gw), Arc::clone(&barrier), Arc::clone(&rotated), want.clone());
        thread::spawn(move || {
            barrier.wait();
            let (mut right, mut refused) = (0, 0);
            while !rotated.load(Ordering::Acquire) || right + refused < 20 {
                match gw.find_equal(SCHEMA, "owner", &Value::from("o0")) {
                    Ok(docs) => {
                        assert_eq!(contents(&docs), want, "a read during rotation returned a wrong value");
                        right += 1;
                    }
                    Err(err) => {
                        assert!(matches!(err, CoreError::Sse(_)), "not a clean refusal: {err}");
                        refused += 1;
                    }
                }
            }
            (right, refused)
        })
    };
    barrier.wait();
    for _ in 0..3 {
        gw.rotate_payload_key(SCHEMA, "owner").unwrap();
    }
    rotated.store(true, Ordering::Release);
    let (right, refused) = reader.join().unwrap();
    assert!(right > 0, "the reader saw {refused} refusals and no answer");
    assert_eq!(contents(&gw.find_equal(SCHEMA, "owner", &Value::from("o0")).unwrap()), want, "after the rotation");
}
