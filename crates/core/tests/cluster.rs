//! ClusterCloud integration suite: the PR's acceptance scenario (N=5, R=3,
//! W=2 — killing any single node mid-workload loses no acknowledged write,
//! the rejoined node resyncs from its peers' WALs, fsck stays clean), quorum
//! reads with R−1 nodes down, typed unavailability instead of hangs, the
//! cross-replica retry/idempotency regression and durability under a crash
//! in the middle of rejoin-resync.

use std::collections::HashMap;
use std::sync::Arc;

use datablinder_codec::Writer;

use datablinder_core::cloud::{with_collection, CloudEngine};
use datablinder_core::cloudproto::{Idempotent, PaillierSum, PaillierSumResponse, IDEM_ROUTE};
use datablinder_core::cluster::{ClusterCloud, ClusterConfig};
use datablinder_core::durability::wal_path;
use datablinder_core::gateway::GatewayEngine;
use datablinder_core::model::{FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
use datablinder_core::wire::{decode_documents, encode_document, encode_documents};
use datablinder_core::CoreError;
use datablinder_docstore::{Document, Value};
use datablinder_kms::Kms;
use datablinder_kvstore::read_frames;
use datablinder_netsim::{
    Channel, CloudService, CrashInjector, CrashPlan, CrashPoint, LatencyModel, NetError, NodeEvent, NodeFailurePlan,
    Refusal, ResilienceConfig, ResilientChannel, RetryPolicy,
};
use datablinder_paillier::{Ciphertext, Keypair};
use datablinder_sse::DocId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("datablinder-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> Schema {
    Schema::new("patients").sensitive_field(
        "ward",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
    )
}

fn gateway_over(cluster: Arc<ClusterCloud>) -> GatewayEngine {
    let channel = Channel::from_arc(cluster, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0xC105);
    let gw = GatewayEngine::new("cluster-suite", Kms::generate(&mut rng), channel, 17);
    gw.register_schema(schema()).unwrap();
    gw
}

/// A gateway whose ids come from `seed` and whose channel never retries.
fn gateway_seeded(channel: Channel, seed: u64) -> GatewayEngine {
    let config = ResilienceConfig { retry: RetryPolicy::none(), seed, ..ResilienceConfig::default() };
    let mut rng = StdRng::seed_from_u64(0xC105);
    let gw = GatewayEngine::with_resilience(
        "cluster-suite",
        Kms::generate(&mut rng),
        ResilientChannel::new(channel, config),
        seed,
    );
    gw.register_schema(schema()).unwrap();
    gw
}

/// The PR's acceptance scenario. A deterministic failure plan kills one
/// node mid-workload and rejoins it later; every write acknowledged to the
/// gateway must stay readable, the rejoined node must catch up through WAL
/// replay, and fsck must hold afterwards. Finally every node's disk is
/// reopened standalone and checked to hold each document it replicates.
#[test]
fn acked_writes_survive_single_node_failure() {
    let dir = temp_dir("acceptance");
    let mut cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0xACCE).durable(&dir)).unwrap();
    // Ops are cluster-level operations: schema registration and each
    // sealed insert count one. Kill node 2 early, rejoin it late enough
    // that a batch of inserts happened without it.
    cluster.set_failure_plan(NodeFailurePlan::at(vec![(6, NodeEvent::Kill(2)), (22, NodeEvent::Rejoin(2))]));
    let cluster = Arc::new(cluster);
    let gw = gateway_over(cluster.clone());

    let mut acked = Vec::new();
    for i in 0..30u32 {
        let doc = Document::new(format!("{i:032x}")).with("ward", Value::from(format!("w{}", i % 4)));
        // With W=2 and a single dead node every write must succeed; an
        // Unavailable here is itself a bug for this scenario.
        let id = gw.insert("patients", &doc).unwrap();
        acked.push((id, i % 4));
    }
    assert!(cluster.failure_injector().unwrap().exhausted(), "plan fully exercised");
    assert_eq!(cluster.kills(), 1);
    assert_eq!(cluster.rejoins(), 1);
    assert!(cluster.resync_replayed() > 0, "rejoin caught up via WAL replay");

    // Every acknowledged write is still readable through the gateway.
    for (id, ward) in &acked {
        let doc = gw.get("patients", *id).unwrap();
        assert_eq!(doc.get("ward"), Some(&Value::from(format!("w{ward}"))));
    }
    // Index ↔ store consistency across the whole cluster.
    assert!(gw.fsck("patients").unwrap().is_clean());

    // Reopen every node's disk standalone: each must hold every document
    // whose replica set includes it (durability is per-node, not just
    // cluster-wide).
    let replicas: Vec<(DocId, Vec<usize>)> =
        acked.iter().map(|(id, _)| (*id, cluster.doc_replicas("patients", &id.to_hex()))).collect();
    drop(gw);
    drop(cluster);
    for node in 0..5 {
        let engine = CloudEngine::open_durable(&dir.join(format!("node{node}"))).unwrap();
        let coll = engine.docs().collection("patients");
        for (id, reps) in &replicas {
            if reps.contains(&node) {
                assert!(coll.get(&id.to_hex()).is_some(), "node {node} lost acked doc {}", id.to_hex());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quorum reads keep answering with R−1 replicas of the key down, and
/// cluster-wide scatter reads keep answering with R−1 arbitrary nodes down.
#[test]
fn reads_survive_r_minus_one_failures() {
    let cluster = Arc::new(ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0x9EAD)).unwrap());
    let gw = gateway_over(cluster.clone());
    let mut ids = Vec::new();
    for i in 0..10u32 {
        let doc = Document::new(format!("{i:032x}")).with("ward", Value::from("icu"));
        ids.push(gw.insert("patients", &doc).unwrap());
    }
    // Down R−1 = 2 replicas of the first document.
    let reps = cluster.doc_replicas("patients", &ids[0].to_hex());
    cluster.kill_node(reps[0]);
    cluster.kill_node(reps[1]);
    let doc = gw.get("patients", ids[0]).unwrap();
    assert_eq!(doc.get("ward"), Some(&Value::from("icu")));
    // Scatter queries still see the full collection (2 < R nodes down).
    assert_eq!(gw.find_equal("patients", "ward", &Value::from("icu")).unwrap().len(), 10);
}

/// `doc/get_many` as the cluster answered it until ISSUE 23, written out:
/// every live node is asked for every id, the first copy in member order
/// wins, and the documents are decoded and encoded again in request order.
fn scatter_get_many(cluster: &ClusterCloud, request: &[u8], ids: &[String]) -> Vec<u8> {
    let mut found: HashMap<String, Document> = HashMap::new();
    for node in cluster.members() {
        let Some(answer) = cluster.with_node_engine(node, |engine| engine.handle("doc/get_many", request)) else {
            continue;
        };
        for doc in decode_documents(&answer.unwrap()).unwrap() {
            found.entry(doc.id().to_string()).or_insert(doc);
        }
    }
    encode_documents(ids.iter().filter_map(|id| found.get(id)))
}

/// The partitioned `get_many` — each id asked of its first live replica,
/// what that replica lacks asked of the next, the nodes' bytes spliced —
/// gives the bytes the all-node scatter gave: in whatever order the ids
/// come, with ids nobody holds, with a document missing from its first
/// replica (a W=2 write acknowledged without it), with a node down, and
/// with a single replica per document.
#[test]
fn get_many_from_each_documents_own_replicas_answers_as_the_scatter_did() {
    for (replication, quorum) in [(3, 2), (1, 1)] {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(5, replication, quorum, 0x6E7)).unwrap();
        let ids: Vec<String> = (0..24u32).map(|i| format!("{:032x}", i.wrapping_mul(0x9E37_79B9))).collect();
        for (i, id) in ids.iter().enumerate() {
            let doc = Document::new(id.clone()).with("n", Value::from(i as i64)).with("blob", Value::Bytes(vec![7; i]));
            cluster.handle("doc/insert", &with_collection("notes", &encode_document(&doc))).unwrap();
        }
        let check = |ids: &[String], expect_docs: usize, what: &str| {
            let mut w = Writer::new();
            w.list(ids);
            let request = with_collection("notes", &w.finish());
            let answer = cluster.handle("doc/get_many", &request).unwrap();
            assert_eq!(answer, scatter_get_many(&cluster, &request, ids), "R={replication}, {what}");
            assert_eq!(decode_documents(&answer).unwrap().len(), expect_docs, "R={replication}, {what}");
        };

        // The ids hash onto the ring, so no request order is ring order;
        // ask in three different ones, and for ids nobody holds.
        check(&ids, 24, "insertion order");
        let reversed: Vec<String> = ids.iter().rev().cloned().collect();
        check(&reversed, 24, "reverse order");
        let mut holes: Vec<String> = ids.iter().step_by(3).cloned().collect();
        holes.insert(1, "ff".repeat(16));
        holes.push("not hex at all".into());
        check(&holes, 8, "every third id among unknown ones");
        check(&[], 0, "no ids");

        if replication == 3 {
            // A replica that missed a write: W=2 acknowledged it without.
            let first = cluster.doc_replicas("notes", &ids[5])[0];
            let gone = cluster.with_node_engine(first, |engine| {
                engine.handle("doc/delete", &with_collection("notes", ids[5].as_bytes()))
            });
            gone.unwrap().unwrap();
            check(&ids, 24, "a document absent from its first replica");
            // A node down: its documents come from their next replicas.
            let down = cluster.doc_replicas("notes", &ids[9])[0];
            cluster.kill_node(down);
            check(&ids, 24, "one node down");
            check(&reversed, 24, "one node down, reverse order");
        }
        assert_eq!(cluster.read_repairs(), 0, "get_many repairs nothing, before and after");
    }
}

/// An id is asked for as often as the request names it, as one engine does
/// (the scatter's union answered a repeated id once); and documents whose
/// replicas are all down are `Unavailable`, not silently left out.
#[test]
fn get_many_repeats_like_one_engine_and_refuses_to_drop_unreachable_documents() {
    let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 1, 1, 0x6E8)).unwrap();
    let single = CloudEngine::new();
    let ids: Vec<String> = (0..8u32).map(|i| format!("{i:032x}")).collect();
    for id in &ids {
        let insert =
            with_collection("notes", &encode_document(&Document::new(id.clone()).with("n", Value::from(1i64))));
        cluster.handle("doc/insert", &insert).unwrap();
        single.handle("doc/insert", &insert).unwrap();
    }
    let request = |ids: &[&String]| {
        let mut w = Writer::new();
        w.list(ids);
        with_collection("notes", &w.finish())
    };
    let twice = request(&[&ids[3], &ids[1], &ids[3]]);
    assert_eq!(cluster.handle("doc/get_many", &twice).unwrap(), single.handle("doc/get_many", &twice).unwrap());

    let home = cluster.doc_replicas("notes", &ids[0])[0];
    cluster.kill_node(home);
    let (lost, kept): (Vec<&String>, Vec<&String>) =
        ids.iter().partition(|id| cluster.doc_replicas("notes", id)[0] == home);
    assert!(matches!(cluster.handle("doc/get_many", &request(&lost)), Err(NetError::Unavailable(_))));
    if !kept.is_empty() {
        let answer = cluster.handle("doc/get_many", &request(&kept)).unwrap();
        assert_eq!(decode_documents(&answer).unwrap().len(), kept.len(), "documents on live nodes stay readable");
    }
}

/// An unsatisfiable quorum is a typed `Unavailable` error, never a hang:
/// with only one of five nodes left no W=2 write and no complete scatter
/// read can be served.
#[test]
fn unsatisfiable_quorum_is_unavailable() {
    let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0x0BAD)).unwrap();
    let doc = Document::new(DocId([9; 16]).to_hex()).with("v", Value::from(1i64));
    cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    for node in 1..5 {
        cluster.kill_node(node);
    }
    let late = Document::new(DocId([10; 16]).to_hex()).with("v", Value::from(2i64));
    let write = cluster.handle("doc/insert", &with_collection("c", &encode_document(&late)));
    assert!(matches!(write, Err(NetError::Unavailable(_))), "got {write:?}");
    let scan = cluster.handle("doc/count", &with_collection("c", b""));
    assert!(matches!(scan, Err(NetError::Unavailable(_))), "got {scan:?}");
}

/// Satellite regression: a write that timed out short of its quorum and is
/// retried after the acking node died must not double-apply. The retry
/// lands on a different replica subset; the replica that already applied
/// it (via resync) absorbs the replay through the idempotency cache, and
/// the one that never saw it applies it fresh. A double-apply would
/// surface as a `DuplicateId` application error.
#[test]
fn quorum_timeout_retry_does_not_double_apply() {
    let dir = temp_dir("retry");
    let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 3, 2, 0x7E57).durable(&dir)).unwrap();
    let doc = Document::new(DocId([5; 16]).to_hex()).with("v", Value::from(5i64));
    let env = Idempotent {
        token: [0xAB; 16],
        route: "doc/insert".into(),
        payload: with_collection("c", &encode_document(&doc)),
    };
    let reps = cluster.doc_replicas("c", &DocId([5; 16]).to_hex());

    // Two replicas down: the write reaches only the first one — durably
    // applied there, but below quorum, so the client sees Unavailable and
    // will retry.
    cluster.kill_node(reps[1]);
    cluster.kill_node(reps[2]);
    let first = cluster.handle(IDEM_ROUTE, &env.encode());
    assert!(matches!(first, Err(NetError::Unavailable(_))), "got {first:?}");

    // The second replica comes back (resync replays the record into it
    // from the acking node's WAL), then the acking node dies and the third
    // replica resyncs off the second's re-journaled copy.
    cluster.rejoin_node(reps[1]).unwrap();
    cluster.kill_node(reps[0]);
    cluster.rejoin_node(reps[2]).unwrap();

    // Retry of the very same envelope against the surviving replicas: both
    // already applied it through resync, so the idempotency cache answers
    // and nothing double-applies (a second application would be a
    // DuplicateId application error, failing this unwrap).
    cluster.handle(IDEM_ROUTE, &env.encode()).unwrap();
    let dedup = cluster.with_node_engine(reps[1], CloudEngine::dedup_hits).unwrap();
    assert!(dedup > 0, "the retry was absorbed by the dedup cache");
    for &r in &reps[1..] {
        let held = cluster.with_node_engine(r, |e| e.docs().collection("c").get(doc.id()).is_some());
        assert_eq!(held, Some(true), "replica {r} holds exactly the retried doc");
    }
    // The first acker's disk still has its copy; after it rejoins all
    // three replicas agree and the count is exactly one.
    cluster.rejoin_node(reps[0]).unwrap();
    let count = cluster.handle("doc/count", &with_collection("c", b"")).unwrap();
    assert_eq!(u64::from_be_bytes(count[..8].try_into().unwrap()), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite durability-under-membership-change: a node that crashes in
/// the middle of its rejoin-resync (tearing its WAL tail mid-append, with
/// a snapshot already on disk) stays down, and a later clean rejoin
/// recovers: the torn tail is truncated, the snapshot restores, resync
/// completes, and the node converges with its peers.
#[test]
fn crash_during_rejoin_resync_recovers_cleanly() {
    let dir = temp_dir("rejoin-crash");
    let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 3, 2, 0x5EED).durable(&dir)).unwrap();
    let insert = |i: u8| {
        let doc = Document::new(DocId([i; 16]).to_hex()).with("v", Value::from(i64::from(i)));
        cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    };
    for i in 1..=4 {
        insert(i);
    }
    // Give the failing node a snapshot so its recovery exercises the
    // snapshot + WAL-tail path, then take it down and let it miss writes.
    cluster.with_node_engine(2, |e| e.snapshot_now()).unwrap().unwrap();
    cluster.kill_node(2);
    for i in 5..=8 {
        insert(i);
    }

    // First rejoin dies mid-resync: the second replayed record's WAL
    // append tears after 7 bytes.
    cluster
        .arm_rejoin_crash(2, Arc::new(CrashInjector::new(CrashPlan::at(CrashPoint::MidAppend { record: 1, byte: 7 }))));
    let failed = cluster.rejoin_node(2);
    assert!(failed.is_err(), "rejoin under a mid-append crash must fail");
    assert!(!cluster.node_alive(2), "the crashed node stays down");
    let scan = read_frames(&wal_path(&dir.join("node2"))).unwrap();
    assert!(scan.torn_tail, "the crash left a torn WAL tail on disk");

    // Second, clean rejoin: recovery truncates the torn tail and resync
    // finishes the catch-up.
    cluster.rejoin_node(2).unwrap();
    assert!(cluster.node_alive(2));
    let report = cluster.with_node_engine(2, |e| e.recovery_report().clone()).unwrap();
    assert!(report.torn_tail, "recovery observed and truncated the torn tail");
    assert!(report.snapshot_restored, "recovery restored the pre-crash snapshot");
    // The rejoined node converged: it holds all eight documents.
    let held = cluster.with_node_engine(2, |e| e.docs().collection("c").ids().len()).unwrap();
    assert_eq!(held, 8, "node 2 converged with its peers after the crashed resync");
    let count = cluster.handle("doc/count", &with_collection("c", b"")).unwrap();
    assert_eq!(u64::from_be_bytes(count[..8].try_into().unwrap()), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rejoining a member that is serving leaves it alone. Reopening its engine
/// would run WAL recovery — tail truncation included — over a directory the
/// running engine is still appending to, and swap engines under live
/// traffic; so the rejoin answers `Ok(0)` with no counter and no resync
/// span, the node keeps its engine (same WAL sequence, same documents, a
/// recovery report that never replayed anything), and the insert stream it
/// interrupted carries on into the same WAL.
#[test]
fn rejoin_of_a_serving_node_is_a_no_op() {
    let dir = temp_dir("rejoin-live");
    let recorder = datablinder_obs::Recorder::new();
    let mut cluster = ClusterCloud::new(ClusterConfig::volatile(3, 3, 2, 0x11FE).durable(&dir)).unwrap();
    cluster.set_recorder(recorder.clone());
    let insert = |i: u8| {
        let doc = Document::new(DocId([i; 16]).to_hex()).with("v", Value::from(i64::from(i)));
        cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    };
    let node1 = || {
        let state = |e: &CloudEngine| (e.wal_seq(), e.docs().collection("c").len(), e.recovery_report().replayed);
        cluster.with_node_engine(1, state).unwrap()
    };
    for i in 1..=6 {
        insert(i);
    }
    let before = node1();
    assert_eq!(before, (6, 6, 0));

    assert_eq!(cluster.rejoin_node(1).unwrap(), 0, "nothing to replay into a serving node");
    assert!(cluster.node_alive(1));
    assert_eq!(node1(), before, "same engine: WAL sequence, documents and recovery report untouched");
    assert_eq!((cluster.rejoins(), cluster.resync_filled(), cluster.resync_replayed()), (0, 0, 0));
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("cluster.rejoin"), 0);
    assert!(snap.trace_spans.iter().all(|s| s.route != "cluster.resync"), "no resync ran");

    for i in 7..=12 {
        insert(i);
    }
    assert_eq!(node1(), (12, 12, 0), "the stream went on into the same WAL");
    let count = cluster.handle("doc/count", &with_collection("c", b"")).unwrap();
    assert_eq!(u64::from_be_bytes(count[..8].try_into().unwrap()), 12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cluster's counters, gauges and quorum-latency histogram all flow
/// through an attached recorder: per-node op counts, membership gauges,
/// kill/rejoin/read-repair/resync counters.
#[test]
fn cluster_metrics_flow_through_recorder() {
    let recorder = datablinder_obs::Recorder::new();
    let mut cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 0x0B5)).unwrap();
    cluster.set_recorder(recorder.clone());
    for i in 0..8u8 {
        let doc = Document::new(DocId([i + 1; 16]).to_hex()).with("v", Value::from(i64::from(i)));
        cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    }
    cluster.handle("doc/get", &with_collection("c", DocId([1; 16]).to_hex().as_bytes())).unwrap();
    cluster.kill_node(1);
    cluster.rejoin_node(1).unwrap();

    // Aggregates are client-path calls too: every partition node the
    // coordinator asks shows up in that node's op count.
    let node_ops = || -> u64 {
        let snap = recorder.snapshot();
        (0..3).map(|i| snap.counter(&format!("cluster.node.{i}.ops"))).sum()
    };
    let ids: Vec<String> = (0..8u8).map(|i| DocId([i + 1; 16]).to_hex()).collect();
    let partitions_of = |collection: &str| -> u64 {
        let first: std::collections::BTreeSet<usize> =
            ids.iter().map(|id| cluster.doc_replicas(collection, id)[0]).collect();
        first.len() as u64
    };
    let before = node_ops();
    let agg = cluster.handle("doc/agg_plain", &with_collection("c", b"v")).unwrap();
    assert_eq!(f64::from_be_bytes(agg[..8].try_into().unwrap()), 28.0);
    assert_eq!(u64::from_be_bytes(agg[8..16].try_into().unwrap()), 8);
    assert!(partitions_of("c") > 1, "the aggregate is really partitioned");
    assert_eq!(node_ops() - before, 3, "one partial per member, over the ring ranges it serves first; no id scatter");

    let mut rng = StdRng::seed_from_u64(0x0B5);
    let kp = Keypair::generate(&mut rng, 256);
    for (i, id) in ids.iter().enumerate() {
        let ct = kp.public().encrypt_u64(&mut rng, 100 + i as u64).to_bytes();
        let doc = Document::new(id.clone()).with("value__phe", Value::Bytes(ct));
        cluster.handle("doc/insert", &with_collection("phe", &encode_document(&doc))).unwrap();
    }
    let sum = PaillierSum {
        collection: "phe".into(),
        field: "value__phe".into(),
        modulus: kp.public().to_bytes(),
        ids: ids.clone(),
    };
    let before = node_ops();
    let resp = PaillierSumResponse::decode(&cluster.handle("tactic/paillier/value/sum", &sum.encode()).unwrap());
    let resp = resp.unwrap();
    assert_eq!(kp.decrypt_u64(&Ciphertext::from_bytes(&resp.ciphertext)), Some((100..108).sum()));
    assert!(partitions_of("phe") > 1, "the sum is really partitioned");
    assert_eq!(
        node_ops() - before,
        partitions_of("phe") + 1,
        "one partial per partition (the ids came with the request), then one combine"
    );

    let snap = recorder.snapshot();
    assert!(snap.counter("cluster.ops") >= 9);
    assert!(snap.counter("cluster.write.quorum_ok") >= 8);
    let node_ops: u64 = (0..3).map(|i| snap.counter(&format!("cluster.node.{i}.ops"))).sum();
    assert!(node_ops >= 16, "every quorum write touched R nodes: {node_ops}");
    assert_eq!(snap.gauge("cluster.nodes"), Some(3));
    assert_eq!(snap.gauge("cluster.node.1.alive"), Some(1), "rejoin restored the liveness gauge");
    assert_eq!(snap.counter("cluster.kill"), 1);
    assert_eq!(snap.counter("cluster.rejoin"), 1);
    let lat = snap.histogram("cluster.write.quorum_latency").expect("latency histogram present");
    assert!(lat.count >= 8);
}

/// A kill/rejoin storm driven by the seeded failure plan: the workload
/// keeps running (writes may be Unavailable while too many nodes are down,
/// but must never hang or double-apply) and at the end, once every node is
/// back, the surviving acknowledged writes are all readable and fsck holds.
#[test]
fn seeded_crash_storm_converges() {
    let dir = temp_dir("storm");
    let mut cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0x5708).durable(&dir)).unwrap();
    cluster.set_failure_plan(NodeFailurePlan::seeded(0x5708, 5, 3, 120));
    let cluster = Arc::new(cluster);
    let mut gw = gateway_over(cluster.clone());
    // Journal write groups so interrupted fan-outs can roll forward once
    // the cluster is reachable again.
    gw.enable_write_journal(datablinder_kvstore::KvStore::new());

    // An insert is one cluster op (one sealed batch), so 120 inserts span
    // the plan's 120-op horizon.
    let mut acked = Vec::new();
    for i in 0..120u32 {
        let doc = Document::new(format!("{i:032x}")).with("ward", Value::from(format!("w{}", i % 3)));
        match gw.insert("patients", &doc) {
            Ok(id) => acked.push(id),
            // Below-quorum intervals surface as typed channel errors the
            // gateway classifies as transient — never hangs.
            Err(e) => assert!(e.is_transient(), "{e}"),
        }
    }
    // Bring every node back, let resync settle the stragglers, and roll
    // the gateway's pending write groups forward (their sub-tokens dedup
    // the already-applied prefixes).
    for node in 0..5 {
        if !cluster.node_alive(node) {
            cluster.rejoin_node(node).unwrap();
        }
    }
    gw.recover_pending().unwrap();
    assert!(!acked.is_empty(), "the storm must not starve the workload");
    for id in &acked {
        gw.get("patients", *id).unwrap();
    }
    assert!(gw.fsck("patients").unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An insert is one sealed batch — the Mitra update, then the document —
/// and the cluster makes each item its own quorum write under a sub-token.
/// When the document write misses its quorum after the index update made
/// its own, the journaled group rolls forward on recovery: every replica
/// that applied an item, or took it from a peer's WAL while it rejoined,
/// answers it from its dedup cache, the rest apply it now, nothing applies
/// twice, and fsck is clean.
#[test]
fn batch_whose_second_item_misses_quorum_rolls_forward_via_sub_token_dedup() {
    const SEED: u64 = 29;
    // The second id a gateway seeded with SEED mints, from a dry run.
    let second_id = {
        let dry = gateway_seeded(Channel::connect(CloudEngine::new(), LatencyModel::instant()), SEED);
        dry.insert("patients", &Document::new("x").with("ward", Value::from("w"))).unwrap();
        dry.insert("patients", &Document::new("x").with("ward", Value::from("w"))).unwrap().to_hex()
    };

    let dir = temp_dir("batch-quorum");
    let cluster = Arc::new(ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0xBA7C).durable(&dir)).unwrap());
    let mut gw = gateway_seeded(Channel::from_arc(cluster.clone(), LatencyModel::instant()), SEED);
    gw.enable_write_journal(datablinder_kvstore::KvStore::new());
    let first = gw.insert("patients", &Document::new("x").with("ward", Value::from("icu"))).unwrap();

    // The Mitra scope's replicas are the nodes holding its index entries;
    // the second document's replicas come from the ring.
    let holds_index = |n: usize| {
        cluster.with_node_engine(n, |e| !e.kv().keys_with_prefix(b"t/mitra/patients:ward/").is_empty()) == Some(true)
    };
    let index: Vec<usize> = (0..5).filter(|&n| holds_index(n)).collect();
    let docs = cluster.doc_replicas("patients", &second_id);
    assert_eq!(index.len(), 3, "R=3 replicas hold the index");
    let kept = *docs.iter().find(|n| index.contains(n)).expect("a shared replica");
    assert!(index.iter().any(|n| !docs.contains(n)), "the index and the document have different replica sets");
    // Down: everything outside the index's replicas, and every document
    // replica but one — the index keeps two live replicas, the document one.
    let down: Vec<usize> = (0..5).filter(|n| !index.contains(n) || (docs.contains(n) && *n != kept)).collect();
    for &n in &down {
        cluster.kill_node(n);
    }
    assert_eq!(index.iter().filter(|n| !down.contains(n)).count(), 2, "the index update can meet W=2");

    let err = gw.insert("patients", &Document::new("x").with("ward", Value::from("icu"))).unwrap_err();
    assert!(matches!(err, CoreError::Net(NetError::Unavailable(_))), "{err}");
    assert_eq!(gw.pending_writes(), 1, "the group stays journaled");

    for &n in &down {
        cluster.rejoin_node(n).unwrap();
    }
    let dedup = || (0..5).filter_map(|n| cluster.with_node_engine(n, CloudEngine::dedup_hits)).sum::<u64>();
    let before = dedup();
    let report = gw.recover_pending().unwrap();
    assert_eq!((report.entries, report.rolled_forward, report.failed), (1, 1, 0), "{report:?}");
    assert!(dedup() > before, "the applied items were answered from dedup caches, not re-run");

    let mut got: Vec<String> =
        gw.find_equal("patients", "ward", &Value::from("icu")).unwrap().iter().map(|d| d.id().to_string()).collect();
    got.sort();
    let mut want = vec![first.to_hex(), second_id];
    want.sort();
    assert_eq!(got, want);
    assert!(gw.fsck("patients").unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rejoin across peers that already compacted their WALs leaves no gap:
/// the owned-range pull covers the compacted history, the WAL tails cover
/// the rest — a WAL-only resync would leave this scenario to lazy read
/// repair.
#[test]
fn rejoin_across_compacted_peers_leaves_no_gap() {
    let dir = temp_dir("compacted-peers");
    let mut cfg = ClusterConfig::volatile(3, 3, 2, 0x5AFE).durable(&dir);
    // Aggressive compaction: peers snapshot (and truncate their WALs)
    // every 4 journaled records, so the downed node's missed writes are
    // mostly *not* individually replayable from any WAL.
    cfg.snapshot_every = Some(4);
    let cluster = ClusterCloud::new(cfg).unwrap();
    let insert = |i: u8| {
        let doc = Document::new(DocId([i; 16]).to_hex()).with("v", Value::from(i64::from(i)));
        cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    };
    for i in 1..=4 {
        insert(i);
    }
    cluster.kill_node(2);
    // 12 more writes while node 2 is down: the live peers compact several
    // times over, burying the missed records under their snapshots.
    for i in 5..=16 {
        insert(i);
    }
    let compacted = {
        let scan = read_frames(&wal_path(&dir.join("node0"))).unwrap();
        match scan.frames.first() {
            // Fully truncated WAL: everything lives in the snapshot.
            None => true,
            Some(f) => datablinder_core::durability::WalRecord::decode(f).unwrap().seq > 1,
        }
    };
    assert!(compacted, "the scenario requires peers with compacted WALs");

    cluster.rejoin_node(2).unwrap();
    assert!(cluster.resync_filled() > 0, "the range pull installed the compacted history");
    let held = cluster.with_node_engine(2, |e| e.docs().collection("c").ids().len()).unwrap();
    assert_eq!(held, 16, "the rejoined node holds every document, including compacted ones");
    // The gap is closed eagerly: a full read sweep finds nothing left for
    // lazy read repair (the counter the old design leaned on).
    for i in 1..=16u8 {
        cluster.handle("doc/get", &with_collection("c", DocId([i; 16]).to_hex().as_bytes())).unwrap();
    }
    assert_eq!(cluster.read_repairs(), 0, "no lazy repairs outstanding after resync");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every cluster write the other tests miss while a replica is down is an
/// insert. An update, a delete and an insert missed while down all reach the
/// rejoined node, and it converges with its peers without anti-entropy.
#[test]
fn rejoin_applies_updates_and_deletes_missed_while_down() {
    let dir = temp_dir("missed-mutations");
    let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 3, 2, 0xDE1E).durable(&dir)).unwrap();
    let doc = |i: u8, v: i64| {
        let doc = Document::new(DocId([i; 16]).to_hex()).with("v", Value::from(v));
        with_collection("c", &encode_document(&doc))
    };
    for i in 1..=4 {
        cluster.handle("doc/insert", &doc(i, i64::from(i))).unwrap();
    }
    cluster.kill_node(2);
    cluster.handle("doc/update", &doc(1, 100)).unwrap();
    cluster.handle("doc/delete", &with_collection("c", DocId([2; 16]).to_hex().as_bytes())).unwrap();
    cluster.handle("doc/insert", &doc(5, 5)).unwrap();

    cluster.rejoin_node(2).unwrap();
    let on_node2 =
        |i: u8| cluster.with_node_engine(2, |e| e.docs().collection("c").get(&DocId([i; 16]).to_hex())).unwrap();
    assert_eq!(on_node2(1).and_then(|d| d.get("v").cloned()), Some(Value::from(100i64)), "the missed update");
    assert!(on_node2(2).is_none(), "the missed delete");
    assert!(on_node2(5).is_some(), "the missed insert");
    assert!(cluster.replica_digests_converged(), "the rejoined node matches its peers");
    assert_eq!(cluster.anti_entropy_rounds(), 0, "with no anti-entropy pass");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rejoining node that cannot persist a record it replays from a peer
/// has not caught up: that storage refusal fails its resync and it stays
/// down, where a deterministic refusal (a duplicate insert) is history.
#[test]
fn a_storage_refusal_while_replaying_tails_fails_the_rejoin() {
    let dir = temp_dir("resync-storage");
    let mut cfg = ClusterConfig::volatile(3, 3, 2, 0x5707).durable(&dir);
    cfg.snapshot_every = Some(8);
    let cluster = ClusterCloud::new(cfg).unwrap();
    let insert = |i: u8| {
        let doc = Document::new(DocId([i; 16]).to_hex()).with("v", Value::from(i64::from(i)));
        cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    };
    insert(1);
    insert(2);
    // Five records behind the cluster's back leave node 2 one journaled
    // record short of a snapshot; its peers stay far from theirs.
    let mut put = Writer::new();
    put.list(&[b"k".to_vec(), b"v".to_vec()]);
    let put = put.finish();
    for _ in 0..5 {
        cluster.with_node_engine(2, |e| e.handle("kv/bulk_put", &put)).unwrap().unwrap();
    }
    cluster.kill_node(2);
    insert(3);
    insert(4);
    // The first record node 2 replays makes its snapshot due, and the
    // snapshot cannot be written.
    let blocked = dir.join("node2").join("snapshot.tmp");
    std::fs::create_dir_all(&blocked).unwrap();
    let err = cluster.rejoin_node(2).unwrap_err();
    assert!(matches!(err, CoreError::Storage(_)), "{err}");
    assert!(!cluster.node_alive(2), "a node that failed its resync stays down");

    // Once the snapshot can be written, the next rejoin catches up.
    std::fs::remove_dir_all(&blocked).unwrap();
    cluster.rejoin_node(2).unwrap();
    let held = cluster.with_node_engine(2, |e| e.docs().collection("c").ids().len()).unwrap();
    assert_eq!(held, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replica whose disk refuses a write has not answered it: short of a
/// quorum, the write is the retryable `Unavailable`, not that replica's
/// storage failure passed off as the application's answer.
#[test]
fn a_storage_refusal_is_no_answer_to_a_quorum_write() {
    let dir = temp_dir("quorum-storage");
    let mut cfg = ClusterConfig::volatile(3, 3, 2, 0x5708).durable(&dir);
    cfg.snapshot_every = Some(1);
    let cluster = ClusterCloud::new(cfg).unwrap();
    cluster.kill_node(0);
    cluster.kill_node(1);
    // Node 2 journals and applies the insert, then cannot write the
    // snapshot that record makes due.
    std::fs::create_dir_all(dir.join("node2").join("snapshot.tmp")).unwrap();
    let doc = Document::new(DocId([1; 16]).to_hex()).with("v", Value::from(1i64));
    let err = cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap_err();
    assert!(matches!(err, NetError::Unavailable(_)), "{err}");
    assert!(cluster.node_alive(2), "a refusing disk is not a dead node");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A route the table does not name — bare, sealed in an envelope, or an
/// item of a batch — is refused before any node journals it.
#[test]
fn unknown_routes_reach_no_node() {
    let dir = temp_dir("unknown-routes");
    let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0x0DD).durable(&dir)).unwrap();
    for route in ["kv/nope", "batch/other", "something/new"] {
        assert_eq!(cluster.handle(route, b"payload"), Err(NetError::UnknownRoute(route.into())));
        let sealed = Idempotent { token: [7; 16], route: route.into(), payload: b"payload".to_vec() };
        let err = cluster.handle(IDEM_ROUTE, &sealed.encode()).unwrap_err();
        assert!(matches!(err, NetError::Remote(Refusal::Unsupported, _)), "{route}: {err}");
        let mut batch = Writer::new();
        batch.list(&[b"doc/count".to_vec(), with_collection("c", b""), route.as_bytes().to_vec(), Vec::new()]);
        let err = cluster.handle("batch", &batch.finish()).unwrap_err();
        assert!(matches!(err, NetError::Remote(Refusal::Unsupported, _)), "{route}: {err}");
    }
    for node in cluster.members() {
        assert_eq!(cluster.with_node_engine(node, CloudEngine::wal_seq), Some(0), "node {node} journaled nothing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Elastic membership on durable nodes: growing the cluster hands the new
/// member exactly its gained ranges before it serves, shrinking hands the
/// leaving member's ranges to the survivors, and every document stays fully
/// replicated under each new ring.
#[test]
fn membership_change_hands_off_durably() {
    let dir = temp_dir("membership");
    let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 0xE1A5).durable(&dir)).unwrap();
    let insert = |i: u8| {
        let doc = Document::new(DocId([i; 16]).to_hex()).with("v", Value::from(i64::from(i)));
        cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    };
    for i in 1..=20 {
        insert(i);
    }
    let slot = cluster.add_node().unwrap();
    assert_eq!(slot, 3);
    assert_eq!(cluster.members(), vec![0, 1, 2, 3]);
    let on_new = cluster.with_node_engine(slot, |e| e.docs().collection("c").ids().len()).unwrap();
    assert!(on_new > 0, "the new member took over part of the keyspace");
    for i in 1..=20u8 {
        let id = DocId([i; 16]).to_hex();
        for r in cluster.doc_replicas("c", &id) {
            let held = cluster.with_node_engine(r, |e| e.docs().collection("c").get(&id).is_some()).unwrap();
            assert!(held, "replica {r} of doc {i} holds it under the grown ring");
        }
    }
    // The handoff was durable: the new node survives a kill/rejoin cycle
    // purely from its own disk + peers.
    cluster.kill_node(slot);
    cluster.rejoin_node(slot).unwrap();
    let after_cycle = cluster.with_node_engine(slot, |e| e.docs().collection("c").ids().len()).unwrap();
    assert_eq!(after_cycle, on_new, "the handed-off ranges were journaled, not just cached");

    // Shrink: the original node 0 leaves; survivors inherit its ranges.
    cluster.remove_node(0).unwrap();
    assert_eq!(cluster.members(), vec![1, 2, 3]);
    for i in 1..=20u8 {
        let id = DocId([i; 16]).to_hex();
        let replicas = cluster.doc_replicas("c", &id);
        assert!(!replicas.contains(&0), "the ring forgot the removed member");
        for r in replicas {
            let held = cluster.with_node_engine(r, |e| e.docs().collection("c").get(&id).is_some()).unwrap();
            assert!(held, "replica {r} of doc {i} holds it under the shrunk ring");
        }
        cluster.handle("doc/get", &with_collection("c", id.as_bytes())).unwrap();
    }
    let count = cluster.handle("doc/count", &with_collection("c", b"")).unwrap();
    assert_eq!(u64::from_be_bytes(count[..8].try_into().unwrap()), 20);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash in the middle of an `add_node` handoff (the joining node tears
/// its WAL applying pulled entries) leaves the ring unchanged and the slot
/// uninstalled; a retry recovers the torn disk state and completes the
/// join cleanly.
#[test]
fn crash_during_add_node_handoff_leaves_ring_unchanged() {
    let dir = temp_dir("add-crash");
    let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 0xADD0).durable(&dir)).unwrap();
    for i in 1..=20u8 {
        let doc = Document::new(DocId([i; 16]).to_hex()).with("v", Value::from(i64::from(i)));
        cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    }
    // The joining slot will be 3: its first handoff WAL append tears.
    cluster
        .arm_rejoin_crash(3, Arc::new(CrashInjector::new(CrashPlan::at(CrashPoint::MidAppend { record: 0, byte: 5 }))));
    let failed = cluster.add_node();
    assert!(failed.is_err(), "the torn handoff must fail the join");
    assert_eq!(cluster.members(), vec![0, 1, 2], "the ring is unchanged after the failed join");
    assert_eq!(cluster.nodes_added(), 0);
    let scan = read_frames(&wal_path(&dir.join("node3"))).unwrap();
    assert!(scan.torn_tail, "the crash left a torn WAL tail in the joining node's dir");
    // The cluster still serves during and after the failed join.
    let count = cluster.handle("doc/count", &with_collection("c", b"")).unwrap();
    assert_eq!(u64::from_be_bytes(count[..8].try_into().unwrap()), 20);

    // Retry: recovery truncates the torn tail and the handoff completes.
    let slot = cluster.add_node().unwrap();
    assert_eq!(slot, 3);
    assert_eq!(cluster.members(), vec![0, 1, 2, 3]);
    for i in 1..=20u8 {
        let id = DocId([i; 16]).to_hex();
        for r in cluster.doc_replicas("c", &id) {
            let held = cluster.with_node_engine(r, |e| e.docs().collection("c").get(&id).is_some()).unwrap();
            assert!(held, "replica {r} of doc {i} holds it after the retried join");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// While a membership change holds the topology for its handoff, cluster
/// operations fail fast with a typed `Unavailable` — they never read a
/// half-moved ring and never hang.
#[test]
fn membership_transfer_window_is_typed_unavailable() {
    let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 0xF02E)).unwrap();
    let doc = Document::new(DocId([1; 16]).to_hex()).with("v", Value::from(1i64));
    cluster.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
    let during = cluster.with_membership_frozen(|| {
        cluster.handle("doc/get", &with_collection("c", DocId([1; 16]).to_hex().as_bytes()))
    });
    match during {
        Err(NetError::Unavailable(m)) => assert!(m.contains("membership"), "{m}"),
        other => panic!("expected Unavailable during the transfer window, got {other:?}"),
    }
    // The window closes with the handoff: the same read works again.
    cluster.handle("doc/get", &with_collection("c", DocId([1; 16]).to_hex().as_bytes())).unwrap();
}

/// The PR's acceptance storm: seeded churn mixes kills, rejoins, node
/// additions and removals under a live workload. Afterwards every live
/// replica reports byte-identical per-shard Merkle state, a full read
/// sweep finds zero lazy read repairs outstanding, no acknowledged quorum
/// write is lost, and fsck holds.
#[test]
fn membership_churn_storm_converges() {
    let dir = temp_dir("churn-storm");
    let mut cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0xC806).durable(&dir)).unwrap();
    cluster.set_failure_plan(NodeFailurePlan::seeded_churn(0xC806, 5, 4, 100));
    let cluster = Arc::new(cluster);
    let mut gw = gateway_over(cluster.clone());
    gw.enable_write_journal(datablinder_kvstore::KvStore::new());

    // An insert is one cluster op (one sealed batch): 120 of them outlast
    // the plan's 100-op horizon.
    let mut acked = Vec::new();
    for i in 0..120u32 {
        let doc = Document::new(format!("{i:032x}")).with("ward", Value::from(format!("w{}", i % 3)));
        match gw.insert("patients", &doc) {
            Ok(id) => acked.push(id),
            Err(e) => assert!(e.is_transient(), "{e}"),
        }
    }
    assert!(cluster.failure_injector().unwrap().exhausted(), "churn plan fully exercised");
    assert!(!acked.is_empty(), "the storm must not starve the workload");

    // Settle: rejoin every dead *member* (removed slots stay gone), roll
    // pending write groups forward, then run anti-entropy to a fixpoint.
    for m in cluster.members() {
        if !cluster.node_alive(m) {
            cluster.rejoin_node(m).unwrap();
        }
    }
    gw.recover_pending().unwrap();
    let mut rounds = 0;
    while !cluster.run_anti_entropy().converged() {
        rounds += 1;
        assert!(rounds < 32, "anti-entropy must converge on a quiet cluster");
    }
    assert!(cluster.replica_digests_converged(), "live replicas report byte-identical Merkle state");

    // Zero lazy read repairs outstanding: anti-entropy already healed
    // everything a read would have repaired.
    let repairs_before = cluster.read_repairs();
    for id in &acked {
        let doc = gw.get("patients", *id).unwrap();
        assert!(doc.get("ward").is_some(), "acked doc {} lost its field", id.to_hex());
    }
    assert_eq!(cluster.read_repairs(), repairs_before, "no lazy repairs outstanding after anti-entropy");
    assert!(gw.fsck("patients").unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The distributed Paillier aggregate is the same group element as the
/// single-engine one: five nodes each fold their partition, one of them
/// `combine`s the partials, and because modular multiplication is exact and
/// commutative the response — ciphertext bytes and count — equals what one
/// `CloudEngine` holding every document answers.
#[test]
fn paillier_sum_over_five_nodes_matches_single_engine_bytes() {
    let mut rng = StdRng::seed_from_u64(0x5A11);
    let kp = Keypair::generate(&mut rng, 256);
    let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0x5A11)).unwrap();
    let single = CloudEngine::new();
    let services: [&dyn CloudService; 2] = [&cluster, &single];

    let mut ids = Vec::new();
    let mut total = 0u64;
    for i in 0..60u8 {
        let id = DocId([i; 16]).to_hex();
        let ct = kp.public().encrypt_u64(&mut rng, 1000 + u64::from(i)).to_bytes();
        let doc = Document::new(id.clone()).with("value__phe", Value::Bytes(ct));
        for svc in services {
            svc.handle("doc/insert", &with_collection("obs", &encode_document(&doc))).unwrap();
        }
        total += 1000 + u64::from(i);
        ids.push(id);
    }
    let holders = (0..5).filter(|&n| cluster.with_node_engine(n, |e| !e.docs().collection("obs").is_empty()).unwrap());
    assert!(holders.count() > 1, "the documents are spread over several nodes, so the sum is combined");

    let whole = PaillierSum {
        collection: "obs".into(),
        field: "value__phe".into(),
        modulus: kp.public().to_bytes(),
        ids: Vec::new(),
    };
    let some = PaillierSum { ids: ids.iter().step_by(3).cloned().collect(), ..whole.clone() };
    for (req, expect, count) in [(&whole, total, 60), (&some, (0..60).step_by(3).map(|i| 1000 + i).sum(), 20)] {
        let [clustered, alone] = services.map(|svc| svc.handle("tactic/paillier/value/sum", &req.encode()).unwrap());
        assert_eq!(clustered, alone, "same ciphertext bytes, same count");
        let resp = PaillierSumResponse::decode(&alone).unwrap();
        assert_eq!(resp.count, count);
        assert_eq!(kp.decrypt_u64(&Ciphertext::from_bytes(&resp.ciphertext)), Some(expect));
    }
}

/// Sixty Paillier documents on a five-node cluster (R=3), each also stored
/// in one engine, the oracle; and the whole-collection request over them.
fn paillier_cluster_and_oracle(seed: u64) -> (ClusterCloud, CloudEngine, Keypair, StdRng, PaillierSum) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kp = Keypair::generate(&mut rng, 256);
    let mut cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, seed)).unwrap();
    cluster.set_recorder(datablinder_obs::Recorder::new());
    let single = CloudEngine::new();
    for i in 0..60u8 {
        insert_phe(&[&cluster, &single], &kp, &mut rng, i);
    }
    let whole = PaillierSum {
        collection: "obs".into(),
        field: "value__phe".into(),
        modulus: kp.public().to_bytes(),
        ids: Vec::new(),
    };
    (cluster, single, kp, rng, whole)
}

/// Stores document `i` with the ciphertext of `1000 + i` in every service.
fn insert_phe(services: &[&dyn CloudService], kp: &Keypair, rng: &mut StdRng, i: u8) {
    let ct = kp.public().encrypt_u64(rng, 1000 + u64::from(i)).to_bytes();
    let doc = Document::new(DocId([i; 16]).to_hex()).with("value__phe", Value::Bytes(ct));
    for svc in services {
        svc.handle("doc/insert", &with_collection("obs", &encode_document(&doc))).unwrap();
    }
}

/// The clustered whole-collection sum, checked against the oracle's bytes
/// and decrypted: `(count, plaintext sum)`.
fn clustered_sum(cluster: &ClusterCloud, single: &CloudEngine, kp: &Keypair, req: &PaillierSum) -> (u64, u64) {
    let services: [&dyn CloudService; 2] = [cluster, single];
    let [clustered, alone] = services.map(|svc| svc.handle("tactic/paillier/value/sum", &req.encode()).unwrap());
    assert_eq!(clustered, alone, "same ciphertext bytes, same count");
    let resp = PaillierSumResponse::decode(&alone).unwrap();
    (resp.count, kp.decrypt_u64(&Ciphertext::from_bytes(&resp.ciphertext)).unwrap())
}

/// Per member: `(carried ciphertexts, rescans)` of its Paillier fold.
fn node_folds(cluster: &ClusterCloud) -> Vec<(u64, u64)> {
    cluster
        .members()
        .into_iter()
        .map(|n| {
            cluster
                .with_node_engine(n, |e| {
                    let snap = e.recorder().snapshot();
                    (snap.counter("cloud.paillier.fold.carried"), snap.counter("cloud.paillier.fold.rescans"))
                })
                .unwrap_or_default()
        })
        .collect()
}

/// On a quiet cluster each node carries the product of the ring ranges it
/// serves first: a second sum takes every ciphertext from the carried
/// products and rescans nowhere; after one insert the cluster folds
/// exactly one fresh ciphertext; a delete rescans only on the nodes that
/// hold the document. The answer is the oracle's bytes throughout.
#[test]
fn clustered_paillier_sum_carries_each_node_s_first_live_ranges() {
    let (cluster, single, kp, mut rng, whole) = paillier_cluster_and_oracle(0x5A13);
    let total = |ids: std::ops::Range<u64>| ids.map(|i| 1000 + i).sum::<u64>();
    let carried = |folds: &[(u64, u64)]| folds.iter().map(|f| f.0).sum::<u64>();

    assert_eq!(clustered_sum(&cluster, &single, &kp, &whole), (60, total(0..60)));
    let first = node_folds(&cluster);
    assert_eq!(carried(&first), 0, "nothing to carry yet");
    assert!(first.iter().all(|&(_, rescans)| rescans == 1), "one first fold per node: {first:?}");

    assert_eq!(clustered_sum(&cluster, &single, &kp, &whole), (60, total(0..60)));
    let second = node_folds(&cluster);
    assert_eq!(carried(&second), 60, "every ciphertext came from a carried product");
    assert!(second.iter().zip(&first).all(|(s, f)| s.1 == f.1), "no rescans: {second:?}");

    insert_phe(&[&cluster, &single], &kp, &mut rng, 60);
    assert_eq!(clustered_sum(&cluster, &single, &kp, &whole), (61, total(0..61)));
    let third = node_folds(&cluster);
    assert_eq!(61 - (carried(&third) - carried(&second)), 1, "one fresh ciphertext folded cluster-wide");
    assert!(third.iter().zip(&second).all(|(t, s)| t.1 == s.1), "an insert rescans nowhere: {third:?}");

    let gone = DocId([7; 16]).to_hex();
    let holders = cluster.doc_replicas("obs", &gone);
    for svc in [&cluster as &dyn CloudService, &single] {
        svc.handle("doc/delete", &with_collection("obs", gone.as_bytes())).unwrap();
    }
    assert_eq!(clustered_sum(&cluster, &single, &kp, &whole), (60, total(0..61) - 1007));
    let fourth = node_folds(&cluster);
    for (node, (after, before)) in fourth.iter().zip(&third).enumerate() {
        let rescanned = after.1 - before.1;
        assert_eq!(rescanned, u64::from(holders.contains(&node)), "node {node} (holders {holders:?})");
    }
}

/// With one node killed the survivors serve its first-live ranges: the sum
/// is still the oracle's, over all sixty documents.
#[test]
fn clustered_paillier_sum_fails_over_past_a_killed_node() {
    let (cluster, single, kp, _, whole) = paillier_cluster_and_oracle(0x5A14);
    let total = (0..60).map(|i| 1000 + i).sum::<u64>();
    assert_eq!(clustered_sum(&cluster, &single, &kp, &whole), (60, total));
    cluster.kill_node(2);
    assert_eq!(clustered_sum(&cluster, &single, &kp, &whole), (60, total));
    cluster.rejoin_node(2).unwrap();
    assert_eq!(clustered_sum(&cluster, &single, &kp, &whole), (60, total));
}

/// The same equality after churn, and with a member that never saw a key:
/// one node is down while a third of the documents are written at quorum,
/// rejoins and is healed by anti-entropy; then a sixth node joins. The
/// clustered sum still equals the single engine's bytes, the new member
/// answers for the documents it took over, and no node stores anything for
/// the tactic — the modulus arrives with each request.
#[test]
fn paillier_sum_equals_the_oracle_after_churn_and_a_new_member_needs_no_key() {
    let dir = temp_dir("paillier-churn");
    let mut rng = StdRng::seed_from_u64(0x5A12);
    let kp = Keypair::generate(&mut rng, 256);
    let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0x5A12).durable(&dir)).unwrap();
    let single = CloudEngine::new();
    let services: [&dyn CloudService; 2] = [&cluster, &single];
    let mut total = 0u64;
    let mut insert = |i: u8| {
        let ct = kp.public().encrypt_u64(&mut rng, 500 + u64::from(i)).to_bytes();
        let doc = Document::new(DocId([i; 16]).to_hex()).with("value__phe", Value::Bytes(ct));
        for svc in services {
            svc.handle("doc/insert", &with_collection("obs", &encode_document(&doc))).unwrap();
        }
        total += 500 + u64::from(i);
    };
    for i in 0..40 {
        insert(i);
    }
    cluster.kill_node(1);
    for i in 40..60 {
        insert(i);
    }
    cluster.rejoin_node(1).unwrap();
    let mut rounds = 0;
    while !cluster.run_anti_entropy().converged() {
        rounds += 1;
        assert!(rounds < 32, "anti-entropy must converge on a quiet cluster");
    }

    let whole = PaillierSum {
        collection: "obs".into(),
        field: "value__phe".into(),
        modulus: kp.public().to_bytes(),
        ids: Vec::new(),
    };
    let check = |when: &str| {
        let [clustered, alone] = services.map(|svc| svc.handle("tactic/paillier/value/sum", &whole.encode()).unwrap());
        assert_eq!(clustered, alone, "{when}: same ciphertext bytes, same count");
        let resp = PaillierSumResponse::decode(&alone).unwrap();
        assert_eq!((resp.count, kp.decrypt_u64(&Ciphertext::from_bytes(&resp.ciphertext))), (60, Some(total)));
    };
    check("after kill, quorum writes, rejoin and anti-entropy");

    let joined = cluster.add_node().unwrap();
    let (held, answered) = cluster
        .with_node_engine(joined, |e| {
            let resp = e.handle("tactic/paillier/value/sum", &whole.encode()).expect("a node nobody sent a key");
            (e.docs().collection("obs").len() as u64, PaillierSumResponse::decode(&resp).unwrap().count)
        })
        .unwrap();
    assert!(held > 0 && answered == held, "the new member sums the {held} documents it took over");
    check("with the new member serving partials");
    for node in cluster.members() {
        let stored = cluster.with_node_engine(node, |e| e.kv().keys_with_prefix(b"t/paillier/").len()).unwrap();
        assert_eq!(stored, 0, "node {node} stores nothing for the tactic");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The search fields a DET, OPE and Paillier schema selects, for
/// [`gateway_searches_over_five_nodes_answer_as_one_engine`].
fn labs_schema() -> Schema {
    use FieldOp::*;
    Schema::new("labs")
        .plain_field("n", FieldType::Integer, true)
        .sensitive_field(
            "code",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C4, vec![Insert, Equality]),
        )
        .sensitive_field(
            "ward",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C4, vec![Insert, Equality, Boolean]),
        )
        .sensitive_field(
            "taken",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C5, vec![Insert, Equality, Range]),
        )
        .sensitive_field(
            "dose",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C4, vec![Insert, Equality])
                .with_aggs(vec![datablinder_core::model::AggFn::Sum]),
        )
}

/// A gateway over a 5-node cluster (R = 3, W = 2) answers every search and
/// aggregate of a DET, OPE and Paillier schema as a gateway over one engine
/// does — the fused `doc/fetch` reads, the projected `get_many` and the
/// clustered sum — also with a node killed.
#[test]
fn gateway_searches_over_five_nodes_answer_as_one_engine() {
    use datablinder_core::model::AggFn;
    use datablinder_core::spi::DnfLiterals;

    let cluster = Arc::new(ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0x1AB5)).unwrap());
    let gateway = |channel: Channel| {
        let mut rng = StdRng::seed_from_u64(0x1AB5);
        let gw = GatewayEngine::new("labs-suite", Kms::generate(&mut rng), channel, 23);
        gw.register_schema(labs_schema()).unwrap();
        gw
    };
    let clustered = gateway(Channel::from_arc(cluster.clone(), LatencyModel::instant()));
    let single = gateway(Channel::connect(CloudEngine::new(), LatencyModel::instant()));
    for (field, tactics) in
        [("code", ["det"].as_slice()), ("ward", &["det"]), ("taken", &["det", "ope"]), ("dose", &["det", "paillier"])]
    {
        assert_eq!(clustered.selection("labs", field).unwrap().all_tactics(), tactics, "{field}");
    }
    let doc = |n: i64| {
        Document::new("x")
            .with("n", Value::from(n))
            .with("code", Value::from(["glucose", "sodium", "urea"][n as usize % 3]))
            .with("ward", Value::from(["east", "west"][n as usize % 2]))
            .with("taken", Value::from(1_400_000_000 + n * 3_600))
            .with("dose", Value::from(n % 7))
    };
    for gw in [&clustered, &single] {
        for n in 0..6 {
            gw.insert("labs", &doc(n)).unwrap();
        }
        gw.insert_many("labs", &(6..30).map(doc).collect::<Vec<_>>()).unwrap();
    }

    let dnf: DnfLiterals = vec![
        vec![("code".into(), Value::from("urea")), ("ward".into(), Value::from("east"))],
        vec![("ward".into(), Value::from("west")), ("code".into(), Value::from("sodium"))],
    ];
    let (lo, hi) = (Value::from(1_400_000_000 + 4 * 3_600), Value::from(1_400_000_000 + 17 * 3_600));
    let answers = |gw: &GatewayEngine| {
        let found = [
            gw.find_equal("labs", "code", &Value::from("sodium")).unwrap(),
            gw.find_boolean("labs", &dnf).unwrap(),
            gw.find_range("labs", "taken", &lo, &hi).unwrap(),
        ];
        let sums = [
            gw.aggregate("labs", "dose", AggFn::Sum, None).unwrap(),
            gw.aggregate("labs", "dose", AggFn::Sum, Some(&dnf)).unwrap(),
        ];
        (found, sums)
    };
    let expected = answers(&single);
    assert_eq!(expected.0.iter().map(Vec::len).collect::<Vec<_>>(), [10, 10, 14]);
    assert_eq!(answers(&clustered), expected);
    cluster.kill_node(3);
    assert_eq!(answers(&clustered), expected, "with node 3 killed");
}

/// A `doc/fetch` and a projected `doc/get_many` answer on five nodes
/// (R = 3, W = 2) with the bytes one engine answers with, for every keep
/// list, also with a node killed: each node projects its share, and the
/// coordinator splices the shares. A keep list that does not strictly
/// ascend is refused, as one engine refuses it.
#[test]
fn fetch_and_projected_get_many_answer_as_one_engine() {
    use datablinder_core::cloudproto::{Fetch, FindIdsEq, GetMany, FETCH_ROUTE};

    let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 19)).unwrap();
    let single = CloudEngine::new();
    for i in 1..=12u8 {
        let mut doc = Document::new(DocId([i; 16]).to_hex()).with("k", Value::from(i64::from(i % 3)));
        if i % 4 != 0 {
            doc.set("v", Value::Bytes(vec![i; 8]));
        }
        let insert = with_collection("notes", &encode_document(&doc));
        cluster.handle("doc/insert", &insert).unwrap();
        single.handle("doc/insert", &insert).unwrap();
    }
    let find = FindIdsEq { collection: "notes".into(), field: "k".into(), value: Value::from(1i64) }.encode();
    let hex: Vec<String> = (1..=12u8).rev().map(|i| DocId([i; 16]).to_hex()).collect();
    for killed in [None, Some(2)] {
        if let Some(node) = killed {
            cluster.kill_node(node);
        }
        for keep in [vec![], vec!["v"], vec!["absent", "k", "v"]] {
            let fused = Fetch { collection: "notes", keep: keep.clone(), route: "doc/find_ids_eq", payload: &find };
            let answer = cluster.handle(FETCH_ROUTE, &fused.encode()).unwrap();
            assert_eq!(answer, single.handle(FETCH_ROUTE, &fused.encode()).unwrap(), "{killed:?} {keep:?}");
            let get_many = GetMany { collection: "notes", ids: hex.iter().map(String::as_bytes).collect(), keep };
            let answer = cluster.handle("doc/get_many", &get_many.encode()).unwrap();
            assert_eq!(answer, single.handle("doc/get_many", &get_many.encode()).unwrap(), "{killed:?}");
        }
    }
    for keep in [vec!["v", "k"], vec!["k", "k"]] {
        let fused = Fetch { collection: "notes", keep: keep.clone(), route: "doc/find_ids_eq", payload: &find };
        let get_many = GetMany { collection: "notes", ids: hex.iter().map(String::as_bytes).collect(), keep };
        for (route, payload) in [(FETCH_ROUTE, fused.encode()), ("doc/get_many", get_many.encode())] {
            let refusal = single.handle(route, &payload).unwrap_err();
            assert_eq!(refusal, NetError::Remote(Refusal::Wire, "keep list not strictly ascending".into()));
            assert_eq!(cluster.handle(route, &payload).unwrap_err(), refusal, "{route}");
        }
    }
}
