//! End-to-end observability: gateway/channel/cloud route metrics, the
//! leakage audit ledger and measurement-driven tactic selection, all
//! exercised through the public facade.

use std::sync::Arc;
use std::time::Duration;

use datablinder::core::cloud::CloudEngine;
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, LeakageLevel, ProtectionClass, Schema};
use datablinder::core::registry::{MeasuredPerfMetrics, TacticRegistry};
use datablinder::core::spi::DnfLiterals;
use datablinder::docstore::{Document, Value};
use datablinder::fhir::{example_observation, observation_schema, ObservationGenerator};
use datablinder::kms::Kms;
use datablinder::netsim::{Channel, LatencyModel};
use datablinder::obs::{Json, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A gateway over a volatile cloud with an *enabled* recorder installed.
fn observed_gateway(seed: u64) -> GatewayEngine {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gw = GatewayEngine::new("obs-test", Kms::generate(&mut rng), channel, seed);
    gw.set_recorder(Recorder::new());
    gw.register_schema(observation_schema()).unwrap();
    gw
}

fn corpus(seed: u64, n: usize) -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = ObservationGenerator::new(8);
    let mut docs = vec![example_observation()];
    for _ in 1..n {
        docs.push(generator.generate(&mut rng));
    }
    docs
}

#[test]
fn gateway_routes_record_counts_latencies_and_spans() {
    let gw = observed_gateway(0x0B51);
    let docs = corpus(0x0B51, 12);
    let ids: Vec<_> = docs.iter().map(|d| gw.insert("observation", d).unwrap()).collect();

    gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();
    gw.find_equal("observation", "subject", &Value::from("Nobody")).unwrap();
    gw.find_range("observation", "issued", &Value::from(0i64), &Value::from(i64::MAX)).unwrap();
    let dnf: DnfLiterals = vec![vec![("status".into(), Value::from("final"))]];
    gw.find_boolean("observation", &dnf).unwrap();
    gw.aggregate("observation", "value", AggFn::Avg, None).unwrap();
    gw.get("observation", ids[0]).unwrap();
    gw.count("observation").unwrap();
    gw.delete("observation", ids[1]).unwrap();
    // An op that fails must land in the errors counter.
    assert!(gw.find_equal("observation", "interpretation", &Value::from("High")).is_err());

    let snap = gw.recorder().snapshot();
    assert_eq!(snap.counter("gateway.insert.count"), docs.len() as u64);
    assert_eq!(snap.counter("gateway.insert.errors"), 0);
    assert_eq!(snap.counter("gateway.find_equal.count"), 3);
    assert_eq!(snap.counter("gateway.find_equal.errors"), 1);
    assert_eq!(snap.counter("gateway.find_range.count"), 1);
    assert_eq!(snap.counter("gateway.find_boolean.count"), 1);
    assert_eq!(snap.counter("gateway.aggregate.count"), 1);
    assert_eq!(snap.counter("gateway.count.count"), 1);
    assert_eq!(snap.counter("gateway.delete.count"), 1);
    // `get` also runs nested inside `delete`'s value recovery.
    assert_eq!(snap.counter("gateway.get.count"), 2);

    let h = snap.histogram("gateway.insert.latency").expect("insert latency histogram");
    assert_eq!(h.count, docs.len() as u64);
    assert!(h.max_nanos >= h.p50_nanos);

    // The recorder was forwarded into the resilient channel: every
    // gateway op above crossed the wire at least once.
    assert!(snap.counter("channel.call.count") > docs.len() as u64);
    assert_eq!(snap.counter("channel.call.errors"), 0);
    assert!(snap.spans_recorded > 0);

    // Per-tactic EWMAs fed the measurement loop.
    assert!(
        snap.ewmas.iter().any(|e| e.name.starts_with("tactic.") && e.name.ends_with(".eq_query")),
        "equality EWMA recorded: {:?}",
        snap.ewmas
    );
    assert!(
        snap.ewmas.iter().any(|e| e.name.starts_with("tactic.") && e.name.ends_with(".range_query")),
        "range EWMA recorded: {:?}",
        snap.ewmas
    );
}

#[test]
fn default_gateway_records_nothing() {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(7);
    let gw = GatewayEngine::new("obs-test", Kms::generate(&mut rng), channel, 7);
    gw.register_schema(observation_schema()).unwrap();
    gw.insert("observation", &example_observation()).unwrap();
    gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();

    let snap = gw.recorder().snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.ledger.is_empty());
    assert_eq!(snap.spans_recorded, 0);
}

#[test]
fn leakage_audit_stays_within_declared_bounds() {
    let gw = observed_gateway(0x0B52);
    for doc in corpus(0x0B52, 20) {
        gw.insert("observation", &doc).unwrap();
    }
    gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();
    gw.find_equal("observation", "status", &Value::from("final")).unwrap();
    gw.find_range("observation", "issued", &Value::from(0i64), &Value::from(i64::MAX)).unwrap();
    let dnf: DnfLiterals = vec![vec![("status".into(), Value::from("final")), ("code".into(), Value::from("glucose"))]];
    gw.find_boolean("observation", &dnf).unwrap();
    // Twice: the second average is answered from the product the cloud
    // carried over from the first.
    let first = gw.aggregate("observation", "value", AggFn::Avg, None).unwrap();
    assert_eq!(gw.aggregate("observation", "value", AggFn::Avg, None).unwrap(), first);

    let snap = gw.recorder().snapshot();
    assert!(!snap.ledger.is_empty(), "audited operations populate the ledger");

    // Every op the middleware actually ran leaked at or below the field's
    // declared protection-class ceiling.
    for entry in &snap.ledger {
        assert!(
            !entry.violates(),
            "{}/{} via {} observed level {} above declared {}",
            entry.field,
            entry.op,
            entry.tactic,
            entry.observed,
            entry.declared
        );
    }

    // The audit covered the full op surface.
    let ops: Vec<&str> = snap.ledger.iter().map(|e| e.op.as_str()).collect();
    for op in ["insert", "equality", "range", "boolean", "aggregate"] {
        assert!(ops.contains(&op), "ledger covers {op}");
    }
    // Spot-check one cell: equality on the C2 subject field runs on an
    // Identifiers-level tactic, exactly at the ceiling.
    let subject_eq =
        snap.ledger.iter().find(|e| e.field == "subject" && e.op == "equality").expect("subject equality audited");
    assert_eq!(subject_eq.declared, LeakageLevel::Identifiers as u8);
    assert!(subject_eq.observed <= subject_eq.declared);
    // And the aggregate: the carried product is a function of ciphertexts
    // the cloud already stores, so a carried sum opens no flow a scanned one
    // did not — the cell reads what it always read.
    let value_agg =
        snap.ledger.iter().find(|e| e.field == "value" && e.op == "aggregate").expect("value aggregate audited");
    assert_eq!(
        (value_agg.tactic.as_str(), value_agg.observed, value_agg.count),
        ("paillier", LeakageLevel::Structure as u8, 2)
    );
}

#[test]
fn over_leaking_extension_is_flagged_by_the_ledger() {
    // A third-party tactic that (honestly) reports leaking order-level
    // information while serving a field whose class only admits
    // Identifiers: the ledger records the mismatch and flags it.
    let recorder = Recorder::new();
    recorder.ledger().record(
        "ssn",
        "equality",
        "leaky-ope",
        LeakageLevel::Order as u8,
        LeakageLevel::Identifiers as u8,
    );
    let snap = recorder.snapshot();
    let entry = &snap.ledger[0];
    assert!(entry.violates(), "observed Order above declared Identifiers must flag");

    // And the violation is visible in both renderings.
    let json = Json::parse(&snap.to_json()).unwrap();
    let ledger = json.get("ledger").and_then(Json::as_array).unwrap();
    assert_eq!(ledger.len(), 1);
    assert_eq!(ledger[0].get("violation"), Some(&Json::Bool(true)));
    assert!(snap.to_text().contains("VIOLATION"));
}

#[test]
fn measured_latencies_redirect_selection_end_to_end() {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x0B53);
    let recorder = Recorder::new();
    let mut gw = GatewayEngine::new("obs-test", Kms::generate(&mut rng), channel, 0x0B53);
    gw.set_recorder(recorder.clone());

    let annotation = FieldAnnotation::new(ProtectionClass::C4, vec![FieldOp::Insert, FieldOp::Equality]);

    // Statically, DET wins C4 equality (cheapest admissible cover).
    let static_choice = gw.registry().select("ssn", &annotation).unwrap();
    assert_eq!(static_choice.search_tactics, vec!["det".to_string()]);

    // Observed latencies invert the ranking: DET slow, Mitra fast.
    for _ in 0..8 {
        recorder.ewma_observe("tactic.det.eq_query", Duration::from_micros(500));
        recorder.ewma_observe("tactic.mitra.eq_query", Duration::from_micros(5));
    }
    gw.adopt_measurements();
    let measured_choice = gw.registry().select("ssn", &annotation).unwrap();
    assert_eq!(measured_choice.search_tactics, vec!["mitra".to_string()]);
    assert!(measured_choice.reason.contains("measured"), "reason records the override: {}", measured_choice.reason);

    // A schema registered *after* adoption routes through the measured
    // winner for real.
    let schema = Schema::new("persons").sensitive_field("ssn", FieldType::Text, true, annotation);
    gw.register_schema(schema).unwrap();
    let id = gw.insert("persons", &Document::new("p").with("ssn", Value::from("123-45-6789"))).unwrap();
    let hits = gw.find_equal("persons", "ssn", &Value::from("123-45-6789")).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].get("ssn"), Some(&Value::from("123-45-6789")));
    let _ = id;

    let snap = recorder.snapshot();
    assert!(snap.ewma("tactic.mitra.eq_query").is_some());
    assert!(snap.counter("cloud.tactic.mitra.ops") > 0 || snap.counter("channel.call.count") > 0);
}

#[test]
fn measurements_can_be_cleared() {
    let mut registry = TacticRegistry::with_builtins();
    let annotation = FieldAnnotation::new(ProtectionClass::C4, vec![FieldOp::Insert, FieldOp::Equality]);
    let mut m = MeasuredPerfMetrics::new();
    m.set("det", 500_000.0);
    m.set("mitra", 1_000.0);
    registry.set_measurements(m);
    assert_eq!(registry.select("f", &annotation).unwrap().search_tactics, vec!["mitra".to_string()]);
    registry.set_measurements(MeasuredPerfMetrics::new());
    assert_eq!(registry.select("f", &annotation).unwrap().search_tactics, vec!["det".to_string()]);
}

#[test]
fn snapshot_json_parses_with_nonzero_route_counters() {
    let gw = observed_gateway(0x0B54);
    for doc in corpus(0x0B54, 5) {
        gw.insert("observation", &doc).unwrap();
    }
    gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();

    let json_text = gw.recorder().snapshot().to_json();
    let json = Json::parse(&json_text).expect("snapshot JSON parses");
    let counter = |name: &str| -> Option<u64> {
        json.get("counters")?
            .as_array()?
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name))?
            .get("value")?
            .as_u64()
    };
    assert_eq!(counter("gateway.insert.count"), Some(5));
    assert!(counter("channel.call.count").unwrap() > 0);
    let spans = json.get("spans").and_then(|s| s.get("recorded")).and_then(Json::as_u64).unwrap();
    assert!(spans > 0);

    // The aligned-text rendering carries the same counters.
    let text = gw.recorder().snapshot().to_text();
    assert!(text.contains("gateway.insert.count"));
}

#[test]
fn cloud_engine_counts_tactic_ops_and_dedup_hits() {
    let cloud = CloudEngine::new();
    let recorder = Recorder::new();
    let mut cloud = cloud;
    cloud.set_recorder(recorder.clone());
    let channel = Channel::from_arc(Arc::new(cloud), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x0B55);
    let gw = GatewayEngine::new("obs-test", Kms::generate(&mut rng), channel, 0x0B55);
    gw.register_schema(observation_schema()).unwrap();
    for doc in corpus(0x0B55, 6) {
        gw.insert("observation", &doc).unwrap();
    }
    gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();

    let snap = recorder.snapshot();
    let tactic_ops: u64 = snap.counters_with_prefix("cloud.tactic.").iter().map(|(_, v)| *v).sum();
    assert!(tactic_ops > 0, "cloud-side tactic index ops counted: {:?}", snap.counters);
}

/// Every search a registered schema routes to the document store — OPE
/// ranges, DET equality — must be served from the secondary index that
/// `register_schema` asked the cloud to build; one that falls back to
/// visiting every document shows as `cloud.doc.scan.full`.
#[test]
fn registered_schema_searches_never_fall_back_to_a_full_scan() {
    let mut cloud = CloudEngine::new();
    let recorder = Recorder::new();
    cloud.set_recorder(recorder.clone());
    let channel = Channel::from_arc(Arc::new(cloud), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x0B56);
    let gw = GatewayEngine::new("obs-test", Kms::generate(&mut rng), channel, 0x0B56);
    gw.register_schema(observation_schema()).unwrap();
    let docs = corpus(0x0B56, 10);
    for doc in &docs {
        gw.insert("observation", doc).unwrap();
    }
    let issued = docs[0].get("issued").unwrap();

    let all = gw.find_range("observation", "effective", &Value::from(0i64), &Value::from(i64::MAX)).unwrap();
    assert_eq!(all.len(), docs.len());
    assert!(!gw.find_range("observation", "issued", issued, issued).unwrap().is_empty());
    assert!(gw.find_range("observation", "issued", &Value::from(9i64), &Value::from(3i64)).unwrap().is_empty());
    assert!(!gw.find_equal("observation", "issued", issued).unwrap().is_empty());

    let snap = recorder.snapshot();
    assert_eq!(snap.counter("cloud.doc.scan.indexed"), 4, "{:?}", snap.counters);
    assert_eq!(snap.counter("cloud.doc.scan.full"), 0, "{:?}", snap.counters);
}
