//! End-to-end integration: the full healthcare flow through gateway,
//! channel and cloud, verified against a plaintext oracle.

use datablinder::core::cloud::CloudEngine;
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::model::AggFn;
use datablinder::core::spi::DnfLiterals;
use datablinder::docstore::{Document, Value};
use datablinder::fhir::{example_observation, observation_schema, ObservationGenerator};
use datablinder::kms::Kms;
use datablinder::netsim::{Channel, LatencyModel};
use datablinder::sse::DocId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (GatewayEngine, Vec<Document>) {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::lan());
    let mut rng = StdRng::seed_from_u64(0xE2E);
    let gateway = GatewayEngine::new("e2e", Kms::generate(&mut rng), channel, 5);
    gateway.register_schema(observation_schema()).unwrap();

    let mut corpus = vec![example_observation()];
    let mut generator = ObservationGenerator::new(10);
    for _ in 0..80 {
        corpus.push(generator.generate(&mut rng));
    }
    for doc in &corpus {
        gateway.insert("observation", doc).unwrap();
    }
    (gateway, corpus)
}

fn subject_of(d: &Document) -> &str {
    d.get("subject").unwrap().as_str().unwrap()
}

#[test]
fn equality_search_matches_oracle() {
    let (gw, corpus) = setup();
    for needle in ["John Doe", "Patient 00003", "Patient 00007", "Nobody"] {
        let hits = gw.find_equal("observation", "subject", &Value::from(needle)).unwrap();
        let expect = corpus.iter().filter(|d| subject_of(d) == needle).count();
        assert_eq!(hits.len(), expect, "subject {needle}");
        for h in &hits {
            assert_eq!(h.get("subject"), Some(&Value::from(needle)), "decrypted subject");
        }
    }
}

#[test]
fn boolean_search_matches_oracle() {
    let (gw, corpus) = setup();
    let dnf: DnfLiterals = vec![
        vec![("status".into(), Value::from("final")), ("code".into(), Value::from("glucose"))],
        vec![("status".into(), Value::from("amended"))],
    ];
    let hits = gw.find_boolean("observation", &dnf).unwrap();
    let expect = corpus
        .iter()
        .filter(|d| {
            (d.get("status") == Some(&Value::from("final")) && d.get("code") == Some(&Value::from("glucose")))
                || d.get("status") == Some(&Value::from("amended"))
        })
        .count();
    assert_eq!(hits.len(), expect);
}

/// Boolean search over fields no cross-field tactic serves: two C5 fields,
/// each selected as DET + OPE under its own key. Every literal is
/// rewritten under its own field's DET key and the document store combines
/// them in one `doc/find_ids_dnf`, which the gateway wraps in a `doc/fetch`:
/// the ids stay in the cloud and the documents come back in the same round
/// trip. The two fields share values, so a literal sealed under the wrong
/// field's key would miss.
#[test]
fn det_boolean_search_across_fields_matches_oracle() {
    use datablinder::core::cloudproto::{Fetch, FETCH_ROUTE};
    use datablinder::core::model::{FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
    use datablinder::netsim::{CloudService, NetError};
    use std::sync::{Arc, Mutex};

    struct Routes {
        inner: CloudEngine,
        seen: Mutex<Vec<String>>,
    }
    impl CloudService for Routes {
        fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
            let mut seen = self.seen.lock().unwrap();
            seen.push(route.to_string());
            if route == FETCH_ROUTE {
                // The read a fetch wraps, as the cloud runs it.
                seen.push(Fetch::decode(payload).unwrap().route.to_string());
            }
            drop(seen);
            self.inner.handle(route, payload)
        }
    }
    let svc = Arc::new(Routes { inner: CloudEngine::new(), seen: Mutex::new(Vec::new()) });
    let mut rng = StdRng::seed_from_u64(0xDE7);
    let gw = GatewayEngine::new("e2e", Kms::generate(&mut rng), Channel::from_arc(svc.clone(), LatencyModel::lan()), 8);
    use FieldOp::*;
    let c5 = || FieldAnnotation::new(ProtectionClass::C5, vec![Insert, Equality, Boolean, Range]);
    let schema = Schema::new("timeline")
        .plain_field("n", FieldType::Integer, true)
        .sensitive_field("effective", FieldType::Integer, true, c5())
        .sensitive_field("issued", FieldType::Integer, true, c5());
    gw.register_schema(schema).unwrap();
    for field in ["effective", "issued"] {
        let selection = gw.selection("timeline", field).unwrap();
        assert_eq!(selection.all_tactics(), ["det", "ope"], "{field}");
    }

    let day = |d: i64| Value::from(1_400_000_000 + d * 86_400);
    let corpus: Vec<Document> = (0..48i64)
        .map(|n| {
            Document::new("x").with("n", Value::from(n)).with("effective", day(n % 5)).with("issued", day(n % 3 + 2))
        })
        .collect();
    gw.insert_many("timeline", &corpus).unwrap();

    let holds = |d: &Document, (f, v): &(String, Value)| d.get(f) == Some(v);
    let lit = |f: &str, d: i64| (f.to_string(), day(d));
    for dnf in [
        vec![vec![lit("effective", 2), lit("issued", 2)]],
        vec![vec![lit("effective", 3)], vec![lit("issued", 3)]],
        vec![vec![lit("effective", 4), lit("issued", 4)], vec![lit("issued", 2)]],
        vec![vec![lit("effective", 9)]],
        vec![vec![lit("effective", 1), lit("issued", 9)]],
    ] {
        let mut expect: Vec<i64> = corpus
            .iter()
            .filter(|d| dnf.iter().any(|conj| conj.iter().all(|l| holds(d, l))))
            .map(|d| d.get("n").unwrap().as_i64().unwrap())
            .collect();
        svc.seen.lock().unwrap().clear();
        let hits = gw.find_boolean("timeline", &dnf).unwrap();
        let seen = std::mem::take(&mut *svc.seen.lock().unwrap());
        assert_eq!(seen, ["doc/fetch", "doc/find_ids_dnf"], "{dnf:?}: one round trip, the search inside");
        let mut got: Vec<i64> = hits.iter().map(|d| d.get("n").unwrap().as_i64().unwrap()).collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect, "{dnf:?}");
    }
}

#[test]
fn range_search_matches_oracle() {
    let (gw, corpus) = setup();
    let (lo, hi) = (1_400_000_000i64, 1_500_000_000i64);
    let hits = gw.find_range("observation", "effective", &Value::from(lo), &Value::from(hi)).unwrap();
    let expect = corpus
        .iter()
        .filter(|d| {
            let v = d.get("effective").unwrap().as_i64().unwrap();
            v >= lo && v <= hi
        })
        .count();
    assert_eq!(hits.len(), expect);
    for h in &hits {
        let v = h.get("effective").unwrap().as_i64().unwrap();
        assert!((lo..=hi).contains(&v), "hit {v} outside range");
    }
}

#[test]
fn homomorphic_average_matches_oracle() {
    let (gw, corpus) = setup();
    let avg = gw.aggregate("observation", "value", AggFn::Avg, None).unwrap();
    let oracle: f64 =
        corpus.iter().map(|d| d.get("value").unwrap().as_f64().unwrap()).sum::<f64>() / corpus.len() as f64;
    assert!((avg - oracle).abs() < 0.01, "avg {avg} vs oracle {oracle}");

    // Filtered aggregate: average of glucose values only.
    let filter: DnfLiterals = vec![vec![("code".into(), Value::from("glucose"))]];
    let glucose: Vec<f64> = corpus
        .iter()
        .filter(|d| d.get("code") == Some(&Value::from("glucose")))
        .map(|d| d.get("value").unwrap().as_f64().unwrap())
        .collect();
    let avg_glucose = gw.aggregate("observation", "value", AggFn::Avg, Some(&filter)).unwrap();
    let oracle_glucose = glucose.iter().sum::<f64>() / glucose.len() as f64;
    assert!((avg_glucose - oracle_glucose).abs() < 0.01, "{avg_glucose} vs {oracle_glucose}");

    let sum = gw.aggregate("observation", "value", AggFn::Sum, Some(&filter)).unwrap();
    assert!((sum - glucose.iter().sum::<f64>()).abs() < 0.01);
    let count = gw.aggregate("observation", "value", AggFn::Count, Some(&filter)).unwrap();
    assert_eq!(count as usize, glucose.len());
}

/// What an aggregate costs on the wire: one bare `sum` read without a
/// filter; with one, the boolean search's tokens as one read batch and the
/// `sum` over the ids it found — the matching documents are never fetched,
/// let alone decrypted, only to learn their ids again. A filter nothing
/// matches aggregates nothing (to the cloud an empty id list means the
/// whole collection).
#[test]
fn aggregates_fetch_no_documents() {
    use datablinder::netsim::{CloudService, NetError};
    use std::sync::{Arc, Mutex};

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
    let svc = Arc::new(Routes { inner: CloudEngine::new(), seen: Mutex::new(Vec::new()) });
    let mut rng = StdRng::seed_from_u64(0xE2F);
    let gw = GatewayEngine::new("e2e", Kms::generate(&mut rng), Channel::from_arc(svc.clone(), LatencyModel::lan()), 6);
    gw.register_schema(observation_schema()).unwrap();
    let mut generator = ObservationGenerator::new(6);
    let corpus: Vec<Document> = (0..40).map(|_| generator.generate(&mut rng)).collect();
    for doc in &corpus {
        gw.insert("observation", doc).unwrap();
    }
    let value = |d: &Document| d.get("value").unwrap().as_f64().unwrap();
    let routes = |f: &dyn Fn() -> f64| {
        svc.seen.lock().unwrap().clear();
        let out = f();
        (out, std::mem::take(&mut *svc.seen.lock().unwrap()))
    };

    let (sum, seen) = routes(&|| gw.aggregate("observation", "value", AggFn::Sum, None).unwrap());
    assert!((sum - corpus.iter().map(value).sum::<f64>()).abs() < 0.01);
    assert_eq!(seen.len(), 1, "{seen:?}");
    assert!(seen[0].starts_with("tactic/paillier/") && seen[0].ends_with("/sum"), "{seen:?}");

    let glucose: DnfLiterals = vec![vec![("code".into(), Value::from("glucose"))]];
    let expect: f64 = corpus.iter().filter(|d| d.get("code") == Some(&Value::from("glucose"))).map(value).sum();
    assert!(expect > 0.0, "the corpus has glucose observations");
    let (sum, seen) = routes(&|| gw.aggregate("observation", "value", AggFn::Sum, Some(&glucose)).unwrap());
    assert!((sum - expect).abs() < 0.01, "{sum} vs {expect}");
    assert_eq!(seen.len(), 2, "ids, then the sum over them: {seen:?}");
    assert_eq!(seen[0], "batch/read", "the overlay and tombstone searches in one round trip: {seen:?}");
    assert!(seen[1].starts_with("tactic/paillier/") && seen[1].ends_with("/sum"), "{seen:?}");

    let nothing: DnfLiterals = vec![vec![("code".into(), Value::from("no such code"))]];
    for agg in [AggFn::Sum, AggFn::Avg, AggFn::Count] {
        let (out, seen) = routes(&|| gw.aggregate("observation", "value", agg, Some(&nothing)).unwrap());
        assert_eq!(out, 0.0, "{agg:?} over no documents");
        assert!(!seen.iter().any(|r| r.ends_with("/sum")), "nothing to sum: {seen:?}");
    }
}

/// Round trips per operation, pinned: the calls an operation needs that do
/// not depend on each other share one. An insert's index updates and its
/// document go as one write batch, a boolean search's base, overlay and
/// tombstone searches as one read batch; only a fetch that needs the ids a
/// search found, or a delete that needs the document's values for its
/// revocation tokens, costs a second.
#[test]
fn each_operation_takes_its_pinned_round_trips() {
    let (gw, _) = setup();
    let trips = || gw.channel().metrics().round_trips();

    let before = trips();
    let id = gw.insert("observation", &example_observation()).unwrap();
    assert_eq!(trips() - before, 1, "single insert");

    let before = trips();
    let dnf: DnfLiterals = vec![vec![("status".into(), Value::from("final")), ("code".into(), Value::from("glucose"))]];
    assert!(!gw.find_boolean("observation", &dnf).unwrap().is_empty());
    assert_eq!(trips() - before, 2, "BIEX boolean: the token set, then get_many");

    let before = trips();
    assert!(!gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap().is_empty());
    assert_eq!(trips() - before, 2, "Mitra equality: the search, then get_many");

    let before = trips();
    gw.aggregate("observation", "value", AggFn::Avg, None).unwrap();
    assert_eq!(trips() - before, 1, "unfiltered aggregate");

    let before = trips();
    gw.delete("observation", id).unwrap();
    assert_eq!(trips() - before, 2, "delete: the get, then the revocations and the delete");
}

#[test]
fn get_roundtrips_every_field() {
    let (gw, _) = setup();
    let doc = example_observation();
    let id = gw.insert("observation", &doc).unwrap();
    let got = gw.get("observation", id).unwrap();
    for (field, value) in doc.iter() {
        assert_eq!(got.get(field), Some(value), "field {field}");
    }
}

#[test]
fn delete_removes_document_and_index_entries() {
    let (gw, _) = setup();
    let doc = Document::new("x")
        .with("identifier", Value::from(999_999i64))
        .with("status", Value::from("final"))
        .with("code", Value::from("glucose"))
        .with("subject", Value::from("Deletion Target"))
        .with("effective", Value::from(1_400_000_123i64))
        .with("issued", Value::from(1_400_100_123i64))
        .with("performer", Value::from("Dr. X"))
        .with("value", Value::from(5.0f64));
    let id = gw.insert("observation", &doc).unwrap();
    assert_eq!(gw.find_equal("observation", "subject", &Value::from("Deletion Target")).unwrap().len(), 1);

    gw.delete("observation", id).unwrap();
    assert!(gw.get("observation", id).is_err());
    assert_eq!(gw.find_equal("observation", "subject", &Value::from("Deletion Target")).unwrap().len(), 0);
    // Boolean index revoked too.
    let dnf: DnfLiterals = vec![vec![("status".into(), Value::from("final")), ("code".into(), Value::from("glucose"))]];
    let hits = gw.find_boolean("observation", &dnf).unwrap();
    assert!(hits.iter().all(|d| DocId::from_hex(d.id()) != Some(id)));
}

#[test]
fn update_replaces_values_and_indexes() {
    let (gw, _) = setup();
    let doc = example_observation();
    let id = gw.insert("observation", &doc).unwrap();

    let mut updated = doc.clone();
    updated.set("status", Value::from("amended"));
    updated.set("value", Value::from(9.9f64));
    gw.update("observation", id, &updated).unwrap();

    let got = gw.get("observation", id).unwrap();
    assert_eq!(got.get("status"), Some(&Value::from("amended")));
    assert_eq!(got.get("value"), Some(&Value::from(9.9f64)));
    // The old index entry must be gone; John Doe appears exactly once for
    // the updated doc (the example doc inserted by setup() counts too).
    let hits = gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();
    assert_eq!(hits.len(), 2, "setup's copy + updated copy");
}

#[test]
fn count_tracks_inserts() {
    let (gw, corpus) = setup();
    assert_eq!(gw.count("observation").unwrap(), corpus.len() as u64);
    gw.insert("observation", &example_observation()).unwrap();
    assert_eq!(gw.count("observation").unwrap(), corpus.len() as u64 + 1);
}

/// NaN has no place in an order and no fixed-point value: a range bound or
/// a Paillier-aggregated value that is NaN is an error, never silently a
/// one-sided range or a zero that still counts toward an average.
#[test]
fn non_finite_floats_are_refused() {
    let (gw, corpus) = setup();
    let lo = Value::from(1_400_000_000i64);
    for (lo, hi) in [(&lo, &Value::F64(f64::NAN)), (&Value::F64(f64::NAN), &lo)] {
        assert!(gw.find_range("observation", "effective", lo, hi).is_err(), "range {lo:?}..={hi:?}");
    }

    let aggregates =
        || [AggFn::Count, AggFn::Avg].map(|agg| gw.aggregate("observation", "value", agg, None).unwrap().to_bits());
    let before = aggregates();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut doc = example_observation();
        doc.set("value", Value::F64(bad));
        assert!(gw.insert("observation", &doc).is_err(), "value {bad}");
    }
    assert_eq!(gw.count("observation").unwrap(), corpus.len() as u64);
    assert_eq!(aggregates(), before, "a refused value still counts toward the aggregates");
}

#[test]
fn tactic_state_survives_gateway_restart() {
    // Export state from one gateway, import into a fresh one over the same
    // cloud, and verify searches still work (the gateway-statefulness
    // challenge of Table 2).
    let cloud = CloudEngine::new();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(404);
    let kms = Kms::generate(&mut rng);

    let gw1 = GatewayEngine::new("restart", kms.clone(), channel.clone(), 1);
    gw1.register_schema(observation_schema()).unwrap();
    gw1.insert("observation", &example_observation()).unwrap();
    let state = gw1.export_tactic_state();
    assert!(!state.is_empty(), "mitra/biex state expected");
    drop(gw1);

    let gw2 = GatewayEngine::new("restart", kms, channel, 2);
    gw2.register_schema(observation_schema()).unwrap();
    gw2.import_tactic_state(&state).unwrap();
    let hits = gw2.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();
    assert_eq!(hits.len(), 1);
    // And new inserts continue the chains without clobbering old entries.
    gw2.insert("observation", &example_observation()).unwrap();
    let hits = gw2.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();
    assert_eq!(hits.len(), 2);
}

#[test]
fn min_max_over_encrypted_timestamps() {
    let (gw, corpus) = setup();
    let max_doc = gw.find_extreme("observation", "effective", true).unwrap().unwrap();
    let min_doc = gw.find_extreme("observation", "effective", false).unwrap().unwrap();
    let oracle_max = corpus.iter().map(|d| d.get("effective").unwrap().as_i64().unwrap()).max().unwrap();
    let oracle_min = corpus.iter().map(|d| d.get("effective").unwrap().as_i64().unwrap()).min().unwrap();
    assert_eq!(max_doc.get("effective").unwrap().as_i64(), Some(oracle_max));
    assert_eq!(min_doc.get("effective").unwrap().as_i64(), Some(oracle_min));

    // Fields without an order-preserving tactic refuse min/max.
    assert!(gw.find_extreme("observation", "subject", true).is_err());
}

#[test]
fn batched_insert_is_equivalent_and_cheaper_on_round_trips() {
    let channel_single = Channel::connect(CloudEngine::new(), LatencyModel::lan());
    let channel_batch = Channel::connect(CloudEngine::new(), LatencyModel::lan());
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let kms = Kms::generate(&mut rng);

    let gw_single = GatewayEngine::new("batch", kms.clone(), channel_single, 1);
    gw_single.register_schema(observation_schema()).unwrap();
    let gw_batch = GatewayEngine::new("batch", kms, channel_batch, 1);
    gw_batch.register_schema(observation_schema()).unwrap();

    let mut generator = ObservationGenerator::new(5);
    let docs: Vec<Document> = (0..20).map(|_| generator.generate(&mut rng)).collect();

    let before_single = gw_single.channel().metrics().round_trips();
    for d in &docs {
        gw_single.insert("observation", d).unwrap();
    }
    let single_trips = gw_single.channel().metrics().round_trips() - before_single;

    let before_batch = gw_batch.channel().metrics().round_trips();
    let ids = gw_batch.insert_many("observation", &docs).unwrap();
    let batch_trips = gw_batch.channel().metrics().round_trips() - before_batch;

    assert_eq!(ids.len(), docs.len());
    assert!(batch_trips < single_trips / 5, "batching must amortize: {batch_trips} vs {single_trips}");

    // Equivalence: both gateways answer queries identically.
    for subject in ["Patient 00000", "Patient 00003"] {
        let a = gw_single.find_equal("observation", "subject", &Value::from(subject)).unwrap().len();
        let b = gw_batch.find_equal("observation", "subject", &Value::from(subject)).unwrap().len();
        assert_eq!(a, b, "subject {subject}");
    }
    let avg_a = gw_single.aggregate("observation", "value", AggFn::Avg, None).unwrap();
    let avg_b = gw_batch.aggregate("observation", "value", AggFn::Avg, None).unwrap();
    assert!((avg_a - avg_b).abs() < 1e-9);

    // Batch validation is all-or-nothing: one bad doc rejects the batch.
    let mut bad = docs.clone();
    bad.push(Document::new("x").with("status", Value::from(42i64)));
    let count_before = gw_batch.count("observation").unwrap();
    assert!(gw_batch.insert_many("observation", &bad).is_err());
    assert_eq!(gw_batch.count("observation").unwrap(), count_before, "nothing sent");
}

#[test]
fn migration_builds_static_boolean_base_then_overlays() {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::lan());
    let mut rng = StdRng::seed_from_u64(0x316);
    let gw = GatewayEngine::new("migrate", Kms::generate(&mut rng), channel, 6);
    gw.register_schema(observation_schema()).unwrap();

    // Initial migration: a corpus bulk-loaded with the static BIEX base.
    let mut generator = ObservationGenerator::new(6);
    let corpus: Vec<Document> = (0..40).map(|_| generator.generate(&mut rng)).collect();
    let before = gw.channel().metrics().round_trips();
    let ids = gw.migrate("observation", &corpus).unwrap();
    let migration_trips = gw.channel().metrics().round_trips() - before;
    assert_eq!(ids.len(), 40);
    assert!(migration_trips <= 3, "migration must be batched, took {migration_trips} trips");

    // Boolean queries answered from the static base.
    let dnf: DnfLiterals = vec![vec![("status".into(), Value::from("final")), ("code".into(), Value::from("glucose"))]];
    let expect = corpus
        .iter()
        .filter(|d| d.get("status") == Some(&Value::from("final")) && d.get("code") == Some(&Value::from("glucose")))
        .count();
    assert_eq!(gw.find_boolean("observation", &dnf).unwrap().len(), expect);

    // Post-migration inserts land in the dynamic overlay; queries merge.
    let extra = Document::new("x")
        .with("identifier", Value::from(777i64))
        .with("status", Value::from("final"))
        .with("code", Value::from("glucose"))
        .with("subject", Value::from("Overlay Pat"))
        .with("effective", Value::from(1_400_000_000i64))
        .with("issued", Value::from(1_400_100_000i64))
        .with("performer", Value::from("Dr. O"))
        .with("value", Value::from(6.0f64));
    let extra_id = gw.insert("observation", &extra).unwrap();
    assert_eq!(gw.find_boolean("observation", &dnf).unwrap().len(), expect + 1);

    // Deleting a *migrated* (base) document masks it through tombstones.
    if let Some(victim) = corpus
        .iter()
        .zip(ids.iter())
        .find(|(d, _)| d.get("status") == Some(&Value::from("final")) && d.get("code") == Some(&Value::from("glucose")))
    {
        gw.delete("observation", *victim.1).unwrap();
        assert_eq!(gw.find_boolean("observation", &dnf).unwrap().len(), expect);
    }
    // Deleting the overlay document too.
    gw.delete("observation", extra_id).unwrap();
    let remaining = gw.find_boolean("observation", &dnf).unwrap();
    assert!(remaining.iter().all(|d| DocId::from_hex(d.id()) != Some(extra_id)));
}
