//! Gateway-engine edge cases not naturally reached by the happy-path
//! integration suites.

use datablinder_core::cloud::{with_collection, CloudEngine};
use datablinder_core::cloudproto::FindIdsRange;
use datablinder_core::cluster::{ClusterCloud, ClusterConfig};
use datablinder_core::gateway::GatewayEngine;
use datablinder_core::model::*;
use datablinder_core::tactics::decode_ids;
use datablinder_core::wire::encode_document;
use datablinder_core::CoreError;
use datablinder_docstore::{Document, Value};
use datablinder_kms::Kms;
use datablinder_netsim::{Channel, CloudService, LatencyModel};
use datablinder_sse::DocId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gateway() -> GatewayEngine {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0xEDE);
    GatewayEngine::new("edge", Kms::generate(&mut rng), channel, 1)
}

#[test]
fn unknown_schema_paths_error() {
    let gw = gateway();
    let doc = Document::new("x").with("f", Value::from("v"));
    assert!(matches!(gw.insert("nope", &doc), Err(CoreError::UnknownSchema(_))));
    assert!(matches!(gw.get("nope", DocId([0; 16])), Err(CoreError::UnknownSchema(_))));
    assert!(matches!(gw.delete("nope", DocId([0; 16])), Err(CoreError::UnknownSchema(_))));
    assert!(matches!(gw.find_equal("nope", "f", &Value::Null), Err(CoreError::UnknownSchema(_))));
}

#[test]
fn get_unknown_id_is_not_found() {
    let gw = gateway();
    let schema = Schema::new("s").sensitive_field(
        "f",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]),
    );
    gw.register_schema(schema).unwrap();
    let err = gw.get("s", DocId([9; 16])).unwrap_err();
    // Cloud-side NotFound travels back as a channel (remote) error.
    assert!(matches!(err, CoreError::Net(_) | CoreError::NotFound(_)), "{err}");
}

#[test]
fn fields_with_double_underscores_roundtrip() {
    // Shadow-field naming uses `__`; user fields containing `__` must not
    // be confused with shadow fields during recovery.
    let gw = gateway();
    let schema = Schema::new("s").plain_field("a__b", FieldType::Text, false).sensitive_field(
        "x__y",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]),
    );
    gw.register_schema(schema).unwrap();
    let doc = Document::new("d").with("a__b", Value::from("plain")).with("x__y", Value::from("secret"));
    let id = gw.insert("s", &doc).unwrap();
    let got = gw.get("s", id).unwrap();
    assert_eq!(got.get("a__b"), Some(&Value::from("plain")));
    assert_eq!(got.get("x__y"), Some(&Value::from("secret")));
}

#[test]
fn a_plain_field_named_like_a_shadow_is_refused() {
    let gw = gateway();
    for plain in ["a__rnd", "a__det", "a__anything"] {
        let schema = Schema::new("s").plain_field(plain, FieldType::Text, false).sensitive_field(
            "a",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]),
        );
        assert!(matches!(gw.register_schema(schema), Err(CoreError::SchemaViolation(_))), "{plain}");
    }
}

#[test]
fn selection_accessor_reports_only_sensitive_fields() {
    let gw = gateway();
    let schema = Schema::new("s").plain_field("meta", FieldType::Integer, false).sensitive_field(
        "f",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]),
    );
    gw.register_schema(schema).unwrap();
    assert!(gw.selection("s", "f").is_some());
    assert!(gw.selection("s", "meta").is_none());
    assert!(gw.selection("s", "ghost").is_none());
    assert!(gw.selection("ghost-schema", "f").is_none());
}

#[test]
fn reregistering_a_schema_is_idempotent_for_data() {
    let gw = gateway();
    let schema = || {
        Schema::new("s").sensitive_field(
            "owner",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
        )
    };
    gw.register_schema(schema()).unwrap();
    gw.insert("s", &Document::new("x").with("owner", Value::from("a"))).unwrap();
    // Re-registration (e.g. redeploy) keeps existing tactic instances and
    // thus the Mitra counters: searches still see old data and inserts
    // continue the chains.
    gw.register_schema(schema()).unwrap();
    gw.insert("s", &Document::new("x").with("owner", Value::from("a"))).unwrap();
    assert_eq!(gw.find_equal("s", "owner", &Value::from("a")).unwrap().len(), 2);
}

#[test]
fn empty_dnf_returns_nothing() {
    let gw = gateway();
    let schema = Schema::new("s").sensitive_field(
        "t",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean]),
    );
    gw.register_schema(schema).unwrap();
    gw.insert("s", &Document::new("x").with("t", Value::from("v"))).unwrap();
    let hits = gw.find_boolean("s", &vec![]).unwrap();
    assert!(hits.is_empty());
}

#[test]
fn range_with_inverted_bounds_is_empty() {
    let gw = gateway();
    let schema = Schema::new("s").sensitive_field(
        "n",
        FieldType::Integer,
        true,
        FieldAnnotation::new(ProtectionClass::C5, vec![FieldOp::Insert, FieldOp::Range]),
    );
    gw.register_schema(schema).unwrap();
    gw.insert("s", &Document::new("x").with("n", Value::from(5i64))).unwrap();
    let hits = gw.find_range("s", "n", &Value::from(10i64), &Value::from(1i64)).unwrap();
    assert!(hits.is_empty());
}

/// `doc/find_ids_range` walks the field's index with `BTreeMap::range`,
/// which panics on an inverted interval; the bounds are whatever a request
/// carries. Inverted bounds are an empty answer — with and without an index
/// on the field, on one engine and on every node of a cluster.
#[test]
fn find_ids_range_with_inverted_bounds_is_empty_on_engine_and_cluster() {
    let engine = CloudEngine::new();
    let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 0x1E7)).unwrap();
    for cloud in [&engine as &dyn CloudService, &cluster] {
        cloud.handle("doc/ensure_index", &with_collection("c", b"at__ope")).unwrap();
        for i in 0..12u8 {
            let doc = Document::new(DocId([i; 16]).to_hex())
                .with("at__ope", Value::Bytes(vec![0, i]))
                .with("unindexed", Value::Bytes(vec![0, i]));
            cloud.handle("doc/insert", &with_collection("c", &encode_document(&doc))).unwrap();
        }
        for field in ["at__ope", "unindexed"] {
            let ids = |lo: u8, hi: u8| {
                let req = FindIdsRange {
                    collection: "c".into(),
                    field: field.into(),
                    lo: Value::Bytes(vec![0, lo]),
                    hi: Value::Bytes(vec![0, hi]),
                };
                decode_ids(&cloud.handle("doc/find_ids_range", &req.encode()).unwrap()).unwrap()
            };
            assert_eq!(ids(3, 6), (3..=6).map(|i| DocId([i; 16])).collect::<Vec<_>>(), "{field}");
            assert_eq!(ids(4, 4), vec![DocId([4; 16])], "{field}");
            assert_eq!(ids(6, 3), vec![], "{field}: inverted");
            assert_eq!(ids(200, 0), vec![], "{field}: inverted, both outside the stored values");
            assert_eq!(ids(20, 30), vec![], "{field}: above every stored value");
        }
    }
}

#[test]
fn optional_sensitive_fields_may_be_absent() {
    let gw = gateway();
    let schema = Schema::new("s")
        .sensitive_field("req", FieldType::Text, true, FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]))
        .sensitive_field(
            "opt",
            FieldType::Text,
            false,
            FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
        );
    gw.register_schema(schema).unwrap();
    let id = gw.insert("s", &Document::new("x").with("req", Value::from("r"))).unwrap();
    let got = gw.get("s", id).unwrap();
    assert_eq!(got.get("req"), Some(&Value::from("r")));
    assert_eq!(got.get("opt"), None);
    // Searching the optional field still works (no hits).
    assert!(gw.find_equal("s", "opt", &Value::from("nope")).unwrap().is_empty());
}
