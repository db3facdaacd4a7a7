//! Crypto-agility integration tests: tactic deprecation re-routing, the
//! ORE fallback path, and key rotation with live re-encryption.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use datablinder::core::cloud::CloudEngine;
use datablinder::core::gateway::{GatewayEngine, PendingWriteReport};
use datablinder::core::model::*;
use datablinder::core::registry::TacticRegistry;
use datablinder::core::CoreError;
use datablinder::docstore::{Document, Filter, Value};
use datablinder::kms::Kms;
use datablinder::kvstore::KvStore;
use datablinder::netsim::{
    Channel, CloudServer, CloudService, LatencyModel, NetError, ResilienceConfig, ResilientChannel, RetryPolicy,
    ServerConfig, TcpChannel, TcpConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn range_schema() -> Schema {
    Schema::new("events").sensitive_field(
        "at",
        FieldType::Integer,
        true,
        FieldAnnotation::new(ProtectionClass::C5, vec![FieldOp::Insert, FieldOp::Range]),
    )
}

#[test]
fn ore_serves_ranges_when_ope_is_deprecated() {
    // An OPE-reconstruction attack is published: the operator pulls OPE.
    let mut registry = TacticRegistry::with_builtins();
    assert!(registry.deprecate("ope"));
    let selection = registry
        .select("at", &FieldAnnotation::new(ProtectionClass::C5, vec![FieldOp::Insert, FieldOp::Range]))
        .unwrap();
    assert_eq!(selection.search_tactics, vec!["ore"], "ORE takes over range duty");

    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x0AE);
    let gw = GatewayEngine::with_registry("agile", Kms::generate(&mut rng), channel, 1, registry);
    gw.register_schema(range_schema()).unwrap();

    for t in [100i64, 200, 300, 400] {
        gw.insert("events", &Document::new("x").with("at", Value::from(t))).unwrap();
    }
    let hits = gw.find_range("events", "at", &Value::from(150i64), &Value::from(350i64)).unwrap();
    assert_eq!(hits.len(), 2);
    let mut values: Vec<i64> = hits.iter().map(|d| d.get("at").unwrap().as_i64().unwrap()).collect();
    values.sort();
    assert_eq!(values, vec![200, 300]);
}

#[test]
fn payload_key_rotation_reencrypts_documents() {
    let cloud = CloudEngine::new();
    let docs = cloud.docs().clone();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x0707);
    let gw = GatewayEngine::new("rotate", Kms::generate(&mut rng), channel, 2);

    let schema = Schema::new("vault").sensitive_field(
        "secret",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]),
    );
    gw.register_schema(schema).unwrap();

    let mut ids = Vec::new();
    for i in 0..5 {
        let id = gw.insert("vault", &Document::new("x").with("secret", Value::from(format!("payload-{i}")))).unwrap();
        ids.push(id);
    }
    // Snapshot the ciphertexts before rotation.
    let before: Vec<Vec<u8>> = docs
        .collection("vault")
        .find(&Filter::All)
        .iter()
        .map(|d| d.get("secret__rnd").unwrap().as_bytes().unwrap().to_vec())
        .collect();

    let version = gw.rotate_payload_key("vault", "secret").unwrap();
    assert_eq!(version, 1);

    // Every ciphertext changed...
    let after: Vec<Vec<u8>> = docs
        .collection("vault")
        .find(&Filter::All)
        .iter()
        .map(|d| d.get("secret__rnd").unwrap().as_bytes().unwrap().to_vec())
        .collect();
    for a in &after {
        assert!(!before.contains(a), "ciphertext not re-encrypted");
    }
    // ...and every plaintext still decrypts with the post-rotation engine.
    for (i, id) in ids.iter().enumerate() {
        let doc = gw.get("vault", *id).unwrap();
        assert_eq!(doc.get("secret"), Some(&Value::from(format!("payload-{i}"))));
    }
    // New inserts use the rotated key and coexist with re-encrypted data.
    let id = gw.insert("vault", &Document::new("x").with("secret", Value::from("fresh"))).unwrap();
    assert_eq!(gw.get("vault", id).unwrap().get("secret"), Some(&Value::from("fresh")));
}

#[test]
fn rotation_of_det_keeps_equality_search_consistent() {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x0708);
    let gw = GatewayEngine::new("rotate-det", Kms::generate(&mut rng), channel, 3);
    let schema = Schema::new("cards").sensitive_field(
        "kind",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C4, vec![FieldOp::Insert, FieldOp::Equality]),
    );
    gw.register_schema(schema).unwrap();

    for kind in ["visa", "visa", "amex"] {
        gw.insert("cards", &Document::new("x").with("kind", Value::from(kind))).unwrap();
    }
    assert_eq!(gw.find_equal("cards", "kind", &Value::from("visa")).unwrap().len(), 2);

    gw.rotate_payload_key("cards", "kind").unwrap();

    // Searches after rotation use fresh tokens against re-encrypted
    // shadow fields: results unchanged.
    assert_eq!(gw.find_equal("cards", "kind", &Value::from("visa")).unwrap().len(), 2);
    assert_eq!(gw.find_equal("cards", "kind", &Value::from("amex")).unwrap().len(), 1);
    // And inserts after rotation land in the same searchable space.
    gw.insert("cards", &Document::new("x").with("kind", Value::from("visa"))).unwrap();
    assert_eq!(gw.find_equal("cards", "kind", &Value::from("visa")).unwrap().len(), 3);
}

#[test]
fn zmf_variant_serves_boolean_when_2lev_deprecated() {
    let mut registry = TacticRegistry::with_builtins();
    registry.deprecate("biex-2lev");
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x0709);
    let gw = GatewayEngine::with_registry("zmf", Kms::generate(&mut rng), channel, 4, registry);
    let schema = Schema::new("posts")
        .sensitive_field(
            "tag",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean]),
        )
        .sensitive_field(
            "lang",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean]),
        );
    gw.register_schema(schema).unwrap();
    assert_eq!(gw.selection("posts", "tag").unwrap().search_tactics, vec!["biex-zmf"]);

    gw.insert("posts", &Document::new("x").with("tag", Value::from("rust")).with("lang", Value::from("en"))).unwrap();
    gw.insert("posts", &Document::new("x").with("tag", Value::from("rust")).with("lang", Value::from("nl"))).unwrap();
    gw.insert("posts", &Document::new("x").with("tag", Value::from("java")).with("lang", Value::from("en"))).unwrap();

    let dnf = vec![vec![("tag".to_string(), Value::from("rust")), ("lang".to_string(), Value::from("en"))]];
    assert_eq!(gw.find_boolean("posts", &dnf).unwrap().len(), 1);
}

#[test]
fn index_key_rotation_rebuilds_searchable_index() {
    let cloud = CloudEngine::new();
    let kv = cloud.kv().clone();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x1D0);
    let gw = GatewayEngine::new("rotidx", Kms::generate(&mut rng), channel, 9);
    let schema = Schema::new("notes").sensitive_field(
        "owner",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
    );
    gw.register_schema(schema).unwrap();
    for owner in ["ann", "ann", "bob"] {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(owner))).unwrap();
    }
    let entries_before: Vec<Vec<u8>> = kv.keys_with_prefix(b"t/mitra/notes:owner/");
    assert!(!entries_before.is_empty());
    assert_eq!(gw.find_equal("notes", "owner", &Value::from("ann")).unwrap().len(), 2);

    let version = gw.rotate_index_key("notes", "owner").unwrap();
    assert_eq!(version, 1);

    // The index was rebuilt: same cardinality, all-new addresses.
    let entries_after: Vec<Vec<u8>> = kv.keys_with_prefix(b"t/mitra/notes:owner/");
    assert_eq!(entries_after.len(), entries_before.len());
    for e in &entries_after {
        assert!(!entries_before.contains(e), "index entry not re-keyed");
    }
    // Searches under the new key see everything...
    assert_eq!(gw.find_equal("notes", "owner", &Value::from("ann")).unwrap().len(), 2);
    assert_eq!(gw.find_equal("notes", "owner", &Value::from("bob")).unwrap().len(), 1);
    // ...and new inserts chain onto the rotated index.
    gw.insert("notes", &Document::new("x").with("owner", Value::from("ann"))).unwrap();
    assert_eq!(gw.find_equal("notes", "owner", &Value::from("ann")).unwrap().len(), 3);
}

/// The gateway decrypts through payload-tactic handles its schema plan
/// resolved at registration. Rotation rebuilds tactic instances; every
/// search and point read afterwards must decrypt *content* correctly —
/// through those same handles — for the rotated field and its neighbours.
#[test]
fn searches_and_reads_decrypt_correctly_after_every_rotation() {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x1D2);
    let gw = GatewayEngine::new("rotplan", Kms::generate(&mut rng), channel, 11);
    let schema = Schema::new("notes")
        .plain_field("seq", FieldType::Integer, true)
        .sensitive_field(
            "owner", // Mitra index, RND payload
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
        )
        .sensitive_field(
            "kind", // DET index and payload
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C4, vec![FieldOp::Insert, FieldOp::Equality]),
        );
    gw.register_schema(schema).unwrap();
    assert_eq!(gw.selection("notes", "owner").unwrap().payload, "rnd");
    assert_eq!(gw.selection("notes", "kind").unwrap().payload, "det");

    let mut stored = Vec::new();
    for (seq, (owner, kind)) in [("ann", "memo"), ("ann", "todo"), ("bob", "memo")].into_iter().enumerate() {
        let doc = Document::new("x")
            .with("seq", Value::from(seq as i64))
            .with("owner", Value::from(owner))
            .with("kind", Value::from(kind));
        stored.push((gw.insert("notes", &doc).unwrap(), doc));
    }
    let check = |stage: &str| {
        let fields = |d: &Document| d.iter().map(|(f, v)| (f.to_string(), v.clone())).collect::<Vec<_>>();
        for (id, doc) in &stored {
            assert_eq!(fields(&gw.get("notes", *id).unwrap()), fields(doc), "{stage}: get");
        }
        for (field, value) in [("owner", "ann"), ("owner", "bob"), ("kind", "memo"), ("kind", "todo")] {
            let mut hits: Vec<_> =
                gw.find_equal("notes", field, &Value::from(value)).unwrap().iter().map(fields).collect();
            let mut expect: Vec<_> = stored
                .iter()
                .filter(|(_, d)| d.get(field) == Some(&Value::from(value)))
                .map(|(_, d)| fields(d))
                .collect();
            // Fields iterate in name order: kind, owner, seq.
            hits.sort_by(|a, b| a[2].1.total_cmp(&b[2].1));
            expect.sort_by(|a, b| a[2].1.total_cmp(&b[2].1));
            assert_eq!(hits, expect, "{stage}: find_equal {field}={value}");
        }
    };
    check("before any rotation");
    gw.rotate_payload_key("notes", "owner").unwrap();
    check("after rotating the RND payload key of owner");
    gw.rotate_index_key("notes", "owner").unwrap();
    check("after rotating the Mitra index key of owner");
    gw.rotate_payload_key("notes", "kind").unwrap();
    check("after rotating the DET key of kind");
    gw.rotate_payload_key("notes", "owner").unwrap();
    check("after a second RND rotation");
}

#[test]
fn index_rotation_rejects_non_index_tactics() {
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x1D1);
    let gw = GatewayEngine::new("rotidx2", Kms::generate(&mut rng), channel, 10);
    let schema = Schema::new("cards").sensitive_field(
        "kind",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C4, vec![FieldOp::Insert, FieldOp::Equality]),
    );
    gw.register_schema(schema).unwrap();
    // DET is a payload tactic: rotate_payload_key is the right flow.
    assert!(gw.rotate_index_key("cards", "kind").is_err());
}

/// A cloud that counts the sealed write calls it receives and refuses them,
/// with a timeout, once its write budget is spent.
struct WriteMeter {
    inner: CloudEngine,
    writes: AtomicU64,
    write_budget: AtomicI64,
}

impl CloudService for WriteMeter {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        if route == "idem" {
            self.writes.fetch_add(1, Ordering::SeqCst);
            if self.write_budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
                return Err(NetError::Timeout);
            }
        }
        self.inner.handle(route, payload)
    }
}

/// A gateway whose channel never retries, over a [`WriteMeter`], with the
/// Mitra-indexed `notes` schema registered and `owners` inserted.
fn metered_gateway(owners: &[&str]) -> (Arc<WriteMeter>, GatewayEngine) {
    let svc = Arc::new(WriteMeter {
        inner: CloudEngine::new(),
        writes: AtomicU64::new(0),
        write_budget: AtomicI64::new(i64::MAX),
    });
    let config = ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() };
    let gw = GatewayEngine::with_resilience(
        "rotmeter",
        Kms::generate(&mut StdRng::seed_from_u64(0x1D3)),
        ResilientChannel::new(Channel::from_arc(svc.clone(), LatencyModel::instant()), config),
        12,
    );
    let schema = Schema::new("notes").sensitive_field(
        "owner",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
    );
    gw.register_schema(schema).unwrap();
    for owner in owners {
        gw.insert("notes", &Document::new("x").with("owner", Value::from(*owner))).unwrap();
    }
    (svc, gw)
}

#[test]
fn payload_rotation_ships_one_write() {
    let (svc, gw) = metered_gateway(&["ann", "ann", "bob", "cy", "dee"]);
    let before = svc.writes.load(Ordering::SeqCst);
    gw.rotate_payload_key("notes", "owner").unwrap();
    assert_eq!(svc.writes.load(Ordering::SeqCst) - before, 1, "five documents rewritten in one write group");
    assert_eq!(gw.find_equal("notes", "owner", &Value::from("ann")).unwrap().len(), 2);
}

#[test]
fn payload_rotation_larger_than_a_frame_ships_in_bounded_groups() {
    // Eight 200 kB documents are more than one 1.5 MiB frame holds, so the
    // rewrite cannot travel as one call over this TCP transport: it goes
    // out as two write groups of at most 1 MiB each (five documents, then
    // three).
    const FRAME: u32 = 3 << 19;
    const DOCS: usize = 8;
    const LEN: usize = 200_000;
    assert!(DOCS * LEN > FRAME as usize);
    let svc = Arc::new(WriteMeter {
        inner: CloudEngine::new(),
        writes: AtomicU64::new(0),
        write_budget: AtomicI64::new(i64::MAX),
    });
    let server = CloudServer::bind("127.0.0.1:0", svc.clone(), ServerConfig { max_frame: FRAME, workers: 2 })
        .expect("bind loopback");
    let transport = TcpChannel::connect(server.local_addr(), TcpConfig { max_frame: FRAME }).expect("loopback resolve");
    let config = ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() };
    let gw = GatewayEngine::with_resilience(
        "rotframe",
        Kms::generate(&mut StdRng::seed_from_u64(0x1D4)),
        ResilientChannel::over(Arc::new(transport), config),
        13,
    );
    let schema = Schema::new("vault").sensitive_field(
        "secret",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C1, vec![FieldOp::Insert]),
    );
    gw.register_schema(schema).unwrap();
    let value = |i: usize| Value::from(format!("{i}").repeat(LEN));
    let ids: Vec<_> =
        (0..DOCS).map(|i| gw.insert("vault", &Document::new("x").with("secret", value(i))).unwrap()).collect();

    let before = svc.writes.load(Ordering::SeqCst);
    assert_eq!(gw.rotate_payload_key("vault", "secret").unwrap(), 1);
    assert_eq!(svc.writes.load(Ordering::SeqCst) - before, 2, "five documents, then three");
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(gw.get("vault", *id).unwrap().get("secret"), Some(&value(i)), "document {i}");
    }
}

#[test]
fn refused_rewrite_group_stays_journaled_with_every_group_after_it() {
    // Twelve 200 kB owners rewrite as three groups (five, five, two). The
    // second is refused: it and the third are still journaled, so
    // recovery finishes the rotation.
    let owners: Vec<String> = (0..12).map(|i| format!("{i:x}").repeat(200_000)).collect();
    let (svc, mut gw) = metered_gateway(&owners.iter().map(String::as_str).collect::<Vec<_>>());
    gw.enable_write_journal(KvStore::new());
    svc.write_budget.store(1, Ordering::SeqCst);
    let err = gw.rotate_payload_key("notes", "owner").unwrap_err();
    assert!(matches!(err, CoreError::Net(NetError::Timeout)), "{err}");
    assert_eq!(gw.pending_writes(), 2, "the refused group and the one after it");

    svc.write_budget.store(i64::MAX, Ordering::SeqCst);
    let report = gw.recover_pending().unwrap();
    assert_eq!(report, PendingWriteReport { entries: 2, rolled_forward: 2, failed: 0, failures: Vec::new() });
    let fsck = gw.fsck("notes").unwrap();
    assert!(fsck.is_clean() && fsck.docs_checked == owners.len(), "{fsck:?}");
}

#[test]
fn refused_index_rotation_rolls_forward_from_the_journal() {
    let owners = ["ann", "ann", "bob", "cy"];
    let (svc, mut gw) = metered_gateway(&owners);
    gw.enable_write_journal(KvStore::new());
    svc.write_budget.store(0, Ordering::SeqCst);
    let err = gw.rotate_index_key("notes", "owner").unwrap_err();
    assert!(matches!(err, CoreError::Net(NetError::Timeout)), "{err}");
    assert_eq!(gw.pending_writes(), 1, "the scope wipe and the re-index are one pending entry");

    svc.write_budget.store(i64::MAX, Ordering::SeqCst);
    let report = gw.recover_pending().unwrap();
    assert_eq!(report, PendingWriteReport { entries: 1, rolled_forward: 1, failed: 0, failures: Vec::new() });
    for owner in ["ann", "bob", "cy"] {
        let expect = owners.iter().filter(|o| **o == owner).count();
        assert_eq!(gw.find_equal("notes", "owner", &Value::from(owner)).unwrap().len(), expect, "{owner}");
    }
    let fsck = gw.fsck("notes").unwrap();
    assert!(fsck.is_clean(), "{fsck:?}");
}
