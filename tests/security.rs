//! Adversarial integration tests: what the untrusted zone sees, and how
//! the system fails when the cloud misbehaves.

use std::sync::{Arc, Mutex};

use datablinder::codec::{Reader, Writer};
use datablinder::core::cloud::CloudEngine;
use datablinder::core::cloudproto::{Fetch, GetMany, Idempotent};
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::wire::{decode_document, decode_documents, encode_document, encode_value, ABSENT};
use datablinder::core::CoreError;
use datablinder::docstore::{DocStore, Document, Filter, Value};
use datablinder::fhir::{example_observation, observation_schema};
use datablinder::kms::Kms;
use datablinder::netsim::{Channel, CloudService, LatencyModel, NetError};
use datablinder::sse::DocId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sensitive plaintext strings from the example document.
const SECRETS: [&str; 4] = ["John Doe", "John Smith", "final", "glucose"];

fn contains_secret(bytes: &[u8]) -> Option<&'static str> {
    SECRETS.iter().copied().find(|s| bytes.windows(s.len()).any(|w| w == s.as_bytes()))
}

#[test]
fn cloud_stores_see_no_plaintext() {
    let cloud = CloudEngine::new();
    let docs = cloud.docs().clone();
    let kv = cloud.kv().clone();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(1);
    let gw = GatewayEngine::new("sec", Kms::generate(&mut rng), channel, 1);
    gw.register_schema(observation_schema()).unwrap();
    gw.insert("observation", &example_observation()).unwrap();

    // Document store: every stored field value must be free of secrets.
    for doc in docs.collection("observation").find(&Filter::All) {
        for (field, value) in doc.iter() {
            let rendered = match value {
                Value::Str(s) => s.clone().into_bytes(),
                Value::Bytes(b) => b.clone(),
                other => format!("{other:?}").into_bytes(),
            };
            if field == "identifier" || field == "interpretation" {
                continue; // plaintext by annotation
            }
            assert_eq!(contains_secret(&rendered), None, "secret leaked into docstore field {field}");
        }
    }

    // KV store (secure indexes): neither keys nor values may contain secrets.
    for key in kv.keys_with_prefix(b"") {
        assert_eq!(contains_secret(&key), None, "secret leaked into kv key");
        if let Some(v) = kv.get(&key) {
            assert_eq!(contains_secret(&v), None, "secret leaked into kv value");
        }
    }
}

#[test]
fn wire_traffic_carries_no_plaintext_for_protected_fields() {
    // A recording wrapper around the cloud engine inspects every frame.
    struct Recorder {
        inner: CloudEngine,
    }
    impl CloudService for Recorder {
        fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
            // `subject` is protected by Mitra + RND: its plaintext must
            // never cross the channel. (status/code travel as DET/BIEX
            // tokens; identifier/interpretation are plaintext by policy.)
            assert_eq!(
                contains_secret(payload).filter(|s| *s == "John Doe" || *s == "John Smith"),
                None,
                "protected plaintext on the wire at route {route}"
            );
            self.inner.handle(route, payload)
        }
    }
    let channel = Channel::connect(Recorder { inner: CloudEngine::new() }, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(2);
    let gw = GatewayEngine::new("sec", Kms::generate(&mut rng), channel, 2);
    gw.register_schema(observation_schema()).unwrap();
    let id = gw.insert("observation", &example_observation()).unwrap();
    gw.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();
    gw.get("observation", id).unwrap();
}

#[test]
fn tampered_ciphertexts_fail_closed() {
    let cloud = CloudEngine::new();
    let docs = cloud.docs().clone();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(3);
    let gw = GatewayEngine::new("sec", Kms::generate(&mut rng), channel, 3);
    gw.register_schema(observation_schema()).unwrap();
    let id = gw.insert("observation", &example_observation()).unwrap();

    // The cloud flips a bit in a stored payload ciphertext.
    let coll = docs.collection("observation");
    let mut stored = coll.find(&Filter::All).pop().unwrap();
    let Some(Value::Bytes(ct)) = stored.get("subject__rnd").cloned() else {
        panic!("expected subject__rnd ciphertext");
    };
    let mut tampered = ct.clone();
    tampered[ct.len() / 2] ^= 1;
    stored.set("subject__rnd", Value::Bytes(tampered));
    coll.update(stored).unwrap();

    // Decryption must fail loudly, not return corrupted data.
    assert!(gw.get("observation", id).is_err());
}

/// Two patients' records over a cloud the test can rewrite: `diagnosis`
/// has an RND payload only, `owner` a Mitra index beside its RND payload,
/// `tag` a BIEX index beside its RND payload, and `level` a DET payload
/// beside an OPE index.
fn two_patients(seed: u64) -> (GatewayEngine, DocStore, [DocId; 2]) {
    use datablinder::core::model::{FieldAnnotation, FieldOp::*, FieldType, ProtectionClass::*, Schema};
    let field = |class, ops: &[_]| FieldAnnotation::new(class, ops.to_vec());
    let schema = Schema::new("ward")
        .sensitive_field("owner", FieldType::Text, true, field(C2, &[Insert, Equality]))
        .sensitive_field("diagnosis", FieldType::Text, true, field(C1, &[Insert]))
        .sensitive_field("tag", FieldType::Text, true, field(C3, &[Insert, Equality, Boolean]))
        .sensitive_field("level", FieldType::Integer, true, field(C5, &[Insert, Equality, Range]));
    let cloud = CloudEngine::new();
    let docs = cloud.docs().clone();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let gw = GatewayEngine::new("sec", Kms::generate(&mut StdRng::seed_from_u64(seed)), channel, seed);
    gw.register_schema(schema).unwrap();
    let payload = |f| gw.selection("ward", f).unwrap().payload;
    assert_eq!(
        [payload("owner"), payload("diagnosis"), payload("tag"), payload("level")],
        ["rnd", "rnd", "rnd", "det"]
    );
    let patient = |owner: &str, diagnosis: &str, level: i64| {
        let doc = Document::new("x")
            .with("owner", Value::from(owner))
            .with("diagnosis", Value::from(diagnosis))
            .with("tag", Value::from("ward-7"))
            .with("level", Value::from(level));
        gw.insert("ward", &doc).unwrap()
    };
    let ids = [patient("alice", "healthy", 1), patient("bob", "cancer", 2)];
    (gw, docs, ids)
}

/// Acting as the cloud: swaps the stored values of `shadow` between the two
/// documents, each keeping its own id.
fn swap_stored(docs: &DocStore, ids: [DocId; 2], shadow: &str) {
    let coll = docs.collection("ward");
    let [mut a, mut b] = ids.map(|id| coll.get(&id.to_hex()).unwrap());
    let (va, vb) = (a.remove(shadow).unwrap(), b.remove(shadow).unwrap());
    coll.update(a.with(shadow, vb)).unwrap();
    coll.update(b.with(shadow, va)).unwrap();
}

/// An RND payload is sealed for its collection, field and document, so a
/// cloud that swaps one field's ciphertexts between two documents (or
/// serves one document's stored fields under the other's id) is caught by
/// authentication on every read: `get`, each `find_*` route, and `fsck`.
#[test]
fn an_rnd_payload_swapped_between_documents_is_refused_on_every_read() {
    let (gw, cloud, [alice, bob]) = two_patients(41);
    let dnf = vec![vec![("tag".to_string(), Value::from("ward-7"))]];
    type Read<'a> = (&'a str, Box<dyn Fn() -> Result<Vec<Document>, CoreError> + 'a>);
    let reads: [Read<'_>; 8] = [
        ("get alice", Box::new(|| gw.get("ward", alice).map(|doc| vec![doc]))),
        ("get bob", Box::new(|| gw.get("ward", bob).map(|doc| vec![doc]))),
        ("find_equal by Mitra", Box::new(|| gw.find_equal("ward", "owner", &Value::from("alice")))),
        ("find_equal by DET", Box::new(|| gw.find_equal("ward", "level", &Value::from(2)))),
        ("find_boolean", Box::new(|| gw.find_boolean("ward", &dnf))),
        ("find_range", Box::new(|| gw.find_range("ward", "level", &Value::from(0), &Value::from(5)))),
        ("find_extreme", Box::new(|| gw.find_extreme("ward", "level", true).map(|doc| doc.into_iter().collect()))),
        ("fsck", Box::new(|| gw.fsck("ward").map(|_| Vec::new()))),
    ];
    for (name, read) in &reads {
        assert!(read().is_ok(), "{name}: faithful answers first");
    }
    assert_eq!(gw.get("ward", alice).unwrap().get("diagnosis"), Some(&Value::from("healthy")));

    swap_stored(&cloud, [alice, bob], "diagnosis__rnd");
    for (name, read) in &reads {
        let err = read().expect_err(&format!("{name} accepted a swapped payload"));
        assert!(matches!(err, CoreError::Sse(_)), "{name}: {err}");
    }
    swap_stored(&cloud, [alice, bob], "diagnosis__rnd");
    assert_eq!(gw.get("ward", alice).unwrap().get("diagnosis"), Some(&Value::from("healthy")), "swapped back");

    // Bob's stored document served as alice's: every payload in it is
    // bound to bob's id.
    let coll = cloud.collection("ward");
    let mut as_alice = Document::new(alice.to_hex());
    for (name, value) in coll.get(&bob.to_hex()).unwrap().iter() {
        as_alice.set(name, value.clone());
    }
    coll.update(as_alice).unwrap();
    let err = gw.get("ward", alice).expect_err("another document's fields under alice's id");
    assert!(matches!(err, CoreError::Sse(_)), "{err}");
}

/// The residual binding cannot close: a DET payload must stay one
/// ciphertext per value across documents for the cloud to match it, so it
/// carries no document id, and a swap between two documents opens as the
/// other document's value without an error (DESIGN.md §20). Pinned so that
/// a change to it is deliberate.
#[test]
fn a_det_payload_swapped_between_documents_opens_as_the_other_value() {
    let (gw, cloud, [alice, bob]) = two_patients(42);
    swap_stored(&cloud, [alice, bob], "level__det");
    assert_eq!(gw.get("ward", alice).unwrap().get("level"), Some(&Value::from(2)));
    assert_eq!(gw.get("ward", bob).unwrap().get("level"), Some(&Value::from(1)));
    // DET equality matches the stored ciphertext itself, so it follows the
    // swap; the OPE index beside it does not, and `fsck` sees the two
    // disagree.
    let by_det = gw.find_equal("ward", "level", &Value::from(2)).unwrap();
    assert_eq!(by_det.len(), 1);
    assert_eq!(by_det[0].get("owner"), Some(&Value::from("alice")));
    let by_ope = gw.find_range("ward", "level", &Value::from(2), &Value::from(2)).unwrap();
    assert_eq!(by_ope.len(), 1);
    assert_eq!(by_ope[0].get("owner"), Some(&Value::from("bob")), "the OPE index still names bob");
    assert_eq!(by_ope[0].get("level"), Some(&Value::from(1)), "whose payload now opens as alice's value");
    assert!(!gw.fsck("ward").unwrap().is_clean());
}

/// How a [`ForgingCloud`] rewrites a stored document on its way out. A
/// search answers by position onto the gateway's keep list, with no names,
/// so there the forgeries act on positions.
#[derive(Clone, Copy, Debug)]
enum Forgery {
    /// The payload ciphertext of `subject` swapped for `Null`.
    WrongType,
    /// `subject__rnd` sent twice, the second time as `Null`: were the later
    /// one to win, the field would vanish. By position: the ciphertext once
    /// more after the last kept value.
    DuplicateName,
    /// The first two fields swapped; by position, the first two values.
    OutOfOrder,
    /// The document cut short inside its last value.
    TruncatedValue,
    /// One bit of the `subject` ciphertext flipped.
    FlippedBit,
}

/// A cloud that stores faithfully and lies on the way back: every document
/// in a `doc/get`, `doc/get_many` or `doc/fetch` answer goes through the
/// armed forgery.
struct ForgingCloud {
    inner: CloudEngine,
    armed: Arc<Mutex<Option<Forgery>>>,
}

impl ForgingCloud {
    fn forge(forgery: Forgery, stored: &[u8]) -> Vec<u8> {
        let doc = decode_document(stored).unwrap();
        let mut fields: Vec<(String, Value)> = doc.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
        let subject = fields.iter().position(|(n, _)| n == "subject__rnd").expect("a payload shadow to forge");
        match forgery {
            Forgery::WrongType => fields[subject].1 = Value::Null,
            Forgery::DuplicateName => fields.insert(subject + 1, ("subject__rnd".into(), Value::Null)),
            Forgery::OutOfOrder => fields.swap(0, 1),
            Forgery::FlippedBit => {
                let Value::Bytes(ct) = &mut fields[subject].1 else { panic!("payload shadows hold bytes") };
                let middle = ct.len() / 2;
                ct[middle] ^= 1;
            }
            Forgery::TruncatedValue => {}
        }
        // `encode_document` cannot write what a `Document` cannot hold — a
        // repeated or misplaced name — so the same layout by hand.
        let mut w = Writer::new();
        w.str(doc.id()).u32(fields.len() as u32);
        for (name, value) in &fields {
            let mut encoded = Vec::new();
            encode_value(value, &mut encoded);
            w.str(name).raw(&encoded);
        }
        let mut out = w.finish();
        if let Forgery::TruncatedValue = forgery {
            out.truncate(out.len() - 3);
        }
        out
    }

    /// `doc` answered by position onto `keep`, forged.
    fn forge_positional(forgery: Forgery, doc: &Document, keep: &[&str]) -> Vec<u8> {
        let encoded = |value: &Value| {
            let mut out = Vec::new();
            encode_value(value, &mut out);
            out
        };
        let mut values: Vec<Vec<u8>> =
            keep.iter().map(|name| doc.get(name).map_or_else(|| vec![ABSENT], encoded)).collect();
        let subject = keep.iter().position(|name| *name == "subject__rnd").expect("a payload shadow to forge");
        match forgery {
            Forgery::WrongType => values[subject] = encoded(&Value::Null),
            Forgery::DuplicateName => values.push(values[subject].clone()),
            Forgery::OutOfOrder => values.swap(0, 1),
            Forgery::FlippedBit => {
                let Some(Value::Bytes(ct)) = doc.get("subject__rnd") else { panic!("payload shadows hold bytes") };
                let mut ct = ct.clone();
                let middle = ct.len() / 2;
                ct[middle] ^= 1;
                values[subject] = encoded(&Value::Bytes(ct));
            }
            Forgery::TruncatedValue => {}
        }
        let mut w = Writer::new();
        w.str(doc.id());
        for value in &values {
            w.raw(value);
        }
        let mut out = w.finish();
        if let Forgery::TruncatedValue = forgery {
            out.truncate(out.len() - 3);
        }
        out
    }
}

impl CloudService for ForgingCloud {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let Some(forgery) = *self.armed.lock().unwrap() else { return self.inner.handle(route, payload) };
        // A fetch answers as `get_many` does: the stored documents whole,
        // then forged by position onto the request's keep list.
        let (answer, keep) = match route {
            "doc/get_many" => {
                let req = GetMany::decode(payload).unwrap();
                let keep = req.keep.clone();
                (self.inner.handle(route, &GetMany { keep: Vec::new(), ..req }.encode())?, keep)
            }
            "doc/fetch" => {
                let req = Fetch::decode(payload).unwrap();
                let keep = req.keep.clone();
                (self.inner.handle(route, &Fetch { keep: Vec::new(), ..req }.encode())?, keep)
            }
            "doc/get" => return Ok(Self::forge(forgery, &self.inner.handle(route, payload)?)),
            _ => return self.inner.handle(route, payload),
        };
        let docs: Vec<Vec<u8>> = decode_documents(&answer)
            .unwrap()
            .iter()
            .map(|doc| match keep.as_slice() {
                [] => Self::forge(forgery, &encode_document(doc)),
                keep => Self::forge_positional(forgery, doc, keep),
            })
            .collect();
        let mut w = Writer::new();
        w.list(&docs);
        Ok(w.finish())
    }
}

#[test]
fn a_cloud_that_rewrites_its_answers_gets_an_error_never_a_shorter_document() {
    let armed = Arc::new(Mutex::new(None));
    let cloud = ForgingCloud { inner: CloudEngine::new(), armed: Arc::clone(&armed) };
    let mut rng = StdRng::seed_from_u64(31);
    let gw = GatewayEngine::new("sec", Kms::generate(&mut rng), Channel::connect(cloud, LatencyModel::instant()), 31);
    gw.register_schema(observation_schema()).unwrap();
    let id = gw.insert("observation", &example_observation()).unwrap();
    gw.insert("observation", &example_observation()).unwrap();

    let subject = Value::from("John Doe");
    let when = Value::from(1359966610i64);
    let dnf = vec![vec![("status".to_string(), Value::from("final")), ("code".to_string(), Value::from("glucose"))]];
    type Read<'a> = (&'a str, Box<dyn Fn() -> Result<Vec<Document>, CoreError> + 'a>);
    let reads: [Read<'_>; 5] = [
        ("get", Box::new(|| gw.get("observation", id).map(|doc| vec![doc]))),
        ("find_equal", Box::new(|| gw.find_equal("observation", "subject", &subject))),
        ("find_boolean", Box::new(|| gw.find_boolean("observation", &dnf))),
        ("find_range", Box::new(|| gw.find_range("observation", "effective", &when, &when))),
        ("fsck", Box::new(|| gw.fsck("observation").map(|_| Vec::new()))),
    ];

    // Faithful answers first: whole documents, so a forged one that came
    // back `Ok` below could only be a shorter one.
    let fields = example_observation().len();
    for (name, read) in &reads[..4] {
        let docs = read().unwrap();
        assert!(!docs.is_empty() && docs.iter().all(|doc| doc.len() == fields), "{name}");
    }
    assert!(gw.fsck("observation").unwrap().is_clean());

    for forgery in
        [Forgery::WrongType, Forgery::DuplicateName, Forgery::OutOfOrder, Forgery::TruncatedValue, Forgery::FlippedBit]
    {
        *armed.lock().unwrap() = Some(forgery);
        for (name, read) in &reads {
            let err = read().expect_err(&format!("{name} accepted a {forgery:?} answer"));
            let by_position = name.starts_with("find");
            match forgery {
                // Authentication, not parsing, catches a changed ciphertext,
                // and, by position, two swapped ones: each reaches another
                // field's key.
                Forgery::FlippedBit => assert!(matches!(err, CoreError::Sse(_)), "{name}, {forgery:?}: {err}"),
                Forgery::OutOfOrder if by_position => {
                    assert!(matches!(err, CoreError::Sse(_)), "{name}, {forgery:?}: {err}")
                }
                _ => assert!(matches!(err, CoreError::Wire(_)), "{name}, {forgery:?}: {err}"),
            }
        }
    }
    *armed.lock().unwrap() = None;
    assert_eq!(gw.get("observation", id).unwrap().get("subject"), Some(&subject));
}

/// How a [`BatchForgingCloud`] rewrites the answer to a batch.
#[derive(Clone, Copy, Debug)]
enum BatchForgery {
    /// Bytes after the list of answers.
    Trailing,
    /// One answer more than there were calls.
    ExtraAnswer,
    /// The last answer left out.
    MissingAnswer,
}

/// A cloud that runs every batch faithfully and forges its answer: a write
/// group's `batch` (inside its idempotency envelope) and a query's
/// `batch/read` alike.
struct BatchForgingCloud {
    inner: CloudEngine,
    armed: Arc<Mutex<Option<BatchForgery>>>,
}

impl CloudService for BatchForgingCloud {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let answer = self.inner.handle(route, payload)?;
        let batch = route == "batch/read"
            || (route == "idem" && Idempotent::decode(payload).is_ok_and(|env| env.route == "batch"));
        let (true, Some(forgery)) = (batch, *self.armed.lock().unwrap()) else { return Ok(answer) };
        let mut answers: Vec<Vec<u8>> = Reader::new(&answer).list().unwrap().into_iter().map(<[u8]>::to_vec).collect();
        match forgery {
            BatchForgery::ExtraAnswer => answers.push(Vec::new()),
            BatchForgery::MissingAnswer => drop(answers.pop()),
            BatchForgery::Trailing => {}
        }
        let mut w = Writer::new();
        w.list(&answers);
        let mut out = w.finish();
        if let BatchForgery::Trailing = forgery {
            out.extend_from_slice(b"tail");
        }
        Ok(out)
    }
}

#[test]
fn a_forged_batch_answer_is_a_wire_error() {
    let armed = Arc::new(Mutex::new(None));
    let cloud = BatchForgingCloud { inner: CloudEngine::new(), armed: Arc::clone(&armed) };
    let mut rng = StdRng::seed_from_u64(32);
    let gw = GatewayEngine::new("sec", Kms::generate(&mut rng), Channel::connect(cloud, LatencyModel::instant()), 32);
    gw.register_schema(observation_schema()).unwrap();
    gw.insert("observation", &example_observation()).unwrap();
    let dnf = vec![vec![("status".to_string(), Value::from("final")), ("code".to_string(), Value::from("glucose"))]];
    assert_eq!(gw.find_boolean("observation", &dnf).unwrap().len(), 1, "faithful answers first");

    for forgery in [BatchForgery::Trailing, BatchForgery::ExtraAnswer, BatchForgery::MissingAnswer] {
        *armed.lock().unwrap() = Some(forgery);
        let write = gw.insert("observation", &example_observation()).unwrap_err();
        assert!(matches!(write, CoreError::Wire(_)), "write batch, {forgery:?}: {write}");
        let read = gw.find_boolean("observation", &dnf).unwrap_err();
        assert!(matches!(read, CoreError::Wire(_)), "read batch, {forgery:?}: {read}");
    }
}

#[test]
fn foreign_gateway_cannot_read_anothers_data() {
    // Two gateways with different KMS master keys over the same cloud:
    // gateway B must not be able to decrypt or find gateway A's data.
    let cloud = CloudEngine::new();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(4);

    let gw_a = GatewayEngine::new("tenant-a", Kms::generate(&mut rng), channel.clone(), 4);
    gw_a.register_schema(observation_schema()).unwrap();
    let id = gw_a.insert("observation", &example_observation()).unwrap();

    let gw_b = GatewayEngine::new("tenant-b", Kms::generate(&mut rng), channel, 5);
    gw_b.register_schema(observation_schema()).unwrap();
    // B's search tokens are keyed differently: no hits.
    let hits = gw_b.find_equal("observation", "subject", &Value::from("John Doe")).unwrap();
    assert!(hits.is_empty());
    // B fetching A's document by id cannot decrypt the payload.
    assert!(gw_b.get("observation", id).is_err());
}

#[test]
fn rnd_hides_equality_det_reveals_it() {
    // The leakage difference between class 1 and class 4, observable in
    // the cloud store: equal performer values (RND) have distinct
    // ciphertexts; equal status values (DET) have equal ciphertexts.
    let cloud = CloudEngine::new();
    let docs = cloud.docs().clone();
    let channel = Channel::connect(cloud, LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(5);
    let gw = GatewayEngine::new("leak", Kms::generate(&mut rng), channel, 6);
    gw.register_schema(datablinder::workload::clients::bench_schema()).unwrap();

    let base = example_observation();
    gw.insert("observation", &base).unwrap();
    gw.insert("observation", &base).unwrap();

    let stored = docs.collection("observation").find(&Filter::All);
    assert_eq!(stored.len(), 2);
    let det_a = stored[0].get("status__det").unwrap();
    let det_b = stored[1].get("status__det").unwrap();
    assert_eq!(det_a, det_b, "DET must reveal equality (that is its function)");
    let rnd_a = stored[0].get("performer__rnd").unwrap();
    let rnd_b = stored[1].get("performer__rnd").unwrap();
    assert_ne!(rnd_a, rnd_b, "RND must hide equality");
}

// ------------------------------------------- boundary & property round-trips
//
// Plain seeded loops (no property-testing framework in the build): the
// tactic stack must preserve order and additive structure at the i64
// boundaries, with negatives and duplicates, and the sharded index
// substrate must be observationally identical to an unsharded one.

/// Engine-level order preservation: OPE's sign-flip mapping must keep
/// i64::MIN/MAX, negatives, zero and duplicates in plaintext order for
/// range search and min/max.
#[test]
fn range_search_is_exact_at_i64_boundaries() {
    use datablinder::core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
    use datablinder::docstore::Document;

    let schema = Schema::new("edges").sensitive_field(
        "score",
        FieldType::Integer,
        true,
        FieldAnnotation::new(ProtectionClass::C5, vec![FieldOp::Insert, FieldOp::Range]).with_aggs(vec![AggFn::Sum]),
    );
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0xB0B0);
    let gw = GatewayEngine::new("edges", Kms::generate(&mut rng), channel, 0xB0B0);
    gw.register_schema(schema).unwrap();

    // Duplicates on both extremes and at zero.
    let values = [i64::MIN, i64::MIN, i64::MIN + 1, -2, -1, 0, 0, 1, 2, i64::MAX - 1, i64::MAX, i64::MAX];
    let mut by_value: Vec<(i64, String)> = Vec::new();
    for v in values {
        let id = gw.insert("edges", &Document::new("x").with("score", Value::from(v))).unwrap();
        by_value.push((v, id.to_hex()));
    }

    let sorted = |docs: Vec<datablinder::docstore::Document>| {
        let mut ids: Vec<String> = docs.iter().map(|d| d.id().to_string()).collect();
        ids.sort();
        ids
    };
    for (lo, hi) in [
        (i64::MIN, i64::MAX),         // everything
        (i64::MIN, i64::MIN),         // point query at the bottom
        (i64::MAX, i64::MAX),         // point query at the top
        (i64::MIN, -1),               // strictly negative
        (0, i64::MAX),                // non-negative
        (i64::MIN + 1, i64::MAX - 1), // excluding the extremes
        (-1, 1),                      // straddling the sign boundary
    ] {
        let got = sorted(gw.find_range("edges", "score", &Value::from(lo), &Value::from(hi)).unwrap());
        let mut expect: Vec<String> =
            by_value.iter().filter(|(v, _)| (lo..=hi).contains(v)).map(|(_, id)| id.clone()).collect();
        expect.sort();
        assert_eq!(got, expect, "range [{lo}, {hi}]");
    }

    // Cloud-side min/max agree with the plaintext extremes.
    let min = gw.find_extreme("edges", "score", false).unwrap().unwrap();
    assert_eq!(min.get("score"), Some(&Value::from(i64::MIN)));
    let max = gw.find_extreme("edges", "score", true).unwrap().unwrap();
    assert_eq!(max.get("score"), Some(&Value::from(i64::MAX)));
}

/// Primitive-level order preservation for both OPE and the two ORE
/// schemes, over a seeded sample salted with the u64 boundaries and
/// duplicated points.
#[test]
fn ope_and_ore_preserve_order_on_seeded_boundary_sample() {
    use datablinder::ope::{Ope, OpeParams};
    use datablinder::ore::{ClwwOre, Comparison, LewiWuOre};
    use datablinder::primitives::keys::SymmetricKey;
    use rand::Rng;

    let mut rng = StdRng::seed_from_u64(0x0DE0);
    let mut sample: Vec<u64> = vec![0, 1, 2, u64::MAX - 1, u64::MAX, 1 << 63, (1 << 63) - 1];
    sample.extend((0..12).map(|_| rng.gen::<u64>()));
    sample.push(sample[5]); // a seeded duplicate

    let ope = Ope::new(SymmetricKey::from_bytes(&[7u8; 32]), OpeParams::default());
    let clww = ClwwOre::new(SymmetricKey::from_bytes(&[8u8; 32]));
    let lewi = LewiWuOre::new(SymmetricKey::from_bytes(&[9u8; 32]));

    for (i, &a) in sample.iter().enumerate() {
        for &b in &sample[i..] {
            let expect = Comparison::from(a.cmp(&b));
            assert_eq!(Comparison::from(ope.encrypt(a).cmp(&ope.encrypt(b))), expect, "ope order for ({a}, {b})");
            assert_eq!(ClwwOre::compare(&clww.encrypt(a), &clww.encrypt(b)), expect, "clww order for ({a}, {b})");
            assert_eq!(
                LewiWuOre::compare_left_right(&lewi.encrypt_left(a), &lewi.encrypt_right(b)),
                expect,
                "lewi-wu order for ({a}, {b})"
            );
        }
    }
}

/// Additive homomorphism through the whole stack, at the aggregable
/// boundary: the engine fixed-point-scales by 1000 before Paillier
/// encryption, so the aggregable domain is ±(i64::MAX / 1000); its two
/// extremes must cancel exactly, with negatives and duplicates riding
/// along. (The sums are small, so the f64 comparisons are strict.)
#[test]
fn paillier_sum_is_exact_across_sign_boundaries() {
    use datablinder::bigint::BigUint;
    use datablinder::core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
    use datablinder::docstore::Document;
    use datablinder::paillier::Keypair;

    let schema = Schema::new("ledger").sensitive_field(
        "amount",
        FieldType::Integer,
        true,
        FieldAnnotation::new(ProtectionClass::C5, vec![FieldOp::Insert]).with_aggs(vec![AggFn::Sum]),
    );
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let mut rng = StdRng::seed_from_u64(0x5A5A);
    let gw = GatewayEngine::new("ledger", Kms::generate(&mut rng), channel, 0x5A5A);
    gw.register_schema(schema).unwrap();

    // The aggregable extremes cancel to 0; negatives and duplicates ride
    // along for a total of exactly -1.
    let agg_max = i64::MAX / 1000;
    let values = [-agg_max, agg_max, 5, -3, 7, 7, -17, 0];
    for v in values {
        gw.insert("ledger", &Document::new("x").with("amount", Value::from(v))).unwrap();
    }
    let expect: i64 = values.iter().sum::<i64>();
    let sum = gw.aggregate("ledger", "amount", AggFn::Sum, None).unwrap();
    assert_eq!(sum, expect as f64, "homomorphic sum across the sign boundary at the aggregable extremes");

    // Primitive level: Enc(a)·Enc(b) decrypts to a+b exactly at the u64
    // extremes, via BigUint so nothing rounds.
    let mut rng = StdRng::seed_from_u64(0x5A5B);
    let kp = Keypair::generate(&mut rng, 512);
    let a = BigUint::from(u64::MAX);
    let b = BigUint::from(u64::MAX);
    let ca = kp.public().encrypt(&mut rng, &a).unwrap();
    let cb = kp.public().encrypt(&mut rng, &b).unwrap();
    let sum = kp.decrypt(&kp.public().add(&ca, &cb)).unwrap();
    let expect = &a + &b;
    assert_eq!(sum, expect, "Dec(Enc(u64::MAX) + Enc(u64::MAX)) == 2^65 - 2");
}

/// The sharded key-value store is observationally identical to a
/// single-shard one under the same seeded op sequence — sharding is a
/// concurrency tactic, never a semantics change.
#[test]
fn sharded_kvstore_matches_unsharded_replay() {
    use datablinder::kvstore::KvStore;
    use rand::Rng;

    let sharded = KvStore::new(); // 16 shards by default
    let single = KvStore::with_shards(1);
    assert!(sharded.shard_count() > 1);
    assert_eq!(single.shard_count(), 1);

    let mut rng = StdRng::seed_from_u64(0x5EED);
    for op in 0..2_000 {
        let key = format!("k/{}/{}", rng.gen_range(0..7u32), rng.gen_range(0..40u32)).into_bytes();
        match rng.gen_range(0..6u32) {
            0 | 1 => {
                let val = format!("v{op}").into_bytes();
                sharded.set(&key, &val);
                single.set(&key, &val);
            }
            2 => {
                assert_eq!(sharded.get(&key), single.get(&key), "get {}", String::from_utf8_lossy(&key));
            }
            3 => {
                assert_eq!(sharded.del(&key), single.del(&key));
            }
            4 => {
                // Hashes live in their own keyspace: the store enforces
                // per-key type discipline, identically on both layouts.
                let hkey = [b"h/".as_slice(), key.as_slice()].concat();
                let field = format!("f{}", rng.gen_range(0..5u32)).into_bytes();
                let val = format!("h{op}").into_bytes();
                assert_eq!(sharded.hset(&hkey, &field, &val).unwrap(), single.hset(&hkey, &field, &val).unwrap());
                // hgetall order is map-iteration order; compare as multisets.
                let mut a = sharded.hgetall(&hkey);
                let mut b = single.hgetall(&hkey);
                a.sort();
                b.sort();
                assert_eq!(a, b);
            }
            _ => {
                let prefix = format!("k/{}/", rng.gen_range(0..7u32)).into_bytes();
                let mut a = sharded.keys_with_prefix(&prefix);
                let mut b = single.keys_with_prefix(&prefix);
                a.sort();
                b.sort();
                assert_eq!(a, b, "prefix scan {}", String::from_utf8_lossy(&prefix));
            }
        }
    }
}
