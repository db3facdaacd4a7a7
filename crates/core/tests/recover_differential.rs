//! Differential oracle for the gateway's one document opener: what `get`
//! and a search make of a stored document must be what the schema's keep
//! list makes of it, written out below as `keep_then_recover` — decode the
//! whole document, open each payload shadow by name, copy the one plain
//! field when it has its type, leave every other name behind. `get` reads
//! the named document (`doc/get`); a search reads it by position onto the
//! keep list (`doc/get_many`, `doc/fetch`); both must agree on every
//! document.
//!
//! The stored documents are seeded random ones no gateway would write but
//! every cloud may send: payload shadows missing, index-only shadows of any
//! type, the plain field and names outside the schema with values of every
//! `Value` tag (nested too), a plaintext field under a sensitive field's
//! own name. A fake cloud serves them; the oracle opens the ciphertexts
//! with tactic instances of its own, built over the same KMS.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use datablinder_codec::Writer;
use datablinder_core::cloud::CloudEngine;
use datablinder_core::cloudproto::{Fetch, GetMany};
use datablinder_core::gateway::GatewayEngine;
use datablinder_core::model::{FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
use datablinder_core::spi::GatewayTactic;
use datablinder_core::tactics::det::DetTactic;
use datablinder_core::tactics::rnd::RndTactic;
use datablinder_core::tactics::{encode_ids, shadow_field, TacticContext};
use datablinder_core::wire::{decode_document, encode_document, encode_value, ABSENT};
use datablinder_core::CoreError;
use datablinder_docstore::{Document, Value};
use datablinder_kms::Kms;
use datablinder_netsim::{Channel, CloudService, LatencyModel, NetError};
use datablinder_sse::DocId;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SCHEMA: &str = "records";

/// The schema's plain field.
const PLAIN: &str = "note";

/// Two DET payloads (one beside an OPE index), two RND payloads (one
/// beside a Mitra index) and one plain text field.
fn schema() -> Schema {
    use FieldOp::*;
    let field = |class, ops: &[FieldOp]| FieldAnnotation::new(class, ops.to_vec());
    Schema::new(SCHEMA)
        .plain_field(PLAIN, FieldType::Text, false)
        .sensitive_field("alpha", FieldType::Text, false, field(ProtectionClass::C4, &[Insert, Equality]))
        .sensitive_field("beta", FieldType::Text, false, field(ProtectionClass::C1, &[Insert]))
        .sensitive_field("gamma", FieldType::Integer, false, field(ProtectionClass::C5, &[Insert, Equality, Range]))
        .sensitive_field("delta", FieldType::Text, false, field(ProtectionClass::C2, &[Insert, Equality]))
}

/// The oracle's half of a sensitive field: its payload shadow and a tactic
/// instance that opens it.
struct Payload {
    field: &'static str,
    shadow: String,
    tactic: Box<dyn GatewayTactic>,
}

/// What the gateway makes of a stored document read as `id`, written
/// with whole documents: the keep list's names only — each payload shadow
/// opened, the plain field copied when it has its type — and a payload
/// that is not bytes or a plain field of another type is
/// [`CoreError::Wire`].
fn keep_then_recover(stored: &[u8], id: DocId, payloads: &[Payload]) -> Result<Document, CoreError> {
    let stored = decode_document(stored)?;
    let mut doc = Document::new(stored.id());
    for p in payloads {
        match stored.get(&p.shadow) {
            None => {}
            Some(Value::Bytes(ciphertext)) => {
                doc.set(p.field, p.tactic.recover(id, ciphertext, &mut Vec::new())?);
            }
            Some(_) => return Err(CoreError::Wire("payload")),
        }
    }
    match stored.get(PLAIN) {
        None => {}
        Some(value @ Value::Str(_)) => {
            doc.set(PLAIN, value.clone());
        }
        Some(_) => return Err(CoreError::Wire("plain")),
    }
    Ok(doc)
}

/// A search answer: each stored document by position onto `keep`.
fn projected(served: &[Vec<u8>], keep: &[&str]) -> Vec<u8> {
    let mut w = Writer::new();
    w.list_with(served, |stored, w| {
        let stored = decode_document(stored).unwrap();
        w.str(stored.id());
        for name in keep {
            let mut value = Vec::new();
            match stored.get(name) {
                Some(v) => encode_value(v, &mut value),
                None => value.push(ABSENT),
            }
            w.raw(&value);
        }
    });
    w.finish()
}

/// A random value of any of the eight tags; containers nest up to `depth`.
fn random_value(rng: &mut StdRng, depth: usize, tags: &mut [usize; 8]) -> Value {
    let tag = rng.gen_range(0..if depth == 0 { 6 } else { 8 });
    tags[tag] += 1;
    match tag {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::I64(rng.gen()),
        // Finite, so that `assert_eq!` on documents means what it says.
        3 => Value::F64(rng.gen_range(-1.0e9..1.0e9)),
        4 => Value::Str(random_text(rng)),
        5 => Value::Bytes(random_bytes(rng, 40)),
        6 => Value::Array((0..rng.gen_range(0..4)).map(|_| random_value(rng, depth - 1, tags)).collect()),
        _ => Value::Object(
            (0..rng.gen_range(0..4)).map(|_| (random_text(rng), random_value(rng, depth - 1, tags))).collect(),
        ),
    }
}

fn random_text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..12)).map(|_| char::from(rng.gen_range(b'a'..=b'z'))).collect()
}

fn random_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let mut bytes = vec![0; rng.gen_range(0..=max)];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// One stored document as some cloud might send it.
fn random_stored(rng: &mut StdRng, payloads: &mut [Payload], tags: &mut [usize; 8]) -> Document {
    let mut id = [0u8; 16];
    rng.fill_bytes(&mut id);
    let mut stored = Document::new(DocId(id).to_hex());
    for p in payloads {
        if rng.gen::<f64>() < 0.75 {
            let plain = if p.field == "gamma" { Value::I64(rng.gen()) } else { Value::Str(random_text(rng)) };
            let protected = p.tactic.protect(rng, p.field, &plain, DocId(id)).unwrap();
            assert_eq!(protected.stored.len(), 1, "a payload tactic stores its ciphertext and nothing else");
            for (shadow, ciphertext) in protected.stored {
                assert_eq!(&*shadow, p.shadow);
                stored.set(shadow, ciphertext);
            }
        }
        // Index-only shadows: an OPE-like ciphertext, a shadow of whatever
        // type under a suffix no built-in tactic uses.
        if rng.gen::<f64>() < 0.5 {
            stored.set(shadow_field(p.field, "ope"), Value::Bytes(random_bytes(rng, 16)));
        }
        if rng.gen::<f64>() < 0.3 {
            stored.set(shadow_field(p.field, "idx"), random_value(rng, 2, tags));
        }
        // The sensitive field's own name, in the clear.
        if rng.gen::<f64>() < 0.1 {
            stored.set(p.field, random_value(rng, 1, tags));
        }
    }
    // The plain field: of its type half the time, else of any.
    if rng.gen::<f64>() < 0.6 {
        let value = if rng.gen::<f64>() < 0.5 { Value::Str(random_text(rng)) } else { random_value(rng, 3, tags) };
        stored.set(PLAIN, value);
    }
    for name in ["a", "meta__x", "alpha_", "gamma_ope", "zz"] {
        if rng.gen::<f64>() < 0.4 {
            stored.set(name, random_value(rng, 3, tags));
        }
    }
    stored
}

/// The stored documents a fake cloud serves.
type Served = Arc<Mutex<Vec<Vec<u8>>>>;

/// A gateway over a cloud that answers every read with the documents the
/// test put in `Served`: `doc/get` with the one stored under the id asked
/// for (or, when none decodes under it, the first), a search with all of
/// them by position onto its keep list. The writes (the schema's indexes,
/// one sealed batch) go to an engine of their own, which acknowledges them.
/// With the gateway come the oracle's payload tactics, built over the same
/// KMS.
fn fake_cloud() -> (GatewayEngine, Served, Vec<Payload>) {
    let kms = Kms::generate(&mut StdRng::seed_from_u64(1));
    let served: Served = Arc::default();
    let cloud = {
        let served = Arc::clone(&served);
        let writes = CloudEngine::new();
        move |route: &str, payload: &[u8]| -> Result<Vec<u8>, NetError> {
            let served = served.lock().unwrap();
            Ok(match route {
                "idem" => writes.handle(route, payload)?,
                "doc/get" => {
                    let asked = std::str::from_utf8(&payload[4 + SCHEMA.len()..]).unwrap();
                    let named = |stored: &&Vec<u8>| decode_document(stored).is_ok_and(|doc| doc.id() == asked);
                    served.iter().find(named).unwrap_or(&served[0]).clone()
                }
                "doc/get_many" => projected(&served, &GetMany::decode(payload).unwrap().keep),
                "doc/fetch" => projected(&served, &Fetch::decode(payload).unwrap().keep),
                "doc/find_ids_eq" => encode_ids(&vec![DocId([7; 16]); served.len()]),
                _ => Vec::new(),
            })
        }
    };
    let gw = GatewayEngine::new("app", kms.clone(), Channel::connect(cloud, LatencyModel::instant()), 2);
    gw.register_schema(schema()).unwrap();

    let payloads: Vec<Payload> = ["alpha", "beta", "delta", "gamma"]
        .into_iter()
        .map(|field| {
            let ctx = TacticContext {
                application: "app".into(),
                schema: SCHEMA.into(),
                scope: field.into(),
                kms: kms.clone(),
            };
            let payload = gw.selection(SCHEMA, field).unwrap().payload;
            let tactic: Box<dyn GatewayTactic> = match payload.as_str() {
                "det" => Box::new(DetTactic::build(&ctx).unwrap()),
                "rnd" => Box::new(RndTactic::build(&ctx).unwrap()),
                other => panic!("{field}: payload tactic {other}"),
            };
            Payload { field, shadow: shadow_field(field, &payload), tactic }
        })
        .collect();
    (gw, served, payloads)
}

/// Asserts that a read came out as `expect` did: the same document, or a
/// [`CoreError::Wire`] on both sides.
fn assert_same(got: Result<Document, CoreError>, expect: &Result<Document, CoreError>, what: &str) {
    match (got, expect) {
        (Ok(got), Ok(expect)) => assert_eq!(&got, expect, "{what}"),
        (Err(CoreError::Wire(_)), Err(CoreError::Wire(_))) => {}
        (got, expect) => panic!("{what}: got {got:?}, expected {expect:?}"),
    }
}

/// The one document a search over a lone stored document returns.
fn searched_alone(gw: &GatewayEngine) -> Result<Document, CoreError> {
    gw.find_equal(SCHEMA, "alpha", &Value::from("x")).map(|mut docs| {
        assert_eq!(docs.len(), 1, "a search over one stored document");
        docs.remove(0)
    })
}

#[test]
fn get_and_search_equal_keep_then_recover_on_seeded_stored_documents() {
    let (gw, served, mut payloads) = fake_cloud();
    let by_payload: BTreeMap<&str, usize> = payloads.iter().fold(BTreeMap::new(), |mut counts, p| {
        *counts.entry(p.shadow.rsplit_once("__").unwrap().1).or_default() += 1;
        counts
    });
    assert_eq!(by_payload, BTreeMap::from([("det", 2), ("rnd", 2)]), "both payload tactics are under test");

    let mut rng = StdRng::seed_from_u64(23);
    let mut tags = [0usize; 8];
    let (mut plain_copied, mut plain_refused) = (0, 0);
    for case in 0..400 {
        let batch: Vec<Vec<u8>> = (0..rng.gen_range(1..5))
            .map(|_| encode_document(&random_stored(&mut rng, &mut payloads, &mut tags)))
            .collect();
        let ids: Vec<DocId> =
            batch.iter().map(|stored| DocId::from_hex(decode_document(stored).unwrap().id()).unwrap()).collect();
        let expect: Vec<Result<Document, CoreError>> =
            batch.iter().zip(&ids).map(|(stored, &id)| keep_then_recover(stored, id, &payloads)).collect();
        for expect in &expect {
            match expect {
                Ok(doc) if doc.get(PLAIN).is_some() => plain_copied += 1,
                Err(_) => plain_refused += 1,
                Ok(_) => {}
            }
        }

        // `get` and a search over that one document agree with the oracle,
        // and so with each other.
        for ((stored, &id), expect) in batch.iter().zip(&ids).zip(&expect) {
            *served.lock().unwrap() = vec![stored.clone()];
            assert_same(gw.get(SCHEMA, id), expect, &format!("case {case}: get"));
            assert_same(searched_alone(&gw), expect, &format!("case {case}: search"));
        }
        // A search over the whole batch: every document, or the refusal.
        *served.lock().unwrap() = batch.clone();
        let searched = gw.find_equal(SCHEMA, "alpha", &Value::from("x"));
        match expect.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(expect) => assert_eq!(searched.unwrap(), expect, "case {case}: fetch"),
            Err(_) => assert!(matches!(searched, Err(CoreError::Wire(_))), "case {case}: fetch {searched:?}"),
        }

        // What neither accepts: every strict prefix, and a trailing byte.
        if case % 40 == 0 {
            let whole = &batch[0];
            for cut in 0..whole.len() {
                assert!(
                    keep_then_recover(&whole[..cut], ids[0], &payloads).is_err(),
                    "case {case}: oracle took cut {cut}"
                );
                *served.lock().unwrap() = vec![whole[..cut].to_vec()];
                assert!(gw.get(SCHEMA, ids[0]).is_err(), "case {case}: get took cut {cut}");
            }
            let mut longer = whole.clone();
            longer.push(0);
            assert!(keep_then_recover(&longer, ids[0], &payloads).is_err());
            *served.lock().unwrap() = vec![longer];
            assert!(gw.get(SCHEMA, ids[0]).is_err(), "case {case}: get took a trailing byte");
        }
    }
    assert!(tags.iter().all(|&n| n > 50), "every Value tag was generated: {tags:?}");
    assert!(plain_copied > 100 && plain_refused > 100, "copied {plain_copied}, refused {plain_refused}");
}

#[test]
fn get_opens_only_the_keep_list_of_the_document_it_asked_for() {
    let (gw, served, mut payloads) = fake_cloud();
    let asked = DocId([1; 16]);
    let alpha = &mut payloads[0];
    assert_eq!(alpha.field, "alpha");
    let protected =
        alpha.tactic.protect(&mut StdRng::seed_from_u64(2), "alpha", &Value::from("sealed"), asked).unwrap();
    let mut stored = Document::new(asked.to_hex())
        .with(PLAIN, Value::from("kept"))
        .with("alpha", Value::from("in the clear"))
        .with("gamma__ope", Value::Bytes(vec![9; 8]))
        .with("zz", Value::from("outside the schema"));
    for (shadow, ciphertext) in protected.stored {
        stored.set(shadow, ciphertext);
    }
    let serve = |doc: &Document| *served.lock().unwrap() = vec![encode_document(doc)];

    // Names outside the keep list stay behind; a sensitive field's value is
    // its opened payload, never a plaintext stored under its name.
    serve(&stored);
    let expect = Document::new(asked.to_hex()).with("alpha", Value::from("sealed")).with(PLAIN, Value::from("kept"));
    assert_eq!(gw.get(SCHEMA, asked).unwrap(), expect);
    assert_eq!(searched_alone(&gw).unwrap(), expect, "a search opens the same");

    // The answer to another id, which the cloud sends whole and intact.
    let other = DocId([2; 16]);
    let err = gw.get(SCHEMA, other).unwrap_err();
    assert!(matches!(err, CoreError::Wire(_)), "{err}");

    // A plain field of another type.
    for wrong in [Value::from(5i64), Value::Null, Value::Bytes(b"kept".to_vec()), Value::Array(vec![])] {
        let mut forged = stored.clone();
        forged.set(PLAIN, wrong.clone());
        serve(&forged);
        let err = gw.get(SCHEMA, asked).unwrap_err();
        assert!(matches!(err, CoreError::Wire(_)), "{wrong:?}: {err}");
    }
}
