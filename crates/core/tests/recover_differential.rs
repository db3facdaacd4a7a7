//! Differential oracle for the gateway's one-pass recover: what `get` makes
//! of a stored document must be what the sequence it replaced made of it —
//! decode the whole document, look each payload shadow up by name, decrypt,
//! drop the shadows, put the values back — which is written out below as
//! `decode_then_recover`. A search reads the same documents by position
//! onto the schema's keep list (here its four payload shadows), and must
//! return exactly the payloads' plaintexts.
//!
//! The stored documents are seeded random ones no gateway would write but
//! every cloud may send: payload shadows missing, index-only shadows of any
//! type, plaintext fields of every `Value` tag (nested too), a plaintext
//! field under a sensitive field's own name. A fake cloud serves them; the
//! oracle opens the ciphertexts with tactic instances of its own, built
//! over the same KMS.

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

/// Two DET payloads (one beside an OPE index) and two RND payloads (one
/// beside a Mitra index).
fn schema() -> Schema {
    use FieldOp::*;
    let field = |class, ops: &[FieldOp]| FieldAnnotation::new(class, ops.to_vec());
    Schema::new(SCHEMA)
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

/// What `SchemaPlan::recover_document` and the `Document`-taking
/// `GatewayTactic::recover` did until ISSUE 23, step for step, for a
/// document read as `id`.
fn decode_then_recover(stored: &[u8], id: DocId, payloads: &[Payload]) -> Result<Document, CoreError> {
    let mut stored = decode_document(stored)?;
    let mut recovered = Vec::new();
    for p in payloads {
        if let Some(Value::Bytes(ciphertext)) = stored.get(&p.shadow) {
            recovered.push((p.field, p.tactic.recover(id, ciphertext, &mut Vec::new())?));
        }
    }
    stored.retain(|name, _| !name.rsplit_once("__").is_some_and(|(base, _)| payloads.iter().any(|p| p.field == base)));
    for (field, value) in recovered {
        stored.set(field, value);
    }
    Ok(stored)
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
    for name in ["a", "note", "meta__x", "alpha_", "gamma_ope", "zz"] {
        if rng.gen::<f64>() < 0.4 {
            stored.set(name, random_value(rng, 3, tags));
        }
    }
    stored
}

#[test]
fn streaming_recover_equals_decode_then_recover_on_seeded_stored_documents() {
    let kms = Kms::generate(&mut StdRng::seed_from_u64(1));

    // A cloud that answers every read with the documents the test put in
    // `served`; the writes (the schema's indexes, one sealed batch) go to an
    // engine of their own, which acknowledges them.
    let served: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
    let cloud = {
        let served = Arc::clone(&served);
        let writes = CloudEngine::new();
        move |route: &str, payload: &[u8]| -> Result<Vec<u8>, NetError> {
            let served = served.lock().unwrap();
            Ok(match route {
                "idem" => writes.handle(route, payload)?,
                "doc/get" => served[0].clone(),
                "doc/get_many" => projected(&served, &GetMany::decode(payload).unwrap().keep),
                "doc/fetch" => projected(&served, &Fetch::decode(payload).unwrap().keep),
                "doc/find_ids_eq" => encode_ids(&vec![DocId([7; 16]); served.len()]),
                _ => Vec::new(),
            })
        }
    };
    let gw = GatewayEngine::new("app", kms.clone(), Channel::connect(cloud, LatencyModel::instant()), 2);
    gw.register_schema(schema()).unwrap();

    let mut payloads: Vec<Payload> = ["alpha", "beta", "delta", "gamma"]
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
    let by_payload: BTreeMap<&str, usize> = payloads.iter().fold(BTreeMap::new(), |mut counts, p| {
        *counts.entry(p.shadow.rsplit_once("__").unwrap().1).or_default() += 1;
        counts
    });
    assert_eq!(by_payload, BTreeMap::from([("det", 2), ("rnd", 2)]), "both payload tactics are under test");

    let mut rng = StdRng::seed_from_u64(23);
    let mut tags = [0usize; 8];
    for case in 0..400 {
        let batch: Vec<Vec<u8>> = (0..rng.gen_range(1..5))
            .map(|_| encode_document(&random_stored(&mut rng, &mut payloads, &mut tags)))
            .collect();
        let ids: Vec<DocId> =
            batch.iter().map(|stored| DocId::from_hex(decode_document(stored).unwrap().id()).unwrap()).collect();
        let expect: Vec<Document> =
            batch.iter().zip(&ids).map(|(stored, &id)| decode_then_recover(stored, id, &payloads).unwrap()).collect();
        *served.lock().unwrap() = batch.clone();
        assert_eq!(gw.get(SCHEMA, ids[0]).unwrap(), expect[0], "case {case}: get");
        let searched: Vec<Document> = batch
            .iter()
            .zip(&ids)
            .map(|(stored, &id)| {
                let stored = decode_document(stored).unwrap();
                let mut doc = Document::new(stored.id());
                for p in &payloads {
                    if let Some(Value::Bytes(ciphertext)) = stored.get(&p.shadow) {
                        doc.set(p.field, p.tactic.recover(id, ciphertext, &mut Vec::new()).unwrap());
                    }
                }
                doc
            })
            .collect();
        assert_eq!(gw.find_equal(SCHEMA, "alpha", &Value::from("x")).unwrap(), searched, "case {case}: fetch");

        // What neither accepts: every strict prefix, and a trailing byte.
        if case % 40 == 0 {
            let whole = &batch[0];
            for cut in 0..whole.len() {
                assert!(
                    decode_then_recover(&whole[..cut], ids[0], &payloads).is_err(),
                    "case {case}: oracle took cut {cut}"
                );
                *served.lock().unwrap() = vec![whole[..cut].to_vec()];
                assert!(gw.get(SCHEMA, ids[0]).is_err(), "case {case}: get took cut {cut}");
            }
            let mut longer = whole.clone();
            longer.push(0);
            assert!(decode_then_recover(&longer, ids[0], &payloads).is_err());
            *served.lock().unwrap() = vec![longer];
            assert!(gw.get(SCHEMA, ids[0]).is_err(), "case {case}: get took a trailing byte");
        }
    }
    assert!(tags.iter().all(|&n| n > 50), "every Value tag was generated: {tags:?}");
}
