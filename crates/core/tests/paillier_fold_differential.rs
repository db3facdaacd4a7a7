//! The carried Paillier product against a from-scratch fold.
//!
//! `PaillierCloud` answers a whole-collection `sum` from the product it
//! carried over from earlier sums plus the ciphertexts that arrived since.
//! That is an *optimization*: after any schedule of writes the answer must
//! be, byte for byte and count included, what multiplying every stored
//! ciphertext gives — computed here through the docstore's other read
//! (`scan` with an `Exists` filter) and `PublicKey::sum` directly.
//!
//! The schedules are seeded and the in-tree `proptest` stand-in does not
//! shrink, so a failure names its seed and step: rerun with that seed alone.

use datablinder_core::cloud::{with_collection, CloudEngine};
use datablinder_core::cloudproto::{PaillierSum, PaillierSumResponse};
use datablinder_core::wire::encode_document;
use datablinder_docstore::{Document, Filter, Value};
use datablinder_netsim::CloudService;
use datablinder_paillier::{Keypair, PublicKey};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const COLLECTION: &str = "obs";
const FIELDS: [&str; 2] = ["value__phe", "dose__phe"];

/// What a document holds under one of [`FIELDS`]: mostly a residue below
/// `n²` of the middle key, sometimes one far above every `n²`, nothing a
/// ciphertext could be, or nothing at all.
fn field_value(rng: &mut StdRng, keys: &[Keypair]) -> Option<Value> {
    let width = keys[1].public().modulus_squared().to_bytes_be().len();
    Some(match rng.gen_range(0..12) {
        0 => return None,
        1 => Value::from("not a ciphertext"),
        2 => Value::from(rng.gen::<i64>()),
        3 => Value::Bytes(vec![0xff; width + rng.gen_range(1..40)]),
        4 => Value::Bytes(Vec::new()),
        _ => {
            let mut residue = vec![0u8; width - 1];
            rng.fill_bytes(&mut residue);
            Value::Bytes(residue)
        }
    })
}

fn document(rng: &mut StdRng, keys: &[Keypair], id: &str) -> Document {
    let mut doc = Document::new(id);
    for field in FIELDS {
        if let Some(value) = field_value(rng, keys) {
            doc.set(field, value);
        }
    }
    doc
}

/// Every stored ciphertext of `field` multiplied together, from scratch.
fn oracle(engine: &CloudEngine, key: &PublicKey, field: &str) -> PaillierSumResponse {
    let mut count = 0u64;
    let product = engine.docs().collection(COLLECTION).scan(&Filter::Exists(field.into()), |docs| {
        key.sum(docs.filter_map(|doc| doc.get(field).and_then(Value::as_bytes)).inspect(|_| count += 1))
    });
    PaillierSumResponse { ciphertext: product.map(|c| c.to_bytes()).unwrap_or_default(), count }
}

fn run_schedule(seed: u64, keys: &[Keypair]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = CloudEngine::new();
    let mut ids: Vec<String> = Vec::new();
    let mut minted = 0u32;
    let mut key = 0usize;
    for step in 0..rng.gen_range(1..48) {
        let what = match rng.gen_range(0..16) {
            0..=6 => {
                minted += 1;
                let id = format!("d{minted}");
                let doc = document(&mut rng, keys, &id);
                engine.handle("doc/insert", &with_collection(COLLECTION, &encode_document(&doc))).unwrap();
                ids.push(id);
                "insert"
            }
            7 | 8 if !ids.is_empty() => {
                let id = &ids[rng.gen_range(0..ids.len())];
                let doc = document(&mut rng, keys, id);
                engine.handle("doc/update", &with_collection(COLLECTION, &encode_document(&doc))).unwrap();
                "update"
            }
            9 | 10 if !ids.is_empty() => {
                let id = ids.swap_remove(rng.gen_range(0..ids.len()));
                engine.handle("doc/delete", &with_collection(COLLECTION, id.as_bytes())).unwrap();
                "delete"
            }
            11 => {
                engine.docs().drop_collection(COLLECTION);
                ids.clear();
                "drop and recreate"
            }
            12 => {
                key = rng.gen_range(0..keys.len());
                "another modulus"
            }
            _ => "nothing",
        };
        for field in FIELDS {
            let req = PaillierSum {
                collection: COLLECTION.into(),
                field: field.into(),
                modulus: keys[key].public().to_bytes(),
                ids: Vec::new(),
            };
            let answered = engine.handle("tactic/paillier/scope/sum", &req.encode()).unwrap();
            let expected = oracle(&engine, keys[key].public(), field);
            assert_eq!(
                PaillierSumResponse::decode(&answered).unwrap(),
                expected,
                "seed {seed}, step {step} ({what}), field {field}, {} documents",
                ids.len()
            );
        }
    }
}

#[test]
fn carried_sum_equals_a_fresh_fold_after_every_step() {
    let mut rng = StdRng::seed_from_u64(0xF01D);
    let keys: Vec<Keypair> = [64, 128, 192].iter().map(|&bits| Keypair::generate(&mut rng, bits)).collect();
    for seed in 0..1_000 {
        run_schedule(seed, &keys);
    }
}
