//! The Paillier tactic adapter: cloud-side homomorphic Sum / Average.
//!
//! The gateway encrypts each numeric value (fixed-point scaled, signed
//! values encoded in `Z_n`'s upper half) into a shadow field; the cloud
//! multiplies ciphertexts — adding the plaintexts — without a decryption
//! key. Table 2 lists key management as the integration challenge: the
//! keypair lives in the KMS, and the public modulus travels inside every
//! `sum` request, so the cloud stores no key and an aggregate is one read.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use datablinder_bigint::BigUint;
use datablinder_docstore::{Cursor, DocStore, Document, Value};
use datablinder_obs::Recorder;
use datablinder_paillier::{Ciphertext, Keypair, PublicKey, RandomizerPool};
use datablinder_sse::DocId;
use rand::RngCore;

use super::{aggregable_i64, shadow_field, Shadow, TacticContext, AGG_SCALE};
use crate::cloudproto::{PaillierCombine, PaillierSum, PaillierSumResponse, RangeSelect, RangedRead};
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, CloudTactic, GatewayTactic, ProtectedField};
use crate::sync::selects_doc;

/// Default modulus size. 2048 for real deployments; moderate default so
/// benchmarks finish.
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// Obfuscators precomputed per randomizer-pool refill. The total number of
/// `r^n mod n²` obfuscators is unchanged versus computing one per
/// encryption — they are just batched off the per-value path.
const POOL_BATCH: usize = 16;

/// Descriptor for Paillier (Table 2: Sum/Average rows, 3/3 interfaces,
/// challenge "key management"). The scheme itself leaks nothing beyond
/// structure (probabilistic encryption).
pub fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "paillier".into(),
        family: "partially homomorphic encryption".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(4, 1, 3) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(5, 1, 3) },
            OpProfile { op: TacticOp::Aggregate, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(5, 1, 3) },
        ],
        serves: vec![FieldOp::Insert],
        serves_agg: vec![AggFn::Sum, AggFn::Avg, AggFn::Count],
        gateway_interfaces: 3,
        cloud_interfaces: 3,
        gateway_state: false,
    }
}

/// Gateway half of the Paillier aggregate tactic.
///
/// The tactic instance is long-lived (it persists in the gateway's tactic
/// map across channel round trips), so it amortizes the expensive pieces
/// of every encryption: the keypair's cached Montgomery contexts and a
/// [`RandomizerPool`] of precomputed `r^n mod n²` obfuscators, which the
/// pool draws through the keypair's factors (`Keypair::fresh_obfuscator`).
pub struct PaillierTactic {
    keypair: Keypair,
    pool: RandomizerPool,
    collection: String,
    route_sum: String,
    shadow: Shadow,
}

impl PaillierTactic {
    /// Builds with the default modulus size.
    ///
    /// # Errors
    ///
    /// KMS failures.
    pub fn build<R: RngCore>(ctx: &TacticContext, rng: &mut R) -> Result<Self, CoreError> {
        Self::build_with_bits(ctx, rng, DEFAULT_MODULUS_BITS)
    }

    /// Builds with an explicit modulus size; the keypair is created once
    /// per *application* (Paillier aggregates may span schemas) and cached
    /// in the KMS.
    ///
    /// # Errors
    ///
    /// KMS failures.
    pub fn build_with_bits<R: RngCore>(ctx: &TacticContext, rng: &mut R, bits: usize) -> Result<Self, CoreError> {
        let secret_name = format!("paillier/{}", ctx.application);
        let keypair = if ctx.kms.has_secret(&secret_name) {
            Keypair::from_bytes(&ctx.kms.secret(&secret_name)?)?
        } else {
            let kp = Keypair::generate(rng, bits);
            ctx.kms.put_secret(&secret_name, kp.to_bytes());
            kp
        };
        let pool = RandomizerPool::new(keypair.clone(), POOL_BATCH);
        Ok(PaillierTactic {
            keypair,
            pool,
            collection: ctx.schema.clone(),
            route_sum: ctx.route("paillier", "sum"),
            shadow: Shadow::new(ctx, "phe"),
        })
    }

    /// Encodes a signed scaled value into `Z_n` (upper half = negative).
    fn encode_plain(&self, v: i64) -> BigUint {
        let n = self.keypair.public().modulus();
        if v >= 0 {
            BigUint::from(v as u64)
        } else {
            n - &BigUint::from(v.unsigned_abs())
        }
    }

    /// Decodes a `Z_n` plaintext back to a signed value.
    ///
    /// # Errors
    ///
    /// [`CoreError::Crypto`] when the magnitude does not fit an `i64`: no
    /// sum of stored values gets there, so the cloud's answer was not one.
    fn decode_plain(&self, m: &BigUint) -> Result<i64, CoreError> {
        let n = self.keypair.public().modulus();
        let half = n / &BigUint::from(2u64);
        let decoded = if m > &half {
            (n - m).to_u64().and_then(|magnitude| 0i64.checked_sub_unsigned(magnitude))
        } else {
            m.to_u64().and_then(|v| i64::try_from(v).ok())
        };
        decoded.ok_or_else(|| CoreError::Crypto("aggregate out of range".into()))
    }
}

impl GatewayTactic for PaillierTactic {
    fn descriptor(&self) -> TacticDescriptor {
        descriptor()
    }

    fn attach_recorder(&mut self, recorder: &Recorder) {
        self.pool.set_recorder(recorder.clone());
    }

    fn protect(
        &mut self,
        rng: &mut dyn RngCore,
        field: &str,
        value: &Value,
        _id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        let scaled = aggregable_i64(value)?;
        let m = self.encode_plain(scaled);
        if self.pool.is_empty() {
            self.pool.refill(rng);
        }
        let obfuscator = self.pool.take(rng);
        let ct = self.keypair.public().encrypt_with(&m, &obfuscator)?;
        Ok(ProtectedField {
            stored: vec![(self.shadow.of(field), Value::Bytes(ct.to_bytes()))],
            index_calls: Vec::new(),
        })
    }

    fn agg_query(&mut self, field: &str, _agg: AggFn, ids: &[DocId]) -> Result<Vec<CloudCall>, CoreError> {
        let req = PaillierSum {
            collection: self.collection.clone(),
            field: shadow_field(field, "phe"),
            modulus: self.keypair.public().to_bytes(),
            ids: ids.iter().map(|id| id.to_hex()).collect(),
        };
        Ok(vec![CloudCall::new(self.route_sum.clone(), req.encode())])
    }

    fn agg_resolve(&self, agg: AggFn, responses: &[Vec<u8>]) -> Result<f64, CoreError> {
        let [response] = responses else { return Err(CoreError::Wire("paillier response arity")) };
        let resp = PaillierSumResponse::decode(response)?;
        if resp.count == 0 {
            return Ok(0.0);
        }
        let ct = Ciphertext::from_bytes(&resp.ciphertext);
        let m = self.keypair.decrypt(&ct)?;
        let sum = self.decode_plain(&m)? as f64 / AGG_SCALE;
        Ok(match agg {
            AggFn::Sum => sum,
            AggFn::Avg => sum / resp.count as f64,
            AggFn::Count => resp.count as f64,
        })
    }
}

/// Widest modulus (8192 bits) the cloud builds an evaluation context for:
/// the bytes come off the wire, and a context costs a full-width square and
/// division.
const MAX_MODULUS_BYTES: usize = 1024;

/// What earlier whole-collection sums of one field already multiplied
/// together. Derived from stored ciphertexts alone and never persisted: a
/// restart, like anything else that voids `cursor`, costs one full fold.
struct Carried {
    key: Arc<PublicKey>,
    /// The ring ranges the product is restricted to (a cluster node's
    /// `sum_ranges`); `None` for the whole collection.
    select: Option<RangeSelect>,
    /// Where the fold stopped ([`datablinder_docstore::Collection::scan_from`]).
    cursor: Cursor,
    /// The product of the field's ciphertexts before `cursor`, reduced mod
    /// `n²` ([`Ciphertext::to_bytes`] form); `None` while there are none.
    product: Option<Vec<u8>>,
    /// How many ciphertexts `product` holds.
    count: u64,
}

/// Cloud half: multiplies stored ciphertexts under the key each request
/// names. Nothing here outlives the process or is needed to answer — the
/// evaluation contexts (the `n²` Montgomery domain) and the carried
/// products are caches over the request and the stored documents.
pub struct PaillierCloud {
    docs: DocStore,
    /// Evaluation contexts by modulus bytes as sent.
    keys: Mutex<HashMap<Vec<u8>, Arc<PublicKey>>>,
    /// `(scope, collection, field)` -> what its whole-collection sum holds,
    /// under the one range selection it was last asked for.
    carried: Mutex<HashMap<(String, String, String), Arc<Carried>>>,
    obs: RwLock<Recorder>,
}

impl PaillierCloud {
    /// Creates the handler over the cloud's document store.
    pub fn new(docs: DocStore) -> Self {
        PaillierCloud {
            docs,
            keys: Mutex::new(HashMap::new()),
            carried: Mutex::new(HashMap::new()),
            obs: RwLock::new(Recorder::default()),
        }
    }

    /// The evaluation context for `modulus`, built on first sight.
    fn key(&self, modulus: &[u8]) -> Result<Arc<PublicKey>, CoreError> {
        if modulus.len() > MAX_MODULUS_BYTES {
            return Err(CoreError::Crypto("paillier modulus too wide".into()));
        }
        if let Some(key) = self.keys.lock().unwrap_or_else(PoisonError::into_inner).get(modulus) {
            return Ok(key.clone());
        }
        let key = Arc::new(PublicKey::from_bytes(modulus)?);
        self.keys.lock().unwrap_or_else(PoisonError::into_inner).insert(modulus.to_vec(), key.clone());
        Ok(key)
    }

    /// The whole-collection sum — or, with `select`, the sum over the
    /// documents routing into its ranges: the carried product times the
    /// ciphertexts of the selected documents that arrived since, which is
    /// the product of them all whenever nothing is carried.
    fn sum_collection(
        &self,
        scope: &str,
        req: &PaillierSum,
        select: Option<RangeSelect>,
        key: &Arc<PublicKey>,
    ) -> PaillierSumResponse {
        let slot = (scope.to_string(), req.collection.clone(), req.field.clone());
        let held = self
            .carried
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&slot)
            .filter(|c| c.key == *key && c.select == select)
            .cloned();
        let since = held.as_ref().map(|c| c.cursor).unwrap_or_default();
        let (cursor, (skipped, carried, product, count)) =
            self.docs.collection(&req.collection).scan_from(since, |skipped, docs| {
                let carried = held.as_deref().filter(|_| skipped > 0);
                let mut selected =
                    docs.filter(|doc| select.as_ref().is_none_or(|s| selects_doc(s, &req.collection, doc.id())));
                let (product, fresh) = fold(key, &req.field, carried.and_then(|c| c.product.as_deref()), &mut selected);
                let carried = carried.map_or(0, |c| c.count);
                (skipped, carried, product, carried + fresh)
            });
        let obs = self.obs.read().unwrap_or_else(PoisonError::into_inner);
        obs.count("cloud.paillier.fold.carried", carried);
        if held.as_ref().is_none_or(|c| skipped < c.cursor.position()) {
            obs.count("cloud.paillier.fold.rescans", 1);
        }
        if held.is_none_or(|c| c.cursor != cursor) {
            let carried = Carried { key: key.clone(), select, cursor, product: product.clone(), count };
            self.carried.lock().unwrap_or_else(PoisonError::into_inner).insert(slot, Arc::new(carried));
        }
        PaillierSumResponse { ciphertext: product.unwrap_or_default(), count }
    }
}

/// Multiplies `carried` and the `field` ciphertexts of `docs` together
/// under `key`; also returns how many documents contributed one.
fn fold<'a, 'd: 'a>(
    key: &PublicKey,
    field: &str,
    carried: Option<&'a [u8]>,
    docs: &'a mut dyn Iterator<Item = &'d Document>,
) -> (Option<Vec<u8>>, u64) {
    let mut count = 0u64;
    let stored = docs.filter_map(|doc| match doc.get(field) {
        Some(Value::Bytes(ct)) => Some(ct.as_slice()),
        _ => None,
    });
    let product = key.sum(carried.into_iter().chain(stored.inspect(|_| count += 1)));
    (product.map(|c| c.to_bytes()), count)
}

impl CloudTactic for PaillierCloud {
    fn name(&self) -> &'static str {
        "paillier"
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        *self.obs.write().unwrap_or_else(PoisonError::into_inner) = recorder.clone();
    }

    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        match op {
            "sum" => {
                let req = PaillierSum::decode(payload)?;
                let key = self.key(&req.modulus)?;
                if req.ids.is_empty() {
                    return Ok(self.sum_collection(scope, &req, None, &key).encode());
                }
                let ids = req.ids.iter().map(String::as_str);
                let (product, count) =
                    self.docs.collection(&req.collection).lookup(ids, |docs| fold(&key, &req.field, None, docs));
                Ok(PaillierSumResponse { ciphertext: product.unwrap_or_default(), count }.encode())
            }
            "sum_ranges" => {
                // A cluster node's share of a whole-collection sum: the
                // documents in the ring ranges it serves first.
                let ranged = RangedRead::decode(payload)?;
                let req = PaillierSum::decode(&ranged.request)?;
                if !req.ids.is_empty() {
                    return Err(CoreError::Wire("ranged sum names ids"));
                }
                let key = self.key(&req.modulus)?;
                Ok(self.sum_collection(scope, &req, Some(ranged.select), &key).encode())
            }
            "combine" => {
                // Folds per-replica partial sums into one accumulator: a
                // clustered cloud computes `sum` on each document partition
                // and any node merges the partials — homomorphic addition
                // needs only the public modulus, which the request carries.
                let req = PaillierCombine::decode(payload)?;
                let key = self.key(&req.modulus)?;
                let parts =
                    req.partials.iter().map(|p| PaillierSumResponse::decode(p)).collect::<Result<Vec<_>, _>>()?;
                let count = parts.iter().fold(0u64, |n, p| n.saturating_add(p.count));
                let sum = key.sum(parts.iter().map(|p| p.ciphertext.as_slice()).filter(|ct| !ct.is_empty()));
                Ok(PaillierSumResponse { ciphertext: sum.map(|c| c.to_bytes()).unwrap_or_default(), count }.encode())
            }
            other => Err(CoreError::UnsupportedOperation(format!("paillier cloud op {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (PaillierTactic, PaillierCloud, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let ctx = TacticContext {
            application: "app".into(),
            schema: "obs".into(),
            scope: "value".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        let gw = PaillierTactic::build_with_bits(&ctx, &mut rng, 256).unwrap();
        let cloud = PaillierCloud::new(DocStore::new());
        (gw, cloud, rng)
    }

    fn run(cloud: &PaillierCloud, call: &CloudCall) -> Vec<u8> {
        let parts: Vec<&str> = call.route.split('/').collect();
        cloud.handle(parts[2], parts[3], &call.payload).unwrap()
    }

    fn store_doc(cloud: &PaillierCloud, gw: &mut PaillierTactic, rng: &mut rand::rngs::StdRng, id: u8, v: f64) {
        let p = gw.protect(rng, "value", &Value::from(v), DocId([id; 16])).unwrap();
        assert!(p.index_calls.is_empty(), "protecting a value sends the cloud nothing");
        let mut doc = Document::new(DocId([id; 16]).to_hex());
        for (f, val) in &p.stored {
            doc.set(f.clone(), val.clone());
        }
        cloud.docs.collection("obs").insert(doc).unwrap();
    }

    #[test]
    fn sum_and_average_whole_collection() {
        let (mut gw, cloud, mut rng) = setup();
        for (i, v) in [6.3f64, 5.1, 7.2].iter().enumerate() {
            store_doc(&cloud, &mut gw, &mut rng, i as u8 + 1, *v);
        }
        let calls = gw.agg_query("value", AggFn::Avg, &[]).unwrap();
        let responses: Vec<Vec<u8>> = calls.iter().map(|c| run(&cloud, c)).collect();
        let avg = gw.agg_resolve(AggFn::Avg, &responses).unwrap();
        assert!((avg - 6.2).abs() < 1e-9, "avg = {avg}");
        let sum = gw.agg_resolve(AggFn::Sum, &responses).unwrap();
        assert!((sum - 18.6).abs() < 1e-9, "sum = {sum}");
        let count = gw.agg_resolve(AggFn::Count, &responses).unwrap();
        assert_eq!(count, 3.0);
    }

    #[test]
    fn sum_restricted_to_ids() {
        let (mut gw, cloud, mut rng) = setup();
        for (i, v) in [10.0f64, 20.0, 30.0].iter().enumerate() {
            store_doc(&cloud, &mut gw, &mut rng, i as u8 + 1, *v);
        }
        let ids = vec![DocId([1; 16]), DocId([3; 16])];
        let calls = gw.agg_query("value", AggFn::Sum, &ids).unwrap();
        let responses: Vec<Vec<u8>> = calls.iter().map(|c| run(&cloud, c)).collect();
        let sum = gw.agg_resolve(AggFn::Sum, &responses).unwrap();
        assert!((sum - 40.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn negative_values_sum_correctly() {
        let (mut gw, cloud, mut rng) = setup();
        store_doc(&cloud, &mut gw, &mut rng, 1, -5.5);
        store_doc(&cloud, &mut gw, &mut rng, 2, 2.0);
        let calls = gw.agg_query("value", AggFn::Sum, &[]).unwrap();
        let responses: Vec<Vec<u8>> = calls.iter().map(|c| run(&cloud, c)).collect();
        let sum = gw.agg_resolve(AggFn::Sum, &responses).unwrap();
        assert!((sum + 3.5).abs() < 1e-9, "sum = {sum}");
    }

    /// 50 protects drain the pool through four refills of `POOL_BATCH`,
    /// every obfuscator drawn through the keypair's factors: the cloud's
    /// homomorphic sum must still decrypt to the plaintext sum, and every
    /// take must have been a hit.
    #[test]
    fn fifty_protects_refill_from_the_keypair_and_sum_exactly() {
        let (mut gw, cloud, mut rng) = setup();
        let values: Vec<f64> = (0..50).map(|i| (i * 37 % 101) as f64 - 50.0 + 0.125 * (i % 8) as f64).collect();
        for (i, v) in values.iter().enumerate() {
            store_doc(&cloud, &mut gw, &mut rng, i as u8 + 1, *v);
        }
        let calls = gw.agg_query("value", AggFn::Sum, &[]).unwrap();
        let responses: Vec<Vec<u8>> = calls.iter().map(|c| run(&cloud, c)).collect();
        let sum = gw.agg_resolve(AggFn::Sum, &responses).unwrap();
        assert_eq!(sum, values.iter().sum::<f64>(), "eighths are exact in f64 and in the fixed-point scale");
        assert_eq!(gw.agg_resolve(AggFn::Count, &responses).unwrap(), 50.0);
        let stats = gw.pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.precomputed, stats.size), (50, 0, 64, 14));
    }

    #[test]
    fn empty_collection_sums_to_zero() {
        let (mut gw, cloud, _) = setup();
        let calls = gw.agg_query("value", AggFn::Sum, &[]).unwrap();
        let responses: Vec<Vec<u8>> = calls.iter().map(|c| run(&cloud, c)).collect();
        assert_eq!(gw.agg_resolve(AggFn::Sum, &responses).unwrap(), 0.0);
        assert_eq!(gw.agg_resolve(AggFn::Avg, &responses).unwrap(), 0.0);
    }

    fn whole(gw: &PaillierTactic) -> PaillierSum {
        PaillierSum {
            collection: "obs".into(),
            field: "value__phe".into(),
            modulus: gw.keypair.public().to_bytes(),
            ids: vec![],
        }
    }

    /// The key arrives with the request: a cloud that was never told about
    /// a scope answers, the evaluation context is built once per modulus,
    /// and a modulus no Paillier key has is refused before one is built.
    #[test]
    fn the_request_carries_the_key_and_bad_moduli_are_refused() {
        let (mut gw, cloud, mut rng) = setup();
        store_doc(&cloud, &mut gw, &mut rng, 1, 2.5);
        let req = whole(&gw);
        for scope in ["never-seen", "nor-this-one"] {
            let resp = cloud.handle(scope, "sum", &req.encode()).unwrap();
            assert_eq!(gw.agg_resolve(AggFn::Sum, &[resp]).unwrap(), 2.5);
        }
        assert_eq!(
            cloud.keys.lock().unwrap_or_else(PoisonError::into_inner).len(),
            1,
            "one context, whatever the scope"
        );

        let too_wide = [vec![1u8; MAX_MODULUS_BYTES], vec![1]].concat();
        for bad in [vec![], vec![0, 0], vec![4], too_wide] {
            let sum = PaillierSum { modulus: bad.clone(), ..req.clone() };
            assert!(matches!(cloud.handle("s", "sum", &sum.encode()), Err(CoreError::Crypto(_))), "{bad:?}");
            let combine = PaillierCombine { modulus: bad.clone(), partials: vec![] };
            assert!(matches!(cloud.handle("s", "combine", &combine.encode()), Err(CoreError::Crypto(_))), "{bad:?}");
        }
        assert_eq!(
            cloud.keys.lock().unwrap_or_else(PoisonError::into_inner).len(),
            1,
            "a refused modulus leaves nothing behind"
        );
    }

    /// A whole-collection sum multiplies only what arrived since the last
    /// one; an update, a delete or another key starts over. The recorder
    /// says which happened, and the answer is the same either way.
    #[test]
    fn whole_collection_sums_carry_the_product_until_a_stored_document_changes() {
        let (mut gw, cloud, mut rng) = setup();
        let recorder = Recorder::new();
        cloud.attach_recorder(&recorder);
        let folds = || {
            let snap = recorder.snapshot();
            (snap.counter("cloud.paillier.fold.carried"), snap.counter("cloud.paillier.fold.rescans"))
        };
        let sum = |gw: &PaillierTactic| {
            let resp = cloud.handle("s", "sum", &whole(gw).encode()).unwrap();
            let fresh = PaillierCloud::new(cloud.docs.clone()).handle("s", "sum", &whole(gw).encode()).unwrap();
            assert_eq!(resp, fresh, "a carried product answers what a first scan answers");
            gw.agg_resolve(AggFn::Sum, &[resp]).unwrap()
        };
        for id in 1..=3 {
            store_doc(&cloud, &mut gw, &mut rng, id, f64::from(id));
        }
        assert_eq!((sum(&gw), folds()), (6.0, (0, 1)), "first sight of the field: one full fold");
        assert_eq!((sum(&gw), folds()), (6.0, (3, 1)), "nothing arrived: all three skipped");
        store_doc(&cloud, &mut gw, &mut rng, 4, 4.0);
        assert_eq!((sum(&gw), folds()), (10.0, (6, 1)), "one arrived: three skipped again");

        let coll = cloud.docs.collection("obs");
        let mut doc = coll.get(&DocId([4; 16]).to_hex()).unwrap();
        doc.set("other", Value::from(1i64));
        coll.update(doc).unwrap();
        assert_eq!((sum(&gw), folds()), (10.0, (6, 2)), "an update voids the product");
        coll.delete(&DocId([1; 16]).to_hex()).unwrap();
        assert_eq!((sum(&gw), folds()), (9.0, (6, 3)), "so does a delete");
        assert_eq!((sum(&gw), folds()), (9.0, (9, 3)));

        // Another key: its own context, and the old product is not reused.
        let ctx = TacticContext {
            application: "other-app".into(),
            schema: "obs".into(),
            scope: "value".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        let other = PaillierTactic::build_with_bits(&ctx, &mut rng, 256).unwrap();
        let resp = cloud.handle("s", "sum", &whole(&other).encode()).unwrap();
        assert_eq!(PaillierSumResponse::decode(&resp).unwrap().count, 3);
        assert_eq!(folds(), (9, 4), "a new modulus starts over");
        assert_eq!((sum(&gw), folds()), (9.0, (9, 5)), "and so does the old one after it");
    }

    /// A ranged sum carries like a whole-collection one, under its range
    /// selection. Two selections that split the circle answer two partials
    /// that `combine` to the whole sum. Alternating between them keeps one
    /// slot for the field and rescans on every switch. Repeating one
    /// carries.
    #[test]
    fn alternating_range_selections_keep_one_slot_and_rescan_on_each_switch() {
        let (mut gw, cloud, mut rng) = setup();
        let recorder = Recorder::new();
        cloud.attach_recorder(&recorder);
        let folds = || {
            let snap = recorder.snapshot();
            (snap.counter("cloud.paillier.fold.carried"), snap.counter("cloud.paillier.fold.rescans"))
        };
        for id in 1..=12 {
            store_doc(&cloud, &mut gw, &mut rng, id, f64::from(id));
        }
        let ranged = |ranges| {
            let select = RangeSelect { seed: 5, ranges, include_broadcast: false };
            RangedRead { request: whole(&gw).encode(), select }.encode()
        };
        // (MAX, MAX/2] wraps to [0, MAX/2]; (MAX/2, MAX] is the rest.
        let halves = [ranged(vec![(u64::MAX, u64::MAX / 2)]), ranged(vec![(u64::MAX / 2, u64::MAX)])];
        let sum = |half: &[u8]| cloud.handle("s", "sum_ranges", half).unwrap();
        let slots = || cloud.carried.lock().unwrap_or_else(PoisonError::into_inner).len();

        let partials = halves.clone().map(|half| sum(&half));
        let counts = partials.clone().map(|p| PaillierSumResponse::decode(&p).unwrap().count);
        assert!(counts.iter().all(|&n| n > 0) && counts.iter().sum::<u64>() == 12, "{counts:?}");
        let combine = PaillierCombine { modulus: gw.keypair.public().to_bytes(), partials: partials.to_vec() };
        let combined = cloud.handle("s", "combine", &combine.encode()).unwrap();
        let fresh = PaillierCloud::new(cloud.docs.clone()).handle("s", "sum", &whole(&gw).encode()).unwrap();
        assert_eq!(combined, fresh, "the two halves combine to the whole-collection bytes");
        assert_eq!(gw.agg_resolve(AggFn::Sum, &[combined]).unwrap(), 78.0);
        assert_eq!((folds(), slots()), ((0, 2), 1), "first sight of each selection");

        for round in 1..=3u64 {
            for half in &halves {
                sum(half);
            }
            assert_eq!((folds(), slots()), ((0, 2 + 2 * round), 1), "round {round}: a rescan per switch, one slot");
        }
        let again = sum(&halves[1]);
        assert_eq!(again, partials[1], "the same selection twice carries the same answer");
        assert_eq!(folds(), (counts[1], 8), "and folds nothing");
    }

    /// The ids of a filtered sum and the ranges of a ranged one do not mix.
    #[test]
    fn a_ranged_sum_naming_ids_is_refused() {
        let (gw, cloud, _) = setup();
        let with_ids = PaillierSum { ids: vec!["aa".into()], ..whole(&gw) };
        let select = RangeSelect { seed: 5, ranges: vec![(1, 2)], include_broadcast: false };
        let named = RangedRead { request: with_ids.encode(), select }.encode();
        assert_eq!(cloud.handle("s", "sum_ranges", &named), Err(CoreError::Wire("ranged sum names ids")));
    }

    /// The cloud is untrusted: a sum whose plaintext no stored values add up
    /// to (here ±2⁶⁴ scaled units) is an error, not a saturated number.
    #[test]
    fn a_forged_sum_beyond_i64_is_refused() {
        let (gw, _, mut rng) = setup();
        let pk = gw.keypair.public();
        let beyond = &BigUint::from(u64::MAX) + &BigUint::one();
        for m in [beyond.clone(), pk.modulus() - &beyond] {
            let forged = PaillierSumResponse { ciphertext: pk.encrypt(&mut rng, &m).unwrap().to_bytes(), count: 2 };
            let err = gw.agg_resolve(AggFn::Sum, &[forged.encode()]).unwrap_err();
            assert_eq!(err, CoreError::Crypto("aggregate out of range".into()));
        }
        let lowest = pk.modulus() - &BigUint::from(i64::MIN.unsigned_abs());
        let edge = PaillierSumResponse { ciphertext: pk.encrypt(&mut rng, &lowest).unwrap().to_bytes(), count: 1 };
        assert_eq!(gw.agg_resolve(AggFn::Sum, &[edge.encode()]).unwrap(), i64::MIN as f64 / AGG_SCALE);
    }

    /// The cloud is the untrusted zone: whatever it stores or answers as a
    /// "ciphertext" must come back as a typed error or a reduced group
    /// element, without a panic and in time linear in its length (the old
    /// byte-at-a-time decoder needed minutes for 1 MiB).
    #[test]
    fn hostile_ciphertexts_are_bounded_and_typed() {
        let (mut gw, cloud, mut rng) = setup();
        store_doc(&cloud, &mut gw, &mut rng, 1, 41.0);
        let honest = match cloud.docs.collection("obs").get(&DocId([1; 16]).to_hex()).unwrap().get("value__phe") {
            Some(Value::Bytes(ct)) => ct.clone(),
            other => panic!("stored shadow field: {other:?}"),
        };
        let oversize = vec![0xffu8; 1 << 20];
        let padded = [vec![0u8; 1 << 20], honest.clone()].concat();
        let started = std::time::Instant::now();

        // Gateway side: the cloud's answer goes straight into decryption.
        let answer =
            |ciphertext: &[u8]| vec![PaillierSumResponse { ciphertext: ciphertext.to_vec(), count: 1 }.encode()];
        assert!(matches!(gw.agg_resolve(AggFn::Sum, &answer(&oversize)), Err(CoreError::Crypto(_))));
        assert!(matches!(gw.agg_resolve(AggFn::Sum, &answer(&[])), Err(CoreError::Crypto(_))));
        assert_eq!(gw.agg_resolve(AggFn::Sum, &answer(&padded)).unwrap(), 41.0);

        // Cloud side: a poisoned document and poisoned partials fold to the
        // reduced element; padding and empty partials change nothing.
        for (id, ct) in [(2u8, &oversize), (3, &padded)] {
            let doc = Document::new(DocId([id; 16]).to_hex()).with("value__phe", Value::Bytes(ct.clone()));
            cloud.docs.collection("obs").insert(doc).unwrap();
        }
        let scope = gw.route_sum.split('/').nth(2).unwrap().to_string();
        let summed = PaillierSumResponse::decode(&cloud.handle(&scope, "sum", &whole(&gw).encode()).unwrap()).unwrap();
        assert_eq!(summed.count, 3);
        let n2 = gw.keypair.public().modulus_squared();
        assert!(BigUint::from_bytes_be(&summed.ciphertext) < *n2, "sum is reduced mod n²");

        let partial =
            |ciphertext: &[u8], count| PaillierSumResponse { ciphertext: ciphertext.to_vec(), count }.encode();
        let combine = PaillierCombine {
            modulus: gw.keypair.public().to_bytes(),
            partials: vec![partial(&padded, 1), partial(&[], u64::MAX), partial(&oversize, 1), partial(&honest, 1)],
        };
        let combined =
            PaillierSumResponse::decode(&cloud.handle(&scope, "combine", &combine.encode()).unwrap()).unwrap();
        assert_eq!(combined.count, u64::MAX, "hostile counts saturate");
        assert_eq!(combined.ciphertext, summed.ciphertext, "same three operands, same element");

        assert!(started.elapsed() < std::time::Duration::from_secs(10), "took {:?}", started.elapsed());
    }
}
