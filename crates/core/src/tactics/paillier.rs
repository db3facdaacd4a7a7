//! The Paillier tactic adapter: cloud-side homomorphic Sum / Average.
//!
//! The gateway encrypts each numeric value (fixed-point scaled, signed
//! values encoded in `Z_n`'s upper half) into a shadow field; the cloud
//! multiplies ciphertexts — adding the plaintexts — without a decryption
//! key. Table 2 lists key management as the integration challenge: the
//! keypair lives in the KMS, only the public modulus goes to the cloud.

use std::collections::HashMap;

use datablinder_bigint::BigUint;
use datablinder_docstore::{DocStore, Document, Filter, Value};
use datablinder_kvstore::KvStore;
use datablinder_obs::Recorder;
use datablinder_paillier::{Ciphertext, Keypair, PublicKey, RandomizerPool};
use datablinder_sse::DocId;
use parking_lot::Mutex;
use rand::RngCore;

use super::{aggregable_i64, shadow_field, TacticContext, AGG_SCALE};
use crate::cloudproto::{PaillierSum, PaillierSumResponse};
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, CloudTactic, GatewayTactic, ProtectedField};

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
    route_setup: String,
    route_sum: String,
    setup_sent: bool,
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
            route_setup: ctx.route("paillier", "setup"),
            route_sum: ctx.route("paillier", "sum"),
            setup_sent: false,
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
    fn decode_plain(&self, m: &BigUint) -> i64 {
        let n = self.keypair.public().modulus();
        let half = n / &BigUint::from(2u64);
        if m > &half {
            let mag = n - m;
            -(mag.to_u64().unwrap_or(u64::MAX) as i64)
        } else {
            m.to_u64().unwrap_or(u64::MAX) as i64
        }
    }

    fn setup_call(&mut self) -> Option<CloudCall> {
        if self.setup_sent {
            return None;
        }
        self.setup_sent = true;
        Some(CloudCall::new(self.route_setup.clone(), self.keypair.public().to_bytes()))
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
        let mut index_calls = Vec::new();
        if let Some(setup) = self.setup_call() {
            index_calls.push(setup);
        }
        Ok(ProtectedField { stored: vec![(shadow_field(field, "phe"), Value::Bytes(ct.to_bytes()))], index_calls })
    }

    fn agg_query(&mut self, field: &str, _agg: AggFn, ids: &[DocId]) -> Result<Vec<CloudCall>, CoreError> {
        // The setup call rides along unconditionally: it is idempotent, and
        // gating it on `setup_sent` races under a shared gateway — another
        // thread's insert may have claimed the flag without its group having
        // reached the cloud yet, letting this `sum` arrive at a cloud that
        // has no public key. In-batch ordering puts setup before sum.
        self.setup_sent = true;
        let mut calls = vec![CloudCall::new(self.route_setup.clone(), self.keypair.public().to_bytes())];
        let req = PaillierSum {
            collection: self.collection.clone(),
            field: shadow_field(field, "phe"),
            ids: ids.iter().map(|id| id.to_hex()).collect(),
        };
        calls.push(CloudCall::new(self.route_sum.clone(), req.encode()));
        Ok(calls)
    }

    fn agg_resolve(&self, agg: AggFn, responses: &[Vec<u8>]) -> Result<f64, CoreError> {
        // The sum response is the last one (a setup call may precede it).
        let response = responses.last().ok_or(CoreError::Wire("paillier response arity"))?;
        let resp = PaillierSumResponse::decode(response)?;
        if resp.count == 0 {
            return Ok(0.0);
        }
        let ct = Ciphertext::from_bytes(&resp.ciphertext);
        let m = self.keypair.decrypt(&ct)?;
        let sum = self.decode_plain(&m) as f64 / AGG_SCALE;
        Ok(match agg {
            AggFn::Sum => sum,
            AggFn::Avg => sum / resp.count as f64,
            AggFn::Count => resp.count as f64,
        })
    }
}

/// Cloud half: multiplies stored ciphertexts under the scope's public key.
///
/// Decoded public keys are cached per scope so the `n²` Montgomery context
/// survives across sum requests instead of being rebuilt from the stored
/// modulus bytes on every call.
pub struct PaillierCloud {
    kv: KvStore,
    docs: DocStore,
    pk_cache: Mutex<HashMap<String, PublicKey>>,
}

impl PaillierCloud {
    /// Creates the handler over the cloud stores.
    pub fn new(kv: KvStore, docs: DocStore) -> Self {
        PaillierCloud { kv, docs, pk_cache: Mutex::new(HashMap::new()) }
    }

    fn pk_key(scope: &str) -> Vec<u8> {
        let mut k = b"t/paillier/".to_vec();
        k.extend_from_slice(scope.as_bytes());
        k.extend_from_slice(b"/__pk__");
        k
    }

    /// The scope's public key, decoded once and cached (kv remains the
    /// durable source of truth; setup refreshes the cache).
    fn scope_pk(&self, scope: &str) -> Result<PublicKey, CoreError> {
        if let Some(pk) = self.pk_cache.lock().get(scope) {
            return Ok(pk.clone());
        }
        let pk_bytes = self
            .kv
            .get(&Self::pk_key(scope))
            .ok_or_else(|| CoreError::Storage(format!("paillier scope {scope} not set up")))?;
        let pk = PublicKey::from_bytes(&pk_bytes)?;
        self.pk_cache.lock().insert(scope.to_string(), pk.clone());
        Ok(pk)
    }
}

impl CloudTactic for PaillierCloud {
    fn name(&self) -> &'static str {
        "paillier"
    }

    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        match op {
            "setup" => {
                // Every aggregate re-sends the key: building it costs `n·n`
                // and the Montgomery context's full-width division, so an
                // unchanged key is acknowledged from what is already held.
                let key = Self::pk_key(scope);
                let held = self.pk_cache.lock().get(scope).is_some_and(|pk| pk.to_bytes() == payload);
                if held && self.kv.get(&key).as_deref() == Some(payload) {
                    return Ok(Vec::new());
                }
                let pk = PublicKey::from_bytes(payload)?;
                self.kv.set(&key, payload);
                self.pk_cache.lock().insert(scope.to_string(), pk);
                Ok(Vec::new())
            }
            "sum" => {
                let req = PaillierSum::decode(payload)?;
                let pk = self.scope_pk(scope)?;
                let coll = self.docs.collection(&req.collection);
                let mut count = 0u64;
                let fold = |docs: &mut dyn Iterator<Item = &Document>| {
                    pk.sum(
                        docs.filter_map(|doc| match doc.get(&req.field) {
                            Some(Value::Bytes(ct)) => Some(ct.as_slice()),
                            _ => None,
                        })
                        .inspect(|_| count += 1),
                    )
                };
                let sum = if req.ids.is_empty() {
                    coll.scan(&Filter::Exists(req.field.clone()), fold)
                } else {
                    coll.lookup(req.ids.iter().map(String::as_str), fold)
                };
                Ok(PaillierSumResponse { ciphertext: sum.map(|c| c.to_bytes()).unwrap_or_default(), count }.encode())
            }
            "combine" => {
                // Folds per-replica partial sums into one accumulator: a
                // clustered cloud computes `sum` on each document partition
                // and any node holding the scope key merges the partials —
                // homomorphic addition needs only the public modulus.
                let mut r = datablinder_codec::Reader::new(payload);
                let partials = r.list().map_err(|_| CoreError::Wire("combine partials"))?;
                r.finish().map_err(|_| CoreError::Wire("combine trailing"))?;
                let pk = self.scope_pk(scope)?;
                let parts = partials.iter().map(|p| PaillierSumResponse::decode(p)).collect::<Result<Vec<_>, _>>()?;
                let count = parts.iter().fold(0u64, |n, p| n.saturating_add(p.count));
                let sum = pk.sum(parts.iter().map(|p| p.ciphertext.as_slice()).filter(|ct| !ct.is_empty()));
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
        let cloud = PaillierCloud::new(KvStore::new(), DocStore::new());
        (gw, cloud, rng)
    }

    fn run(cloud: &PaillierCloud, call: &CloudCall) -> Vec<u8> {
        let parts: Vec<&str> = call.route.split('/').collect();
        cloud.handle(parts[2], parts[3], &call.payload).unwrap()
    }

    fn store_doc(cloud: &PaillierCloud, gw: &mut PaillierTactic, rng: &mut rand::rngs::StdRng, id: u8, v: f64) {
        let p = gw.protect(rng, "value", &Value::from(v), DocId([id; 16])).unwrap();
        for call in &p.index_calls {
            run(cloud, call);
        }
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
        assert!(gw.keypair.has_crt());
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

    #[test]
    fn sum_without_setup_rejected() {
        let (_, cloud, _) = setup();
        let req = PaillierSum { collection: "obs".into(), field: "value__phe".into(), ids: vec![] };
        assert!(cloud.handle("fresh", "sum", &req.encode()).is_err());
    }

    /// Every aggregate re-sends `setup`; an unchanged key must not be
    /// rebuilt (same Montgomery context afterwards), a different key must
    /// replace both the stored bytes and the cached key.
    #[test]
    fn repeated_setup_keeps_the_built_key_and_a_new_key_replaces_it() {
        let (gw, cloud, mut rng) = setup();
        let ctx_of = |scope: &str| cloud.pk_cache.lock().get(scope).map(|pk| pk.montgomery_ctx() as *const _);
        let first = gw.keypair.public().to_bytes();
        cloud.handle("s", "setup", &first).unwrap();
        let built = ctx_of("s").unwrap();
        cloud.handle("s", "setup", &first).unwrap();
        assert_eq!(ctx_of("s"), Some(built), "same bytes: acknowledged without a rebuild");

        // A cold cache (restart: kv restored, nothing decoded yet) rebuilds.
        cloud.pk_cache.lock().clear();
        cloud.handle("s", "setup", &first).unwrap();
        assert!(ctx_of("s").is_some());

        let second = Keypair::generate(&mut rng, 256).public().to_bytes();
        cloud.handle("s", "setup", &second).unwrap();
        assert_eq!(cloud.kv.get(&PaillierCloud::pk_key("s")), Some(second.clone()));
        assert_eq!(cloud.scope_pk("s").unwrap().to_bytes(), second);
        assert!(cloud.handle("s", "setup", &[4]).is_err(), "an even modulus is still rejected");
        assert_eq!(cloud.scope_pk("s").unwrap().to_bytes(), second);
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
        let sum = PaillierSum { collection: "obs".into(), field: "value__phe".into(), ids: vec![] };
        let summed = PaillierSumResponse::decode(&cloud.handle(&scope, "sum", &sum.encode()).unwrap()).unwrap();
        assert_eq!(summed.count, 3);
        let n2 = gw.keypair.public().modulus_squared();
        assert!(BigUint::from_bytes_be(&summed.ciphertext) < *n2, "sum is reduced mod n²");

        let partial =
            |ciphertext: &[u8], count| PaillierSumResponse { ciphertext: ciphertext.to_vec(), count }.encode();
        let mut w = datablinder_codec::Writer::new();
        w.list(&[partial(&padded, 1), partial(&[], u64::MAX), partial(&oversize, 1), partial(&honest, 1)]);
        let combined = PaillierSumResponse::decode(&cloud.handle(&scope, "combine", &w.finish()).unwrap()).unwrap();
        assert_eq!(combined.count, u64::MAX, "hostile counts saturate");
        assert_eq!(combined.ciphertext, summed.ciphertext, "same three operands, same element");

        assert!(started.elapsed() < std::time::Duration::from_secs(10), "took {:?}", started.elapsed());
    }
}
