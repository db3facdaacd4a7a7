//! The ORE tactic adapter: order-revealing encryption (Lewi–Wu), class 5.
//!
//! Unlike OPE, ORE ciphertexts are not numerically comparable by the
//! document store — a dedicated cloud component scans the stored *right*
//! ciphertexts and evaluates the order against the query's *left*
//! ciphertexts. Slower per query (linear scan) but leaks order only for
//! compared pairs, not at rest.

use datablinder_codec::{Reader, Writer};
use datablinder_docstore::Value;
use datablinder_kvstore::KvStore;
use datablinder_ore::{Comparison, LewiWuLeft, LewiWuOre, LewiWuRight};
use datablinder_sse::DocId;
use rand::RngCore;

use super::{encode_ids, orderable_u64, TacticContext};
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, CloudTactic, GatewayTactic, ProtectedField};

/// Descriptor for ORE (Table 2: class 5, leakage *Order*, 3/3 interfaces).
pub fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "ore".into(),
        family: "order-revealing encryption".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(1, 0, 2) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(2, 1, 2) },
            // Order revealed only at query time, but worst case matches OPE.
            OpProfile { op: TacticOp::RangeQuery, leakage: LeakageLevel::Order, metrics: PerfMetrics::new(3, 1, 2) },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Range],
        serves_agg: vec![],
        gateway_interfaces: 3,
        cloud_interfaces: 3,
        gateway_state: false,
    }
}

/// Gateway half of ORE.
pub struct OreTactic {
    ore: LewiWuOre,
    route_insert: String,
    route_range: String,
    route_delete: String,
}

impl OreTactic {
    /// Builds from context.
    pub fn build(ctx: &TacticContext) -> Result<Self, CoreError> {
        let key = ctx.kms.key_for(&ctx.key_scope("ore"));
        Ok(OreTactic {
            ore: LewiWuOre::new(key),
            route_insert: ctx.route("ore", "insert"),
            route_range: ctx.route("ore", "range"),
            route_delete: ctx.route("ore", "delete"),
        })
    }
}

impl GatewayTactic for OreTactic {
    fn descriptor(&self) -> TacticDescriptor {
        descriptor()
    }

    fn protect(
        &mut self,
        _rng: &mut dyn RngCore,
        _field: &str,
        value: &Value,
        id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        let m = orderable_u64(value)?;
        let right = self.ore.encrypt_right(m);
        let mut w = Writer::new();
        w.bytes(&id.0).bytes(&right.to_bytes());
        Ok(ProtectedField {
            stored: Vec::new(),
            index_calls: vec![CloudCall::new(self.route_insert.clone(), w.finish())],
        })
    }

    fn delete(&mut self, _field: &str, _value: &Value, id: DocId) -> Result<Vec<CloudCall>, CoreError> {
        let mut w = Writer::new();
        w.bytes(&id.0);
        Ok(vec![CloudCall::new(self.route_delete.clone(), w.finish())])
    }

    fn resolves_in_cloud(&self) -> bool {
        true
    }

    fn range_query(&mut self, _field: &str, lo: &Value, hi: &Value) -> Result<Vec<CloudCall>, CoreError> {
        let lo = self.ore.encrypt_left(orderable_u64(lo)?);
        let hi = self.ore.encrypt_left(orderable_u64(hi)?);
        let mut w = Writer::new();
        w.bytes(&lo.to_bytes()).bytes(&hi.to_bytes());
        Ok(vec![CloudCall::new(self.route_range.clone(), w.finish())])
    }
}

/// Cloud half of ORE: stores right ciphertexts per scope and evaluates
/// range predicates by comparison scans.
pub struct OreCloud {
    kv: KvStore,
}

impl OreCloud {
    /// Creates the handler over the cloud KV store.
    pub fn new(kv: KvStore) -> Self {
        OreCloud { kv }
    }

    fn hash_key(scope: &str) -> Vec<u8> {
        let mut k = b"t/ore/".to_vec();
        k.extend_from_slice(scope.as_bytes());
        k
    }
}

impl CloudTactic for OreCloud {
    fn name(&self) -> &'static str {
        "ore"
    }

    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        let key = Self::hash_key(scope);
        match op {
            "insert" => {
                let mut r = Reader::new(payload);
                let id: [u8; 16] = r.array()?;
                let right = r.bytes()?;
                r.finish()?;
                // Validate before storing.
                LewiWuRight::from_bytes(right).ok_or(CoreError::Wire("ore right ciphertext"))?;
                self.kv.hset(&key, &id, right)?;
                Ok(Vec::new())
            }
            "delete" => {
                let mut r = Reader::new(payload);
                let id: [u8; 16] = r.array()?;
                r.finish()?;
                self.kv.hdel(&key, &id)?;
                Ok(Vec::new())
            }
            "range" => {
                let mut r = Reader::new(payload);
                let lo = LewiWuLeft::from_bytes(r.bytes()?).ok_or(CoreError::Wire("ore left ciphertext"))?;
                let hi = LewiWuLeft::from_bytes(r.bytes()?).ok_or(CoreError::Wire("ore left ciphertext"))?;
                r.finish()?;
                let mut ids = Vec::new();
                for (idb, right_bytes) in self.kv.hgetall(&key) {
                    let Some(right) = LewiWuRight::from_bytes(&right_bytes) else {
                        continue;
                    };
                    let ge_lo = LewiWuOre::compare_left_right(&lo, &right) != Comparison::Greater;
                    let le_hi = LewiWuOre::compare_left_right(&hi, &right) != Comparison::Less;
                    if ge_lo && le_hi {
                        let mut id = [0u8; 16];
                        id.copy_from_slice(&idb);
                        ids.push(DocId(id));
                    }
                }
                ids.sort();
                Ok(encode_ids(&ids))
            }
            other => Err(CoreError::UnsupportedOperation(format!("ore cloud op {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tactics::tests::run;
    use rand::SeedableRng;

    fn setup() -> (OreTactic, OreCloud) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ctx = TacticContext {
            application: "app".into(),
            schema: "obs".into(),
            scope: "effective".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        (OreTactic::build(&ctx).unwrap(), OreCloud::new(KvStore::new()))
    }

    #[test]
    fn range_query_end_to_end() {
        let (mut gw, cloud) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for (n, v) in [(1u8, 10i64), (2, 20), (3, 30), (4, 40)] {
            let p = gw.protect(&mut rng, "effective", &Value::from(v), DocId([n; 16])).unwrap();
            run(&cloud, &p.index_calls[0]);
        }
        let calls = gw.range_query("effective", &Value::from(15i64), &Value::from(35i64)).unwrap();
        let resp = run(&cloud, &calls[0]);
        let ids = gw.range_resolve(&[resp]).unwrap();
        assert_eq!(ids, vec![DocId([2; 16]), DocId([3; 16])]);
    }

    #[test]
    fn inclusive_bounds() {
        let (mut gw, cloud) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let p = gw.protect(&mut rng, "f", &Value::from(100i64), DocId([9; 16])).unwrap();
        run(&cloud, &p.index_calls[0]);
        let calls = gw.range_query("f", &Value::from(100i64), &Value::from(100i64)).unwrap();
        let ids = gw.range_resolve(&[run(&cloud, &calls[0])]).unwrap();
        assert_eq!(ids, vec![DocId([9; 16])]);
    }

    #[test]
    fn delete_removes_from_scans() {
        let (mut gw, cloud) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let p = gw.protect(&mut rng, "f", &Value::from(5i64), DocId([1; 16])).unwrap();
        run(&cloud, &p.index_calls[0]);
        for call in gw.delete("f", &Value::from(5i64), DocId([1; 16])).unwrap() {
            run(&cloud, &call);
        }
        let calls = gw.range_query("f", &Value::from(0i64), &Value::from(10i64)).unwrap();
        assert_eq!(gw.range_resolve(&[run(&cloud, &calls[0])]).unwrap(), vec![]);
    }

    #[test]
    fn negative_values_ordered() {
        let (mut gw, cloud) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for (n, v) in [(1u8, -50i64), (2, -10), (3, 0), (4, 10)] {
            let p = gw.protect(&mut rng, "f", &Value::from(v), DocId([n; 16])).unwrap();
            run(&cloud, &p.index_calls[0]);
        }
        let calls = gw.range_query("f", &Value::from(-20i64), &Value::from(5i64)).unwrap();
        let ids = gw.range_resolve(&[run(&cloud, &calls[0])]).unwrap();
        assert_eq!(ids, vec![DocId([2; 16]), DocId([3; 16])]);
    }

    #[test]
    fn malformed_payloads_rejected() {
        let (_, cloud) = setup();
        assert!(cloud.handle("s", "insert", b"junk").is_err());
        assert!(cloud.handle("s", "range", b"junk").is_err());
        assert!(cloud.handle("s", "nope", &[]).is_err());
    }
}
