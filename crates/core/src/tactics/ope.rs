//! The OPE tactic adapter: order-preserving encryption, class 5.
//!
//! Like DET, legacy-friendly: the stored ciphertext is a big-endian `u128`
//! whose byte order equals plaintext order, so range queries ride the
//! generic `doc/find_ids_range` route — no tactic-specific cloud component.
//! `register_schema` has the cloud index the `<field>__ope` shadow field,
//! and the document store answers a range with one ordered walk of that
//! index between the two encrypted bounds (O(log N + hits), see
//! `Collection::scan`); without the index the same route visits every
//! document.

use datablinder_docstore::Value;
use datablinder_ope::{Ope, OpeParams};
use datablinder_sse::DocId;
use rand::RngCore;

use super::{orderable_u64, shadow_field, Shadow, TacticContext};
use crate::cloudproto::FindIdsRange;
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, GatewayTactic, ProtectedField};

/// Descriptor for OPE (Table 2: class 5, leakage *Order*, 3/3 interfaces).
pub fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "ope".into(),
        family: "order-preserving encryption".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(1, 0, 1) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Order, metrics: PerfMetrics::new(2, 1, 1) },
            OpProfile { op: TacticOp::RangeQuery, leakage: LeakageLevel::Order, metrics: PerfMetrics::new(1, 1, 1) },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Range],
        serves_agg: vec![],
        gateway_interfaces: 3,
        cloud_interfaces: 3,
        gateway_state: false,
    }
}

/// Gateway half of OPE.
pub struct OpeTactic {
    ope: Ope,
    collection: String,
    shadow: Shadow,
}

impl OpeTactic {
    /// Builds from context.
    pub fn build(ctx: &TacticContext) -> Result<Self, CoreError> {
        let key = ctx.kms.key_for(&ctx.key_scope("ope"));
        Ok(OpeTactic {
            ope: Ope::new(key, OpeParams::default()),
            collection: ctx.schema.clone(),
            shadow: Shadow::new(ctx, "ope"),
        })
    }

    fn ciphertext_bytes(&self, value: &Value) -> Result<Vec<u8>, CoreError> {
        let m = orderable_u64(value)?;
        Ok(self.ope.encrypt(m).to_be_bytes().to_vec())
    }
}

impl GatewayTactic for OpeTactic {
    fn descriptor(&self) -> TacticDescriptor {
        descriptor()
    }

    fn protect(
        &mut self,
        _rng: &mut dyn RngCore,
        field: &str,
        value: &Value,
        _id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        let ct = self.ciphertext_bytes(value)?;
        Ok(ProtectedField { stored: vec![(self.shadow.of(field), Value::Bytes(ct))], index_calls: Vec::new() })
    }

    fn resolves_in_cloud(&self) -> bool {
        true
    }

    fn range_query(&mut self, field: &str, lo: &Value, hi: &Value) -> Result<Vec<CloudCall>, CoreError> {
        let req = FindIdsRange {
            collection: self.collection.clone(),
            field: shadow_field(field, "ope"),
            lo: Value::Bytes(self.ciphertext_bytes(lo)?),
            hi: Value::Bytes(self.ciphertext_bytes(hi)?),
        };
        Ok(vec![CloudCall::new("doc/find_ids_range", req.encode())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> TacticContext {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        TacticContext {
            application: "app".into(),
            schema: "obs".into(),
            scope: "effective".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        }
    }

    #[test]
    fn stored_bytes_are_order_preserving() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut t = OpeTactic::build(&ctx()).unwrap();
        let values = [-100i64, -1, 0, 1, 1359966610, i64::MAX];
        let mut cts: Vec<Vec<u8>> = Vec::new();
        for v in values {
            let p = t.protect(&mut rng, "effective", &Value::from(v), DocId([0; 16])).unwrap();
            let Value::Bytes(ct) = &p.stored[0].1 else { panic!() };
            cts.push(ct.clone());
        }
        for w in cts.windows(2) {
            assert!(w[0] < w[1], "byte order must follow numeric order");
        }
    }

    #[test]
    fn range_query_bounds_encrypt() {
        let mut t = OpeTactic::build(&ctx()).unwrap();
        let calls = t.range_query("effective", &Value::from(10i64), &Value::from(20i64)).unwrap();
        let req = FindIdsRange::decode(&calls[0].payload).unwrap();
        assert_eq!(req.field, "effective__ope");
        let (Value::Bytes(lo), Value::Bytes(hi)) = (&req.lo, &req.hi) else { panic!() };
        assert!(lo < hi);
    }

    #[test]
    fn non_numeric_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut t = OpeTactic::build(&ctx()).unwrap();
        assert!(t.protect(&mut rng, "f", &Value::from("text"), DocId([0; 16])).is_err());
    }
}
