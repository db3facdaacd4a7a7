//! The DET tactic adapter: deterministic encryption, class 4.
//!
//! Legacy-friendly in the CryptDB sense: the cloud document store can
//! index, equality-match and boolean-combine the ciphertexts directly, so
//! equality and boolean search ride the generic `doc/find_ids_*` routes
//! with no tactic-specific cloud component.

use datablinder_docstore::Value;
use datablinder_sse::det::DetCipher;
use datablinder_sse::DocId;
use rand::RngCore;

use super::{shadow_field, Shadow, TacticContext};
use crate::cloudproto::FindIdsEq;
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, GatewayTactic, ProtectedField};
use crate::wire::{canonical_bytes, decode_value, encode_value};

/// Descriptor for DET (Table 2: class 4, leakage *Equalities*,
/// 9 gateway / 6 cloud interfaces).
pub fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "det".into(),
        family: "deterministic encryption".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(1, 0, 1) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Equalities, metrics: PerfMetrics::new(1, 1, 1) },
            OpProfile { op: TacticOp::EqQuery, leakage: LeakageLevel::Equalities, metrics: PerfMetrics::new(1, 1, 1) },
            OpProfile {
                op: TacticOp::BoolQuery,
                leakage: LeakageLevel::Equalities,
                metrics: PerfMetrics::new(1, 1, 1),
            },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean],
        serves_agg: vec![],
        gateway_interfaces: 9,
        cloud_interfaces: 6,
        gateway_state: false,
    }
}

/// Gateway half of DET.
pub struct DetTactic {
    cipher: DetCipher,
    collection: String,
    shadow: Shadow,
    /// The canonical bytes of the value being protected, reused.
    plaintext: Vec<u8>,
}

impl DetTactic {
    /// Builds from context.
    ///
    /// # Errors
    ///
    /// Key-schedule failures.
    pub fn build(ctx: &TacticContext) -> Result<Self, CoreError> {
        let key = ctx.kms.key_for(&ctx.key_scope("det"));
        Ok(DetTactic {
            cipher: DetCipher::new(&key)?,
            collection: ctx.schema.clone(),
            shadow: Shadow::new(ctx, "det"),
            plaintext: Vec::new(),
        })
    }

    /// The stored literal for a plaintext value — used by the engine to
    /// compose cross-field boolean filters over DET fields.
    pub fn stored_literal(&self, field: &str, value: &Value) -> (String, Value) {
        (shadow_field(field, "det"), Value::Bytes(self.cipher.search_token(&canonical_bytes(value))))
    }
}

impl GatewayTactic for DetTactic {
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
        self.plaintext.clear();
        encode_value(value, &mut self.plaintext);
        let ct = self.cipher.encrypt(&self.plaintext);
        Ok(ProtectedField { stored: vec![(self.shadow.of(field), Value::Bytes(ct))], index_calls: Vec::new() })
    }

    /// DET ignores `id`: equal values must stay equal ciphertexts across
    /// documents for the cloud to match them, so a DET payload cannot be
    /// bound to its document (DESIGN.md's threat model).
    fn recover(&self, _id: DocId, ciphertext: &[u8], scratch: &mut Vec<u8>) -> Result<Value, CoreError> {
        decode_value(&mut self.cipher.decrypt_in(ciphertext, scratch)?)
    }

    fn eq_query(&mut self, field: &str, value: &Value) -> Result<Vec<CloudCall>, CoreError> {
        let (f, v) = self.stored_literal(field, value);
        let req = FindIdsEq { collection: self.collection.clone(), field: f, value: v };
        Ok(vec![CloudCall::new("doc/find_ids_eq", req.encode())])
    }

    fn resolves_in_cloud(&self) -> bool {
        true
    }

    fn stored_literal(&self, field: &str, value: &Value) -> Option<(String, Value)> {
        Some(DetTactic::stored_literal(self, field, value))
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
    fn protect_deterministic_and_recoverable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut t = DetTactic::build(&ctx()).unwrap();
        let a = t.protect(&mut rng, "effective", &Value::from(1359966610i64), DocId([1; 16])).unwrap();
        let b = t.protect(&mut rng, "effective", &Value::from(1359966610i64), DocId([2; 16])).unwrap();
        assert_eq!(a.stored, b.stored, "determinism enables cloud equality");

        assert_eq!(&*a.stored[0].0, "effective__det");
        let Value::Bytes(ct) = &a.stored[0].1 else { panic!("DET stores bytes") };
        assert_eq!(t.recover(DocId([1; 16]), ct, &mut Vec::new()).unwrap(), Value::from(1359966610i64));
        // Unbound: the same ciphertext opens under any document id.
        assert_eq!(t.recover(DocId([2; 16]), ct, &mut Vec::new()).unwrap(), Value::from(1359966610i64));
    }

    #[test]
    fn eq_query_targets_shadow_field() {
        let mut t = DetTactic::build(&ctx()).unwrap();
        let calls = t.eq_query("effective", &Value::from(5i64)).unwrap();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].route, "doc/find_ids_eq");
        let req = FindIdsEq::decode(&calls[0].payload).unwrap();
        assert_eq!(req.field, "effective__det");
        assert_eq!(req.collection, "obs");
    }

    #[test]
    fn resolve_arity_checked() {
        let t = DetTactic::build(&ctx()).unwrap();
        assert!(t.eq_resolve("f", &Value::Null, &[]).is_err());
        assert!(t.eq_resolve("f", &Value::Null, &[vec![], vec![]]).is_err());
    }
}
