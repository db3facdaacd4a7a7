//! The RND tactic adapter: probabilistic payload encryption, class 1.

use datablinder_codec::Writer;
use datablinder_docstore::Value;
use datablinder_sse::rnd::RndCipher;
use datablinder_sse::DocId;
use rand::RngCore;

use super::{Shadow, TacticContext};
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{GatewayTactic, ProtectedField};
use crate::wire::{decode_value, encode_value};

/// Descriptor for RND (Table 2: class 1, leakage *Structure*, 6 gateway /
/// 4 cloud interfaces, challenge "inefficiency" — no search at all).
pub fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "rnd".into(),
        family: "probabilistic encryption".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(1, 0, 1) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(1, 1, 1) },
        ],
        serves: vec![FieldOp::Insert],
        serves_agg: vec![],
        gateway_interfaces: 6,
        cloud_interfaces: 4,
        gateway_state: false,
    }
}

/// Gateway half of RND.
pub struct RndTactic {
    cipher: RndCipher,
    shadow: Shadow,
    /// The canonical bytes of the value being protected, reused.
    plaintext: Vec<u8>,
}

impl RndTactic {
    /// Builds from context (key via KMS).
    ///
    /// # Errors
    ///
    /// Key-schedule failures.
    ///
    /// The cipher is bound to the instance's collection and field, and each
    /// seal to its document id: a ciphertext opens only where it was stored.
    pub fn build(ctx: &TacticContext) -> Result<Self, CoreError> {
        let key = ctx.kms.key_for(&ctx.key_scope("rnd"));
        let mut context = Writer::new();
        context.str(&ctx.schema).str(&ctx.scope);
        Ok(RndTactic {
            cipher: RndCipher::new(&key)?.bound(&context.finish()),
            shadow: Shadow::new(ctx, "rnd"),
            plaintext: Vec::new(),
        })
    }
}

impl GatewayTactic for RndTactic {
    fn descriptor(&self) -> TacticDescriptor {
        descriptor()
    }

    fn protect(
        &mut self,
        rng: &mut dyn RngCore,
        field: &str,
        value: &Value,
        id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        self.plaintext.clear();
        encode_value(value, &mut self.plaintext);
        let ct = self.cipher.encrypt_for(rng, &id.0, &self.plaintext);
        Ok(ProtectedField { stored: vec![(self.shadow.of(field), Value::Bytes(ct))], index_calls: Vec::new() })
    }

    fn recover(&self, id: DocId, ciphertext: &[u8], scratch: &mut Vec<u8>) -> Result<Value, CoreError> {
        decode_value(&mut self.cipher.decrypt_in(&id.0, ciphertext, scratch)?)
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
            scope: "performer".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        }
    }

    #[test]
    fn protect_and_recover() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut t = RndTactic::build(&ctx()).unwrap();
        let p = t.protect(&mut rng, "performer", &Value::from("John Smith"), DocId([1; 16])).unwrap();
        assert_eq!(p.stored.len(), 1);
        assert!(p.index_calls.is_empty());
        assert_eq!(&*p.stored[0].0, "performer__rnd");
        let Value::Bytes(ct) = &p.stored[0].1 else { panic!("RND stores bytes") };
        assert_eq!(t.recover(DocId([1; 16]), ct, &mut Vec::new()).unwrap(), Value::from("John Smith"));
    }

    #[test]
    fn recover_refuses_a_ciphertext_stored_for_another_document() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut t = RndTactic::build(&ctx()).unwrap();
        let p = t.protect(&mut rng, "performer", &Value::from("John Smith"), DocId([1; 16])).unwrap();
        let Value::Bytes(ct) = &p.stored[0].1 else { panic!("RND stores bytes") };
        assert!(matches!(t.recover(DocId([2; 16]), ct, &mut Vec::new()), Err(CoreError::Sse(_))));
    }

    #[test]
    fn recover_rejects_a_tampered_ciphertext() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut t = RndTactic::build(&ctx()).unwrap();
        let p = t.protect(&mut rng, "performer", &Value::from("John Smith"), DocId([1; 16])).unwrap();
        let Value::Bytes(mut ct) = p.stored[0].1.clone() else { panic!("RND stores bytes") };
        *ct.last_mut().unwrap() ^= 1;
        assert!(t.recover(DocId([1; 16]), &ct, &mut Vec::new()).is_err());
        assert!(t.recover(DocId([1; 16]), &[], &mut Vec::new()).is_err());
    }

    #[test]
    fn search_unsupported() {
        let mut t = RndTactic::build(&ctx()).unwrap();
        assert!(matches!(t.eq_query("performer", &Value::from("x")), Err(CoreError::UnsupportedOperation(_))));
    }

    #[test]
    fn probabilistic_across_calls() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut t = RndTactic::build(&ctx()).unwrap();
        let a = t.protect(&mut rng, "f", &Value::from("v"), DocId([1; 16])).unwrap();
        let b = t.protect(&mut rng, "f", &Value::from("v"), DocId([1; 16])).unwrap();
        assert_ne!(a.stored[0].1, b.stored[0].1);
    }
}
