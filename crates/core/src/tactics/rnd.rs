//! The RND tactic adapter: probabilistic payload encryption, class 1.

use datablinder_docstore::Value;
use datablinder_primitives::gcm::NONCE_LEN;
use datablinder_sse::rnd::RndCipher;
use datablinder_sse::DocId;
use rand::RngCore;

use super::{shadow_field, TacticContext};
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{GatewayTactic, ProtectItem, ProtectedField};
use crate::wire::{canonical_bytes, decode_value};

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
}

impl RndTactic {
    /// Builds from context (key via KMS).
    ///
    /// # Errors
    ///
    /// Key-schedule failures.
    pub fn build(ctx: &TacticContext) -> Result<Self, CoreError> {
        let key = ctx.kms.key_for(&ctx.key_scope("rnd"));
        Ok(RndTactic { cipher: RndCipher::new(&key)? })
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
        _id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        let ct = self.cipher.encrypt(rng, &canonical_bytes(value));
        Ok(ProtectedField { stored: vec![(shadow_field(field, "rnd"), Value::Bytes(ct))], index_calls: Vec::new() })
    }

    fn protect_many(&mut self, items: &mut [ProtectItem<'_>]) -> Vec<Result<ProtectedField, CoreError>> {
        // Draw each item's nonce from its own RNG in item order — exactly
        // the first (and only) bytes `encrypt` would draw — then seal the
        // whole batch with one cipher context. Byte-identical to the
        // sequential path by construction.
        let plains: Vec<Vec<u8>> = items.iter().map(|it| canonical_bytes(it.value)).collect();
        let batch: Vec<([u8; NONCE_LEN], &[u8])> = items
            .iter_mut()
            .zip(&plains)
            .map(|(it, pt)| {
                let mut nonce = [0u8; NONCE_LEN];
                it.rng.fill_bytes(&mut nonce);
                (nonce, pt.as_slice())
            })
            .collect();
        let cts = self.cipher.encrypt_many(&batch);
        items
            .iter()
            .zip(cts)
            .map(|(it, ct)| {
                Ok(ProtectedField {
                    stored: vec![(shadow_field(it.field, "rnd"), Value::Bytes(ct))],
                    index_calls: Vec::new(),
                })
            })
            .collect()
    }

    fn recover(&self, ciphertext: &[u8]) -> Result<Value, CoreError> {
        let plain = self.cipher.decrypt(ciphertext)?;
        decode_value(&mut plain.as_slice())
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
        assert_eq!(p.stored[0].0, "performer__rnd");
        let Value::Bytes(ct) = &p.stored[0].1 else { panic!("RND stores bytes") };
        assert_eq!(t.recover(ct).unwrap(), Value::from("John Smith"));
    }

    #[test]
    fn recover_rejects_a_tampered_ciphertext() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut t = RndTactic::build(&ctx()).unwrap();
        let p = t.protect(&mut rng, "performer", &Value::from("John Smith"), DocId([1; 16])).unwrap();
        let Value::Bytes(mut ct) = p.stored[0].1.clone() else { panic!("RND stores bytes") };
        *ct.last_mut().unwrap() ^= 1;
        assert!(t.recover(&ct).is_err());
        assert!(t.recover(&[]).is_err());
    }

    #[test]
    fn search_unsupported() {
        let mut t = RndTactic::build(&ctx()).unwrap();
        assert!(matches!(t.eq_query("performer", &Value::from("x")), Err(CoreError::UnsupportedOperation(_))));
    }

    #[test]
    fn protect_many_matches_sequential_protect() {
        let mut seq = RndTactic::build(&ctx()).unwrap();
        let mut bat = RndTactic::build(&ctx()).unwrap();
        let values: Vec<Value> = (0..5).map(|i| Value::from(format!("value-{i}"))).collect();
        // Same per-item rng streams on both paths (the gateway pre-forks
        // one rng per item; reseeding per index models that).
        let sequential: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(100 + i as u64);
                seq.protect(&mut rng, "f", v, DocId([i as u8; 16])).unwrap()
            })
            .collect();
        let mut rngs: Vec<_> = (0..values.len()).map(|i| rand::rngs::StdRng::seed_from_u64(100 + i as u64)).collect();
        let mut items: Vec<ProtectItem<'_>> = rngs
            .iter_mut()
            .zip(&values)
            .enumerate()
            .map(|(i, (rng, value))| ProtectItem { rng, field: "f", value, id: DocId([i as u8; 16]) })
            .collect();
        let batched = bat.protect_many(&mut items);
        for (s, b) in sequential.iter().zip(&batched) {
            let b = b.as_ref().unwrap();
            assert_eq!(s.stored, b.stored);
            assert!(b.index_calls.is_empty());
        }
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
