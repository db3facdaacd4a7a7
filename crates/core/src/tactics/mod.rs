//! Concrete tactic implementations behind the SPI ("the tactics SPI
//! subsystem", Fig. 4) — one adapter per scheme of Table 2, wiring the
//! `datablinder-sse`/`-ope`/`-ore`/`-paillier` schemes into the gateway
//! and cloud halves of the middleware.

pub mod biex;
pub mod det;
pub mod mitra;
pub mod ope;
pub mod ore;
pub mod paillier;
pub mod rnd;
pub mod sophos;

use datablinder_codec::Writer;
use datablinder_docstore::{FieldName, Value};
use datablinder_sse::DocId;

use crate::error::CoreError;

/// Context handed to gateway tactic factories: identifies the key scope
/// and the cloud collection the tactic serves.
#[derive(Debug, Clone)]
pub struct TacticContext {
    /// Owning application (KMS tenant).
    pub application: String,
    /// Schema / collection name.
    pub schema: String,
    /// Scope within the schema: a field name, or `__bool__` for the shared
    /// cross-field boolean index.
    pub scope: String,
    /// Key management handle.
    pub kms: datablinder_kms::Kms,
}

impl TacticContext {
    /// The KMS key scope for a tactic name.
    pub fn key_scope(&self, tactic: &str) -> datablinder_kms::KeyScope {
        datablinder_kms::KeyScope::new(
            self.application.clone(),
            format!("{}.{}", self.schema, self.scope),
            tactic.to_string(),
        )
    }

    /// The cloud route for a tactic operation in this scope.
    pub fn route(&self, tactic: &str, op: &str) -> String {
        format!("tactic/{tactic}/{}:{}/{op}", self.schema, self.scope)
    }
}

/// The shadow-field name a tactic stores its ciphertext under.
pub fn shadow_field(field: &str, suffix: &str) -> String {
    format!("{field}__{suffix}")
}

/// The shadow field a field-scoped instance stores under, named once when
/// the instance is built: `protect` hands out the shared name instead of
/// a new string per value.
pub(crate) struct Shadow {
    name: FieldName,
    /// Where `<field>` ends in `name`.
    field_len: usize,
}

impl Shadow {
    pub(crate) fn new(ctx: &TacticContext, suffix: &str) -> Self {
        Shadow { name: shadow_field(&ctx.scope, suffix).into(), field_len: ctx.scope.len() }
    }

    /// `<field>__<suffix>`: the shared name for the instance's own field.
    pub(crate) fn of(&self, field: &str) -> FieldName {
        if self.name.get(..self.field_len) == Some(field) {
            self.name.clone()
        } else {
            format!("{field}{}", &self.name[self.field_len..]).into()
        }
    }
}

/// Encodes a list of [`DocId`]s.
pub fn encode_ids(ids: &[DocId]) -> Vec<u8> {
    let mut w = Writer::from(Vec::with_capacity(4 + ids.len() * 16));
    w.u32(ids.len() as u32);
    for id in ids {
        w.raw(&id.0);
    }
    w.finish()
}

/// Decodes a list of [`DocId`]s.
///
/// # Errors
///
/// [`CoreError::Wire`] on malformed input.
pub fn decode_ids(buf: &[u8]) -> Result<Vec<DocId>, CoreError> {
    datablinder_codec::decode(buf, |r| (0..r.count()?).map(|_| Ok(DocId(r.raw()?))).collect())
}

/// Maps a numeric [`Value`] to an order-preserving `u64` (for OPE/ORE):
/// sign-flipped two's complement for integers, IEEE-754 total-order trick
/// for floats.
///
/// # Errors
///
/// [`CoreError::UnsupportedOperation`] for non-numeric values and NaN,
/// which has no place in the order (its code would sort past ±∞).
pub fn orderable_u64(v: &Value) -> Result<u64, CoreError> {
    match v {
        Value::I64(i) => Ok((*i as u64) ^ (1 << 63)),
        Value::F64(f) if f.is_nan() => Err(CoreError::UnsupportedOperation("range/order tactics refuse NaN".into())),
        Value::F64(f) => {
            let bits = f.to_bits();
            // Standard order-preserving transform for IEEE-754 doubles.
            Ok(if bits >> 63 == 0 { bits ^ (1 << 63) } else { !bits })
        }
        other => Err(CoreError::UnsupportedOperation(format!(
            "range/order tactics need numeric values, got {}",
            other.type_name()
        ))),
    }
}

/// Fixed-point scale for homomorphic aggregation of floats.
pub const AGG_SCALE: f64 = 1000.0;

/// Maps a numeric [`Value`] to a scaled signed integer for Paillier.
///
/// # Errors
///
/// [`CoreError::UnsupportedOperation`] for non-numeric values and for
/// NaN and ±∞, which no fixed-point integer holds.
pub fn aggregable_i64(v: &Value) -> Result<i64, CoreError> {
    match v {
        Value::I64(i) => Ok(i.saturating_mul(AGG_SCALE as i64)),
        Value::F64(f) if !f.is_finite() => {
            Err(CoreError::UnsupportedOperation(format!("aggregates need finite values, got {f}")))
        }
        Value::F64(f) => Ok((f * AGG_SCALE).round() as i64),
        other => {
            Err(CoreError::UnsupportedOperation(format!("aggregates need numeric values, got {}", other.type_name())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ids_roundtrip() {
        let ids = vec![DocId([1; 16]), DocId([2; 16])];
        assert_eq!(decode_ids(&encode_ids(&ids)).unwrap(), ids);
        assert_eq!(decode_ids(&encode_ids(&[])).unwrap(), vec![]);
        assert!(decode_ids(&[0, 0]).is_err());
        assert!(decode_ids(&[0, 0, 0, 2, 1]).is_err());
    }

    #[test]
    fn orderable_u64_preserves_order() {
        let ints = [-1000i64, -1, 0, 1, 1000, i64::MIN, i64::MAX];
        let mut pairs: Vec<(i64, u64)> = ints.iter().map(|&i| (i, orderable_u64(&Value::I64(i)).unwrap())).collect();
        pairs.sort_by_key(|p| p.0);
        for w in pairs.windows(2) {
            assert!(w[0].1 < w[1].1, "{} vs {}", w[0].0, w[1].0);
        }
        let floats = [-1.5f64, -0.0, 0.0, 0.1, 2.5, 1e10, -1e10];
        let mut fpairs: Vec<(f64, u64)> = floats.iter().map(|&f| (f, orderable_u64(&Value::F64(f)).unwrap())).collect();
        fpairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in fpairs.windows(2) {
            assert!(w[0].1 <= w[1].1, "{} vs {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn orderable_rejects_strings() {
        assert!(orderable_u64(&Value::from("x")).is_err());
    }

    #[test]
    fn orderable_rejects_nan_and_orders_infinities_outermost() {
        for nan in [f64::NAN, -f64::NAN] {
            assert!(matches!(orderable_u64(&Value::F64(nan)), Err(CoreError::UnsupportedOperation(_))));
        }
        let code = |f: f64| orderable_u64(&Value::F64(f)).unwrap();
        assert!(code(f64::NEG_INFINITY) < code(f64::MIN) && code(f64::MAX) < code(f64::INFINITY));
    }

    #[test]
    fn aggregable_scaling() {
        assert_eq!(aggregable_i64(&Value::I64(5)).unwrap(), 5000);
        assert_eq!(aggregable_i64(&Value::F64(6.3)).unwrap(), 6300);
        assert_eq!(aggregable_i64(&Value::F64(-2.5)).unwrap(), -2500);
        assert!(aggregable_i64(&Value::from("x")).is_err());
    }

    #[test]
    fn aggregable_rejects_non_finite_floats() {
        for f in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(aggregable_i64(&Value::F64(f)), Err(CoreError::UnsupportedOperation(_))), "{f}");
        }
    }

    #[test]
    fn context_routes_and_scopes() {
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = TacticContext {
            application: "ehealth".into(),
            schema: "observation".into(),
            scope: "status".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        assert_eq!(ctx.route("mitra", "search"), "tactic/mitra/observation:status/search");
        let ks = ctx.key_scope("mitra");
        assert_eq!(ks.field, "observation.status");
    }
}
