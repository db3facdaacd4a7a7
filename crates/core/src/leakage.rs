//! Empirical leakage auditing.
//!
//! The paper's §3.1 taxonomy (Structure < Identifiers < Predicates <
//! Equalities < Order) is a *design-time* classification. This module
//! makes it *observable*: given the untrusted zone's stores after a
//! workload, it measures what an honest-but-curious cloud could actually
//! compute — equality classes of stored ciphertexts, order correlation,
//! and length distributions — and maps the observations back to the
//! taxonomy. Useful for
//!
//! * regression-testing that a tactic does not leak more than its
//!   descriptor declares (see the tests below and `tests/security.rs`),
//! * the padding ablation: quantifying what RND's length bucketing hides.

use std::collections::HashMap;

use datablinder_docstore::{Collection, Filter, Value};

use crate::model::LeakageLevel;

/// What a snapshot adversary can compute from one stored (shadow) field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldAudit {
    /// Stored field name audited.
    pub field: String,
    /// Number of documents carrying the field.
    pub population: usize,
    /// Number of distinct ciphertexts.
    pub distinct_ciphertexts: usize,
    /// Size of the largest equality class (1 = all distinct).
    pub largest_equality_class: usize,
    /// Number of distinct ciphertext lengths.
    pub distinct_lengths: usize,
    /// Whether stored byte order is a total order consistent with *some*
    /// strictly increasing map (always true); reported as the fraction of
    /// adjacent stored pairs whose order matches a caller-provided
    /// plaintext order, when given (1.0 = order fully leaked).
    pub order_correlation: Option<f64>,
}

impl FieldAudit {
    /// The lowest taxonomy level consistent with the observations:
    ///
    /// * ciphertext equality classes of size > 1 ⇒ at least `Equalities`;
    /// * order correlation ≈ 1 ⇒ `Order`;
    /// * otherwise the snapshot reveals only sizes ⇒ `Structure`.
    ///
    /// (Identifiers/Predicates are *query-time* leakages; a pure snapshot
    /// cannot exhibit them — which is itself the §2 snapshot-model point.)
    pub fn observed_level(&self) -> LeakageLevel {
        if matches!(self.order_correlation, Some(c) if c > 0.99) {
            LeakageLevel::Order
        } else if self.largest_equality_class > 1 {
            LeakageLevel::Equalities
        } else {
            LeakageLevel::Structure
        }
    }
}

/// Audits one stored field of a cloud collection.
///
/// `plaintext_order`: optionally, the documents' true plaintext values
/// (by document id) so order correlation can be measured — an *auditor's*
/// knowledge, not the adversary's.
pub fn audit_field(collection: &Collection, field: &str, plaintext_order: Option<&HashMap<String, i64>>) -> FieldAudit {
    let docs = collection.find(&Filter::Exists(field.to_string()));
    let mut classes: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut lengths: HashMap<usize, usize> = HashMap::new();
    let mut pairs: Vec<(Vec<u8>, i64)> = Vec::new();
    for d in &docs {
        let bytes = match d.get(field) {
            Some(Value::Bytes(b)) => b.clone(),
            Some(other) => {
                let mut buf = Vec::new();
                crate::wire::encode_value(other, &mut buf);
                buf
            }
            None => continue,
        };
        *classes.entry(bytes.clone()).or_insert(0) += 1;
        *lengths.entry(bytes.len()).or_insert(0) += 1;
        if let Some(order) = plaintext_order {
            if let Some(v) = order.get(d.id()) {
                pairs.push((bytes, *v));
            }
        }
    }

    let order_correlation = plaintext_order.map(|_| {
        if pairs.len() < 2 {
            return 0.0;
        }
        // Fraction of pairs whose ciphertext byte-order agrees with the
        // plaintext order (concordance; 1.0 for OPE, ~0.5 for RND/DET).
        let mut concordant = 0usize;
        let mut total = 0usize;
        for i in 0..pairs.len() {
            for j in i + 1..pairs.len() {
                let (ca, va) = &pairs[i];
                let (cb, vb) = &pairs[j];
                if va == vb {
                    continue;
                }
                total += 1;
                if (ca < cb) == (va < vb) {
                    concordant += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            concordant as f64 / total as f64
        }
    });

    FieldAudit {
        field: field.to_string(),
        population: docs.len(),
        distinct_ciphertexts: classes.len(),
        largest_equality_class: classes.values().copied().max().unwrap_or(0),
        distinct_lengths: lengths.len(),
        order_correlation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spi::GatewayTactic;
    use crate::tactics::TacticContext;
    use datablinder_docstore::Document;
    use datablinder_kms::Kms;
    use datablinder_sse::DocId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> TacticContext {
        let mut rng = StdRng::seed_from_u64(1);
        TacticContext {
            application: "audit".into(),
            schema: "c".into(),
            scope: "f".into(),
            kms: Kms::generate(&mut rng),
        }
    }

    /// Stores protections of `values` through a tactic and returns the
    /// collection plus the plaintext order map.
    fn populate(
        tactic: &mut dyn GatewayTactic,
        values: &[i64],
        as_text: bool,
    ) -> (Collection, HashMap<String, i64>, String) {
        let mut rng = StdRng::seed_from_u64(2);
        let coll = Collection::new();
        let mut order = HashMap::new();
        let mut shadow_name = String::new();
        for (i, &v) in values.iter().enumerate() {
            let mut idb = [0u8; 16];
            idb[0] = i as u8;
            let id = DocId(idb);
            let value = if as_text { Value::from(format!("v{v}")) } else { Value::from(v) };
            let p = tactic.protect(&mut rng, "f", &value, id).unwrap();
            let mut doc = Document::new(id.to_hex());
            for (f, stored) in p.stored {
                shadow_name = f.to_string();
                doc.set(f, stored);
            }
            coll.insert(doc).unwrap();
            order.insert(id.to_hex(), v);
        }
        (coll, order, shadow_name)
    }

    #[test]
    fn rnd_observes_structure_only() {
        let mut t = crate::tactics::rnd::RndTactic::build(&ctx()).unwrap();
        // Repeated values, different lengths within one padding bucket.
        let (coll, order, shadow) = populate(&mut t, &[5, 5, 5, 7, 7, 9], true);
        let audit = audit_field(&coll, &shadow, Some(&order));
        assert_eq!(audit.population, 6);
        assert_eq!(audit.distinct_ciphertexts, 6, "probabilistic: no equality classes");
        assert_eq!(audit.largest_equality_class, 1);
        assert_eq!(audit.distinct_lengths, 1, "padding hides in-bucket lengths");
        assert_eq!(audit.observed_level(), LeakageLevel::Structure);
    }

    #[test]
    fn det_observes_equalities() {
        let mut t = crate::tactics::det::DetTactic::build(&ctx()).unwrap();
        let (coll, order, shadow) = populate(&mut t, &[5, 5, 5, 7, 9], true);
        let audit = audit_field(&coll, &shadow, Some(&order));
        assert_eq!(audit.distinct_ciphertexts, 3);
        assert_eq!(audit.largest_equality_class, 3, "equal plaintexts visible");
        assert_eq!(audit.observed_level(), LeakageLevel::Equalities);
        // But not order: correlation far from 1.
        assert!(audit.order_correlation.unwrap() < 0.99);
    }

    #[test]
    fn ope_observes_order() {
        let mut t = crate::tactics::ope::OpeTactic::build(&ctx()).unwrap();
        let (coll, order, shadow) = populate(&mut t, &[1, 5, 9, 14, 22, 100, 4000], false);
        let audit = audit_field(&coll, &shadow, Some(&order));
        assert_eq!(audit.order_correlation, Some(1.0), "OPE leaks total order");
        assert_eq!(audit.observed_level(), LeakageLevel::Order);
    }

    #[test]
    fn ore_snapshot_hides_order() {
        // ORE's point vs OPE: the stored (right) ciphertexts alone do not
        // reveal order — only comparisons against query-time left
        // ciphertexts do. ORE stores nothing in the document, so the
        // audited surface is empty; audit its KV entries' shape instead.
        let mut t = crate::tactics::ore::OreTactic::build(&ctx()).unwrap();
        let (coll, _order, shadow) = populate(&mut t, &[1, 2, 3], false);
        assert!(shadow.is_empty(), "ore stores only index entries");
        let audit = audit_field(&coll, "f__ore", None);
        assert_eq!(audit.population, 0);
    }

    #[test]
    fn unpadded_rnd_leaks_lengths_the_ablation() {
        // The padding ablation: with bucketing disabled, length becomes an
        // observable (still Structure in the taxonomy — "things which can
        // be hidden by padding" — but measurably worse).
        use datablinder_primitives::keys::SymmetricKey;
        use datablinder_sse::rnd::RndCipher;
        let mut rng = StdRng::seed_from_u64(3);
        let padded = RndCipher::new(&SymmetricKey::from_bytes(&[1u8; 32])).unwrap();
        let unpadded = RndCipher::with_bucket(&SymmetricKey::from_bytes(&[1u8; 32]), 0).unwrap();
        let coll_p = Collection::new();
        let coll_u = Collection::new();
        for (i, text) in ["a", "bb", "ccc", "dddd"].iter().enumerate() {
            let mut doc_p = Document::new(format!("p{i}"));
            doc_p.set("f", Value::Bytes(padded.encrypt(&mut rng, text.as_bytes())));
            coll_p.insert(doc_p).unwrap();
            let mut doc_u = Document::new(format!("u{i}"));
            doc_u.set("f", Value::Bytes(unpadded.encrypt(&mut rng, text.as_bytes())));
            coll_u.insert(doc_u).unwrap();
        }
        assert_eq!(audit_field(&coll_p, "f", None).distinct_lengths, 1);
        assert_eq!(audit_field(&coll_u, "f", None).distinct_lengths, 4);
    }
}
