//! Schemaless document values.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A JSON-like value.
///
/// `Bytes` exists because encrypted field values are raw ciphertexts;
/// MongoDB's BSON has the same distinction.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent/null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// UTF-8 text.
    Str(String),
    /// Raw bytes (ciphertexts, tokens).
    Bytes(Vec<u8>),
    /// Ordered list.
    Array(Vec<Value>),
    /// Nested document.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Type name, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "string",
            Value::Bytes(_) => "bytes",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Total order across values (cross-type ordered by type rank), so
    /// range filters and index BTreeMaps are well-defined. `F64` NaNs sort
    /// greatest.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                I64(_) => 2,
                F64(_) => 3,
                Str(_) => 4,
                Bytes(_) => 5,
                Array(_) => 6,
                Object(_) => 7,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (F64(a), F64(b)) => a.total_cmp(b),
            // Mixed numerics compare numerically so range queries over a
            // field holding both behave sensibly.
            (I64(a), F64(b)) => (*a as f64).total_cmp(b),
            (F64(a), I64(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Array(a), Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Object(a), Object(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    match ka.cmp(kb).then_with(|| va.total_cmp(vb)) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Interprets as `i64` if numeric.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::F64(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// Interprets as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Interprets as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interprets as bytes.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

/// A field name as a document holds it: shared, so that documents built
/// from one schema can hold the schema's names instead of a copy each.
pub type FieldName = Arc<str>;

/// A document: a string id plus named fields.
///
/// The fields are one vector sorted by name, no name twice. A document has
/// a handful of fields, so a scan finds one, and building, cloning or
/// dropping a document costs one allocation for all of them rather than a
/// tree's nodes.
#[derive(Clone, PartialEq)]
pub struct Document {
    id: String,
    fields: Vec<(FieldName, Value)>,
}

impl Document {
    /// Creates an empty document with the given id.
    pub fn new(id: impl Into<String>) -> Self {
        Document { id: id.into(), fields: Vec::new() }
    }

    /// A document built in one step from its fields. Fields already in
    /// name order are kept as they come; otherwise they are sorted, and a
    /// name given twice keeps its last value, as repeated
    /// [`Document::set`]s would.
    pub fn from_fields(id: impl Into<String>, mut fields: Vec<(FieldName, Value)>) -> Self {
        if !fields.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            // A stable sort keeps equal names in arrival order; reversed,
            // `dedup_by` keeps the first of each run, the last to arrive.
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            fields.reverse();
            fields.dedup_by(|later, kept| later.0 == kept.0);
            fields.reverse();
        }
        Document { id: id.into(), fields }
    }

    /// The document id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Where `field` is. A scan comparing lengths first: on a document's
    /// few fields it beats a binary search, whose every probe is a full
    /// lexicographic comparison.
    fn position(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|(name, _)| **name == *field)
    }

    /// Sets a field, returning `self` for chaining-free builder use.
    pub fn set(&mut self, field: impl Into<FieldName>, value: Value) -> &mut Self {
        let field = field.into();
        match self.fields.binary_search_by(|(name, _)| name.cmp(&field)) {
            Ok(at) => self.fields[at].1 = value,
            Err(at) => self.fields.insert(at, (field, value)),
        }
        self
    }

    /// Builder-style field set.
    #[must_use]
    pub fn with(mut self, field: impl Into<FieldName>, value: Value) -> Self {
        self.set(field, value);
        self
    }

    /// Reads a field.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.position(field).map(|at| &self.fields[at].1)
    }

    /// Removes a field.
    pub fn remove(&mut self, field: &str) -> Option<Value> {
        self.position(field).map(|at| self.fields.remove(at).1)
    }

    /// Keeps only the fields `keep` returns `true` for.
    pub fn retain(&mut self, mut keep: impl FnMut(&str, &mut Value) -> bool) {
        self.fields.retain_mut(|(name, value)| keep(name, value));
    }

    /// Iterates fields in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(name, value)| (&**name, value))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field names.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(name, _)| &**name)
    }
}

/// Prints as the map it is: `Document { id: .., fields: {name: value, ..} }`.
impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Fields<'a>(&'a [(FieldName, Value)]);
        impl fmt::Debug for Fields<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter().map(|(name, value)| (name, value))).finish()
            }
        }
        f.debug_struct("Document").field("id", &self.id).field("fields", &Fields(&self.fields)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn total_cmp_same_types() {
        assert_eq!(Value::from(1i64).total_cmp(&Value::from(2i64)), Ordering::Less);
        assert_eq!(Value::from("a").total_cmp(&Value::from("b")), Ordering::Less);
        assert_eq!(Value::from(true).total_cmp(&Value::from(false)), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn total_cmp_mixed_numeric() {
        assert_eq!(Value::from(1i64).total_cmp(&Value::from(1.5f64)), Ordering::Less);
        assert_eq!(Value::from(2.0f64).total_cmp(&Value::from(2i64)), Ordering::Equal);
    }

    #[test]
    fn total_cmp_cross_type_rank() {
        assert_eq!(Value::Null.total_cmp(&Value::from(false)), Ordering::Less);
        assert_eq!(Value::from("s").total_cmp(&Value::from(1i64)), Ordering::Greater);
    }

    #[test]
    fn arrays_lexicographic() {
        let a = Value::Array(vec![Value::from(1i64), Value::from(2i64)]);
        let b = Value::Array(vec![Value::from(1i64), Value::from(3i64)]);
        let c = Value::Array(vec![Value::from(1i64)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn document_accessors() {
        let mut d = Document::new("d1");
        d.set("a", Value::from(1i64));
        d.set("b", Value::from("x"));
        assert_eq!(d.id(), "d1");
        assert_eq!(d.len(), 2);
        assert_eq!(d.get("a"), Some(&Value::from(1i64)));
        assert_eq!(d.remove("a"), Some(Value::from(1i64)));
        assert_eq!(d.get("a"), None);
        assert!(!d.is_empty());
        d.set("c", Value::from(2i64));
        d.retain(|name, _| name != "b");
        assert_eq!(d.field_names().collect::<Vec<_>>(), ["c"]);
        let d2 = Document::new("d2").with("f", Value::from(true));
        assert_eq!(d2.get("f"), Some(&Value::from(true)));
    }

    #[test]
    fn a_document_behaves_as_the_map_it_stores() {
        use rand::{Rng, SeedableRng};
        let names = ["a", "b", "b_", "c", "id", "z", "a__det"];
        for case in 0..200 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            let (mut doc, mut model) = (Document::new("d"), BTreeMap::new());
            for step in 0..rng.gen_range(0..40) {
                let name = names[rng.gen_range(0..names.len())];
                match rng.gen_range(0..4) {
                    0 => assert_eq!(doc.remove(name), model.remove(name), "case {case}"),
                    1 => {
                        doc.retain(|n, _| n != name);
                        model.retain(|n: &String, _| n != name);
                    }
                    _ => {
                        doc.set(name, Value::from(step as i64));
                        model.insert(name.to_string(), Value::from(step as i64));
                    }
                }
                assert!(doc.iter().eq(model.iter().map(|(n, v)| (n.as_str(), v))), "case {case}, step {step}");
                assert_eq!(doc.get(name), model.get(name), "case {case}");
            }
            // Built in one step from the same fields, in any order and
            // with repeats, it is the same document; the last repeat wins.
            let mut fields: Vec<(FieldName, Value)> =
                model.iter().map(|(n, v)| (n.as_str().into(), v.clone())).collect();
            if let Some(first) = fields.first().cloned() {
                fields.insert(0, (first.0, Value::Null));
            }
            fields.reverse();
            let half = fields.len() / 2;
            fields.rotate_left(half);
            let set_one_by_one = fields.iter().fold(Document::new("d"), |d, (n, v)| d.with(n.clone(), v.clone()));
            assert_eq!(Document::from_fields("d", fields), set_one_by_one, "case {case}");
        }
    }

    #[test]
    fn a_document_prints_as_a_map() {
        let doc = Document::new("d").with("b", Value::from(2i64)).with("a", Value::Null);
        assert_eq!(format!("{doc:?}"), r#"Document { id: "d", fields: {"a": Null, "b": I64(2)} }"#);
    }

    #[test]
    fn casts() {
        assert_eq!(Value::from(3i64).as_f64(), Some(3.0));
        assert_eq!(Value::from(3.0f64).as_i64(), Some(3));
        assert_eq!(Value::from(3.5f64).as_i64(), None);
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert_eq!(Value::from("s").as_i64(), None);
    }
}
