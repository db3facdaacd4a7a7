//! The data protection metadata subsystem (Fig. 4): persistence of
//! per-application schemas and annotation validation.

use datablinder_docstore::Document;
use datablinder_kvstore::KvStore;

use crate::error::CoreError;
use crate::model::Schema;
use crate::wire::{decode_schema, encode_schema};

/// Gateway-local schema store over the KV substrate.
#[derive(Clone)]
pub struct SchemaStore {
    kv: KvStore,
}

impl SchemaStore {
    /// Creates a store over a (typically gateway-local) KV store.
    pub fn new(kv: KvStore) -> Self {
        SchemaStore { kv }
    }

    fn key(name: &str) -> Vec<u8> {
        let mut k = b"schema/".to_vec();
        k.extend_from_slice(name.as_bytes());
        k
    }

    /// Persists a schema (idempotent overwrite).
    pub fn put(&self, schema: &Schema) {
        self.kv.set(&Self::key(&schema.name), &encode_schema(schema));
    }

    /// Loads a schema.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownSchema`] when absent, [`CoreError::Wire`] on
    /// corrupt records.
    pub fn get(&self, name: &str) -> Result<Schema, CoreError> {
        let bytes = self.kv.get(&Self::key(name)).ok_or_else(|| CoreError::UnknownSchema(name.to_string()))?;
        decode_schema(&bytes)
    }

    /// Names of registered schemas.
    pub fn names(&self) -> Vec<String> {
        self.kv
            .keys_with_prefix(b"schema/")
            .into_iter()
            .filter_map(|k| String::from_utf8(k[b"schema/".len()..].to_vec()).ok())
            .collect()
    }
}

/// Validates an application document against its schema ("the schema
/// management component also validates whether the application documents
/// correspond to the configured schemas", §4.1).
///
/// # Errors
///
/// [`CoreError::SchemaViolation`] listing the first offending field.
pub fn validate_document(schema: &Schema, doc: &Document) -> Result<(), CoreError> {
    // Both sides ascend by name, so one merge walk pairs them. A field the
    // schema lacks is reported only after every schema field has passed,
    // the first in document order.
    let mut fields = doc.iter().peekable();
    let mut unknown = None;
    for (name, spec) in &schema.fields {
        while let Some((extra, _)) = fields.next_if(|&(field, _)| field < name.as_str()) {
            unknown = unknown.or(Some(extra));
        }
        match fields.next_if(|&(field, _)| field == name).map(|(_, value)| value) {
            None if spec.required => {
                return Err(CoreError::SchemaViolation(format!("missing required field {name}")));
            }
            Some(value) if !spec.field_type.admits(value) => {
                return Err(CoreError::SchemaViolation(format!(
                    "field {name}: expected {:?}, got {}",
                    spec.field_type,
                    value.type_name()
                )));
            }
            _ => {}
        }
    }
    match unknown.or_else(|| fields.next().map(|(extra, _)| extra)) {
        Some(name) => Err(CoreError::SchemaViolation(format!("unknown field {name}"))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FieldAnnotation, FieldOp, FieldType, ProtectionClass};
    use datablinder_docstore::Value;

    fn schema() -> Schema {
        Schema::new("obs")
            .plain_field("note", FieldType::Text, false)
            .plain_field("count", FieldType::Integer, true)
            .sensitive_field(
                "status",
                FieldType::Text,
                true,
                FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert, FieldOp::Equality]),
            )
            .plain_field("score", FieldType::Float, false)
    }

    #[test]
    fn store_roundtrip_and_listing() {
        let store = SchemaStore::new(KvStore::new());
        assert!(matches!(store.get("obs"), Err(CoreError::UnknownSchema(_))));
        store.put(&schema());
        assert_eq!(store.get("obs").unwrap(), schema());
        assert_eq!(store.names(), vec!["obs"]);
    }

    #[test]
    fn validation_accepts_conforming_documents() {
        let doc = Document::new("d")
            .with("count", Value::from(5i64))
            .with("status", Value::from("final"))
            .with("score", Value::from(1.5f64));
        validate_document(&schema(), &doc).unwrap();
        // Optional fields may be absent; Float accepts integers.
        let doc = Document::new("d")
            .with("count", Value::from(5i64))
            .with("status", Value::from("final"))
            .with("score", Value::from(2i64));
        validate_document(&schema(), &doc).unwrap();
    }

    #[test]
    fn validation_rejects_violations() {
        // Missing required.
        let doc = Document::new("d").with("status", Value::from("final"));
        assert!(validate_document(&schema(), &doc).is_err());
        // Wrong type.
        let doc = Document::new("d").with("count", Value::from("five")).with("status", Value::from("final"));
        assert!(validate_document(&schema(), &doc).is_err());
        // Unknown field.
        let doc = Document::new("d")
            .with("count", Value::from(1i64))
            .with("status", Value::from("final"))
            .with("mystery", Value::Null);
        assert!(validate_document(&schema(), &doc).is_err());
    }

    /// The merge walk names the offending field a lookup per field would:
    /// the first schema field that is missing or mistyped, else the first
    /// document field the schema lacks.
    #[test]
    fn validation_reports_what_a_lookup_per_field_reports() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn by_lookup(schema: &Schema, doc: &Document) -> Result<(), CoreError> {
            for (name, spec) in &schema.fields {
                match doc.get(name) {
                    None if spec.required => {
                        return Err(CoreError::SchemaViolation(format!("missing required field {name}")));
                    }
                    Some(value) if !spec.field_type.admits(value) => {
                        return Err(CoreError::SchemaViolation(format!(
                            "field {name}: expected {:?}, got {}",
                            spec.field_type,
                            value.type_name()
                        )));
                    }
                    _ => {}
                }
            }
            match doc.iter().find(|(name, _)| !schema.fields.contains_key(*name)) {
                Some((name, _)) => Err(CoreError::SchemaViolation(format!("unknown field {name}"))),
                None => Ok(()),
            }
        }
        let names = ["a", "a_b", "ab", "b", "ba", "c", "z"];
        let types = [FieldType::Text, FieldType::Integer, FieldType::Float, FieldType::Boolean];
        for case in 0..2_000 {
            let rng = &mut StdRng::seed_from_u64(case);
            let mut schema = Schema::new("s");
            let mut doc = Document::new("d");
            for name in names {
                if rng.gen_range(0..3) > 0 {
                    schema = schema.plain_field(name, types[rng.gen_range(0..4usize)], rng.gen());
                }
                if rng.gen_range(0..3) > 0 {
                    let value = match rng.gen_range(0..4) {
                        0 => Value::from("x"),
                        1 => Value::from(1i64),
                        2 => Value::from(0.5),
                        _ => Value::from(true),
                    };
                    doc.set(name, value);
                }
            }
            assert_eq!(validate_document(&schema, &doc), by_lookup(&schema, &doc), "case {case}");
        }
    }
}
