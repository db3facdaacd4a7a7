//! Byte codecs for values, documents and schemas crossing the
//! gateway↔cloud channel and stored in the metadata subsystem.
//!
//! No JSON serializer is available offline, so the middleware speaks a
//! compact tagged binary format (which is also what a production system
//! would prefer on the wire).

use std::collections::BTreeMap;

use datablinder_codec::{Malformed, Reader, Writer};
use datablinder_docstore::{Document, FieldName, Names, Value};

use crate::error::CoreError;
use crate::model::{AggFn, FieldAnnotation, FieldOp, FieldSpec, FieldType, ProtectionClass, Schema};

/// Deepest array/object nesting [`decode_value`] follows. The decoder
/// recurses once per level and a level costs an attacker five bytes, so
/// without a bound a response far below the frame limit overflows the
/// stack; no schema in the system nests anywhere near this deep.
pub const MAX_VALUE_DEPTH: usize = 64;

/// Encodes a [`Value`], appending to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    let mut w = Writer::from(std::mem::take(out));
    put_value(v, &mut w);
    *out = w.finish();
}

pub(crate) fn put_value(v: &Value, w: &mut Writer) {
    // Every arm yields the writer, so the scalar arms stay one chain each.
    match v {
        Value::Null => w.u8(0),
        Value::Bool(b) => w.u8(1).u8(*b as u8),
        Value::I64(i) => w.u8(2).raw(&i.to_be_bytes()),
        Value::F64(f) => w.u8(3).raw(&f.to_be_bytes()),
        Value::Str(s) => w.u8(4).str(s),
        Value::Bytes(b) => w.u8(5).bytes(b),
        Value::Array(items) => {
            w.u8(6).u32(items.len() as u32);
            for item in items {
                put_value(item, w);
            }
            w
        }
        Value::Object(map) => {
            w.u8(7).u32(map.len() as u32);
            for (k, val) in map {
                put_value(val, w.str(k));
            }
            w
        }
    };
}

/// Decodes a [`Value`], advancing `buf`.
///
/// # Errors
///
/// [`CoreError::Wire`] on truncation, unknown tags or nesting deeper than
/// [`MAX_VALUE_DEPTH`].
pub fn decode_value(buf: &mut &[u8]) -> Result<Value, CoreError> {
    let mut r = Reader::new(buf);
    let v = take_value(&mut r, 0)?;
    *buf = r.rest();
    Ok(v)
}

pub(crate) fn take_value(r: &mut Reader, depth: usize) -> Result<Value, Malformed> {
    value_after(r.u8()?, r, depth)
}

/// The rest of an encoded [`Value`] whose tag was `tag`: what
/// [`take_value`] reads after the tag byte.
pub(crate) fn value_after(tag: u8, r: &mut Reader, depth: usize) -> Result<Value, Malformed> {
    if depth > MAX_VALUE_DEPTH {
        return Err(Malformed("value nesting"));
    }
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::I64(i64::from_be_bytes(r.raw()?)),
        3 => Value::F64(f64::from_be_bytes(r.raw()?)),
        4 => Value::Str(r.str()?.to_string()),
        5 => Value::Bytes(r.bytes()?.to_vec()),
        6 => Value::Array((0..r.count()?).map(|_| take_value(r, depth + 1)).collect::<Result<_, _>>()?),
        7 => {
            let mut map = BTreeMap::new();
            for _ in 0..r.count()? {
                map.insert(r.str()?.to_string(), take_value(r, depth + 1)?);
            }
            Value::Object(map)
        }
        _ => return Err(Malformed("unknown value tag")),
    })
}

/// How many bytes [`encode_value`] writes for `v`.
fn value_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::I64(_) | Value::F64(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Bytes(b) => 4 + b.len(),
        Value::Array(items) => 4 + items.iter().map(value_len).sum::<usize>(),
        Value::Object(map) => 4 + map.iter().map(|(k, v)| 4 + k.len() + value_len(v)).sum::<usize>(),
    }
}

/// Passes over one encoded [`Value`] under the checks of [`take_value`] —
/// tags, lengths, UTF-8, nesting — and builds nothing.
pub(crate) fn skip_value(r: &mut Reader, depth: usize) -> Result<(), Malformed> {
    if depth > MAX_VALUE_DEPTH {
        return Err(Malformed("value nesting"));
    }
    match r.u8()? {
        0 => {}
        1 => {
            r.u8()?;
        }
        2 | 3 => {
            r.raw::<8>()?;
        }
        4 => {
            r.str()?;
        }
        5 => {
            r.bytes()?;
        }
        6 => {
            for _ in 0..r.count()? {
                skip_value(r, depth + 1)?;
            }
        }
        7 => {
            for _ in 0..r.count()? {
                r.str()?;
                skip_value(r, depth + 1)?;
            }
        }
        _ => return Err(Malformed("unknown value tag")),
    }
    Ok(())
}

/// The contents of a `Bytes` value whose tag was `tag`, lent: how a
/// ciphertext gets from a fetched document to its tactic.
pub(crate) fn ciphertext_after<'a>(tag: u8, r: &mut Reader<'a>) -> Result<&'a [u8], Malformed> {
    match tag {
        5 => r.bytes(),
        _ => Err(Malformed("ciphertext field is not bytes")),
    }
}

/// The tag a search answer by position (a `doc/get_many` or `doc/fetch`
/// with a keep list) writes where a document lacks a kept name; no
/// [`Value`] starts with it.
pub const ABSENT: u8 = 0xFF;

/// Encodes a [`Document`] (id + fields).
pub fn encode_document(doc: &Document) -> Vec<u8> {
    let mut w = Writer::new();
    put_document(doc, &mut w);
    w.finish()
}

pub(crate) fn put_document(doc: &Document, w: &mut Writer) {
    put_fields(doc.id(), doc.iter(), w);
}

/// How many bytes [`encode_document`] writes for `doc`, worked out without
/// writing them.
pub(crate) fn document_len(doc: &Document) -> usize {
    fields_len(doc.id(), doc.iter())
}

fn fields_len<'a>(id: &str, fields: impl Iterator<Item = (&'a str, &'a Value)>) -> usize {
    4 + id.len() + 4 + fields.map(|(name, value)| 4 + name.len() + value_len(value)).sum::<usize>()
}

/// Writes a document as its `id`, then its `fields`, which ascend strictly
/// by name.
fn put_fields<'a>(id: &str, fields: impl ExactSizeIterator<Item = (&'a str, &'a Value)>, w: &mut Writer) {
    w.str(id).u32(fields.len() as u32);
    for (name, value) in fields {
        put_value(value, w.str(name));
    }
}

/// The payload of a `doc/insert` of the document `id` holding `fields`:
/// the bytes of `with_collection(collection, &encode_document(..))`, in
/// one buffer and without building the document. The fields come in any
/// order; a name given twice keeps its last value, as
/// [`Document::from_fields`] keeps it.
pub(crate) fn document_payload(collection: &str, id: &str, mut fields: Vec<(&str, &Value)>) -> Vec<u8> {
    if !fields.windows(2).all(|pair| pair[0].0 < pair[1].0) {
        fields.sort_by(|a, b| a.0.cmp(b.0));
        fields.reverse();
        fields.dedup_by(|later, kept| later.0 == kept.0);
        fields.reverse();
    }
    let size = fields_len(id, fields.iter().copied());
    let mut w = Writer::from(Vec::with_capacity(4 + collection.len() + size));
    w.str(collection);
    put_fields(id, fields.into_iter(), &mut w);
    w.finish()
}

/// Writes `doc` projected onto `keep` (strictly ascending): its id, then
/// per kept name the stored value, or [`ABSENT`] where the document lacks
/// the name. No name and no count travels, and fields outside `keep` stay
/// behind. One merge walk of `keep` against the document's sorted fields.
fn put_projected(doc: &Document, keep: &[&str], w: &mut Writer) {
    w.str(doc.id());
    let mut fields = doc.iter().peekable();
    for &name in keep {
        while fields.next_if(|&(field, _)| field < name).is_some() {}
        match fields.next_if(|&(field, _)| field == name) {
            Some((_, value)) => put_value(value, w),
            None => {
                w.u8(ABSENT);
            }
        }
    }
}

/// Decodes a [`Document`]; each field name is an allocation of its own.
///
/// # Errors
///
/// [`CoreError::Wire`] on malformed input.
pub fn decode_document(buf: &[u8]) -> Result<Document, CoreError> {
    decode_named(buf, |name| name.into())
}

/// [`decode_document`] for a document bound for a collection: each field
/// name is resolved against the collection's table, so only a name the
/// table lacks is allocated.
///
/// # Errors
///
/// [`CoreError::Wire`] on malformed input.
pub fn decode_document_in(buf: &[u8], names: &Names<'_>) -> Result<Document, CoreError> {
    decode_named(buf, |name| names.resolve(name))
}

/// [`decode_document`] with each name handed to `name` for the allocation
/// the document holds.
fn decode_named(buf: &[u8], mut name: impl FnMut(&str) -> FieldName) -> Result<Document, CoreError> {
    datablinder_codec::decode(buf, |r| {
        let id = r.str()?;
        let count = r.count()?;
        // A field takes at least five bytes (its name's length prefix and a
        // value tag), which bounds what a hostile count can reserve.
        let mut fields = Vec::with_capacity(count.min(buf.len() / 5));
        for _ in 0..count {
            fields.push((name(r.str()?), take_value(r, 0)?));
        }
        Ok(Document::from_fields(id, fields))
    })
}

/// Encodes a list of documents: a count-prefixed list of
/// [`encode_document`] byte fields, written into one buffer.
pub fn encode_documents<'a>(docs: impl IntoIterator<Item = &'a Document>) -> Vec<u8> {
    encode_answer(docs, &[])
}

/// A `doc/get_many` or `doc/fetch` answer: the list [`encode_documents`]
/// writes when `keep` is empty, else the same list of [`put_projected`]
/// documents.
pub(crate) fn encode_answer<'a>(docs: impl IntoIterator<Item = &'a Document>, keep: &[&str]) -> Vec<u8> {
    let mut w = Writer::new();
    if keep.is_empty() {
        w.list_with(docs, put_document);
    } else {
        w.list_with(docs, |doc, w| put_projected(doc, keep, w));
    }
    w.finish()
}

/// Decodes a list of documents.
///
/// # Errors
///
/// [`CoreError::Wire`] on malformed input.
pub fn decode_documents(buf: &[u8]) -> Result<Vec<Document>, CoreError> {
    datablinder_codec::decode(buf, |r| r.list()?.into_iter().map(decode_document).collect())
}

/// The canonical index-keyword encoding of a value: the byte string SSE
/// tactics index. Cross-field boolean tactics prepend `field=`.
pub fn canonical_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(v, &mut out);
    out
}

/// Canonical keyword for cross-field boolean indexes: `field || 0x1F || value`.
pub fn field_keyword(field: &str, v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(field.len() + 1 + 16);
    field_keyword_into(field, v, &mut out);
    out
}

/// [`field_keyword`] written over `out`, whose allocation a caller reuses.
pub fn field_keyword_into(field: &str, v: &Value, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(field.as_bytes());
    out.push(0x1F);
    encode_value(v, out);
}

// ------------------------------------------------------------- schema codec

/// Encodes a [`Schema`] for the metadata subsystem.
pub fn encode_schema(s: &Schema) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&s.name).u32(s.fields.len() as u32);
    for (name, spec) in &s.fields {
        w.str(name).u8(match spec.field_type {
            FieldType::Text => 0,
            FieldType::Integer => 1,
            FieldType::Float => 2,
            FieldType::Boolean => 3,
        });
        w.u8(spec.required as u8);
        let Some(a) = &spec.annotation else {
            w.u8(0);
            continue;
        };
        w.u8(1).u8(a.class as u8).u8(a.ops.len() as u8);
        for op in &a.ops {
            w.u8(match op {
                FieldOp::Insert => 0,
                FieldOp::Equality => 1,
                FieldOp::Boolean => 2,
                FieldOp::Range => 3,
            });
        }
        w.u8(a.aggs.len() as u8);
        for agg in &a.aggs {
            w.u8(match agg {
                AggFn::Sum => 0,
                AggFn::Avg => 1,
                AggFn::Count => 2,
            });
        }
    }
    w.finish()
}

/// Decodes a [`Schema`].
///
/// # Errors
///
/// [`CoreError::Wire`] on malformed input.
pub fn decode_schema(buf: &[u8]) -> Result<Schema, CoreError> {
    datablinder_codec::decode(buf, |r| {
        let mut schema = Schema::new(r.str()?);
        for _ in 0..r.count()? {
            let fname = r.str()?.to_string();
            let field_type = match r.u8()? {
                0 => FieldType::Text,
                1 => FieldType::Integer,
                2 => FieldType::Float,
                3 => FieldType::Boolean,
                _ => return Err(CoreError::Wire("field type")),
            };
            let required = r.u8()? != 0;
            let annotation = match r.u8()? {
                0 => None,
                1 => {
                    let class = match r.u8()? {
                        1 => ProtectionClass::C1,
                        2 => ProtectionClass::C2,
                        3 => ProtectionClass::C3,
                        4 => ProtectionClass::C4,
                        5 => ProtectionClass::C5,
                        _ => return Err(CoreError::Wire("protection class")),
                    };
                    let nops = r.u8()? as usize;
                    let ops = r.take(nops)?.iter().map(|op| match op {
                        0 => Ok(FieldOp::Insert),
                        1 => Ok(FieldOp::Equality),
                        2 => Ok(FieldOp::Boolean),
                        3 => Ok(FieldOp::Range),
                        _ => Err(CoreError::Wire("field op")),
                    });
                    let ops = ops.collect::<Result<_, _>>()?;
                    let naggs = r.u8()? as usize;
                    let aggs = r.take(naggs)?.iter().map(|agg| match agg {
                        0 => Ok(AggFn::Sum),
                        1 => Ok(AggFn::Avg),
                        2 => Ok(AggFn::Count),
                        _ => Err(CoreError::Wire("agg fn")),
                    });
                    Some(FieldAnnotation { class, ops, aggs: aggs.collect::<Result<_, _>>()? })
                }
                _ => return Err(CoreError::Wire("annotation flag")),
            };
            schema.fields.insert(fname, FieldSpec { field_type, annotation, required });
        }
        Ok(schema)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FieldAnnotation;

    /// The insert payload written from borrowed fields is the payload of
    /// the document built from them, whatever their order and repeats.
    #[test]
    fn document_payload_is_the_built_documents_encoding() {
        use crate::cloud::with_collection;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let names = ["a", "a__det", "a_b", "b", "b__rnd", "z"];
        let values = [Value::from("text"), Value::from(7i64), Value::Bytes(vec![1, 2, 3]), sample_value(), Value::Null];
        for case in 0..500 {
            let rng = &mut StdRng::seed_from_u64(case);
            let fields: Vec<(&str, &Value)> = (0..rng.gen_range(0..9))
                .map(|_| (names[rng.gen_range(0..names.len())], &values[rng.gen_range(0..values.len())]))
                .collect();
            let built =
                Document::from_fields("d1", fields.iter().map(|&(name, value)| (name.into(), value.clone())).collect());
            let expect = with_collection("obs", &encode_document(&built));
            assert_eq!(document_len(&built), expect.len() - 4 - "obs".len(), "case {case}");
            assert_eq!(document_payload("obs", "d1", fields), expect, "case {case}");
        }
    }

    fn sample_value() -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("k".to_string(), Value::from(1i64));
        Value::Array(vec![
            Value::Null,
            Value::from(true),
            Value::from(-42i64),
            Value::from(2.5f64),
            Value::from("text"),
            Value::Bytes(vec![0, 255, 7]),
            Value::Object(obj),
        ])
    }

    #[test]
    fn value_roundtrip() {
        let v = sample_value();
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_value(&mut slice).unwrap(), v);
        assert!(slice.is_empty());
    }

    #[test]
    fn skip_value_passes_over_exactly_what_take_value_reads() {
        let mut buf = Vec::new();
        encode_value(&sample_value(), &mut buf);
        buf.push(0xEE);
        let mut r = Reader::new(&buf);
        skip_value(&mut r, 0).unwrap();
        assert_eq!(r.rest(), [0xEE]);
        // Every truncation, and every tag the reader does not know, fails
        // in both or in neither.
        for cut in 0..buf.len() - 1 {
            assert!(skip_value(&mut Reader::new(&buf[..cut]), 0).is_err(), "cut {cut}");
            assert!(take_value(&mut Reader::new(&buf[..cut]), 0).is_err(), "cut {cut}");
        }
        assert!(skip_value(&mut Reader::new(&[8]), 0).is_err());
        assert!(skip_value(&mut Reader::new(&[4, 0, 0, 0, 1, 0xFF]), 0).is_err(), "not UTF-8");
        let deep: Vec<u8> = [6u8, 0, 0, 0, 1].repeat(MAX_VALUE_DEPTH + 2);
        assert_eq!(skip_value(&mut Reader::new(&deep), 0), Err(Malformed("value nesting")));
    }

    #[test]
    fn ciphertext_after_lends_bytes_and_rejects_every_other_tag() {
        let take = |buf: &[u8]| {
            let mut r = Reader::new(buf);
            ciphertext_after(r.u8()?, &mut r).map(<[u8]>::to_vec)
        };
        let mut buf = Vec::new();
        encode_value(&Value::Bytes(vec![1, 2, 3]), &mut buf);
        assert_eq!(take(&buf), Ok(vec![1u8, 2, 3]));
        for other in [Value::Null, Value::from("ct"), Value::from(7i64), Value::Array(vec![])] {
            let mut buf = Vec::new();
            encode_value(&other, &mut buf);
            assert!(take(&buf).is_err(), "{other:?}");
        }
    }

    #[test]
    fn document_roundtrip() {
        let doc = Document::new("d1").with("a", Value::from(1i64)).with("b", sample_value());
        let decoded = decode_document(&encode_document(&doc)).unwrap();
        assert_eq!(decoded, doc);
    }

    #[test]
    fn documents_list_roundtrip() {
        let docs = vec![Document::new("a").with("x", Value::from(1i64)), Document::new("b")];
        assert_eq!(decode_documents(&encode_documents(&docs)).unwrap(), docs);
        assert_eq!(decode_documents(&encode_documents(&[])).unwrap(), vec![]);
    }

    #[test]
    fn truncation_rejected() {
        let doc = Document::new("d1").with("a", Value::from(1i64));
        let buf = encode_document(&doc);
        for cut in 0..buf.len() {
            assert!(decode_document(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let doc = Document::new("d");
        let mut buf = encode_document(&doc);
        buf.push(0);
        assert!(decode_document(&buf).is_err());
    }

    #[test]
    fn canonical_bytes_distinguish_types() {
        // "1" as string vs 1 as int must index differently.
        assert_ne!(canonical_bytes(&Value::from("1")), canonical_bytes(&Value::from(1i64)));
        assert_eq!(canonical_bytes(&Value::from(5i64)), canonical_bytes(&Value::from(5i64)));
    }

    #[test]
    fn field_keyword_separates_fields() {
        assert_ne!(field_keyword("a", &Value::from("x")), field_keyword("b", &Value::from("x")));
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::new("obs")
            .plain_field("note", FieldType::Text, false)
            .sensitive_field(
                "status",
                FieldType::Text,
                true,
                FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean]),
            )
            .sensitive_field(
                "value",
                FieldType::Float,
                true,
                FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert]).with_aggs(vec![AggFn::Avg]),
            );
        let decoded = decode_schema(&encode_schema(&s)).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn schema_garbage_rejected() {
        assert!(decode_schema(&[1, 2, 3]).is_err());
    }
}
