//! One property for every whole-buffer codec in the system — the cloud
//! protocol messages, WAL and KV log records, request/response bodies, the
//! traced envelope, documents, schemas and id lists. Each obeys four laws:
//! `decode(encode(v)) == v`, every strict prefix is an error, one appended
//! byte is an error, and arbitrary bytes never panic. They all decode
//! through `datablinder_codec::decode`, so the laws are proven here once
//! instead of per struct. Complements `wire_fuzz`, which throws fully
//! random bytes at the decoders, and `golden_bytes`, which pins the format.

use std::fmt::Debug;

use datablinder_core::cloudproto::{
    BlobList, ChunkRequest, ChunkResponse, DigestRequest, DigestResponse, FindIdsDnf, FindIdsEq, FindIdsRange,
    Idempotent, PaillierCombine, PaillierSum, PaillierSumResponse, RangeSelect, SyncEntries, SyncEntry, TransferBegin,
    TransferInfo, WalTailRequest, ENTRY_DOC, ENTRY_INDEX, ENTRY_KV,
};
use datablinder_core::durability::WalRecord;
use datablinder_core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
use datablinder_core::tactics::{decode_ids, encode_ids};
use datablinder_core::wire::{
    decode_document, decode_documents, decode_schema, decode_value, encode_document, encode_documents, encode_schema,
};
use datablinder_docstore::{Document, Value};
use datablinder_kvstore::LogRecord;
use datablinder_netsim::{decode_request, decode_response, encode_request, encode_response, NetError};
use datablinder_obs::trace::{self, TraceCtx};
use datablinder_sse::DocId;
use proptest::prelude::*;

/// The four laws, checked for one value of one codec. The prefix loop is
/// exhaustive rather than sampled: a single byte boundary is exactly where
/// an unchecked index would panic.
fn laws<T: PartialEq + Debug>(
    value: &T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    noise: &[u8],
) {
    let enc = encode(value);
    assert_eq!(decode(&enc).as_ref(), Some(value), "round trip");
    for cut in 0..enc.len() {
        assert!(decode(&enc[..cut]).is_none(), "prefix of {cut}/{} decoded", enc.len());
    }
    let mut longer = enc;
    longer.push(0);
    assert!(decode(&longer).is_none(), "trailing byte accepted");
    let _ = decode(noise);
}

/// One value of every codec under test.
#[derive(Debug, Clone)]
enum Msg {
    FindIdsEq(FindIdsEq),
    FindIdsRange(FindIdsRange),
    FindIdsDnf(FindIdsDnf),
    PaillierSum(PaillierSum),
    PaillierCombine(PaillierCombine),
    Idempotent(Idempotent),
    SyncEntries(SyncEntries),
    RangeSelect(RangeSelect),
    TransferBegin(TransferBegin),
    TransferInfo(TransferInfo),
    ChunkRequest(ChunkRequest),
    ChunkResponse(ChunkResponse),
    WalTailRequest(WalTailRequest),
    BlobList(BlobList),
    DigestRequest(DigestRequest),
    DigestResponse(DigestResponse),
    WalRecord(WalRecord),
    LogRecord(LogRecord),
    Request(String, Vec<u8>),
    Response(Result<Vec<u8>, NetError>),
    Traced(TraceCtx, String, Vec<u8>),
    Document(Document),
    Documents(Vec<Document>),
    Schema(Schema),
    Ids(Vec<DocId>),
}

impl Msg {
    fn check(&self, noise: &[u8]) {
        match self {
            Msg::FindIdsEq(m) => laws(m, FindIdsEq::encode, |b| FindIdsEq::decode(b).ok(), noise),
            Msg::FindIdsRange(m) => laws(m, FindIdsRange::encode, |b| FindIdsRange::decode(b).ok(), noise),
            Msg::FindIdsDnf(m) => laws(m, FindIdsDnf::encode, |b| FindIdsDnf::decode(b).ok(), noise),
            Msg::PaillierSum(m) => laws(m, PaillierSum::encode, |b| PaillierSum::decode(b).ok(), noise),
            Msg::PaillierCombine(m) => laws(m, PaillierCombine::encode, |b| PaillierCombine::decode(b).ok(), noise),
            Msg::Idempotent(m) => laws(m, Idempotent::encode, |b| Idempotent::decode(b).ok(), noise),
            Msg::SyncEntries(m) => laws(m, SyncEntries::encode, |b| SyncEntries::decode(b).ok(), noise),
            Msg::RangeSelect(m) => laws(m, RangeSelect::encode, |b| RangeSelect::decode(b).ok(), noise),
            Msg::TransferBegin(m) => laws(m, TransferBegin::encode, |b| TransferBegin::decode(b).ok(), noise),
            Msg::TransferInfo(m) => laws(m, TransferInfo::encode, |b| TransferInfo::decode(b).ok(), noise),
            Msg::ChunkRequest(m) => laws(m, ChunkRequest::encode, |b| ChunkRequest::decode(b).ok(), noise),
            Msg::ChunkResponse(m) => laws(m, ChunkResponse::encode, |b| ChunkResponse::decode(b).ok(), noise),
            Msg::WalTailRequest(m) => laws(m, WalTailRequest::encode, |b| WalTailRequest::decode(b).ok(), noise),
            Msg::BlobList(m) => laws(m, BlobList::encode, |b| BlobList::decode(b).ok(), noise),
            Msg::DigestRequest(m) => laws(m, DigestRequest::encode, |b| DigestRequest::decode(b).ok(), noise),
            Msg::DigestResponse(m) => laws(m, DigestResponse::encode, |b| DigestResponse::decode(b).ok(), noise),
            Msg::WalRecord(m) => laws(m, WalRecord::encode, |b| WalRecord::decode(b).ok(), noise),
            Msg::LogRecord(m) => laws(m, LogRecord::to_bytes, |b| LogRecord::from_body(b).ok(), noise),
            Msg::Request(route, payload) => laws(
                &(route.clone(), payload.clone()),
                |(route, payload)| encode_request(route, payload),
                |b| decode_request(b).ok(),
                noise,
            ),
            // A decoded `MalformedFrame` is indistinguishable from a failed
            // decode, so the generator never produces one.
            Msg::Response(m) => laws(
                m,
                encode_response,
                |b| match decode_response(b.to_vec()) {
                    Err(NetError::MalformedFrame) => None,
                    outcome => Some(outcome),
                },
                noise,
            ),
            Msg::Traced(ctx, route, payload) => laws(
                &(*ctx, route.clone(), payload.clone()),
                |(ctx, route, payload)| trace::encode_traced(*ctx, route, payload),
                |b| {
                    trace::decode_traced(b).ok().map(|(ctx, route, payload)| (ctx, route.to_string(), payload.to_vec()))
                },
                noise,
            ),
            Msg::Document(m) => laws(m, encode_document, |b| decode_document(b).ok(), noise),
            Msg::Documents(m) => laws(m, |docs| encode_documents(docs), |b| decode_documents(b).ok(), noise),
            Msg::Schema(m) => laws(m, encode_schema, |b| decode_schema(b).ok(), noise),
            Msg::Ids(m) => laws(m, |ids| encode_ids(ids), |b| decode_ids(b).ok(), noise),
        }
    }
}

fn blob(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

fn name() -> impl Strategy<Value = String> {
    "[a-z_/]{0,12}"
}

fn token() -> impl Strategy<Value = [u8; 16]> {
    any::<u128>().prop_map(u128::to_be_bytes)
}

fn digest() -> impl Strategy<Value = [u8; 32]> {
    (token(), token()).prop_map(|(hi, lo)| {
        let mut d = [0u8; 32];
        d[..16].copy_from_slice(&hi);
        d[16..].copy_from_slice(&lo);
        d
    })
}

fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        any::<i32>().prop_map(|i| Value::from(f64::from(i) / 8.0)),
        name().prop_map(Value::from),
        blob(24).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec((name(), inner), 0..4).prop_map(|kv| Value::Object(kv.into_iter().collect())),
        ]
    })
}

fn document() -> impl Strategy<Value = Document> {
    (name(), prop::collection::vec((name(), value()), 0..5))
        .prop_map(|(id, fields)| fields.into_iter().fold(Document::new(id), |doc, (k, v)| doc.with(k, v)))
}

fn schema() -> impl Strategy<Value = Schema> {
    let field_type =
        prop::sample::select(vec![FieldType::Text, FieldType::Integer, FieldType::Float, FieldType::Boolean]);
    let class = prop::sample::select(vec![
        ProtectionClass::C1,
        ProtectionClass::C2,
        ProtectionClass::C3,
        ProtectionClass::C4,
        ProtectionClass::C5,
    ]);
    let ops = prop::collection::vec(
        prop::sample::select(vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean, FieldOp::Range]),
        0..4,
    );
    let aggs = prop::collection::vec(prop::sample::select(vec![AggFn::Sum, AggFn::Avg, AggFn::Count]), 0..3);
    let annotation = (class, ops, aggs).prop_map(|(class, ops, aggs)| FieldAnnotation::new(class, ops).with_aggs(aggs));
    let field = (name(), field_type, any::<bool>(), any::<bool>(), annotation);
    (name(), prop::collection::vec(field, 0..4)).prop_map(|(schema_name, fields)| {
        fields.into_iter().fold(Schema::new(schema_name), |s, (field, ty, required, sensitive, annotation)| {
            if sensitive {
                s.sensitive_field(&field, ty, required, annotation)
            } else {
                s.plain_field(&field, ty, required)
            }
        })
    })
}

fn log_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (blob(12), blob(24)).prop_map(|(key, value)| LogRecord::Set { key, value }),
        blob(12).prop_map(|key| LogRecord::Del { key }),
        (blob(12), blob(12), blob(24)).prop_map(|(key, field, value)| LogRecord::HSet { key, field, value }),
        (blob(12), blob(12)).prop_map(|(key, field)| LogRecord::HDel { key, field }),
        (blob(12), blob(12)).prop_map(|(key, member)| LogRecord::SAdd { key, member }),
        (blob(12), blob(12)).prop_map(|(key, member)| LogRecord::SRem { key, member }),
        (blob(12), any::<i64>()).prop_map(|(key, by)| LogRecord::Incr { key, by }),
    ]
}

fn response() -> impl Strategy<Value = Result<Vec<u8>, NetError>> {
    prop_oneof![
        blob(48).prop_map(Ok),
        name().prop_map(|m| Err(NetError::UnknownRoute(m))),
        name().prop_map(|m| Err(NetError::Remote(m))),
        Just(Err(NetError::Timeout)),
        Just(Err(NetError::CircuitOpen)),
        name().prop_map(|m| Err(NetError::Unavailable(m))),
        name().prop_map(|m| Err(NetError::Disconnected(m))),
        name().prop_map(|m| Err(NetError::FrameTooLarge(m))),
    ]
}

fn msg() -> impl Strategy<Value = Msg> {
    let entry = (prop::sample::select(vec![ENTRY_DOC, ENTRY_KV, ENTRY_INDEX]), blob(12), blob(24))
        .prop_map(|(kind, key, value)| SyncEntry { kind, key, value });
    let literal = (name(), value());
    let dnf = prop::collection::vec(prop::collection::vec(literal, 0..3), 0..3);
    prop_oneof![
        (name(), name(), value()).prop_map(|(collection, field, value)| Msg::FindIdsEq(FindIdsEq {
            collection,
            field,
            value
        })),
        (name(), name(), value(), value()).prop_map(|(collection, field, lo, hi)| Msg::FindIdsRange(FindIdsRange {
            collection,
            field,
            lo,
            hi
        })),
        (name(), dnf).prop_map(|(collection, dnf)| Msg::FindIdsDnf(FindIdsDnf { collection, dnf })),
        (name(), name(), blob(24), prop::collection::vec(name(), 0..5)).prop_map(
            |(collection, field, modulus, ids)| { Msg::PaillierSum(PaillierSum { collection, field, modulus, ids }) }
        ),
        (blob(24), prop::collection::vec(blob(24), 0..4))
            .prop_map(|(modulus, partials)| Msg::PaillierCombine(PaillierCombine { modulus, partials })),
        (token(), name(), blob(48)).prop_map(|(token, route, payload)| Msg::Idempotent(Idempotent {
            token,
            route,
            payload
        })),
        prop::collection::vec(entry, 0..4).prop_map(|entries| Msg::SyncEntries(SyncEntries { entries })),
        (any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>()), 0..5), any::<bool>()).prop_map(
            |(seed, ranges, include_broadcast)| Msg::RangeSelect(RangeSelect { seed, ranges, include_broadcast })
        ),
        token().prop_map(|token| Msg::TransferBegin(TransferBegin { token })),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(total_len, snapshot_seq, crc)| {
            Msg::TransferInfo(TransferInfo { total_len, snapshot_seq, crc })
        }),
        (token(), any::<u64>(), any::<u32>()).prop_map(|(token, offset, max_len)| Msg::ChunkRequest(ChunkRequest {
            token,
            offset,
            max_len
        })),
        (any::<u64>(), any::<u32>(), blob(48)).prop_map(|(offset, crc, data)| Msg::ChunkResponse(ChunkResponse {
            offset,
            crc,
            data
        })),
        any::<u64>().prop_map(|from_seq| Msg::WalTailRequest(WalTailRequest { from_seq })),
        prop::collection::vec(blob(24), 0..5).prop_map(|items| Msg::BlobList(BlobList { items })),
        (any::<u64>(), prop::collection::vec(any::<u64>(), 0..6))
            .prop_map(|(seed, boundaries)| Msg::DigestRequest(DigestRequest { seed, boundaries })),
        (prop::collection::vec(digest(), 0..4), digest(), digest())
            .prop_map(|(leaves, broadcast, root)| Msg::DigestResponse(DigestResponse { leaves, broadcast, root })),
        (any::<u64>(), token(), name(), blob(48)).prop_map(|(seq, id, route, payload)| Msg::WalRecord(WalRecord {
            seq,
            id,
            route,
            payload
        })),
        log_record().prop_map(Msg::LogRecord),
        (name(), blob(48)).prop_map(|(route, payload)| Msg::Request(route, payload)),
        response().prop_map(Msg::Response),
        (any::<u64>(), any::<u64>(), name(), blob(64)).prop_map(|(trace_id, span_id, route, payload)| Msg::Traced(
            TraceCtx { trace_id, span_id },
            route,
            payload
        )),
        document().prop_map(Msg::Document),
        prop::collection::vec(document(), 0..3).prop_map(Msg::Documents),
        schema().prop_map(Msg::Schema),
        prop::collection::vec(token().prop_map(DocId), 0..5).prop_map(Msg::Ids),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn every_codec_obeys_the_four_laws(msg in msg(), noise in blob(256)) {
        msg.check(&noise);
    }

    /// The one message whose last field is an unframed tail: truncation
    /// inside the ciphertext still parses (with a shorter accumulator),
    /// truncation inside the count header must error. Either way: no panic.
    #[test]
    fn sum_response_tail_is_unframed(count in any::<u64>(), ciphertext in blob(48)) {
        let msg = PaillierSumResponse { ciphertext, count };
        let enc = msg.encode();
        prop_assert_eq!(PaillierSumResponse::decode(&enc).unwrap(), msg);
        for cut in 0..enc.len() {
            match PaillierSumResponse::decode(&enc[..cut]) {
                Ok(partial) => {
                    prop_assert!(cut >= 8);
                    prop_assert_eq!(partial.count, count);
                }
                Err(_) => prop_assert!(cut < 8),
            }
        }
    }
}

/// `06 00 00 00 01` (a one-element array) costs five bytes per level, so
/// half a megabyte of it — far under the 8 MiB frame limit — used to recurse
/// 100 000 frames deep and overflow the 2 MiB stack this test runs on.
#[test]
fn deeply_nested_values_are_an_error_not_a_stack_overflow() {
    let nest = |level: &[u8]| {
        let mut buf = level.repeat(100_000);
        buf.push(0); // the innermost value: Null
        buf
    };
    let arrays = nest(&[6, 0, 0, 0, 1]);
    let objects = nest(&[7, 0, 0, 0, 1, 0, 0, 0, 1, b'k']);
    for deep in [&arrays, &objects] {
        let err = decode_value(&mut deep.as_slice()).unwrap_err();
        assert_eq!(err, datablinder_core::CoreError::Wire("value nesting"));
        // The same bytes as a document field and as a query operand.
        let mut doc = encode_document(&Document::new("d"));
        let at = doc.len() - 4;
        doc[at..].copy_from_slice(&1u32.to_be_bytes());
        doc.extend_from_slice(&[0, 0, 0, 1, b'f']);
        doc.extend_from_slice(deep);
        assert!(decode_document(&doc).is_err());
        let mut query = FindIdsEq { collection: "c".into(), field: "f".into(), value: Value::Null }.encode();
        query.pop();
        query.extend_from_slice(deep);
        assert!(FindIdsEq::decode(&query).is_err());
    }
    // The bound itself is generous: sixty-four levels still decode.
    let mut shallow = [6, 0, 0, 0, 1].repeat(datablinder_core::wire::MAX_VALUE_DEPTH);
    shallow.push(0);
    assert!(decode_value(&mut shallow.as_slice()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Back-compat: frames without a trace context keep working. A plain
    /// (pre-trace) route reaches the engine unwrapped and answers exactly
    /// like its enveloped twin, and an envelope carrying the zero (untraced)
    /// context still decodes and serves.
    #[test]
    fn plain_frames_and_untraced_envelopes_still_serve(value in prop::collection::vec(any::<u8>(), 1..32)) {
        use datablinder_core::cloud::CloudEngine;
        use datablinder_netsim::CloudService;

        let engine = CloudEngine::new();
        let key = format!("k{}", value.iter().map(|b| format!("{b:02x}")).collect::<String>());
        let mut w = datablinder_codec::Writer::new();
        w.list(&[key.clone().into_bytes(), value.clone()]);
        let put = w.finish();

        // Plain frame: served without any envelope.
        engine.handle("kv/bulk_put", &put).unwrap();

        // The same route under an envelope with *no* trace context (both
        // ids zero) decodes and routes identically.
        let zero = TraceCtx { trace_id: 0, span_id: 0 };
        let enveloped = trace::encode_traced(zero, "kv/bulk_put", &put);
        let (ctx, inner_route, inner_payload) = trace::decode_traced(&enveloped).unwrap();
        prop_assert_eq!(ctx, zero);
        prop_assert_eq!(inner_route, "kv/bulk_put");
        prop_assert_eq!(inner_payload, put.as_slice());
        engine.handle(trace::TRACED_ROUTE, &enveloped).unwrap();

        // Both writes landed on the same key.
        prop_assert_eq!(engine.kv().get(key.as_bytes()).as_deref(), Some(value.as_slice()));
    }
}
