//! One property for every whole-buffer codec in the system — the cloud
//! protocol messages, WAL and KV log records, request/response bodies, the
//! traced envelope, documents, schemas and id lists. Each obeys four laws:
//! `decode(encode(v)) == v`, every strict prefix is an error, one appended
//! byte is an error, and arbitrary bytes never panic. They all decode
//! through `datablinder_codec::decode`, so the laws are proven here once
//! instead of per struct. Complements `wire_fuzz`, which throws fully
//! random bytes at the decoders, and `golden_bytes`, which pins the format.
//!
//! Case `n` draws from `StdRng::seed_from_u64(n)`; a failure names its case.

use std::collections::HashSet;
use std::fmt::Debug;

use datablinder_core::cloudproto::{
    BlobList, DigestRequest, DigestResponse, FindIdsDnf, FindIdsEq, FindIdsRange, Idempotent, PaillierCombine,
    PaillierSum, PaillierSumResponse, RangeSelect, RangedRead, SyncEntries, SyncEntry, ENTRY_DOC, ENTRY_INDEX,
    ENTRY_KV,
};
use datablinder_core::durability::WalRecord;
use datablinder_core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
use datablinder_core::tactics::{decode_ids, encode_ids};
use datablinder_core::wire::{
    decode_document, decode_documents, decode_schema, decode_value, encode_document, encode_documents, encode_schema,
};
use datablinder_docstore::{Document, Value};
use datablinder_kvstore::LogRecord;
use datablinder_netsim::{decode_request, decode_response, encode_request, encode_response, NetError, Refusal};
use datablinder_obs::trace::{self, TraceCtx};
use datablinder_sse::DocId;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: u64 = 2048;

/// The four laws, checked for one value of one codec. The prefix loop is
/// exhaustive rather than sampled: a single byte boundary is exactly where
/// an unchecked index would panic.
fn laws<T: PartialEq + Debug>(
    case: u64,
    value: &T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    noise: &[u8],
) {
    let enc = encode(value);
    assert_eq!(decode(&enc).as_ref(), Some(value), "case {case}: round trip");
    for cut in 0..enc.len() {
        assert!(decode(&enc[..cut]).is_none(), "case {case}: prefix of {cut}/{} decoded", enc.len());
    }
    let mut longer = enc;
    longer.push(0);
    assert!(decode(&longer).is_none(), "case {case}: trailing byte accepted");
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
    RangedRead(RangedRead),
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

/// How many variants [`Msg`] has; [`msg`] draws each with equal weight.
const MSG_VARIANTS: usize = 21;

impl Msg {
    fn check(&self, case: u64, noise: &[u8]) {
        match self {
            Msg::FindIdsEq(m) => laws(case, m, FindIdsEq::encode, |b| FindIdsEq::decode(b).ok(), noise),
            Msg::FindIdsRange(m) => laws(case, m, FindIdsRange::encode, |b| FindIdsRange::decode(b).ok(), noise),
            Msg::FindIdsDnf(m) => laws(case, m, FindIdsDnf::encode, |b| FindIdsDnf::decode(b).ok(), noise),
            Msg::PaillierSum(m) => laws(case, m, PaillierSum::encode, |b| PaillierSum::decode(b).ok(), noise),
            Msg::PaillierCombine(m) => {
                laws(case, m, PaillierCombine::encode, |b| PaillierCombine::decode(b).ok(), noise)
            }
            Msg::Idempotent(m) => laws(case, m, Idempotent::encode, |b| Idempotent::decode(b).ok(), noise),
            Msg::SyncEntries(m) => laws(case, m, SyncEntries::encode, |b| SyncEntries::decode(b).ok(), noise),
            Msg::RangeSelect(m) => laws(case, m, RangeSelect::encode, |b| RangeSelect::decode(b).ok(), noise),
            Msg::RangedRead(m) => laws(case, m, RangedRead::encode, |b| RangedRead::decode(b).ok(), noise),
            Msg::BlobList(m) => laws(case, m, BlobList::encode, |b| BlobList::decode(b).ok(), noise),
            Msg::DigestRequest(m) => laws(case, m, DigestRequest::encode, |b| DigestRequest::decode(b).ok(), noise),
            Msg::DigestResponse(m) => laws(case, m, DigestResponse::encode, |b| DigestResponse::decode(b).ok(), noise),
            Msg::WalRecord(m) => laws(case, m, WalRecord::encode, |b| WalRecord::decode(b).ok(), noise),
            Msg::LogRecord(m) => laws(case, m, LogRecord::to_bytes, |b| LogRecord::from_body(b).ok(), noise),
            Msg::Request(route, payload) => laws(
                case,
                &(route.clone(), payload.clone()),
                |(route, payload)| encode_request(route, payload),
                |b| decode_request(b).ok(),
                noise,
            ),
            // A decoded `MalformedFrame` is indistinguishable from a failed
            // decode, so the generator never produces one.
            Msg::Response(m) => laws(
                case,
                m,
                encode_response,
                |b| match decode_response(b.to_vec()) {
                    Err(NetError::MalformedFrame) => None,
                    outcome => Some(outcome),
                },
                noise,
            ),
            Msg::Traced(ctx, route, payload) => laws(
                case,
                &(*ctx, route.clone(), payload.clone()),
                |(ctx, route, payload)| trace::encode_traced(*ctx, route, payload),
                |b| {
                    trace::decode_traced(b).ok().map(|(ctx, route, payload)| (ctx, route.to_string(), payload.to_vec()))
                },
                noise,
            ),
            Msg::Document(m) => laws(case, m, encode_document, |b| decode_document(b).ok(), noise),
            Msg::Documents(m) => laws(case, m, |docs| encode_documents(docs), |b| decode_documents(b).ok(), noise),
            Msg::Schema(m) => laws(case, m, encode_schema, |b| decode_schema(b).ok(), noise),
            Msg::Ids(m) => laws(case, m, |ids| encode_ids(ids), |b| decode_ids(b).ok(), noise),
        }
    }
}

/// `len` draws of `item`, `len` uniform in `lens`.
fn vec_of<T>(rng: &mut StdRng, lens: std::ops::Range<usize>, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.gen_range(lens)).map(|_| item(rng)).collect()
}

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

/// Up to `max - 1` arbitrary bytes.
fn blob(rng: &mut StdRng, max: usize) -> Vec<u8> {
    vec_of(rng, 0..max, |rng| rng.gen())
}

/// `[a-z_/]{0,12}`.
fn name(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_/";
    vec_of(rng, 0..13, |rng| char::from(pick(rng, ALPHABET))).into_iter().collect()
}

fn token(rng: &mut StdRng) -> [u8; 16] {
    rng.gen::<u128>().to_be_bytes()
}

fn digest(rng: &mut StdRng) -> [u8; 32] {
    let mut d = [0u8; 32];
    rng.fill_bytes(&mut d);
    d
}

/// A leaf value or, while `depth` lasts, an array or object of values.
fn value(rng: &mut StdRng, depth: u32) -> Value {
    match rng.gen_range(0..if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::from(rng.gen::<bool>()),
        2 => Value::from(rng.gen::<i64>()),
        3 => Value::from(f64::from(rng.gen::<i32>()) / 8.0),
        4 => Value::from(name(rng)),
        5 => Value::Bytes(blob(rng, 24)),
        6 => Value::Array(vec_of(rng, 0..4, |rng| value(rng, depth - 1))),
        _ => Value::Object(vec_of(rng, 0..4, |rng| (name(rng), value(rng, depth - 1))).into_iter().collect()),
    }
}

fn any_value(rng: &mut StdRng) -> Value {
    value(rng, 3)
}

fn document(rng: &mut StdRng) -> Document {
    let id = name(rng);
    vec_of(rng, 0..5, |rng| (name(rng), any_value(rng)))
        .into_iter()
        .fold(Document::new(id), |doc, (k, v)| doc.with(k, v))
}

fn schema(rng: &mut StdRng) -> Schema {
    use ProtectionClass::*;
    let schema_name = name(rng);
    vec_of(rng, 0..4, |rng| {
        let field = name(rng);
        let ty = pick(rng, &[FieldType::Text, FieldType::Integer, FieldType::Float, FieldType::Boolean]);
        let (required, sensitive) = (rng.gen::<bool>(), rng.gen::<bool>());
        let class = pick(rng, &[C1, C2, C3, C4, C5]);
        let ops =
            vec_of(rng, 0..4, |rng| pick(rng, &[FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean, FieldOp::Range]));
        let aggs = vec_of(rng, 0..3, |rng| pick(rng, &[AggFn::Sum, AggFn::Avg, AggFn::Count]));
        (field, ty, required, sensitive, FieldAnnotation::new(class, ops).with_aggs(aggs))
    })
    .into_iter()
    .fold(Schema::new(schema_name), |s, (field, ty, required, sensitive, annotation)| {
        if sensitive {
            s.sensitive_field(&field, ty, required, annotation)
        } else {
            s.plain_field(&field, ty, required)
        }
    })
}

fn log_record(rng: &mut StdRng) -> LogRecord {
    let key = blob(rng, 12);
    match rng.gen_range(0..7) {
        0 => LogRecord::Set { key, value: blob(rng, 24) },
        1 => LogRecord::Del { key },
        2 => LogRecord::HSet { key, field: blob(rng, 12), value: blob(rng, 24) },
        3 => LogRecord::HDel { key, field: blob(rng, 12) },
        4 => LogRecord::SAdd { key, member: blob(rng, 12) },
        5 => LogRecord::SRem { key, member: blob(rng, 12) },
        _ => LogRecord::Incr { key, by: rng.gen() },
    }
}

fn range_select(rng: &mut StdRng) -> RangeSelect {
    RangeSelect {
        seed: rng.gen(),
        ranges: vec_of(rng, 0..5, |rng| (rng.gen(), rng.gen())),
        include_broadcast: rng.gen(),
    }
}

fn response(rng: &mut StdRng) -> Result<Vec<u8>, NetError> {
    match rng.gen_range(0..8) {
        0 => Ok(blob(rng, 48)),
        1 => Err(NetError::UnknownRoute(name(rng))),
        2 => {
            let kinds = [Refusal::Storage, Refusal::NotFound, Refusal::Conflict, Refusal::Wire, Refusal::Unsupported];
            Err(NetError::Remote(kinds[rng.gen_range(0..kinds.len())], name(rng)))
        }
        3 => Err(NetError::Timeout),
        4 => Err(NetError::CircuitOpen),
        5 => Err(NetError::Unavailable(name(rng))),
        6 => Err(NetError::Disconnected(name(rng))),
        _ => Err(NetError::FrameTooLarge(name(rng))),
    }
}

fn msg(rng: &mut StdRng) -> Msg {
    match rng.gen_range(0..MSG_VARIANTS) {
        0 => Msg::FindIdsEq(FindIdsEq { collection: name(rng), field: name(rng), value: any_value(rng) }),
        1 => Msg::FindIdsRange(FindIdsRange {
            collection: name(rng),
            field: name(rng),
            lo: any_value(rng),
            hi: any_value(rng),
        }),
        2 => Msg::FindIdsDnf(FindIdsDnf {
            collection: name(rng),
            dnf: vec_of(rng, 0..3, |rng| vec_of(rng, 0..3, |rng| (name(rng), any_value(rng)))),
        }),
        3 => Msg::PaillierSum(PaillierSum {
            collection: name(rng),
            field: name(rng),
            modulus: blob(rng, 24),
            ids: vec_of(rng, 0..5, name),
        }),
        4 => Msg::PaillierCombine(PaillierCombine {
            modulus: blob(rng, 24),
            partials: vec_of(rng, 0..4, |rng| blob(rng, 24)),
        }),
        5 => Msg::Idempotent(Idempotent { token: token(rng), route: name(rng), payload: blob(rng, 48) }),
        6 => Msg::SyncEntries(SyncEntries {
            entries: vec_of(rng, 0..4, |rng| SyncEntry {
                kind: pick(rng, &[ENTRY_DOC, ENTRY_KV, ENTRY_INDEX]),
                key: blob(rng, 12),
                value: blob(rng, 24),
            }),
        }),
        7 => Msg::RangeSelect(range_select(rng)),
        8 => Msg::RangedRead(RangedRead { request: blob(rng, 48), select: range_select(rng) }),
        9 => Msg::BlobList(BlobList { items: vec_of(rng, 0..5, |rng| blob(rng, 24)) }),
        10 => Msg::DigestRequest(DigestRequest { seed: rng.gen(), boundaries: vec_of(rng, 0..6, |rng| rng.gen()) }),
        11 => Msg::DigestResponse(DigestResponse { leaves: vec_of(rng, 0..4, digest), broadcast: digest(rng) }),
        12 => Msg::WalRecord(WalRecord { seq: rng.gen(), id: token(rng), route: name(rng), payload: blob(rng, 48) }),
        13 => Msg::LogRecord(log_record(rng)),
        14 => Msg::Request(name(rng), blob(rng, 48)),
        15 => Msg::Response(response(rng)),
        16 => Msg::Traced(TraceCtx { trace_id: rng.gen(), span_id: rng.gen() }, name(rng), blob(rng, 64)),
        17 => Msg::Document(document(rng)),
        18 => Msg::Documents(vec_of(rng, 0..3, document)),
        19 => Msg::Schema(schema(rng)),
        _ => Msg::Ids(vec_of(rng, 0..5, |rng| DocId(token(rng)))),
    }
}

#[test]
fn every_codec_obeys_the_four_laws() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let msg = msg(rng);
        msg.check(case, &blob(rng, 256));
    }
}

/// [`msg`] is a hand-written `match`: an arm that stopped producing its
/// variant would shrink the suite above without failing it.
#[test]
fn every_message_variant_is_generated() {
    let seen: HashSet<_> =
        (0..CASES).map(|case| std::mem::discriminant(&msg(&mut StdRng::seed_from_u64(case)))).collect();
    assert_eq!(seen.len(), MSG_VARIANTS, "{CASES} cases generated {} of the {MSG_VARIANTS} variants", seen.len());
}

/// The one message whose last field is an unframed tail: truncation
/// inside the ciphertext still parses (with a shorter accumulator),
/// truncation inside the count header must error. Either way: no panic.
#[test]
fn sum_response_tail_is_unframed() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let count = rng.gen();
        let msg = PaillierSumResponse { ciphertext: blob(rng, 48), count };
        let enc = msg.encode();
        assert_eq!(PaillierSumResponse::decode(&enc).unwrap(), msg, "case {case}");
        for cut in 0..enc.len() {
            match PaillierSumResponse::decode(&enc[..cut]) {
                Ok(partial) => {
                    assert!(cut >= 8, "case {case}: a cut at {cut} parsed");
                    assert_eq!(partial.count, count, "case {case}, cut {cut}");
                }
                Err(_) => assert!(cut < 8, "case {case}: a cut at {cut} failed"),
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

/// Back-compat: frames without a trace context keep working. A plain
/// (pre-trace) route reaches the engine unwrapped and answers exactly
/// like its enveloped twin, and an envelope carrying the zero (untraced)
/// context still decodes and serves.
#[test]
fn plain_frames_and_untraced_envelopes_still_serve() {
    use datablinder_core::cloud::CloudEngine;
    use datablinder_netsim::CloudService;

    for case in 0..64 {
        let rng = &mut StdRng::seed_from_u64(case);
        let value = vec_of(rng, 1..32, |rng| rng.gen::<u8>());
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
        assert_eq!(ctx, zero, "case {case}");
        assert_eq!(inner_route, "kv/bulk_put", "case {case}");
        assert_eq!(inner_payload, put.as_slice(), "case {case}");
        engine.handle(trace::TRACED_ROUTE, &enveloped).unwrap();

        // Both writes landed on the same key.
        assert_eq!(engine.kv().get(key.as_bytes()).as_deref(), Some(value.as_slice()), "case {case}");
    }
}
