//! Golden bytes: the encoding of one fixed instance of every message type,
//! record and frame, captured at the commit *before* the codecs were merged
//! into `datablinder-codec`. The test asserts today's encoders reproduce
//! them exactly and today's decoders read them back — a WAL, snapshot or
//! socket peer from that commit stays readable, and any later change to a
//! byte on the wire has to change a constant here.
//!
//! Changed since: `PAILLIER_SUM` gained the public modulus between `field`
//! and `ids` when the `setup` route went away, and `PAILLIER_COMBINE` pins
//! the `combine` payload (modulus, then the partials list it always was).
//! Both travel only in read requests — no WAL or snapshot holds them.
//! `RANGED_READ` pins the payload of a cluster node's share of a
//! whole-collection aggregate (`sum_ranges`, `agg_plain_ranges`): the
//! unranged request as one byte field, then a `RangeSelect`'s fields. It is
//! a read too.
//!
//! `GET_MANY` pins a `doc/get_many` request as it was before it could carry
//! a name list, and `GET_MANY_KEEP` one that carries a keep list (the
//! stored names the gateway opens, ascending) after the ids. `FETCH` pins
//! a `doc/fetch`: the collection, the keep list, then the wrapped read's
//! route and payload. `PROJECTED_ANSWER` pins the answer to a keep list:
//! per document its id, then per kept name the value or the one-byte absent
//! tag. All four are reads; they replaced the leave-out list's pins.
//!
//! `GATEWAY_SCRIPT_STATE` pins what a seeded gateway writes: the SHA-256 of
//! the cloud's whole state after one fixed script of inserts, batch inserts
//! (inline and on a worker pool), a migration, an update, a delete and key
//! rotations. It was recorded while the gateway still protected a single
//! insert through its own sequential path, and stands in for that path as
//! the reference every write route must reproduce byte for byte. It moved
//! once, when RND payloads were bound to where they are stored: the
//! associated data each RND tag covers grew from `rnd` to `rnd ‖
//! collection ‖ field ‖ doc id`, so every RND tag in the script's state
//! changed while no stored length or other byte did. `RND_PAYLOAD` pins one
//! such payload.

use std::fmt::Debug;
use std::sync::Arc;

use datablinder::codec::{encode_frame, split_frame, Split};
use datablinder::core::cloud::CloudEngine;
use datablinder::core::cloudproto::*;
use datablinder::core::durability::WalRecord;
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::model::*;
use datablinder::core::pool::WorkerPool;
use datablinder::core::tactics::{decode_ids, encode_ids, orderable_u64};
use datablinder::core::wire::{
    decode_document, decode_documents, decode_schema, encode_document, encode_documents, encode_schema,
};
use datablinder::docstore::{Document, Value};
use datablinder::kms::Kms;
use datablinder::kvstore::{scan_frames, LogRecord};
use datablinder::netsim::tcp::{encode_wire_frame, Frame, FrameDecoder, DEFAULT_MAX_FRAME};
use datablinder::netsim::{
    decode_request, decode_response, encode_request, encode_response, Channel, CloudService, LatencyModel, NetError,
};
use datablinder::obs::trace::{decode_traced, encode_traced, TraceCtx};
use datablinder::ope::{Ope, OpeParams};
use datablinder::primitives::keys::SymmetricKey;
use datablinder::primitives::sha256;
use datablinder::sse::DocId;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIND_IDS_EQ: &str = "000000036f62730000000b7374617475735f5f6465740500000003010203";
const FIND_IDS_RANGE: &str = "000000036f6273000000086566665f5f6f706502fffffffffffffffb0500000004ffffffff";
const FIND_IDS_DNF: &str = concat!(
    "000000036f62730000000300000002000000016102000000000000000100000001620400000001780000000100000001",
    "6305000000010900000000"
);
const PAILLIER_SUM: &str = "000000036f62730000000a76616c75655f5f70686500000002c50100000002000000026161000000026262";
const PAILLIER_COMBINE: &str = "00000002c501000000020000000b000000000000000701020300000000";
const PAILLIER_SUM_RESPONSE: &str = "0000000000000007010203";
const IDEMPOTENT: &str = "070707070707070707070707070707070000000a646f632f696e7365727400000003010203";
const SYNC_ENTRIES: &str = "0000000364000000066f62730064310000000204056b000000016b0000000069000000036f62730000000106";
const RANGE_SELECT: &str = "000000000000002a010000000200000000000000010000000000000002ffffffffffffffff0000000000000000";
const RANGED_READ: &str = concat!(
    "0000001f000000036f62730000000a76616c75655f5f70686500000002c50100000000000000000000002a0000000002",
    "00000000000000010000000000000002ffffffffffffffff0000000000000000"
);
const GET_MANY: &str = "000000036f627300000002000000026161000000026262";
const GET_MANY_KEEP: &str = concat!(
    "000000036f627300000002000000026161000000026262",
    "0000000300000006655f5f726e64000000046e6f746500000006765f5f726e64"
);
const FETCH: &str = concat!(
    "000000036f62730000000200000006655f5f726e64000000046e6f7465",
    "0000000f646f632f66696e645f6964735f657100000003010203"
);
const PROJECTED_ANSWER: &str = "0000000100000021000000026431050000000300ff07ff02ffffffffffffffd6040000000474657874";
const BLOB_LIST: &str = "00000003000000010100000000000000020203";
const DIGEST_REQUEST: &str = "000000000000000700000003000000000000000a0000000000000014ffffffffffffffff";
const DIGEST_RESPONSE: &str = concat!(
    "000000020101010101010101010101010101010101010101010101010101010101010101020202020202020202020202",
    "020202020202020202020202020202020202020203030303030303030303030303030303030303030303030303030303",
    "030303030404040404040404040404040404040404040404040404040404040404040404"
);
const WAL_RECORD: &str =
    concat!("000000000000000500000010abababababababababababababababab0000000a646f632f696e73657274000000040102", "0304");
const WAL_FRAME: &str = concat!(
    "00000032000000000000000500000010abababababababababababababababab0000000a646f632f696e736572740000",
    "000401020304e221ee6a"
);
const LOG_SET: &str = "0102000000016b0000000176";
const LOG_DEL: &str = "0201000000016b";
const LOG_HSET: &str = "0303000000016800000001660000000176";
const LOG_HDEL: &str = "040200000001680000000166";
const LOG_SADD: &str = "05020000000173000000016d";
const LOG_SREM: &str = "06020000000173000000016d";
const LOG_INCR: &str = "0702000000016300000008ffffffffffffffd6";
const LOG_FRAME: &str = "0000001103030000000168000000016600000001761aa82762";
const REQUEST: &str = "00000007646f632f67657400000003010203";
const RESPONSE_OK: &str = "00000000020405";
const RESPONSE_ERR: &str = "0200000004626f6f6d";
const RESPONSE_ERR_BARE: &str = "0400000000";
const TCP_FRAME: &str = "0000001a0000000000000009000000087379732f70696e6700000002686944ceb937";
const TRACED: &str = "000000000000002a0000000000000007000a646f632f696e73657274000000077061796c6f6164";
const DOCUMENT: &str = concat!(
    "000000026431000000070000000361727206000000020200000000000000010700000001000000016b02000000000000",
    "00010000000162050000000300ff0700000004666c61670101000000016e02ffffffffffffffd6000000046e756c6c00",
    "00000001730400000004746578740000000178034004000000000000"
);
const DOCUMENTS: &str = concat!(
    "000000020000007c00000002643100000007000000036172720600000002020000000000000001070000000100000001",
    "6b0200000000000000010000000162050000000300ff0700000004666c61670101000000016e02ffffffffffffffd600",
    "0000046e756c6c00000000017304000000047465787400000001780340040000000000000000000d00000005656d7074",
    "7900000000"
);
const SCHEMA: &str = concat!(
    "000000036f627300000003000000046e6f7465000000000000067374617475730001010303000102000000000576616c",
    "75650201010502000303000102"
);
const IDS: &str = "000000020101010101010101010101010101010102020202020202020202020202020202";

/// `Ope::new(SymmetricKey::from_bytes(&[7; 32]), OpeParams::default())`
/// ciphertexts, captured before the descent learned to resume from the last
/// one under its key. Every durable store's `__ope` shadow fields and
/// indexes hold these values, so a change to any of them is a format break.
/// The one planned re-pin is ROADMAP item 1's RNG change (the coin tape is
/// a `StdRng` seeded from HMAC output).
const OPE_RAW: [(u64, u128); 4] = [
    (0, 0x0000_0000_0000_0000_0000_0001_78d4_d540),
    (1, 0x0000_0000_0000_0000_0000_0002_4cdb_f13b),
    (1 << 63, 0x0000_0000_8000_0001_215f_5eae_e63f_40db),
    (u64::MAX, 0x0000_0000_ffff_ffff_ffff_ffff_77a6_fbb3),
];
/// Timestamps, encrypted as the OPE tactic does, through `orderable_u64`:
/// a `search_tcp` range's two bounds (era slots 777..801 of 2,048), then two
/// live timestamps 60 s apart.
const OPE_TIMESTAMPS: [(i64, u128); 4] = [
    (1_409_193_321, 0x0000_0000_8000_0001_755d_6bef_dc86_24f6),
    (1_411_782_272, 0x0000_0000_8000_0001_7584_ef12_af71_e98e),
    (1_900_000_000, 0x0000_0000_8000_0001_929f_0d83_0ef1_8b25),
    (1_900_000_060, 0x0000_0000_8000_0001_929f_0dc9_bf25_8c80),
];
/// An RND payload as the tactic stores it: the nonce, then GCM over the
/// length-framed value padded to 32 bytes, tagged under `rnd ‖ collection ‖
/// field ‖ doc id` (see [`rnd_payload_is_bound_to_its_document`]).
const RND_PAYLOAD: &str = concat!(
    "befba86ae9e0c207865f7e24",
    "3d29189fe7994081dc9db5af119e2b66cfdd8264d08088b6d398a49b40d675b7",
    "fc06988f6f31b938eb1def8ce2245562"
);
/// SHA-256 of the cloud state [`gateway_script`] leaves behind.
const GATEWAY_SCRIPT_STATE: &str = "a62bf06d2158dd7c0869af31e6fb589d9a65455bf0fd0a4df7180662509e4550";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

/// `value` encodes to exactly `golden`, and `golden` decodes back to it.
fn pin<T: PartialEq + Debug, E: Debug>(
    golden: &str,
    value: T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    assert_eq!(hex(&encode(&value)), golden, "encoding moved: {value:?}");
    assert_eq!(decode(&unhex(golden)).unwrap(), value, "golden bytes no longer decode");
}

fn sample_doc() -> Document {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("k".to_string(), Value::from(1i64));
    Document::new("d1")
        .with("null", Value::Null)
        .with("flag", Value::from(true))
        .with("n", Value::from(-42i64))
        .with("x", Value::from(2.5f64))
        .with("s", Value::from("text"))
        .with("b", Value::Bytes(vec![0, 255, 7]))
        .with("arr", Value::Array(vec![Value::from(1i64), Value::Object(obj)]))
}

#[test]
fn cloud_protocol_messages() {
    pin(
        FIND_IDS_EQ,
        FindIdsEq { collection: "obs".into(), field: "status__det".into(), value: Value::Bytes(vec![1, 2, 3]) },
        FindIdsEq::encode,
        FindIdsEq::decode,
    );
    pin(
        FIND_IDS_RANGE,
        FindIdsRange {
            collection: "obs".into(),
            field: "eff__ope".into(),
            lo: Value::from(-5i64),
            hi: Value::Bytes(vec![255; 4]),
        },
        FindIdsRange::encode,
        FindIdsRange::decode,
    );
    pin(
        FIND_IDS_DNF,
        FindIdsDnf {
            collection: "obs".into(),
            dnf: vec![
                vec![("a".into(), Value::from(1i64)), ("b".into(), Value::from("x"))],
                vec![("c".into(), Value::Bytes(vec![9]))],
                vec![],
            ],
        },
        FindIdsDnf::encode,
        FindIdsDnf::decode,
    );
    pin(
        PAILLIER_SUM,
        PaillierSum {
            collection: "obs".into(),
            field: "value__phe".into(),
            modulus: vec![0xc5, 0x01],
            ids: vec!["aa".into(), "bb".into()],
        },
        PaillierSum::encode,
        PaillierSum::decode,
    );
    pin(
        PAILLIER_COMBINE,
        PaillierCombine {
            modulus: vec![0xc5, 0x01],
            partials: vec![PaillierSumResponse { ciphertext: vec![1, 2, 3], count: 7 }.encode(), vec![]],
        },
        PaillierCombine::encode,
        PaillierCombine::decode,
    );
    pin(
        PAILLIER_SUM_RESPONSE,
        PaillierSumResponse { ciphertext: vec![1, 2, 3], count: 7 },
        PaillierSumResponse::encode,
        PaillierSumResponse::decode,
    );
    pin(
        IDEMPOTENT,
        Idempotent { token: [7; 16], route: "doc/insert".into(), payload: vec![1, 2, 3] },
        Idempotent::encode,
        Idempotent::decode,
    );
    pin(
        SYNC_ENTRIES,
        SyncEntries {
            entries: vec![
                SyncEntry { kind: ENTRY_DOC, key: b"obs\0d1".to_vec(), value: vec![4, 5] },
                SyncEntry { kind: ENTRY_KV, key: b"k".to_vec(), value: vec![] },
                SyncEntry { kind: ENTRY_INDEX, key: b"obs".to_vec(), value: vec![6] },
            ],
        },
        SyncEntries::encode,
        SyncEntries::decode,
    );
    pin(
        RANGE_SELECT,
        RangeSelect { seed: 42, ranges: vec![(1, 2), (u64::MAX, 0)], include_broadcast: true },
        RangeSelect::encode,
        RangeSelect::decode,
    );
    pin(
        RANGED_READ,
        RangedRead {
            request: PaillierSum {
                collection: "obs".into(),
                field: "value__phe".into(),
                modulus: vec![0xc5, 0x01],
                ids: vec![],
            }
            .encode(),
            select: RangeSelect { seed: 42, ranges: vec![(1, 2), (u64::MAX, 0)], include_broadcast: false },
        },
        RangedRead::encode,
        RangedRead::decode,
    );
    // Borrowed messages: `pin`'s decode would outlive its buffer.
    let get_many = GetMany { collection: "obs", ids: vec![b"aa", b"bb"], keep: vec![] };
    assert_eq!(hex(&get_many.encode()), GET_MANY, "no keep list: the request as it was before one existed");
    assert_eq!(GetMany::decode(&unhex(GET_MANY)).unwrap(), get_many);
    let projected = GetMany { keep: vec!["e__rnd", "note", "v__rnd"], ..get_many };
    assert_eq!(hex(&projected.encode()), GET_MANY_KEEP);
    assert_eq!(GetMany::decode(&unhex(GET_MANY_KEEP)).unwrap(), projected);
    let fetch =
        Fetch { collection: "obs", keep: vec!["e__rnd", "note"], route: "doc/find_ids_eq", payload: &[1, 2, 3] };
    assert_eq!(hex(&fetch.encode()), FETCH);
    assert_eq!(Fetch::decode(&unhex(FETCH)).unwrap(), fetch);
    pin(BLOB_LIST, BlobList { items: vec![vec![1], vec![], vec![2, 3]] }, BlobList::encode, BlobList::decode);
    pin(
        DIGEST_REQUEST,
        DigestRequest { seed: 7, boundaries: vec![10, 20, u64::MAX] },
        DigestRequest::encode,
        DigestRequest::decode,
    );
    pin(
        DIGEST_RESPONSE,
        DigestResponse { leaves: vec![[1; 32], [2; 32]], broadcast: [3; 32], root: [4; 32] },
        DigestResponse::encode,
        DigestResponse::decode,
    );
}

#[test]
fn documents_schemas_and_id_lists() {
    pin(DOCUMENT, sample_doc(), encode_document, decode_document);
    pin(DOCUMENTS, vec![sample_doc(), Document::new("empty")], |d| encode_documents(d), decode_documents);
    // A search answer by position: per kept name the value, `gone` absent.
    let cloud = CloudEngine::new();
    cloud
        .handle("doc/insert", &datablinder::core::cloud::with_collection("obs", &encode_document(&sample_doc())))
        .unwrap();
    let projected = GetMany { collection: "obs", ids: vec![b"d1"], keep: vec!["b", "gone", "n", "s"] };
    assert_eq!(hex(&cloud.handle("doc/get_many", &projected.encode()).unwrap()), PROJECTED_ANSWER);
    let schema = Schema::new("obs")
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
            FieldAnnotation::new(ProtectionClass::C5, vec![FieldOp::Insert, FieldOp::Range]).with_aggs(vec![
                AggFn::Sum,
                AggFn::Avg,
                AggFn::Count,
            ]),
        );
    pin(SCHEMA, schema, encode_schema, decode_schema);
    pin(IDS, vec![DocId([1; 16]), DocId([2; 16])], |ids| encode_ids(ids), decode_ids);
}

#[test]
fn ope_ciphertexts() {
    let ope = || Ope::new(SymmetricKey::from_bytes(&[7; 32]), OpeParams::default());
    let timestamps = OPE_TIMESTAMPS.map(|(t, c)| (orderable_u64(&Value::from(t)).unwrap(), c));
    let table: Vec<(u64, u128)> = OPE_RAW.into_iter().chain(timestamps).collect();
    // Each value from a fresh instance, then all of them, in order and back
    // again, through one instance that resumes each descent from the last.
    let shared = ope();
    for (m, c) in table.iter().chain(table.iter().rev()).copied() {
        assert_eq!(ope().encrypt(m), c, "fresh instance moved: {m:#x}");
        assert_eq!(shared.encrypt(m), c, "shared instance moved: {m:#x}");
        assert_eq!(shared.decrypt(c), Some(m), "{c:#x} no longer decrypts");
    }
}

#[test]
fn wal_and_log_records_and_their_frames() {
    let wal = WalRecord { seq: 5, id: [0xAB; 16], route: "doc/insert".into(), payload: vec![1, 2, 3, 4] };
    pin(WAL_RECORD, wal.clone(), WalRecord::encode, WalRecord::decode);
    let records = [
        (LOG_SET, LogRecord::Set { key: b"k".to_vec(), value: b"v".to_vec() }),
        (LOG_DEL, LogRecord::Del { key: b"k".to_vec() }),
        (LOG_HSET, LogRecord::HSet { key: b"h".to_vec(), field: b"f".to_vec(), value: b"v".to_vec() }),
        (LOG_HDEL, LogRecord::HDel { key: b"h".to_vec(), field: b"f".to_vec() }),
        (LOG_SADD, LogRecord::SAdd { key: b"s".to_vec(), member: b"m".to_vec() }),
        (LOG_SREM, LogRecord::SRem { key: b"s".to_vec(), member: b"m".to_vec() }),
        (LOG_INCR, LogRecord::Incr { key: b"c".to_vec(), by: -42 }),
    ];
    for (golden, record) in records {
        pin(golden, record, LogRecord::to_bytes, LogRecord::from_body);
    }

    // One WAL frame and one KV-log frame, back to back as they would sit in
    // a file: the shared frame writes them and the file scanner reads them.
    assert_eq!(hex(&encode_frame(&[&unhex(WAL_RECORD)])), WAL_FRAME);
    assert_eq!(hex(&encode_frame(&[&unhex(LOG_HSET)])), LOG_FRAME);
    let mut file = unhex(WAL_FRAME);
    file.extend_from_slice(&unhex(LOG_FRAME));
    let scan = scan_frames(&file).unwrap();
    assert_eq!(scan.frames, vec![unhex(WAL_RECORD), unhex(LOG_HSET)]);
    assert_eq!((scan.valid_len, scan.torn_tail), (file.len() as u64, false));
}

#[test]
fn requests_responses_the_traced_envelope_and_the_tcp_frame() {
    pin(
        REQUEST,
        ("doc/get".to_string(), vec![1, 2, 3]),
        |(route, payload)| encode_request(route, payload),
        decode_request,
    );
    assert_eq!(hex(&encode_response(&Ok(vec![4, 5]))), RESPONSE_OK);
    assert_eq!(decode_response(unhex(RESPONSE_OK)), Ok(vec![4, 5]));
    for (golden, error) in [(RESPONSE_ERR, NetError::Remote("boom".into())), (RESPONSE_ERR_BARE, NetError::Timeout)] {
        assert_eq!(hex(&encode_response(&Err(error.clone()))), golden);
        assert_eq!(decode_response(unhex(golden)), Err(error));
    }

    let ctx = TraceCtx { trace_id: 42, span_id: 7 };
    assert_eq!(hex(&encode_traced(ctx, "doc/insert", b"payload")), TRACED);
    assert_eq!(decode_traced(&unhex(TRACED)), Ok((ctx, "doc/insert", b"payload".as_slice())));

    // The TCP frame is the shared frame over `corr_id ‖ body`.
    let body = encode_request("sys/ping", b"hi");
    assert_eq!(hex(&encode_wire_frame(9, &body)), TCP_FRAME);
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    decoder.extend(&unhex(TCP_FRAME));
    assert_eq!(decoder.next_frame(), Ok(Some(Frame { corr_id: 9, body })));
    assert!(matches!(split_frame(&unhex(TCP_FRAME), 8..=DEFAULT_MAX_FRAME), Split::Frame { total: 34, .. }));
}

/// One field per tactic the pin covers: Mitra (and its RND payload), DET,
/// OPE with Paillier, two BIEX-2Lev boolean fields, and a plaintext one.
fn script_schema() -> Schema {
    use FieldOp::*;
    let field = |class, ops| FieldAnnotation::new(class, ops);
    Schema::new("ledger")
        .plain_field("seq", FieldType::Integer, true)
        .sensitive_field("owner", FieldType::Text, true, field(ProtectionClass::C2, vec![Insert, Equality]))
        .sensitive_field("kind", FieldType::Text, true, field(ProtectionClass::C4, vec![Insert, Equality]))
        .sensitive_field(
            "score",
            FieldType::Integer,
            true,
            field(ProtectionClass::C5, vec![Insert, Range]).with_aggs(vec![AggFn::Sum]),
        )
        .sensitive_field("status", FieldType::Text, true, field(ProtectionClass::C3, vec![Insert, Equality, Boolean]))
        .sensitive_field("code", FieldType::Text, true, field(ProtectionClass::C3, vec![Insert, Equality, Boolean]))
}

fn script_doc(i: i64) -> Document {
    Document::new("x")
        .with("seq", Value::from(i))
        .with("owner", Value::from(["ann", "bob", "cy"][i as usize % 3]))
        .with("kind", Value::from(["memo", "todo"][i as usize % 2]))
        .with("score", Value::from(i * 37 - 200))
        .with("status", Value::from(["open", "done"][i as usize % 2]))
        .with("code", Value::from(["a1", "b2", "c3"][i as usize % 3]))
}

/// The fixed script: inserts, batch inserts of one and of four documents
/// without a pool and then on a two-worker pool, a migration, an update, a
/// delete, and payload and index key rotations.
fn gateway_script(cloud: &Arc<CloudEngine>) {
    let channel = Channel::from_arc(cloud.clone(), LatencyModel::instant());
    let mut gw = GatewayEngine::new("golden", Kms::generate(&mut StdRng::seed_from_u64(0x601D)), channel, 0x601D);
    gw.register_schema(script_schema()).unwrap();
    let selected = |field| gw.selection("ledger", field).unwrap().all_tactics();
    assert_eq!(selected("owner"), ["mitra", "rnd"]);
    assert_eq!(selected("kind"), ["det"]);
    assert_eq!(selected("score"), ["ope", "paillier", "rnd"]);
    assert_eq!(selected("status"), ["biex-2lev", "rnd"]);

    let docs = |from: i64, n: i64| (from..from + n).map(script_doc).collect::<Vec<_>>();
    let mut ids: Vec<DocId> = docs(0, 3).iter().map(|d| gw.insert("ledger", d).unwrap()).collect();
    ids.extend(gw.insert_many("ledger", &docs(3, 1)).unwrap());
    ids.extend(gw.insert_many("ledger", &docs(4, 4)).unwrap());
    gw.set_worker_pool(Arc::new(WorkerPool::new(2)));
    ids.extend(gw.insert_many("ledger", &docs(8, 1)).unwrap());
    ids.extend(gw.insert_many("ledger", &docs(9, 4)).unwrap());
    ids.extend(gw.migrate("ledger", &docs(13, 4)).unwrap());
    gw.update("ledger", ids[1], &script_doc(100)).unwrap();
    gw.delete("ledger", ids[2]).unwrap();
    gw.rotate_payload_key("ledger", "owner").unwrap();
    gw.rotate_index_key("ledger", "owner").unwrap();
    gw.rotate_payload_key("ledger", "kind").unwrap();
    assert_eq!(gw.find_equal("ledger", "owner", &Value::from("ann")).unwrap().len(), 6);
}

/// SHA-256 over the cloud's documents and key-value records, canonically
/// ordered: collections by name, documents by id, records sorted.
fn cloud_state_digest(cloud: &CloudEngine) -> String {
    let mut state = Vec::new();
    let mut collections = cloud.docs().collection_names();
    collections.sort();
    for name in collections {
        let collection = cloud.docs().collection(&name);
        let mut ids = collection.ids();
        ids.sort();
        state.extend(encode_documents(ids.iter().map(|id| collection.get(id).unwrap()).collect::<Vec<_>>().iter()));
    }
    let mut records: Vec<Vec<u8>> = cloud.kv().export_records().iter().map(LogRecord::to_bytes).collect();
    records.sort();
    state.extend(records.concat());
    hex(&sha256::digest(&state))
}

#[test]
fn gateway_writes() {
    let cloud = Arc::new(CloudEngine::new());
    gateway_script(&cloud);
    assert_eq!(cloud_state_digest(&cloud), GATEWAY_SCRIPT_STATE, "a gateway write route moved a byte");
}

#[test]
fn rnd_payload_is_bound_to_its_document() {
    use datablinder::core::spi::GatewayTactic;
    use datablinder::core::tactics::rnd::RndTactic;
    use datablinder::core::tactics::TacticContext;
    use datablinder::primitives::gcm::AesGcm;
    let kms = Kms::generate(&mut StdRng::seed_from_u64(0x601D));
    let ctx = TacticContext { application: "golden".into(), schema: "ledger".into(), scope: "owner".into(), kms };
    let mut tactic = RndTactic::build(&ctx).unwrap();
    let id = DocId([9; 16]);
    let protected = tactic.protect(&mut StdRng::seed_from_u64(7), "owner", &Value::from("ann"), id).unwrap();
    let [(shadow, Value::Bytes(payload))] = &protected.stored[..] else { panic!("one RND payload") };
    assert_eq!((&**shadow, hex(payload).as_str()), ("owner__rnd", RND_PAYLOAD));
    assert_eq!(tactic.recover(id, payload, &mut Vec::new()).unwrap(), Value::from("ann"));
    assert!(tactic.recover(DocId([8; 16]), payload, &mut Vec::new()).is_err(), "another document's id");
    // The same bytes opened by hand: the associated data is `rnd`, the
    // collection and the field as length-prefixed strings, the id's 16
    // bytes; the plaintext is the value's length frame, its canonical
    // encoding (`Str` tag, length, bytes) and zero padding to 32.
    let aad = [&b"rnd"[..], &[0, 0, 0, 6], b"ledger", &[0, 0, 0, 5], b"owner", &[9; 16]].concat();
    let gcm = AesGcm::new(&ctx.kms.key_for(&ctx.key_scope("rnd")).derive(b"rnd/enc", 32)).unwrap();
    let (nonce, sealed) = payload.split_first_chunk::<12>().unwrap();
    let framed = gcm.open(nonce, &aad, sealed).unwrap();
    assert_eq!(framed.len(), 32);
    assert_eq!(framed[..16], [0, 0, 0, 0, 0, 0, 0, 8, 4, 0, 0, 0, 3, b'a', b'n', b'n']);
}
