//! Search reads that fetch in the round trip they search in.
//!
//! DET, OPE and ORE resolve in the cloud: the ids a query matches lie there
//! in the clear, so the gateway wraps the query in one `doc/fetch` and the
//! cloud answers with the documents. Mitra, Sophos and BIEX resolve their
//! ids at the gateway, so their reads keep a second round trip
//! (`doc/get_many`). Either way the
//! request carries the plan's keep list — the stored names the gateway
//! opens — and each document comes back by position onto it: its id, then
//! one value or an absent tag per name.
//!
//! The suite pins the round trips of each query kind with the transport's
//! own metrics over an in-process channel, a loopback socket and a 5-node
//! cluster; checks that a fused read returns the documents, and records the
//! leakage cells and tactic EWMAs, of the two-call read it replaces; runs
//! a cloud that forges its answers; and checks that a search returns each
//! document as `get` does.

use std::sync::{Arc, Mutex};

use datablinder::codec::Writer;
use datablinder::core::cloud::CloudEngine;
use datablinder::core::cloudproto::{Fetch, GetMany, FETCH_ROUTE};
use datablinder::core::cluster::{ClusterCloud, ClusterConfig};
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::model::{FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema, TacticDescriptor};
use datablinder::core::registry::TacticRegistry;
use datablinder::core::spi::{CloudCall, DnfLiterals, GatewayTactic, ProtectedField};
use datablinder::core::tactics::encode_ids;
use datablinder::core::wire::{decode_documents, encode_documents, encode_value, ABSENT};
use datablinder::core::CoreError;
use datablinder::docstore::{Document, Value};
use datablinder::kms::Kms;
use datablinder::netsim::{
    Channel, CloudServer, CloudService, LatencyModel, NetError, ResilienceConfig, ResilientChannel, ServerConfig,
    TcpChannel, TcpConfig, Transport,
};
use datablinder::obs::{LedgerEntry, Recorder};
use datablinder::sse::DocId;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SCHEMA: &str = "labs";

fn schema() -> Schema {
    use FieldOp::*;
    use ProtectionClass::*;
    let field = |class, ops: &[FieldOp]| FieldAnnotation::new(class, ops.to_vec());
    Schema::new(SCHEMA)
        .plain_field("n", FieldType::Integer, true)
        .sensitive_field("code", FieldType::Text, true, field(C4, &[Insert, Equality]))
        .sensitive_field("a", FieldType::Integer, true, field(C5, &[Insert, Equality, Boolean, Range]))
        .sensitive_field("b", FieldType::Integer, true, field(C5, &[Insert, Equality, Boolean]))
        .sensitive_field("subject", FieldType::Text, true, field(C2, &[Insert, Equality]))
        .sensitive_field("status", FieldType::Text, true, field(C3, &[Insert, Equality, Boolean]))
        .sensitive_field("kind", FieldType::Text, true, field(C3, &[Insert, Equality, Boolean]))
}

fn doc(n: i64) -> Document {
    Document::new("x")
        .with("n", Value::from(n))
        .with("code", Value::from(["glucose", "urea", "sodium"][n as usize % 3]))
        .with("a", Value::from(100 + n))
        .with("b", Value::from(n % 4))
        .with("subject", Value::from(format!("p{}", n % 5)))
        .with("status", Value::from(["final", "draft"][n as usize % 2]))
        .with("kind", Value::from(["lab", "vital", "note"][n as usize % 3]))
}

const DOCS: i64 = 12;

/// One search: its name, the expected number of hits, and the call.
type Query = (&'static str, usize, Box<dyn Fn(&GatewayEngine) -> Result<Vec<Document>, CoreError>>);

fn queries() -> Vec<Query> {
    let literal = |f: &str, v: Value| (f.to_string(), v);
    let det_bool: DnfLiterals =
        vec![vec![literal("a", Value::from(103)), literal("b", Value::from(3))], vec![literal("b", Value::from(1))]];
    let biex_bool: DnfLiterals =
        vec![vec![literal("status", Value::from("final")), literal("kind", Value::from("lab"))]];
    vec![
        ("det equality", 4, Box::new(|gw| gw.find_equal(SCHEMA, "code", &Value::from("urea")))),
        ("det boolean", 4, Box::new(move |gw| gw.find_boolean(SCHEMA, &det_bool))),
        ("range", 8, Box::new(|gw| gw.find_range(SCHEMA, "a", &Value::from(104), &Value::from(112)))),
        ("sse equality", 2, Box::new(|gw| gw.find_equal(SCHEMA, "subject", &Value::from("p2")))),
        ("biex boolean", 2, Box::new(move |gw| gw.find_boolean(SCHEMA, &biex_bool))),
    ]
}

/// Which built-ins serve the range and the `subject` equality.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Variant {
    /// OPE ranges, Mitra equality.
    Builtins,
    /// OPE deprecated: ORE ranges.
    Ore,
    /// Mitra deprecated: Sophos equality.
    Sophos,
}

/// A DET, OPE or ORE instance with its capability hidden: the engine reads
/// through it as through a forward-private tactic, ids first and documents
/// second — the two-call read the fused one replaces.
struct TwoCall(Box<dyn GatewayTactic>);

impl GatewayTactic for TwoCall {
    fn descriptor(&self) -> TacticDescriptor {
        self.0.descriptor()
    }

    fn protect(
        &mut self,
        rng: &mut dyn RngCore,
        field: &str,
        value: &Value,
        id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        self.0.protect(rng, field, value, id)
    }

    fn delete(&mut self, field: &str, value: &Value, id: DocId) -> Result<Vec<CloudCall>, CoreError> {
        self.0.delete(field, value, id)
    }

    fn recover(&self, id: DocId, ciphertext: &[u8], scratch: &mut Vec<u8>) -> Result<Value, CoreError> {
        self.0.recover(id, ciphertext, scratch)
    }

    fn eq_query(&mut self, field: &str, value: &Value) -> Result<Vec<CloudCall>, CoreError> {
        self.0.eq_query(field, value)
    }

    fn range_query(&mut self, field: &str, lo: &Value, hi: &Value) -> Result<Vec<CloudCall>, CoreError> {
        self.0.range_query(field, lo, hi)
    }

    fn stored_literal(&self, field: &str, value: &Value) -> Option<(String, Value)> {
        self.0.stored_literal(field, value)
    }
}

/// The built-in registry for `variant`, with DET, OPE and ORE registered
/// last — wrapped in [`TwoCall`] when `two_call` — so both modes select the
/// same tactics.
fn registry(variant: Variant, two_call: bool) -> TacticRegistry {
    let mut r = TacticRegistry::with_builtins();
    for name in ["det", "ope", "ore"] {
        let descriptor = r.descriptor(name).cloned().expect("a built-in");
        r.deprecate(name);
        let builtins = TacticRegistry::with_builtins();
        r.register(
            descriptor,
            Box::new(move |ctx, rng| {
                let tactic = builtins.build_gateway(name, ctx, rng)?;
                Ok(if two_call { Box::new(TwoCall(tactic)) } else { tactic })
            }),
        );
    }
    match variant {
        Variant::Builtins => {}
        Variant::Ore => assert!(r.deprecate("ope")),
        Variant::Sophos => assert!(r.deprecate("mitra")),
    }
    r
}

/// Where the cloud runs.
#[derive(Clone, Copy, Debug)]
enum Deployment {
    Channel,
    Tcp,
    Cluster,
}

/// A transport to a fresh cloud, and the loopback server behind it, if any.
fn transport(deployment: Deployment) -> (Arc<dyn Transport>, Option<CloudServer>) {
    match deployment {
        Deployment::Channel => (Arc::new(Channel::connect(CloudEngine::new(), LatencyModel::instant())), None),
        Deployment::Tcp => {
            let service: Arc<dyn CloudService> = Arc::new(CloudEngine::new());
            let server = CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
            let channel = TcpChannel::connect(server.local_addr(), TcpConfig::default()).expect("loopback");
            (Arc::new(channel), Some(server))
        }
        Deployment::Cluster => {
            let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 0xF05E)).unwrap();
            (Arc::new(Channel::from_arc(Arc::new(cluster), LatencyModel::instant())), None)
        }
    }
}

/// A seeded gateway over `transport`, loaded with the corpus; with
/// `recorded`, it records (and traces: its calls travel in trace envelopes).
fn loaded(transport: Arc<dyn Transport>, registry: TacticRegistry, recorded: bool) -> GatewayEngine {
    let seed = 0xF05E;
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ResilienceConfig { seed, ..ResilienceConfig::default() };
    let mut gw = GatewayEngine::with_registry_resilient(
        "fused",
        Kms::generate(&mut rng),
        ResilientChannel::over(transport, config),
        seed,
        registry,
    );
    if recorded {
        gw.set_recorder(Recorder::new());
    }
    gw.register_schema(schema()).unwrap();
    gw.insert_many(SCHEMA, &(0..DOCS).map(doc).collect::<Vec<_>>()).unwrap();
    gw
}

/// What one run of the queries saw: per query its round trips and the
/// documents, then the leakage cells and the `tactic.*` EWMA samples.
type Run = (Vec<(u64, Vec<Document>)>, Vec<LedgerEntry>, Vec<(String, u64)>);

fn run(gw: &GatewayEngine) -> Run {
    let mut answers = Vec::new();
    for (name, hits, query) in queries() {
        let before = gw.channel().metrics().round_trips();
        let docs = query(gw).unwrap();
        assert_eq!(docs.len(), hits, "{name}");
        answers.push((gw.channel().metrics().round_trips() - before, docs));
    }
    let snapshot = gw.recorder().snapshot();
    let ewmas = snapshot.ewmas.iter().filter(|e| e.name.starts_with("tactic.")).map(|e| (e.name.clone(), e.samples));
    (answers, snapshot.ledger, ewmas.collect())
}

#[test]
fn fused_reads_take_one_round_trip_and_answer_as_the_two_call_reads() {
    for variant in [Variant::Builtins, Variant::Ore, Variant::Sophos] {
        let (range, sse) = match variant {
            Variant::Builtins => ("ope", "mitra"),
            Variant::Ore => ("ore", "mitra"),
            Variant::Sophos => ("ope", "sophos"),
        };
        for deployment in [Deployment::Channel, Deployment::Tcp, Deployment::Cluster] {
            let at = format!("{variant:?} over {deployment:?}");
            let (fused_transport, _server) = transport(deployment);
            let fused = loaded(fused_transport, registry(variant, false), true);
            assert_eq!(fused.selection(SCHEMA, "a").unwrap().all_tactics(), ["det", range], "{at}");
            assert_eq!(fused.selection(SCHEMA, "subject").unwrap().search_tactics, [sse], "{at}");
            let (two_call_transport, _server) = transport(deployment);
            let two_call = loaded(two_call_transport, registry(variant, true), true);

            let (fused_answers, fused_ledger, fused_ewmas) = run(&fused);
            let (answers, ledger, ewmas) = run(&two_call);
            let trips: Vec<u64> = fused_answers.iter().map(|(trips, _)| *trips).collect();
            assert_eq!(trips, [1, 1, 1, 2, 2], "{at}: DET, DET-only boolean and {range} fuse; {sse} and BIEX do not");
            assert!(answers.iter().all(|(trips, _)| *trips == 2), "{at}: the two-call reads");
            for ((_, fused_docs), (_, docs)) in fused_answers.iter().zip(&answers) {
                assert_eq!(fused_docs, docs, "{at}");
            }
            assert_eq!(fused_ledger, ledger, "{at}: the same leakage cells");
            assert_eq!(fused_ewmas, ewmas, "{at}: the same tactic EWMAs");
            assert!(fused_ledger.iter().any(|e| e.op == "range" && e.tactic == range), "{at}: {fused_ledger:?}");
        }
    }
}

/// How a [`HostileCloud`] forges its answers.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Forgery {
    /// The answer cut one byte short.
    Truncated,
    /// A count one more than the documents that follow.
    CountTooHigh,
    /// A count one less: the last document is trailing bytes.
    CountTooLow,
    /// The matching ids, as the wrapped read answered, not documents.
    Ids,
    /// Each document one value short.
    MissingValue,
    /// Each document with one value after the last kept name.
    ExtraValue,
    /// Each document's payload positions holding a string.
    PayloadNotBytes,
    /// Whole named documents, as if no keep list had come.
    NamedDocuments,
}

/// The forgeries that rebuild each document from its stored fields, and so
/// apply to a `doc/get_many` answer as well as to a `doc/fetch` one.
const POSITIONAL: [Forgery; 4] =
    [Forgery::MissingValue, Forgery::ExtraValue, Forgery::PayloadNotBytes, Forgery::NamedDocuments];

/// A cloud that stores faithfully and, when armed, forges its answers:
/// every forgery on `doc/fetch`, the [`POSITIONAL`] ones on `doc/get_many`
/// too.
struct HostileCloud {
    inner: CloudEngine,
    forgery: Mutex<Option<Forgery>>,
}

impl HostileCloud {
    /// The stored documents a `doc/fetch` or `doc/get_many` names, whole,
    /// and the keep list it carried.
    fn stored<'a>(&self, route: &str, payload: &'a [u8]) -> (Vec<Document>, Vec<&'a str>) {
        let (answer, keep) = if route == FETCH_ROUTE {
            let req = Fetch::decode(payload).unwrap();
            let keep = req.keep.clone();
            (self.inner.handle(route, &Fetch { keep: Vec::new(), ..req }.encode()).unwrap(), keep)
        } else {
            let req = GetMany::decode(payload).unwrap();
            let keep = req.keep.clone();
            (self.inner.handle(route, &GetMany { keep: Vec::new(), ..req }.encode()).unwrap(), keep)
        };
        (decode_documents(&answer).unwrap(), keep)
    }

    /// `docs` answered by position onto `keep`, forged as `forgery` says.
    fn positional(docs: &[Document], keep: &[&str], forgery: Forgery) -> Vec<u8> {
        if let Forgery::NamedDocuments = forgery {
            return encode_documents(docs);
        }
        let mut w = Writer::new();
        w.list_with(docs, |doc, w| {
            w.str(doc.id());
            let mut values: Vec<Vec<u8>> = keep
                .iter()
                .map(|name| {
                    let mut out = Vec::new();
                    match doc.get(name) {
                        Some(_) if matches!(forgery, Forgery::PayloadNotBytes) && name.contains("__") => {
                            encode_value(&Value::from("not a ciphertext"), &mut out);
                        }
                        Some(value) => encode_value(value, &mut out),
                        None => out.push(ABSENT),
                    }
                    out
                })
                .collect();
            match forgery {
                Forgery::MissingValue => drop(values.pop()),
                Forgery::ExtraValue => {
                    let mut extra = Vec::new();
                    encode_value(&Value::from("x"), &mut extra);
                    values.push(extra);
                }
                _ => {}
            }
            for value in &values {
                w.raw(value);
            }
        });
        w.finish()
    }
}

impl CloudService for HostileCloud {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let Some(forgery) = *self.forgery.lock().unwrap() else { return self.inner.handle(route, payload) };
        if (route == FETCH_ROUTE || route == "doc/get_many") && POSITIONAL.contains(&forgery) {
            let (docs, keep) = self.stored(route, payload);
            assert!(!docs.is_empty() && !keep.is_empty(), "a forgery needs documents and a keep list");
            return Ok(Self::positional(&docs, &keep, forgery));
        }
        let answer = self.inner.handle(route, payload)?;
        if route != FETCH_ROUTE {
            return Ok(answer);
        }
        let docs = datablinder::codec::Reader::new(&answer).list().unwrap();
        assert!(docs.len() > 1, "a forgery needs documents to forge");
        let mut w = Writer::new();
        Ok(match forgery {
            Forgery::Truncated => answer[..answer.len() - 1].to_vec(),
            Forgery::CountTooHigh | Forgery::CountTooLow => {
                let count = docs.len() as u32;
                w.u32(if let Forgery::CountTooHigh = forgery { count + 1 } else { count - 1 });
                for doc in &docs {
                    w.bytes(doc);
                }
                w.finish()
            }
            Forgery::Ids => {
                let ids: Vec<DocId> = docs
                    .iter()
                    .map(|doc| {
                        let id = datablinder::codec::Reader::new(doc).str().unwrap();
                        DocId::from_hex(id).unwrap()
                    })
                    .collect();
                encode_ids(&ids)
            }
            _ => unreachable!("{forgery:?} is positional"),
        })
    }
}

fn hostile() -> (GatewayEngine, Arc<HostileCloud>) {
    let cloud = Arc::new(HostileCloud { inner: CloudEngine::new(), forgery: Mutex::new(None) });
    let transport: Arc<dyn Transport> = Arc::new(Channel::from_arc(cloud.clone(), LatencyModel::instant()));
    (loaded(transport, registry(Variant::Builtins, false), false), cloud)
}

#[test]
fn a_forged_fused_answer_is_a_wire_error() {
    let (gw, cloud) = hostile();
    for forgery in [Forgery::Truncated, Forgery::CountTooHigh, Forgery::CountTooLow, Forgery::Ids] {
        *cloud.forgery.lock().unwrap() = Some(forgery);
        for (name, _, query) in queries().into_iter().take(3) {
            let err = query(&gw).expect_err(&format!("{name} accepted a {forgery:?} answer"));
            assert!(matches!(err, CoreError::Wire(_)), "{name}, {forgery:?}: {err}");
        }
    }
    *cloud.forgery.lock().unwrap() = None;
    assert_eq!(gw.find_equal(SCHEMA, "code", &Value::from("urea")).unwrap().len(), 4);
}

/// Arms `forgery` on a fresh hostile cloud: every query, fused or two-call,
/// is a typed wire error and nothing panics; disarmed, every query answers.
fn refused_on_every_query(forgery: Forgery) {
    let (gw, cloud) = hostile();
    *cloud.forgery.lock().unwrap() = Some(forgery);
    for (name, _, query) in queries() {
        let err = query(&gw).expect_err(&format!("{name} accepted a {forgery:?} answer"));
        assert!(matches!(err, CoreError::Wire(_)), "{name}, {forgery:?}: {err}");
    }
    *cloud.forgery.lock().unwrap() = None;
    for (name, hits, query) in queries() {
        assert_eq!(query(&gw).unwrap().len(), hits, "{name}");
    }
}

/// A document answered by position with a value missing or extra, or with
/// a payload position that is not a byte string.
#[test]
fn a_forged_positional_answer_is_a_wire_error() {
    for forgery in [Forgery::MissingValue, Forgery::ExtraValue, Forgery::PayloadNotBytes] {
        refused_on_every_query(forgery);
    }
}

/// Whole named documents in reply to a keep list are not extra bytes but a
/// protocol error: read by position, the field count's leading zero byte is
/// a `Null` where a ciphertext or a typed plain value has to be.
#[test]
fn a_cloud_that_sends_named_documents_for_a_keep_list_is_a_wire_error() {
    refused_on_every_query(Forgery::NamedDocuments);
}

/// What a [`Tamperer`] does to one document of a positional answer.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// One bit of its first RND payload flipped.
    CorruptPayload,
    /// Its plain integer `n` sent as a string.
    PlainOfAnotherType,
    /// Its bytes cut one short.
    Truncated,
    /// One byte after its last value.
    TrailingByte,
}

/// A cloud that answers faithfully, then, when armed, damages document
/// `at` of every positional answer (`doc/fetch` and `doc/get_many`).
struct Tamperer {
    inner: CloudEngine,
    armed: Mutex<Option<(Fault, usize)>>,
}

impl Tamperer {
    /// `doc` (one positional document on `keep`) with `fault` applied.
    fn damage(fault: Fault, doc: &[u8], keep: &[&str]) -> Vec<u8> {
        match fault {
            Fault::Truncated => return doc[..doc.len() - 1].to_vec(),
            Fault::TrailingByte => return [doc, &[0]].concat(),
            Fault::CorruptPayload | Fault::PlainOfAnotherType => {}
        }
        let mut r = datablinder::codec::Reader::new(doc);
        let mut w = Writer::new();
        w.str(r.str().unwrap());
        let mut rest = r.rest();
        let mut damaged = false;
        for name in keep {
            if rest[0] == ABSENT {
                rest = &rest[1..];
                w.raw(&[ABSENT]);
                continue;
            }
            let mut value = datablinder::core::wire::decode_value(&mut rest).unwrap();
            match (fault, &mut value) {
                (Fault::CorruptPayload, Value::Bytes(ciphertext)) if name.ends_with("__rnd") && !damaged => {
                    let middle = ciphertext.len() / 2;
                    ciphertext[middle] ^= 1;
                    damaged = true;
                }
                (Fault::PlainOfAnotherType, _) if *name == "n" => {
                    value = Value::from("not a number");
                    damaged = true;
                }
                _ => {}
            }
            let mut encoded = Vec::new();
            encode_value(&value, &mut encoded);
            w.raw(&encoded);
        }
        assert!(damaged && rest.is_empty(), "{fault:?} found its target");
        w.finish()
    }
}

impl CloudService for Tamperer {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let answer = self.inner.handle(route, payload)?;
        let Some((fault, at)) = *self.armed.lock().unwrap() else { return Ok(answer) };
        let keep = match route {
            FETCH_ROUTE => Fetch::decode(payload).unwrap().keep,
            "doc/get_many" => GetMany::decode(payload).unwrap().keep,
            _ => return Ok(answer),
        };
        let mut docs: Vec<Vec<u8>> =
            datablinder::codec::Reader::new(&answer).list().unwrap().into_iter().map(<[u8]>::to_vec).collect();
        docs[at] = Self::damage(fault, &docs[at], &keep);
        let mut w = Writer::new();
        w.list(&docs);
        Ok(w.finish())
    }
}

/// A search answer is opened a column at a time, under one lock per payload
/// tactic. One damaged document among 64 — the first, one in the middle or
/// the last — still fails the whole search, with the error kind of the
/// damage, and no document list comes back: over an in-process channel and
/// a loopback socket, on a fused read (`doc/fetch`) and a two-call one
/// (`doc/get_many`).
#[test]
fn one_damaged_document_fails_a_64_document_answer_whole() {
    const MANY: i64 = 64;
    for deployment in [Deployment::Channel, Deployment::Tcp] {
        let cloud = Arc::new(Tamperer { inner: CloudEngine::new(), armed: Mutex::new(None) });
        let (transport, _server): (Arc<dyn Transport>, _) = match deployment {
            Deployment::Channel => (Arc::new(Channel::from_arc(cloud.clone(), LatencyModel::instant())), None),
            _ => {
                let server = CloudServer::bind("127.0.0.1:0", cloud.clone(), ServerConfig::default()).expect("bind");
                let channel = TcpChannel::connect(server.local_addr(), TcpConfig::default()).expect("loopback");
                (Arc::new(channel), Some(server))
            }
        };
        let kms = Kms::generate(&mut StdRng::seed_from_u64(64));
        let config = ResilienceConfig { seed: 64, ..ResilienceConfig::default() };
        let gw = GatewayEngine::with_resilience("tamper", kms, ResilientChannel::over(transport, config), 64);
        gw.register_schema(schema()).unwrap();
        let docs: Vec<Document> = (0..MANY).map(|n| doc(n).with("subject", Value::from("p0"))).collect();
        gw.insert_many(SCHEMA, &docs).unwrap();

        let searches: [Query; 2] = [
            (
                "fused range",
                MANY as usize,
                Box::new(|gw| gw.find_range(SCHEMA, "a", &Value::from(0), &Value::from(1_000))),
            ),
            ("two-call equality", MANY as usize, Box::new(|gw| gw.find_equal(SCHEMA, "subject", &Value::from("p0")))),
        ];
        for (name, hits, search) in &searches {
            assert_eq!(search(&gw).unwrap().len(), *hits, "{deployment:?}, {name}: faithful first");
        }
        for fault in [Fault::CorruptPayload, Fault::PlainOfAnotherType, Fault::Truncated, Fault::TrailingByte] {
            for at in [0, MANY as usize / 2, MANY as usize - 1] {
                *cloud.armed.lock().unwrap() = Some((fault, at));
                for (name, _, search) in &searches {
                    let at = format!("{deployment:?}, {name}, {fault:?} at document {at}");
                    let err = search(&gw).expect_err(&at);
                    match fault {
                        Fault::CorruptPayload => assert!(matches!(err, CoreError::Sse(_)), "{at}: {err}"),
                        _ => assert!(matches!(err, CoreError::Wire(_)), "{at}: {err}"),
                    }
                }
            }
        }
        *cloud.armed.lock().unwrap() = None;
        for (name, hits, search) in &searches {
            assert_eq!(search(&gw).unwrap().len(), *hits, "{deployment:?}, {name}: disarmed");
        }
    }
}

/// Random documents whose optional fields are often absent: every search
/// returns each document exactly as `get` does — the positional read and
/// the whole stored document open to the same `Document` — over an
/// in-process channel, a loopback socket and a 5-node cluster.
#[test]
fn projected_reads_return_what_get_returns() {
    use FieldOp::*;
    use ProtectionClass::*;
    let field = |class, ops: &[FieldOp]| FieldAnnotation::new(class, ops.to_vec());
    let schema = Schema::new("sparse")
        .plain_field("note", FieldType::Text, false)
        .plain_field("seq", FieldType::Integer, true)
        .plain_field("weight", FieldType::Float, false)
        .sensitive_field("group", FieldType::Text, true, field(C4, &[Insert, Equality]))
        .sensitive_field("owner", FieldType::Text, false, field(C2, &[Insert, Equality]))
        .sensitive_field("level", FieldType::Integer, false, field(C5, &[Insert, Range]))
        .sensitive_field("secret", FieldType::Text, false, field(C1, &[Insert]))
        .sensitive_field("flag", FieldType::Boolean, false, field(C3, &[Insert, Equality]));
    for deployment in [Deployment::Channel, Deployment::Tcp, Deployment::Cluster] {
        let (transport, _server) = transport(deployment);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let gw = GatewayEngine::with_registry_resilient(
            "sparse",
            Kms::generate(&mut rng),
            ResilientChannel::over(transport, ResilienceConfig::default()),
            7,
            TacticRegistry::with_builtins(),
        );
        gw.register_schema(schema.clone()).unwrap();
        let docs: Vec<Document> = (0..40)
            .map(|i| {
                let mut doc = Document::new("x")
                    .with("seq", Value::from(i as i64))
                    .with("group", Value::from(["g0", "g1", "g2"][rng.gen_range(0..3usize)]));
                let optional: [(&str, Value); 6] = [
                    ("note", Value::from(format!("n{}", rng.gen_range(0..100u32)))),
                    ("weight", Value::F64(f64::from(rng.gen_range(0..1000u32)) / 8.0)),
                    ("owner", Value::from(["ann", "bob"][rng.gen_range(0..2usize)])),
                    ("level", Value::from(rng.gen_range(0..50i64))),
                    ("secret", Value::from(format!("s{}", rng.gen_range(0..1000u32)))),
                    ("flag", Value::Bool(rng.gen_range(0..2u32) == 1)),
                ];
                for (name, value) in optional {
                    if rng.gen::<f64>() < 0.5 {
                        doc.set(name, value);
                    }
                }
                doc
            })
            .collect();
        gw.insert_many("sparse", &docs).unwrap();
        let mut seen = 0;
        let searches: Vec<Result<Vec<Document>, CoreError>> = vec![
            gw.find_equal("sparse", "group", &Value::from("g0")),
            gw.find_equal("sparse", "group", &Value::from("g1")),
            gw.find_equal("sparse", "group", &Value::from("g2")),
            gw.find_equal("sparse", "owner", &Value::from("ann")),
            gw.find_range("sparse", "level", &Value::from(0), &Value::from(49)),
        ];
        for found in searches {
            for doc in found.unwrap() {
                let id = DocId::from_hex(doc.id()).unwrap();
                assert_eq!(doc, gw.get("sparse", id).unwrap(), "{deployment:?}");
                seen += 1;
            }
        }
        assert!(seen > docs.len(), "{deployment:?}: every document, several times over: {seen}");
    }
}
