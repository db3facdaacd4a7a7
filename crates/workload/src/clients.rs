//! The three evaluation scenarios of §5.2 as pluggable clients:
//!
//! * [`PlainClient`] — **S_A**: "the application only does data operations
//!   and does not use the middleware or any tactic";
//! * [`HardcodedClient`] — **S_B**: "the data protection tactics are
//!   implemented hard-coded into the application without using the
//!   middleware" — the same 8 tactics (Mitra, RND, Paillier, five times
//!   DET), statically dispatched, no registry/policy/schema machinery;
//! * [`MiddlewareClient`] — **S_C**: "the application uses DataBlinder to
//!   enforce the required data protection tactics".
//!
//! All three run the paper's medical-document workload against the same
//! cloud engine over the same channel, so the measured differences are
//! exactly (a) tactic cost (S_A→S_B) and (b) middleware overhead
//! (S_B→S_C).

use datablinder_codec::Reader;
use datablinder_core::cloud::with_collection;
use datablinder_core::cloudproto::{
    decode_batch_answer, encode_batch, FindIdsEq, GetMany, PaillierSum, PaillierSumResponse, BATCH_ROUTE,
};
use datablinder_core::gateway::GatewayEngine;
use datablinder_core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
use datablinder_core::spi::CloudCall;
use datablinder_core::tactics::{decode_ids, shadow_field};
use datablinder_core::wire::{canonical_bytes, decode_documents, decode_value, encode_document, field_keyword};
use datablinder_docstore::{Document, Value};
use datablinder_kms::Kms;
use datablinder_netsim::Channel;
use datablinder_paillier::{Ciphertext, Keypair};
use datablinder_primitives::keys::SymmetricKey;
use datablinder_sse::det::DetCipher;
use datablinder_sse::mitra::MitraClient;
use datablinder_sse::rnd::RndCipher;
use datablinder_sse::{DocId, UpdateOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A `doc/get_many` request for `ids`, every stored field included.
fn get_many(collection: &str, ids: &[DocId]) -> Vec<u8> {
    let hex: Vec<String> = ids.iter().map(|id| id.to_hex()).collect();
    GetMany { collection, ids: hex.iter().map(String::as_bytes).collect(), keep: Vec::new() }.encode()
}

/// The operations the benchmark issues (the paper's balanced
/// read / write / aggregate mix).
pub trait BenchClient: Send {
    /// Write: insert one observation (secure indexing included).
    ///
    /// # Errors
    ///
    /// Any scenario failure, stringified.
    fn insert(&mut self, doc: &Document) -> Result<(), String>;

    /// Read: equality search on `subject`, returning the hit count after
    /// full document retrieval and decryption.
    ///
    /// # Errors
    ///
    /// Any scenario failure, stringified.
    fn search_subject(&mut self, subject: &str) -> Result<usize, String>;

    /// Aggregate: average of `value` over the whole collection
    /// (homomorphic where tactics apply).
    ///
    /// # Errors
    ///
    /// Any scenario failure, stringified.
    fn average_value(&mut self) -> Result<f64, String>;

    /// Scenario label (`S_A`, `S_B`, `S_C`).
    fn label(&self) -> &'static str;
}

/// The benchmark schema matching the paper's §5.2 tactic census: "there
/// were in total 8 tactics involved, namely Mitra, RND, Paillier, and
/// five times DET".
pub fn bench_schema() -> Schema {
    bench_schema_named("observation")
}

/// [`bench_schema`] under a custom collection name (per-worker isolation
/// in multi-worker runs: each worker is an independent tenant, like the
/// per-user sessions of the paper's Locust users).
pub fn bench_schema_named(name: &str) -> Schema {
    use FieldOp::*;
    Schema::new(name)
        .plain_field("identifier", FieldType::Integer, true)
        .plain_field("interpretation", FieldType::Text, false)
        // C4 → DET (equalities admissible, cheapest equality tactic).
        .sensitive_field(
            "status",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C4, vec![Insert, Equality]),
        )
        .sensitive_field(
            "code",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C4, vec![Insert, Equality]),
        )
        .sensitive_field(
            "effective",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C5, vec![Insert, Equality]),
        )
        .sensitive_field(
            "issued",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C5, vec![Insert, Equality]),
        )
        // C2 → Mitra.
        .sensitive_field(
            "subject",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![Insert, Equality]),
        )
        // C1 → RND.
        .sensitive_field("performer", FieldType::Text, true, FieldAnnotation::new(ProtectionClass::C1, vec![Insert]))
        // 5th DET + Paillier.
        .sensitive_field(
            "value",
            FieldType::Float,
            true,
            FieldAnnotation::new(ProtectionClass::C4, vec![Insert, Equality]).with_aggs(vec![AggFn::Avg]),
        )
}

// ====================================================================
// S_A
// ====================================================================

/// The no-protection baseline: plaintext documents straight to the cloud.
pub struct PlainClient {
    channel: Channel,
    collection: String,
    counter: u64,
    worker: u64,
}

impl PlainClient {
    /// Creates a client for `worker` (ids are worker-disambiguated).
    pub fn new(channel: Channel, worker: u64) -> Self {
        let client = PlainClient { channel, collection: format!("observation-w{worker}"), counter: 0, worker };
        // Index the search field like any sane deployment would.
        let _ = client.channel.call("doc/ensure_index", &with_collection(&client.collection, b"subject"));
        client
    }

    fn next_id(&mut self) -> DocId {
        self.counter += 1;
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&self.worker.to_be_bytes());
        id[8..].copy_from_slice(&self.counter.to_be_bytes());
        DocId(id)
    }
}

impl BenchClient for PlainClient {
    fn insert(&mut self, doc: &Document) -> Result<(), String> {
        let id = self.next_id();
        let mut stored = Document::new(id.to_hex());
        for (f, v) in doc.iter() {
            stored.set(f, v.clone());
        }
        self.channel
            .call("doc/insert", &with_collection(&self.collection, &encode_document(&stored)))
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    fn search_subject(&mut self, subject: &str) -> Result<usize, String> {
        let req =
            FindIdsEq { collection: self.collection.clone(), field: "subject".into(), value: Value::from(subject) };
        let out = self.channel.call("doc/find_ids_eq", &req.encode()).map_err(|e| e.to_string())?;
        let ids = decode_ids(&out).map_err(|e| e.to_string())?;
        if ids.is_empty() {
            return Ok(0);
        }
        let docs = self.channel.call("doc/get_many", &get_many(&self.collection, &ids)).map_err(|e| e.to_string())?;
        let docs = decode_documents(&docs).map_err(|e| e.to_string())?;
        Ok(docs.len())
    }

    fn average_value(&mut self) -> Result<f64, String> {
        let out = self
            .channel
            .call("doc/agg_plain", &with_collection(&self.collection, b"value"))
            .map_err(|e| e.to_string())?;
        if out.len() != 16 {
            return Err("agg_plain response".into());
        }
        let sum = f64::from_be_bytes(out[..8].try_into().unwrap());
        let count = u64::from_be_bytes(out[8..].try_into().unwrap());
        Ok(if count == 0 { 0.0 } else { sum / count as f64 })
    }

    fn label(&self) -> &'static str {
        "S_A"
    }
}

// ====================================================================
// S_B
// ====================================================================

/// DET-protected fields in the hard-coded scenario.
const DET_FIELDS: [&str; 5] = ["status", "code", "effective", "issued", "value"];

/// Tactics hard-wired into the application: no registry, no policies, no
/// schema validation — the S_B reference DataBlinder is compared against.
pub struct HardcodedClient {
    channel: Channel,
    collection: String,
    det: Vec<DetCipher>,
    rnd: RndCipher,
    mitra: MitraClient,
    paillier: Keypair,
    scope: String,
    rng: StdRng,
    counter: u64,
    worker: u64,
}

impl HardcodedClient {
    /// Creates the client with freshly derived keys (mirrors an app
    /// embedding its own key material).
    ///
    /// # Panics
    ///
    /// Panics on key-schedule failures (cannot happen for 32-byte keys).
    pub fn new(channel: Channel, worker: u64, paillier_bits: usize) -> Self {
        let master = SymmetricKey::from_bytes(&{
            let mut k = [7u8; 32];
            k[..8].copy_from_slice(&worker.to_be_bytes());
            k
        });
        let mut rng = StdRng::seed_from_u64(0xB0B + worker);
        let det = DET_FIELDS
            .iter()
            .map(|f| DetCipher::new(&master.derive(format!("det/{f}").as_bytes(), 32)).expect("det key"))
            .collect();
        let client = HardcodedClient {
            channel,
            collection: format!("observation-w{worker}"),
            det,
            rnd: RndCipher::new(&master.derive(b"rnd/performer", 32)).expect("rnd key"),
            mitra: MitraClient::new(&master.derive(b"mitra/subject", 32)),
            paillier: Keypair::generate(&mut rng, paillier_bits),
            scope: format!("hardcoded-w{worker}"),
            rng,
            counter: 0,
            worker,
        };
        for f in DET_FIELDS {
            let _ = client
                .channel
                .call("doc/ensure_index", &with_collection(&client.collection, shadow_field(f, "det").as_bytes()));
        }
        client
    }

    fn next_id(&mut self) -> DocId {
        self.counter += 1;
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&self.worker.to_be_bytes());
        id[8..].copy_from_slice(&self.counter.to_be_bytes());
        DocId(id)
    }
}

impl BenchClient for HardcodedClient {
    fn insert(&mut self, doc: &Document) -> Result<(), String> {
        let id = self.next_id();
        let mut stored = Document::new(id.to_hex());
        // Plain metadata fields.
        for f in ["identifier", "interpretation"] {
            if let Some(v) = doc.get(f) {
                stored.set(f, v.clone());
            }
        }
        // 5 × DET.
        for (i, f) in DET_FIELDS.iter().enumerate() {
            let v = doc.get(f).ok_or_else(|| format!("missing {f}"))?;
            stored.set(shadow_field(f, "det"), Value::Bytes(self.det[i].encrypt(&canonical_bytes(v))));
        }
        // RND performer.
        let performer = doc.get("performer").ok_or("missing performer")?;
        stored.set(
            shadow_field("performer", "rnd"),
            Value::Bytes(self.rnd.encrypt(&mut self.rng, &canonical_bytes(performer))),
        );
        // Mitra subject index.
        let subject = doc.get("subject").ok_or("missing subject")?;
        let kw = field_keyword("subject", subject);
        let token = self.mitra.update_token(&kw, id, UpdateOp::Add);
        let index_update = CloudCall::new(format!("tactic/mitra/{}/update", self.scope), token.encode());
        // RND for subject payload (recoverable storage, like the engine).
        stored.set(
            shadow_field("subject", "rnd"),
            Value::Bytes(self.rnd.encrypt(&mut self.rng, &canonical_bytes(subject))),
        );
        // Paillier value.
        let value = doc.get("value").and_then(Value::as_f64).ok_or("missing value")?;
        let scaled = (value * 1000.0).round() as u64;
        let ct = self.paillier.encrypt_u64(&mut self.rng, scaled);
        stored.set(shadow_field("value", "phe"), Value::Bytes(ct.to_bytes()));

        // The index update and the document in one round trip, as the
        // middleware sends them.
        let insert = CloudCall::new("doc/insert", with_collection(&self.collection, &encode_document(&stored)));
        let answer =
            self.channel.call(BATCH_ROUTE, &encode_batch(&[index_update, insert])).map_err(|e| e.to_string())?;
        decode_batch_answer(&answer, 2).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn search_subject(&mut self, subject: &str) -> Result<usize, String> {
        let kw = field_keyword("subject", &Value::from(subject));
        let token = self.mitra.search_token(&kw);
        let out = self
            .channel
            .call(&format!("tactic/mitra/{}/search", self.scope), &token.encode())
            .map_err(|e| e.to_string())?;
        let mut r = Reader::new(&out);
        let values = r.list().map_err(|e| e.to_string())?;
        let ids = self.mitra.resolve(&kw, &values).map_err(|e| e.to_string())?;
        if ids.is_empty() {
            return Ok(0);
        }
        let docs = self.channel.call("doc/get_many", &get_many(&self.collection, &ids)).map_err(|e| e.to_string())?;
        let docs = decode_documents(&docs).map_err(|e| e.to_string())?;
        // Decrypt the full documents like a real application (and like the
        // middleware's retrieval path) would: all five DET fields plus the
        // two RND payloads.
        let mut count = 0usize;
        for d in &docs {
            for (i, f) in DET_FIELDS.iter().enumerate() {
                if let Some(Value::Bytes(ct)) = d.get(&shadow_field(f, "det")) {
                    let plain = self.det[i].decrypt(ct).map_err(|e| e.to_string())?;
                    let mut slice = plain.as_slice();
                    let _ = decode_value(&mut slice).map_err(|e| e.to_string())?;
                }
            }
            for f in ["performer", "subject"] {
                if let Some(Value::Bytes(ct)) = d.get(&shadow_field(f, "rnd")) {
                    let plain = self.rnd.decrypt(ct).map_err(|e| e.to_string())?;
                    let mut slice = plain.as_slice();
                    let _ = decode_value(&mut slice).map_err(|e| e.to_string())?;
                }
            }
            count += 1;
        }
        Ok(count)
    }

    fn average_value(&mut self) -> Result<f64, String> {
        let req = PaillierSum {
            collection: self.collection.clone(),
            field: shadow_field("value", "phe"),
            modulus: self.paillier.public().to_bytes(),
            ids: vec![],
        };
        let out = self
            .channel
            .call(&format!("tactic/paillier/{}/sum", self.scope), &req.encode())
            .map_err(|e| e.to_string())?;
        let resp = PaillierSumResponse::decode(&out).map_err(|e| e.to_string())?;
        if resp.count == 0 {
            return Ok(0.0);
        }
        let sum = self.paillier.decrypt(&Ciphertext::from_bytes(&resp.ciphertext)).map_err(|e| e.to_string())?;
        let sum = sum.to_u64().ok_or("sum overflow")? as f64 / 1000.0;
        Ok(sum / resp.count as f64)
    }

    fn label(&self) -> &'static str {
        "S_B"
    }
}

// ====================================================================
// S_C
// ====================================================================

/// The full middleware: schema registration, policy-driven selection,
/// runtime tactic loading — everything S_B skips.
pub struct MiddlewareClient {
    engine: GatewayEngine,
    schema: String,
}

impl MiddlewareClient {
    /// Creates the client over a fresh gateway engine.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark schema fails to register (a bug, not an
    /// input condition).
    pub fn new(channel: Channel, worker: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(0x5C + worker);
        let kms = Kms::generate(&mut rng);
        let engine = GatewayEngine::new(&format!("bench-w{worker}"), kms, channel, 0xC0DE + worker);
        let schema = format!("observation-w{worker}");
        engine.register_schema(bench_schema_named(&schema)).expect("bench schema registers");
        MiddlewareClient { engine, schema }
    }

    /// Access to the engine (used by the healthcare example and tests).
    pub fn engine_mut(&mut self) -> &mut GatewayEngine {
        &mut self.engine
    }
}

impl BenchClient for MiddlewareClient {
    fn insert(&mut self, doc: &Document) -> Result<(), String> {
        self.engine.insert(&self.schema, doc).map(|_| ()).map_err(|e| e.to_string())
    }

    fn search_subject(&mut self, subject: &str) -> Result<usize, String> {
        self.engine
            .find_equal(&self.schema, "subject", &Value::from(subject))
            .map(|docs| docs.len())
            .map_err(|e| e.to_string())
    }

    fn average_value(&mut self) -> Result<f64, String> {
        self.engine.aggregate(&self.schema, "value", AggFn::Avg, None).map_err(|e| e.to_string())
    }

    fn label(&self) -> &'static str {
        "S_C"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablinder_core::cloud::CloudEngine;
    use datablinder_fhir::ObservationGenerator;
    use datablinder_netsim::LatencyModel;

    fn channel() -> Channel {
        Channel::connect(CloudEngine::new(), LatencyModel::instant())
    }

    fn drive(client: &mut dyn BenchClient) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut gen = ObservationGenerator::new(5);
        let mut docs = Vec::new();
        for _ in 0..20 {
            let doc = gen.generate(&mut rng);
            client.insert(&doc).unwrap();
            docs.push(doc);
        }
        // Search for a known subject: count hits against the oracle.
        let subject = docs[0].get("subject").unwrap().as_str().unwrap().to_string();
        let expect = docs.iter().filter(|d| d.get("subject").unwrap().as_str() == Some(&subject)).count();
        assert_eq!(client.search_subject(&subject).unwrap(), expect, "{}", client.label());
        assert_eq!(client.search_subject("Nobody").unwrap(), 0);
        // Average agrees with the oracle within fixed-point error.
        let oracle: f64 =
            docs.iter().map(|d| d.get("value").unwrap().as_f64().unwrap()).sum::<f64>() / docs.len() as f64;
        let avg = client.average_value().unwrap();
        assert!((avg - oracle).abs() < 0.01, "{}: {avg} vs {oracle}", client.label());
    }

    #[test]
    fn plain_client_correct() {
        drive(&mut PlainClient::new(channel(), 0));
    }

    #[test]
    fn hardcoded_client_correct() {
        drive(&mut HardcodedClient::new(channel(), 0, 256));
    }

    #[test]
    fn middleware_client_correct() {
        drive(&mut MiddlewareClient::new(channel(), 0));
    }

    /// Figure 5 compares like with like: S_B and S_C each send an insert's
    /// index update and document in one round trip, as S_A sends its one
    /// document.
    #[test]
    fn every_scenario_inserts_in_one_round_trip() {
        let doc = ObservationGenerator::new(3).generate(&mut StdRng::seed_from_u64(7));
        let ch = channel();
        let clients: [Box<dyn BenchClient>; 3] = [
            Box::new(PlainClient::new(ch.clone(), 0)),
            Box::new(HardcodedClient::new(ch.clone(), 1, 256)),
            Box::new(MiddlewareClient::new(ch.clone(), 2)),
        ];
        for mut client in clients {
            let before = ch.metrics().round_trips();
            client.insert(&doc).unwrap();
            assert_eq!(ch.metrics().round_trips() - before, 1, "{}", client.label());
        }
    }

    #[test]
    fn bench_schema_uses_the_papers_8_tactics() {
        let mut client = MiddlewareClient::new(channel(), 9);
        let engine = client.engine_mut();
        let mut det_count = 0;
        for field in ["status", "code", "effective", "issued", "subject", "performer", "value"] {
            let sel = engine.selection("observation-w9", field).unwrap();
            for t in sel.listed_tactics() {
                if t == "det" {
                    det_count += 1;
                }
            }
        }
        assert_eq!(det_count, 5, "five times DET");
        assert_eq!(engine.selection("observation-w9", "subject").unwrap().listed_tactics(), vec!["mitra"]);
        assert_eq!(engine.selection("observation-w9", "performer").unwrap().listed_tactics(), vec!["rnd"]);
        assert!(engine
            .selection("observation-w9", "value")
            .unwrap()
            .listed_tactics()
            .contains(&"paillier".to_string()));
    }

    #[test]
    fn middleware_protects_the_cloud_view() {
        // The cloud document must not contain any plaintext sensitive value.
        let cloud = CloudEngine::new();
        let docs_handle = cloud.docs().clone();
        let ch = Channel::connect(cloud, LatencyModel::instant());
        let mut client = MiddlewareClient::new(ch, 1);
        let mut gen = ObservationGenerator::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        let doc = gen.generate(&mut rng);
        client.insert(&doc).unwrap();
        let stored = docs_handle.collection("observation-w1").find(&datablinder_docstore::Filter::All);
        assert_eq!(stored.len(), 1);
        let subject = doc.get("subject").unwrap().as_str().unwrap();
        for (field, value) in stored[0].iter() {
            if let Value::Str(s) = value {
                assert_ne!(s, subject, "plaintext subject leaked into field {field}");
            }
        }
        assert!(stored[0].get("subject").is_none(), "raw sensitive field must not exist");
        assert!(stored[0].get("subject__rnd").is_some(), "payload ciphertext expected");
    }
}
