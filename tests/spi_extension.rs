//! The paper's extensibility claim, exercised for real: a third-party
//! "tactic provider" ships a brand-new tactic through the SPI — gateway
//! half, cloud half, descriptor — registers it at runtime, and the
//! middleware selects and drives it with zero engine changes.
//!
//! The toy scheme ("hmac-index") stores `PRF(keyword) → id` postings in
//! the cloud KV store and encrypts payloads with the RND cipher: not
//! novel cryptography, but a complete, independent SPI implementation.

use std::sync::Arc;

use datablinder::core::cloud::CloudEngine;
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::model::*;
use datablinder::core::registry::TacticRegistry;
use datablinder::core::spi::{CloudCall, CloudTactic, GatewayTactic, ProtectedField};
use datablinder::core::tactics::{encode_ids, shadow_field};
use datablinder::core::wire::{canonical_bytes, decode_value, field_keyword};
use datablinder::core::CoreError;
use datablinder::docstore::{Document, Value};
use datablinder::kms::Kms;
use datablinder::kvstore::KvStore;
use datablinder::netsim::{Channel, LatencyModel};
use datablinder::primitives::prf::{HmacPrf, Prf};
use datablinder::sse::rnd::RndCipher;
use datablinder::sse::DocId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "hmac-index".into(),
        family: "third-party demo".into(),
        operations: vec![
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Identifiers, metrics: PerfMetrics::new(1, 1, 1) },
            OpProfile { op: TacticOp::EqQuery, leakage: LeakageLevel::Identifiers, metrics: PerfMetrics::new(1, 1, 1) },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Equality],
        serves_agg: vec![],
        gateway_interfaces: 5,
        cloud_interfaces: 3,
        gateway_state: false,
    }
}

struct HmacIndexGateway {
    prf: HmacPrf,
    payload: RndCipher,
    route_insert: String,
    route_search: String,
}

impl GatewayTactic for HmacIndexGateway {
    fn descriptor(&self) -> TacticDescriptor {
        descriptor()
    }

    fn protect(
        &mut self,
        rng: &mut dyn RngCore,
        field: &str,
        value: &Value,
        id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        let label = self.prf.eval(&field_keyword(field, value));
        let mut payload = label.to_vec();
        payload.extend_from_slice(&id.0);
        Ok(ProtectedField {
            stored: vec![(
                shadow_field(field, "hmacidx").into(),
                Value::Bytes(self.payload.encrypt_for(rng, &id.0, &canonical_bytes(value))),
            )],
            index_calls: vec![CloudCall::new(self.route_insert.clone(), payload)],
        })
    }

    fn recover(&self, id: DocId, ciphertext: &[u8], scratch: &mut Vec<u8>) -> Result<Value, CoreError> {
        let mut plain =
            self.payload.decrypt_in(&id.0, ciphertext, scratch).map_err(|e| CoreError::Sse(e.to_string()))?;
        decode_value(&mut plain)
    }

    fn eq_query(&mut self, field: &str, value: &Value) -> Result<Vec<CloudCall>, CoreError> {
        let label = self.prf.eval(&field_keyword(field, value));
        Ok(vec![CloudCall::new(self.route_search.clone(), label.to_vec())])
    }
}

struct HmacIndexCloud {
    kv: KvStore,
}

impl CloudTactic for HmacIndexCloud {
    fn name(&self) -> &'static str {
        "hmac-index"
    }

    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        let mut key = format!("t/hmac-index/{scope}/").into_bytes();
        match op {
            "insert" => {
                if payload.len() != 48 {
                    return Err(CoreError::Wire("hmac-index insert payload"));
                }
                key.extend_from_slice(&payload[..32]);
                self.kv.sadd(&key, &payload[32..])?;
                Ok(Vec::new())
            }
            "search" => {
                if payload.len() != 32 {
                    return Err(CoreError::Wire("hmac-index search payload"));
                }
                key.extend_from_slice(payload);
                let mut ids: Vec<DocId> =
                    self.kv.smembers(&key).into_iter().filter_map(|m| m.try_into().ok().map(DocId)).collect();
                ids.sort();
                Ok(encode_ids(&ids))
            }
            other => Err(CoreError::UnsupportedOperation(format!("hmac-index op {other}"))),
        }
    }
}

#[test]
fn third_party_tactic_plugs_in_end_to_end() {
    // Cloud side: register the provider's cloud half.
    let mut cloud = CloudEngine::new();
    cloud.register(Arc::new(HmacIndexCloud { kv: cloud.kv().clone() }));
    let channel = Channel::connect(cloud, LatencyModel::instant());

    // Gateway side: register descriptor + factory.
    let mut registry = TacticRegistry::with_builtins();
    registry.register(
        descriptor(),
        Box::new(|ctx, _rng| {
            let key = ctx.kms.key_for(&ctx.key_scope("hmac-index"));
            Ok(Box::new(HmacIndexGateway {
                prf: HmacPrf::new(key.derive(b"idx", 32)),
                payload: RndCipher::new(&key.derive(b"payload", 32)).map_err(|e| CoreError::Sse(e.to_string()))?,
                route_insert: ctx.route("hmac-index", "insert"),
                route_search: ctx.route("hmac-index", "search"),
            }))
        }),
    );

    // Selection picks the newcomer: it serves C2 equality at the lowest
    // cost rank in the registry.
    let selection = registry
        .select("owner", &FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]))
        .unwrap();
    assert_eq!(selection.search_tactics, vec!["hmac-index"]);

    let mut rng = StdRng::seed_from_u64(77);
    let gw = GatewayEngine::with_registry("thirdparty", Kms::generate(&mut rng), channel, 7, registry);
    let schema = Schema::new("records").sensitive_field(
        "owner",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
    );
    gw.register_schema(schema).unwrap();

    let mut ids = Vec::new();
    for owner in ["ann", "bob", "ann"] {
        ids.push(gw.insert("records", &Document::new("x").with("owner", Value::from(owner))).unwrap());
    }
    // Search through the custom tactic.
    let hits = gw.find_equal("records", "owner", &Value::from("ann")).unwrap();
    assert_eq!(hits.len(), 2);
    for h in &hits {
        assert_eq!(h.get("owner"), Some(&Value::from("ann")), "payload recovered by the custom tactic");
    }
    // Reads decrypt through the custom payload path.
    assert_eq!(gw.get("records", ids[1]).unwrap().get("owner"), Some(&Value::from("bob")));
}

#[test]
fn custom_tactic_key_comes_from_the_kms() {
    // Two applications get independent keys for the same custom tactic:
    // tokens must not collide across tenants.
    let mut cloud = CloudEngine::new();
    cloud.register(Arc::new(HmacIndexCloud { kv: cloud.kv().clone() }));
    let channel = Channel::connect(cloud, LatencyModel::instant());

    let build_registry = || {
        let mut r = TacticRegistry::with_builtins();
        r.register(
            descriptor(),
            Box::new(|ctx: &datablinder::core::tactics::TacticContext, _rng: &mut dyn RngCore| {
                let key = ctx.kms.key_for(&ctx.key_scope("hmac-index"));
                Ok(Box::new(HmacIndexGateway {
                    prf: HmacPrf::new(key.derive(b"idx", 32)),
                    payload: RndCipher::new(&key.derive(b"payload", 32)).map_err(|e| CoreError::Sse(e.to_string()))?,
                    route_insert: ctx.route("hmac-index", "insert"),
                    route_search: ctx.route("hmac-index", "search"),
                }) as Box<dyn GatewayTactic>)
            }),
        );
        r
    };
    let schema = || {
        Schema::new("records").sensitive_field(
            "owner",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
        )
    };
    let mut rng = StdRng::seed_from_u64(78);
    let gw_a = GatewayEngine::with_registry("tenant-a", Kms::generate(&mut rng), channel.clone(), 1, build_registry());
    gw_a.register_schema(schema()).unwrap();
    gw_a.insert("records", &Document::new("x").with("owner", Value::from("ann"))).unwrap();

    let gw_b = GatewayEngine::with_registry("tenant-b", Kms::generate(&mut rng), channel, 2, build_registry());
    gw_b.register_schema(schema()).unwrap();
    assert!(gw_b.find_equal("records", "owner", &Value::from("ann")).unwrap().is_empty());
}
