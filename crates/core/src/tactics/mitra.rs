//! The Mitra tactic adapter: forward/backward-private equality search,
//! class 2.

use datablinder_codec::{Reader, Writer};
use datablinder_docstore::Value;
use datablinder_kvstore::KvStore;
use datablinder_sse::mitra::{fetch_entries, store_entry, MitraClient, MitraSearchToken, MitraUpdateToken};
use datablinder_sse::{DocId, UpdateOp};
use rand::RngCore;

use super::{scope_key, TacticContext};
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, CloudTactic, GatewayTactic, ProtectedField};

/// Descriptor for Mitra (Table 2: class 2, leakage *Identifiers*,
/// 7 gateway / 5 cloud interfaces, challenge "local storage").
pub fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "mitra".into(),
        family: "SSE (forward & backward private)".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(1, 0, 2) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(2, 1, 2) },
            OpProfile { op: TacticOp::EqQuery, leakage: LeakageLevel::Identifiers, metrics: PerfMetrics::new(2, 1, 2) },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Equality],
        serves_agg: vec![],
        gateway_interfaces: 7,
        cloud_interfaces: 5,
        gateway_state: true,
    }
}

/// Gateway half of Mitra.
pub struct MitraTactic {
    client: MitraClient,
    route_update: String,
    route_search: String,
    /// The keyword of the value being protected, reused.
    keyword: Vec<u8>,
}

impl MitraTactic {
    /// Builds from context (restoring exported state is the engine's job
    /// via [`GatewayTactic::import_state`]).
    pub fn build(ctx: &TacticContext) -> Result<Self, CoreError> {
        let key = ctx.kms.key_for(&ctx.key_scope("mitra"));
        Ok(MitraTactic {
            client: MitraClient::new(&key),
            route_update: ctx.route("mitra", "update"),
            route_search: ctx.route("mitra", "search"),
            keyword: Vec::new(),
        })
    }

    fn keyword(field: &str, value: &Value) -> Vec<u8> {
        crate::wire::field_keyword(field, value)
    }
}

impl GatewayTactic for MitraTactic {
    fn descriptor(&self) -> TacticDescriptor {
        descriptor()
    }

    fn protect(
        &mut self,
        _rng: &mut dyn RngCore,
        field: &str,
        value: &Value,
        id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        crate::wire::field_keyword_into(field, value, &mut self.keyword);
        let token = self.client.update_token(&self.keyword, id, UpdateOp::Add);
        Ok(ProtectedField {
            stored: Vec::new(),
            index_calls: vec![CloudCall::new(self.route_update.clone(), token.encode())],
        })
    }

    fn delete(&mut self, field: &str, value: &Value, id: DocId) -> Result<Vec<CloudCall>, CoreError> {
        let token = self.client.update_token(&Self::keyword(field, value), id, UpdateOp::Delete);
        Ok(vec![CloudCall::new(self.route_update.clone(), token.encode())])
    }

    fn eq_query(&mut self, field: &str, value: &Value) -> Result<Vec<CloudCall>, CoreError> {
        let token = self.client.search_token(&Self::keyword(field, value));
        Ok(vec![CloudCall::new(self.route_search.clone(), token.encode())])
    }

    fn eq_resolve(&self, field: &str, value: &Value, responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
        let [response] = responses else {
            return Err(CoreError::Wire("mitra response arity"));
        };
        let mut r = Reader::new(response);
        let values = r.list()?;
        r.finish()?;
        Ok(self.client.resolve(&Self::keyword(field, value), &values)?)
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        Some(self.client.export_state())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        self.client.import_state(state)?;
        Ok(())
    }
}

/// Cloud half of Mitra: an opaque encrypted map per scope.
pub struct MitraCloud {
    kv: KvStore,
}

impl MitraCloud {
    /// Creates the handler over the cloud KV store.
    pub fn new(kv: KvStore) -> Self {
        MitraCloud { kv }
    }
}

impl CloudTactic for MitraCloud {
    fn name(&self) -> &'static str {
        "mitra"
    }

    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        let mut key = scope_key("mitra", scope);
        match op {
            "update" => {
                let token = MitraUpdateToken::decode(payload)?;
                store_entry(&self.kv, &mut key, &token)?;
                Ok(Vec::new())
            }
            "search" => {
                let token = MitraSearchToken::decode(payload)?;
                let values = fetch_entries(&self.kv, &mut key, &token);
                let mut w = Writer::new();
                w.list(&values);
                Ok(w.finish())
            }
            other => Err(CoreError::UnsupportedOperation(format!("mitra cloud op {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tactics::tests::run;
    use rand::SeedableRng;

    fn setup() -> (MitraTactic, MitraCloud) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ctx = TacticContext {
            application: "app".into(),
            schema: "obs".into(),
            scope: "subject".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        (MitraTactic::build(&ctx).unwrap(), MitraCloud::new(KvStore::new()))
    }

    #[test]
    fn insert_search_delete_via_spi() {
        let (mut gw, cloud) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let v = Value::from("John Doe");

        for n in 1..=3u8 {
            let p = gw.protect(&mut rng, "subject", &v, DocId([n; 16])).unwrap();
            assert!(p.stored.is_empty(), "mitra stores nothing in the document");
            assert_eq!(p.index_calls.len(), 1);
            run(&cloud, &p.index_calls[0]);
        }

        let calls = gw.eq_query("subject", &v).unwrap();
        let resp = run(&cloud, &calls[0]);
        let ids = gw.eq_resolve("subject", &v, &[resp]).unwrap();
        assert_eq!(ids, vec![DocId([1; 16]), DocId([2; 16]), DocId([3; 16])]);

        // Delete one and search again.
        for call in gw.delete("subject", &v, DocId([2; 16])).unwrap() {
            run(&cloud, &call);
        }
        let calls = gw.eq_query("subject", &v).unwrap();
        let resp = run(&cloud, &calls[0]);
        let ids = gw.eq_resolve("subject", &v, &[resp]).unwrap();
        assert_eq!(ids, vec![DocId([1; 16]), DocId([3; 16])]);
    }

    #[test]
    fn scopes_isolate() {
        let (mut gw, cloud) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let p = gw.protect(&mut rng, "subject", &Value::from("x"), DocId([1; 16])).unwrap();
        run(&cloud, &p.index_calls[0]);
        // A different scope sees nothing even for crafted routes.
        let token = MitraSearchToken { addrs: vec![[0u8; 32]] };
        let out = cloud.handle("other", "search", &token.encode()).unwrap();
        let mut r = Reader::new(&out);
        let values = r.list().unwrap();
        assert_eq!(values, vec![Vec::<u8>::new()]);
    }

    #[test]
    fn state_roundtrip_through_spi() {
        let (mut gw, _) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        gw.protect(&mut rng, "subject", &Value::from("x"), DocId([1; 16])).unwrap();
        let state = gw.export_state().unwrap();
        let (mut gw2, _) = setup();
        gw2.import_state(&state).unwrap();
        assert_eq!(gw2.export_state().unwrap(), state);
    }

    #[test]
    fn unknown_cloud_op_rejected() {
        let (_, cloud) = setup();
        assert!(cloud.handle("s", "nope", &[]).is_err());
    }
}
