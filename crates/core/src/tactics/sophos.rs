//! The Sophos tactic adapter: forward-private equality search, class 2.
//!
//! Table 2 lists Sophos' integration challenge as **key management**: the
//! trapdoor keypair is generated once per scope and persisted in the KMS
//! as an opaque secret; the public half is pushed to the cloud via a setup
//! call. Deletions are handled with a gateway-side revocation list (the
//! scheme itself is add-only).

use std::collections::HashSet;

use datablinder_codec::{Reader, Writer};
use datablinder_docstore::Value;
use datablinder_kvstore::KvStore;
use datablinder_sse::sophos::{
    SophosClient, SophosKeypair, SophosPublicKey, SophosSearchToken, SophosServer, SophosUpdateToken,
};
use datablinder_sse::DocId;
use rand::RngCore;

use super::TacticContext;
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, CloudTactic, GatewayTactic, ProtectedField};

/// Modulus size for the trapdoor permutation. 1024 in the paper's spirit;
/// kept moderate so benchmarks finish — configurable via
/// [`SophosTactic::build_with_bits`].
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// Descriptor for Sophos (Table 2: class 2, leakage *Identifiers*,
/// 6 gateway / 4 cloud interfaces, challenge "key management").
pub fn descriptor() -> TacticDescriptor {
    TacticDescriptor {
        name: "sophos".into(),
        family: "SSE (forward private, TDP-based)".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(3, 1, 2) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(4, 1, 2) },
            OpProfile { op: TacticOp::EqQuery, leakage: LeakageLevel::Identifiers, metrics: PerfMetrics::new(4, 1, 2) },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Equality],
        serves_agg: vec![],
        gateway_interfaces: 6,
        cloud_interfaces: 4,
        gateway_state: true,
    }
}

/// Gateway half of Sophos.
pub struct SophosTactic {
    client: SophosClient,
    revoked: HashSet<(Vec<u8>, DocId)>,
    route_update: String,
    route_search: String,
    route_setup: String,
    setup_sent: bool,
}

impl SophosTactic {
    /// Builds with the default modulus size.
    ///
    /// # Errors
    ///
    /// KMS and key-generation failures.
    pub fn build<R: RngCore>(ctx: &TacticContext, rng: &mut R) -> Result<Self, CoreError> {
        Self::build_with_bits(ctx, rng, DEFAULT_MODULUS_BITS)
    }

    /// Builds with an explicit trapdoor modulus size, fetching or creating
    /// the keypair in the KMS.
    ///
    /// # Errors
    ///
    /// KMS and key-generation failures.
    pub fn build_with_bits<R: RngCore>(ctx: &TacticContext, rng: &mut R, bits: usize) -> Result<Self, CoreError> {
        let secret_name = format!("sophos/{}/{}", ctx.application, format_args!("{}.{}", ctx.schema, ctx.scope));
        let keypair = if ctx.kms.has_secret(&secret_name) {
            SophosKeypair::decode(&ctx.kms.secret(&secret_name)?)?
        } else {
            let kp = SophosKeypair::generate(rng, bits);
            ctx.kms.put_secret(&secret_name, kp.encode());
            kp
        };
        let key = ctx.kms.key_for(&ctx.key_scope("sophos"));
        Ok(SophosTactic {
            client: SophosClient::new(&key, keypair),
            revoked: HashSet::new(),
            route_update: ctx.route("sophos", "update"),
            route_search: ctx.route("sophos", "search"),
            route_setup: ctx.route("sophos", "setup"),
            setup_sent: false,
        })
    }

    fn keyword(field: &str, value: &Value) -> Vec<u8> {
        crate::wire::field_keyword(field, value)
    }

    /// Lazily emits the cloud setup call (public key delivery) before the
    /// first index operation.
    fn setup_call(&mut self) -> Option<CloudCall> {
        if self.setup_sent {
            return None;
        }
        self.setup_sent = true;
        Some(CloudCall::new(self.route_setup.clone(), self.client.public_key().encode()))
    }
}

impl GatewayTactic for SophosTactic {
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
        let mut index_calls = Vec::new();
        if let Some(setup) = self.setup_call() {
            index_calls.push(setup);
        }
        let token = self.client.update_token(rng, &Self::keyword(field, value), id);
        index_calls.push(CloudCall::new(self.route_update.clone(), token.encode()));
        Ok(ProtectedField { stored: Vec::new(), index_calls })
    }

    fn delete(&mut self, field: &str, value: &Value, id: DocId) -> Result<Vec<CloudCall>, CoreError> {
        // Sophos is add-only; revocation is local to the gateway.
        self.revoked.insert((Self::keyword(field, value), id));
        Ok(Vec::new())
    }

    fn eq_query(&mut self, field: &str, value: &Value) -> Result<Vec<CloudCall>, CoreError> {
        match self.client.search_token(&Self::keyword(field, value)) {
            // Empty-keyword shortcut: no round trip needed.
            None => Ok(Vec::new()),
            Some(token) => Ok(vec![CloudCall::new(self.route_search.clone(), token.encode())]),
        }
    }

    fn eq_resolve(&self, field: &str, value: &Value, responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
        if responses.is_empty() {
            return Ok(Vec::new()); // keyword never indexed
        }
        let [response] = responses else {
            return Err(CoreError::Wire("sophos response arity"));
        };
        let mut r = Reader::new(response);
        let n = r.count()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let st = r.bytes()?;
            let masked = r.bytes()?;
            entries.push((st, masked));
        }
        r.finish()?;
        let keyword = Self::keyword(field, value);
        let ids = self.client.resolve(&keyword, &entries)?;
        Ok(ids.into_iter().filter(|id| !self.revoked.contains(&(keyword.clone(), *id))).collect())
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::new();
        w.bytes(&self.client.export_state());
        w.u32(self.revoked.len() as u32);
        let mut revoked: Vec<_> = self.revoked.iter().collect();
        revoked.sort();
        for (kw, id) in revoked {
            w.bytes(kw).bytes(&id.0);
        }
        w.u8(self.setup_sent as u8);
        Some(w.finish())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        let mut r = Reader::new(state);
        let client_state = r.bytes()?;
        self.client.import_state(client_state)?;
        let n = r.u32()?;
        self.revoked.clear();
        for _ in 0..n {
            let kw = r.bytes()?;
            let idb: [u8; 16] = r.array()?;
            self.revoked.insert((kw.to_vec(), DocId(idb)));
        }
        self.setup_sent = r.u8()? != 0;
        r.finish()?;
        Ok(())
    }
}

/// Cloud half of Sophos: stores the public key per scope and walks the
/// trapdoor chain on searches.
pub struct SophosCloud {
    kv: KvStore,
}

impl SophosCloud {
    /// Creates the handler over the cloud KV store.
    pub fn new(kv: KvStore) -> Self {
        SophosCloud { kv }
    }

    fn prefix(scope: &str) -> Vec<u8> {
        let mut p = b"t/sophos/".to_vec();
        p.extend_from_slice(scope.as_bytes());
        p.push(b'/');
        p
    }

    fn pk_key(scope: &str) -> Vec<u8> {
        let mut k = Self::prefix(scope);
        k.extend_from_slice(b"__pk__");
        k
    }
}

impl CloudTactic for SophosCloud {
    fn name(&self) -> &'static str {
        "sophos"
    }

    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        match op {
            "setup" => {
                // Validate before storing.
                SophosPublicKey::decode(payload)?;
                // Compare-and-set on scope creation: the first setup pins
                // the scope's public key; a racing or replayed setup with
                // the *same* key is an idempotent success, but a different
                // key is rejected — silently overwriting the pk would
                // orphan every trapdoor-chain entry built under the old
                // one (first-writer-wins race, ROADMAP item 3).
                let key = Self::pk_key(scope);
                if !self.kv.set_nx(&key, payload) && self.kv.get(&key).as_deref() != Some(payload) {
                    return Err(CoreError::Storage(format!(
                        "sophos scope {scope} already set up with a different key"
                    )));
                }
                Ok(Vec::new())
            }
            "update" => {
                let token = SophosUpdateToken::decode(payload)?;
                let pk_bytes = self
                    .kv
                    .get(&Self::pk_key(scope))
                    .ok_or_else(|| CoreError::Storage(format!("sophos scope {scope} not set up")))?;
                let pk = SophosPublicKey::decode(&pk_bytes)?;
                let server = SophosServer::new(self.kv.clone(), &Self::prefix(scope), pk);
                server.apply_update(&token)?;
                Ok(Vec::new())
            }
            "search" => {
                let token = SophosSearchToken::decode(payload)?;
                let pk_bytes = self
                    .kv
                    .get(&Self::pk_key(scope))
                    .ok_or_else(|| CoreError::Storage(format!("sophos scope {scope} not set up")))?;
                let pk = SophosPublicKey::decode(&pk_bytes)?;
                let server = SophosServer::new(self.kv.clone(), &Self::prefix(scope), pk);
                let entries = server.search(&token);
                let mut w = Writer::new();
                w.u32(entries.len() as u32);
                for (st, masked) in entries {
                    w.bytes(&st).bytes(&masked);
                }
                Ok(w.finish())
            }
            other => Err(CoreError::UnsupportedOperation(format!("sophos cloud op {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SophosTactic, SophosCloud, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let ctx = TacticContext {
            application: "app".into(),
            schema: "obs".into(),
            scope: "subject".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        let gw = SophosTactic::build_with_bits(&ctx, &mut rng, 256).unwrap();
        (gw, SophosCloud::new(KvStore::new()), rng)
    }

    fn run(cloud: &SophosCloud, call: &CloudCall) -> Vec<u8> {
        let parts: Vec<&str> = call.route.split('/').collect();
        cloud.handle(parts[2], parts[3], &call.payload).unwrap()
    }

    #[test]
    fn insert_and_search() {
        let (mut gw, cloud, mut rng) = setup();
        let v = Value::from("Jane");
        for n in 1..=3u8 {
            let p = gw.protect(&mut rng, "subject", &v, DocId([n; 16])).unwrap();
            for call in &p.index_calls {
                run(&cloud, call);
            }
        }
        let calls = gw.eq_query("subject", &v).unwrap();
        let resp = run(&cloud, &calls[0]);
        let ids = gw.eq_resolve("subject", &v, &[resp]).unwrap();
        assert_eq!(ids, vec![DocId([1; 16]), DocId([2; 16]), DocId([3; 16])]);
    }

    #[test]
    fn setup_sent_exactly_once() {
        let (mut gw, _, mut rng) = setup();
        let p1 = gw.protect(&mut rng, "f", &Value::from("a"), DocId([1; 16])).unwrap();
        let p2 = gw.protect(&mut rng, "f", &Value::from("b"), DocId([2; 16])).unwrap();
        assert_eq!(p1.index_calls.len(), 2, "setup + update");
        assert_eq!(p2.index_calls.len(), 1, "update only");
        assert!(p1.index_calls[0].route.ends_with("/setup"));
    }

    #[test]
    fn revocation_filters_results() {
        let (mut gw, cloud, mut rng) = setup();
        let v = Value::from("Jane");
        for n in 1..=2u8 {
            for call in gw.protect(&mut rng, "subject", &v, DocId([n; 16])).unwrap().index_calls {
                run(&cloud, &call);
            }
        }
        assert!(gw.delete("subject", &v, DocId([1; 16])).unwrap().is_empty());
        let calls = gw.eq_query("subject", &v).unwrap();
        let resp = run(&cloud, &calls[0]);
        assert_eq!(gw.eq_resolve("subject", &v, &[resp]).unwrap(), vec![DocId([2; 16])]);
    }

    #[test]
    fn unknown_keyword_short_circuits() {
        let (mut gw, _, _) = setup();
        assert!(gw.eq_query("subject", &Value::from("nobody")).unwrap().is_empty());
        assert_eq!(gw.eq_resolve("subject", &Value::from("nobody"), &[]).unwrap(), vec![]);
    }

    #[test]
    fn racing_setups_cas_exactly_one_key() {
        // Two gateways with *different* keypairs race setup on one scope:
        // compare-and-set lets exactly one pin the key, the loser gets a
        // typed error instead of silently overwriting (which would orphan
        // the winner's trapdoor chain), and replaying the winning setup
        // stays an idempotent success.
        let pk_payload = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ctx = TacticContext {
                application: "app".into(),
                schema: "obs".into(),
                scope: "subject".into(),
                kms: datablinder_kms::Kms::generate(&mut rng),
            };
            let mut gw = SophosTactic::build_with_bits(&ctx, &mut rng, 256).unwrap();
            let p = gw.protect(&mut rng, "f", &Value::from("a"), DocId([1; 16])).unwrap();
            assert!(p.index_calls[0].route.ends_with("/setup"));
            p.index_calls[0].payload.clone()
        };
        let (pk_a, pk_b) = (pk_payload(1), pk_payload(2));
        assert_ne!(pk_a, pk_b);

        let cloud = std::sync::Arc::new(SophosCloud::new(KvStore::new()));
        let race = |pk: Vec<u8>| {
            let cloud = cloud.clone();
            std::thread::spawn(move || cloud.handle("obs:f", "setup", &pk).is_ok())
        };
        let (a, b) = (race(pk_a.clone()), race(pk_b.clone()));
        let oks = [a.join().unwrap(), b.join().unwrap()].iter().filter(|&&ok| ok).count();
        assert_eq!(oks, 1, "exactly one racing setup wins the CAS");

        let winner = cloud.kv.get(&SophosCloud::pk_key("obs:f")).unwrap();
        assert!(winner == pk_a || winner == pk_b);
        // Replaying the winning setup (resync, retried broadcast) is fine…
        assert!(cloud.handle("obs:f", "setup", &winner).is_ok());
        // …but the losing key stays rejected.
        let loser = if winner == pk_a { &pk_b } else { &pk_a };
        let err = cloud.handle("obs:f", "setup", loser).unwrap_err();
        assert!(err.to_string().contains("different key"), "{err}");
    }

    #[test]
    fn setup_refuses_a_malformed_or_over_wide_modulus() {
        let cloud = SophosCloud::new(KvStore::new());
        let key = |n: &[u8]| {
            let mut w = Writer::new();
            w.bytes(n).bytes(&[1, 0, 1]);
            w.finish()
        };
        // Odd, and one byte past the widest modulus a key may carry.
        let too_wide = [vec![0xff; 1024], vec![1]].concat();
        for bad in [vec![], vec![0, 0], vec![4], too_wide] {
            let err = cloud.handle("obs:f", "setup", &key(&bad)).unwrap_err();
            assert!(err.to_string().contains("sophos modulus"), "{err}");
        }
        assert_eq!(cloud.kv.get(&SophosCloud::pk_key("obs:f")), None, "a refused key is not stored");
        assert!(cloud.handle("obs:f", "setup", &key(&[0xff; 1024])).is_ok(), "1,024 bytes is accepted");
    }

    #[test]
    fn update_without_setup_rejected() {
        let (_, cloud, _) = setup();
        let token = SophosUpdateToken { ut: [0; 32], masked_id: [0; 16] };
        assert!(cloud.handle("fresh-scope", "update", &token.encode()).is_err());
    }

    #[test]
    fn state_roundtrip_includes_revocations() {
        let (mut gw, cloud, mut rng) = setup();
        let v = Value::from("Jane");
        for call in gw.protect(&mut rng, "subject", &v, DocId([1; 16])).unwrap().index_calls {
            run(&cloud, &call);
        }
        gw.delete("subject", &v, DocId([1; 16])).unwrap();
        let state = gw.export_state().unwrap();

        let (mut gw2, _, _) = setup(); // same seeds -> same kms/keys
        gw2.import_state(&state).unwrap();
        let calls = gw2.eq_query("subject", &v).unwrap();
        let resp = run(&cloud, &calls[0]);
        assert_eq!(gw2.eq_resolve("subject", &v, &[resp]).unwrap(), vec![]);
    }
}
