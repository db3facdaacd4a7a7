//! The BIEX tactic adapters: boolean (cross-field) search, class 3.
//!
//! The BIEX constructions of the `datablinder-sse` crate are *static*
//! (setup-time index build), but the middleware must serve a live insert
//! workload. The adapter therefore runs a **hybrid**:
//!
//! * a **static base** — the true `Biex2LevClient`/`BiexZmfClient`
//!   encrypted structures, built by [`GatewayTactic::bulk_index`] during
//!   an initial cloud migration and shipped wholesale (`kv/bulk_put`);
//! * a **dynamic overlay** — forward-private update chains (Mitra-style)
//!   for documents inserted after the migration, following the standard
//!   static-to-dynamic transformation of the SSE literature and
//!   preserving each variant's signature trade-off:
//!   *biex-2lev* additionally maintains per-keyword-*pair* chains
//!   (read-efficient precomputed intersections, quadratic index growth
//!   per document), *biex-zmf* keyword chains only (linear storage,
//!   query-side intersection);
//! * **tombstone chains** — deletions append the id to a per-keyword
//!   tombstone chain; resolution subtracts tombstones, which masks
//!   deleted documents in *both* the immutable base and the overlay.
//!
//! A query then fans out to base + overlay + tombstones in one batch of
//! cloud calls and merges at the gateway. See DESIGN.md §5.

use std::collections::HashSet;

use datablinder_codec::{Reader, Writer};
use datablinder_docstore::Value;
use datablinder_kvstore::KvStore;
use datablinder_sse::biex::{
    decode_2lev_response, decode_zmf_response, encode_2lev_response, encode_zmf_response, Biex2LevClient,
    Biex2LevServer, Biex2LevToken, BiexQuery, BiexZmfClient, BiexZmfServer, BiexZmfToken,
};
use datablinder_sse::mitra::{MitraClient, MitraSearchToken, MitraServer, MitraUpdateToken};
use datablinder_sse::{DocId, UpdateOp};
use rand::RngCore;

use super::TacticContext;
use crate::error::CoreError;
use crate::model::*;
use crate::spi::{CloudCall, CloudTactic, DnfLiterals, GatewayTactic, ProtectedField};
use crate::wire::field_keyword;

/// Which BIEX variant an adapter instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiexVariant {
    /// Read-efficient: precomputed pair intersections.
    TwoLev,
    /// Space-efficient: per-keyword chains / filters.
    Zmf,
}

impl BiexVariant {
    fn name(self) -> &'static str {
        match self {
            BiexVariant::TwoLev => "biex-2lev",
            BiexVariant::Zmf => "biex-zmf",
        }
    }
}

/// Descriptor for BIEX-2Lev (Table 2: class 3, leakage *Predicates*,
/// 8 gateway / 5 cloud interfaces, challenge "storage impl. complexity").
pub fn descriptor_2lev() -> TacticDescriptor {
    TacticDescriptor {
        name: "biex-2lev".into(),
        family: "boolean SSE (read-efficient)".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(2, 0, 4) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(3, 1, 4) },
            OpProfile { op: TacticOp::EqQuery, leakage: LeakageLevel::Identifiers, metrics: PerfMetrics::new(2, 1, 4) },
            OpProfile {
                op: TacticOp::BoolQuery,
                leakage: LeakageLevel::Predicates,
                metrics: PerfMetrics::new(2, 1, 4),
            },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean],
        serves_agg: vec![],
        gateway_interfaces: 8,
        cloud_interfaces: 5,
        gateway_state: true,
    }
}

/// Descriptor for BIEX-ZMF (class 3, space-efficient, costlier queries).
pub fn descriptor_zmf() -> TacticDescriptor {
    TacticDescriptor {
        name: "biex-zmf".into(),
        family: "boolean SSE (space-efficient)".into(),
        operations: vec![
            OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(2, 0, 2) },
            OpProfile { op: TacticOp::Update, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(3, 1, 2) },
            OpProfile { op: TacticOp::EqQuery, leakage: LeakageLevel::Identifiers, metrics: PerfMetrics::new(3, 1, 2) },
            OpProfile {
                op: TacticOp::BoolQuery,
                leakage: LeakageLevel::Predicates,
                metrics: PerfMetrics::new(4, 1, 2),
            },
        ],
        serves: vec![FieldOp::Insert, FieldOp::Equality, FieldOp::Boolean],
        serves_agg: vec![],
        gateway_interfaces: 8,
        cloud_interfaces: 5,
        gateway_state: true,
    }
}

/// Separator between the two keywords of a pair chain.
const PAIR_SEP: u8 = 0x1E;
/// Prefix byte of tombstone chains (cannot collide with `field_keyword`
/// outputs, which start with the field-name bytes).
const TOMB_TAG: u8 = 0x07;

fn pair_keyword(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(a.len() + 1 + b.len() + 8);
    out.extend_from_slice(&(a.len() as u64).to_be_bytes());
    out.extend_from_slice(a);
    out.push(PAIR_SEP);
    out.extend_from_slice(b);
    out
}

fn tomb_keyword(k: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(k.len() + 1);
    out.push(TOMB_TAG);
    out.extend_from_slice(k);
    out
}

/// The static base client, per variant.
enum BaseClient {
    TwoLev(Biex2LevClient),
    Zmf(BiexZmfClient),
}

impl BaseClient {
    fn search_token(&self, query: &BiexQuery) -> Vec<u8> {
        match self {
            BaseClient::TwoLev(c) => c.search_token(query).encode(),
            BaseClient::Zmf(c) => c.search_token(query).encode(),
        }
    }

    fn resolve(&self, query: &BiexQuery, response: &[u8]) -> Result<Vec<DocId>, CoreError> {
        Ok(match self {
            BaseClient::TwoLev(c) => c.resolve(query, &decode_2lev_response(response)?)?,
            BaseClient::Zmf(c) => c.resolve(query, &decode_zmf_response(response)?)?,
        })
    }
}

/// Gateway half of a BIEX variant.
pub struct BiexTactic {
    variant: BiexVariant,
    overlay: MitraClient,
    base: BaseClient,
    base_seeded: bool,
    scope: String,
    route_update: String,
    route_search: String,
    route_base_search: String,
}

impl BiexTactic {
    /// Builds from context.
    pub fn build(ctx: &TacticContext, variant: BiexVariant) -> Result<Self, CoreError> {
        let key = ctx.kms.key_for(&ctx.key_scope(variant.name()));
        let base = match variant {
            BiexVariant::TwoLev => BaseClient::TwoLev(Biex2LevClient::new(&key.derive(b"base", 32))),
            BiexVariant::Zmf => BaseClient::Zmf(BiexZmfClient::new(&key.derive(b"base", 32))),
        };
        Ok(BiexTactic {
            variant,
            overlay: MitraClient::new(&key),
            base,
            base_seeded: false,
            scope: format!("{}:{}", ctx.schema, ctx.scope),
            route_update: ctx.route(variant.name(), "update"),
            route_search: ctx.route(variant.name(), "search"),
            route_base_search: ctx.route(variant.name(), "base_search"),
        })
    }

    /// The variant of this instance.
    pub fn variant(&self) -> BiexVariant {
        self.variant
    }

    /// Whether a static base has been installed.
    pub fn has_base(&self) -> bool {
        self.base_seeded
    }

    fn keywords(literals: &[(String, Value)]) -> Vec<Vec<u8>> {
        literals.iter().map(|(f, v)| field_keyword(f, v)).collect()
    }

    fn chain_update(&mut self, keyword: &[u8], id: DocId, op: UpdateOp) -> CloudCall {
        let token = self.overlay.update_token(keyword, id, op);
        CloudCall::new(self.route_update.clone(), token.encode())
    }

    fn chain_search_call(&self, keyword: &[u8]) -> CloudCall {
        CloudCall::new(self.route_search.clone(), self.overlay.search_token(keyword).encode())
    }

    /// Which overlay keywords one conjunction searches, per variant.
    /// Duplicate literals are collapsed (`a AND a` ≡ `a`).
    fn conj_keywords(&self, conj: &[(String, Value)]) -> Vec<Vec<u8>> {
        let mut kws = Self::keywords(conj);
        let mut seen = HashSet::new();
        kws.retain(|k| seen.insert(k.clone()));
        match (self.variant, kws.len()) {
            (_, 0) => Vec::new(),
            (_, 1) => kws,
            // Read-efficient: stream the (k1, ki) pair chains.
            (BiexVariant::TwoLev, _) => kws[1..].iter().map(|ki| pair_keyword(&kws[0], ki)).collect(),
            // Space-efficient: fetch every keyword's postings.
            (BiexVariant::Zmf, _) => kws,
        }
    }

    /// The deduplicated single keywords of a conjunction (base query +
    /// tombstone anchor).
    fn conj_singles(conj: &[(String, Value)]) -> Vec<Vec<u8>> {
        let mut kws = Self::keywords(conj);
        let mut seen = HashSet::new();
        kws.retain(|k| seen.insert(k.clone()));
        kws
    }

    fn resolve_overlay(&self, keyword: &[u8], response: &[u8]) -> Result<Vec<DocId>, CoreError> {
        let mut r = Reader::new(response);
        let values = r.list()?;
        r.finish()?;
        Ok(self.overlay.resolve(keyword, &values)?)
    }
}

impl GatewayTactic for BiexTactic {
    fn descriptor(&self) -> TacticDescriptor {
        match self.variant {
            BiexVariant::TwoLev => descriptor_2lev(),
            BiexVariant::Zmf => descriptor_zmf(),
        }
    }

    /// Per-field protect is a no-op: cross-field tactics index whole
    /// documents via [`GatewayTactic::protect_document`].
    fn protect(
        &mut self,
        _rng: &mut dyn RngCore,
        _field: &str,
        _value: &Value,
        _id: DocId,
    ) -> Result<ProtectedField, CoreError> {
        Ok(ProtectedField::default())
    }

    fn protect_document(
        &mut self,
        _rng: &mut dyn RngCore,
        literals: &[(String, Value)],
        id: DocId,
    ) -> Result<Vec<CloudCall>, CoreError> {
        let kws = Self::keywords(literals);
        let mut calls = Vec::new();
        for kw in &kws {
            calls.push(self.chain_update(kw, id, UpdateOp::Add));
        }
        if self.variant == BiexVariant::TwoLev {
            for a in &kws {
                for b in &kws {
                    if a != b {
                        calls.push(self.chain_update(&pair_keyword(a, b), id, UpdateOp::Add));
                    }
                }
            }
        }
        Ok(calls)
    }

    /// Bulk migration: builds the *static* base structures over every
    /// document's literals and ships them in one `kv/bulk_put`.
    fn bulk_index(
        &mut self,
        rng: &mut dyn RngCore,
        entries: &[(Vec<(String, Value)>, DocId)],
    ) -> Result<Vec<CloudCall>, CoreError> {
        use datablinder_sse::inverted::InvertedIndex;
        if self.base_seeded {
            // A second static build over the same prefix would leave stale
            // entries from the first; further corpora go through the
            // dynamic overlay instead.
            return Err(CoreError::UnsupportedOperation(
                "boolean base already seeded; use insert/insert_many for further data".into(),
            ));
        }
        let mut index = InvertedIndex::new();
        for (literals, id) in entries {
            for kw in Self::keywords(literals) {
                index.add(&kw, *id);
            }
        }
        // Stage the encrypted structures locally under the exact prefix the
        // cloud-side handler will read them from.
        let staging = KvStore::new();
        let prefix = format!("t/{}/{}/b/", self.variant.name(), self.scope).into_bytes();
        let mut fork = rand::rngs::StdRng::from_rng(rng).expect("rng fork");
        match &self.base {
            BaseClient::TwoLev(c) => {
                let server = Biex2LevServer::new(staging.clone(), &prefix);
                c.setup(&mut fork, &index, &server)?;
            }
            BaseClient::Zmf(c) => {
                let server = BiexZmfServer::new(staging.clone(), &prefix);
                c.setup(&mut fork, &index, &server)?;
            }
        }
        self.base_seeded = true;
        // Ship every staged pair.
        let mut items = Vec::new();
        for key in staging.keys_with_prefix(b"") {
            let value = staging.get(&key).unwrap_or_default();
            items.push(key);
            items.push(value);
        }
        let mut w = Writer::new();
        w.list(&items);
        Ok(vec![CloudCall::new("kv/bulk_put", w.finish())])
    }

    fn delete_document(&mut self, literals: &[(String, Value)], id: DocId) -> Result<Vec<CloudCall>, CoreError> {
        let kws = Self::keywords(literals);
        let mut calls = Vec::new();
        for kw in &kws {
            // Overlay retraction + tombstone (masks base entries too).
            calls.push(self.chain_update(kw, id, UpdateOp::Delete));
            calls.push(self.chain_update(&tomb_keyword(kw), id, UpdateOp::Add));
        }
        if self.variant == BiexVariant::TwoLev {
            for a in &kws {
                for b in &kws {
                    if a != b {
                        calls.push(self.chain_update(&pair_keyword(a, b), id, UpdateOp::Delete));
                    }
                }
            }
        }
        Ok(calls)
    }

    fn eq_query(&mut self, field: &str, value: &Value) -> Result<Vec<CloudCall>, CoreError> {
        let dnf = vec![vec![(field.to_string(), value.clone())]];
        self.bool_query(&dnf)
    }

    fn eq_resolve(&self, field: &str, value: &Value, responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
        let dnf = vec![vec![(field.to_string(), value.clone())]];
        self.bool_resolve(&dnf, responses)
    }

    /// Per conjunction, in order: optional base search, the overlay chain
    /// searches, then the tombstone chain of the first keyword.
    fn bool_query(&mut self, dnf: &DnfLiterals) -> Result<Vec<CloudCall>, CoreError> {
        let mut calls = Vec::new();
        for conj in dnf {
            let singles = Self::conj_singles(conj);
            if singles.is_empty() {
                continue;
            }
            if self.base_seeded {
                let query = BiexQuery::conjunction(singles.clone());
                calls.push(CloudCall::new(self.route_base_search.clone(), self.base.search_token(&query)));
            }
            for kw in self.conj_keywords(conj) {
                calls.push(self.chain_search_call(&kw));
            }
            calls.push(self.chain_search_call(&tomb_keyword(&singles[0])));
        }
        Ok(calls)
    }

    fn bool_resolve(&self, dnf: &DnfLiterals, responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
        let mut union: Vec<DocId> = Vec::new();
        let mut cursor = 0usize;
        let take = |cursor: &mut usize| -> Result<&Vec<u8>, CoreError> {
            let r = responses.get(*cursor).ok_or(CoreError::Wire("biex response arity"))?;
            *cursor += 1;
            Ok(r)
        };
        for conj in dnf {
            let singles = Self::conj_singles(conj);
            if singles.is_empty() {
                continue;
            }
            let mut acc: Option<Vec<DocId>> = None;
            if self.base_seeded {
                let query = BiexQuery::conjunction(singles.clone());
                acc = Some(self.base.resolve(&query, take(&mut cursor)?)?);
            }
            let mut overlay_acc: Option<Vec<DocId>> = None;
            for kw in self.conj_keywords(conj) {
                let ids = self.resolve_overlay(&kw, take(&mut cursor)?)?;
                overlay_acc = Some(match overlay_acc {
                    None => ids,
                    Some(prev) => prev.into_iter().filter(|x| ids.contains(x)).collect(),
                });
            }
            let tombstones = self.resolve_overlay(&tomb_keyword(&singles[0]), take(&mut cursor)?)?;
            // conj result = (base ∪ overlay) \ tombstones
            let mut result = acc.unwrap_or_default();
            result.extend(overlay_acc.unwrap_or_default());
            result.retain(|id| !tombstones.contains(id));
            union.extend(result);
        }
        if cursor != responses.len() {
            return Err(CoreError::Wire("biex response arity"));
        }
        union.sort();
        union.dedup();
        Ok(union)
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::new();
        w.bytes(&self.overlay.export_state()).u8(self.base_seeded as u8);
        Some(w.finish())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        let mut r = Reader::new(state);
        let overlay = r.bytes()?;
        self.overlay.import_state(overlay)?;
        self.base_seeded = r.u8()? != 0;
        r.finish()?;
        Ok(())
    }
}

use rand::SeedableRng;

/// Cloud half: forward-private chains plus the static base structures,
/// per scope (shared by both variants; the variant name is in the route).
pub struct BiexCloud {
    kv: KvStore,
    variant: BiexVariant,
}

impl BiexCloud {
    /// Creates the handler for a variant over the cloud KV store.
    pub fn new(kv: KvStore, variant: BiexVariant) -> Self {
        BiexCloud { kv, variant }
    }

    fn chain_server(&self, scope: &str) -> MitraServer {
        let mut prefix = format!("t/{}/", self.variant.name()).into_bytes();
        prefix.extend_from_slice(scope.as_bytes());
        prefix.push(b'/');
        MitraServer::new(self.kv.clone(), &prefix)
    }

    fn base_prefix(&self, scope: &str) -> Vec<u8> {
        format!("t/{}/{}/b/", self.variant.name(), scope).into_bytes()
    }
}

impl CloudTactic for BiexCloud {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        match op {
            "update" => {
                let token = MitraUpdateToken::decode(payload)?;
                self.chain_server(scope).apply_update(&token)?;
                Ok(Vec::new())
            }
            "search" => {
                let token = MitraSearchToken::decode(payload)?;
                let values = self.chain_server(scope).search(&token);
                let mut w = Writer::new();
                w.list(&values);
                Ok(w.finish())
            }
            "base_search" => {
                let prefix = self.base_prefix(scope);
                match self.variant {
                    BiexVariant::TwoLev => {
                        let token = Biex2LevToken::decode(payload)?;
                        let server = Biex2LevServer::new(self.kv.clone(), &prefix);
                        Ok(encode_2lev_response(&server.search(&token)?))
                    }
                    BiexVariant::Zmf => {
                        let token = BiexZmfToken::decode(payload)?;
                        let server = BiexZmfServer::new(self.kv.clone(), &prefix);
                        Ok(encode_zmf_response(&server.search(&token)?))
                    }
                }
            }
            other => Err(CoreError::UnsupportedOperation(format!("biex cloud op {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(variant: BiexVariant) -> (BiexTactic, BiexCloud, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let ctx = TacticContext {
            application: "app".into(),
            schema: "obs".into(),
            scope: "__bool__".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        let gw = BiexTactic::build(&ctx, variant).unwrap();
        (gw, BiexCloud::new(KvStore::new(), variant), rng)
    }

    fn run(cloud: &BiexCloud, call: &CloudCall) -> Vec<u8> {
        if call.route == "kv/bulk_put" {
            // Emulate the cloud engine's generic bulk-put route.
            let mut r = Reader::new(&call.payload);
            let items = r.list().unwrap();
            for kv in items.chunks(2) {
                cloud.kv.set(kv[0], kv[1]);
            }
            return Vec::new();
        }
        crate::tactics::tests::run(cloud, call)
    }

    fn lits(pairs: &[(&str, &str)]) -> Vec<(String, Value)> {
        pairs.iter().map(|(f, v)| (f.to_string(), Value::from(*v))).collect()
    }

    fn insert(
        gw: &mut BiexTactic,
        cloud: &BiexCloud,
        rng: &mut rand::rngs::StdRng,
        literals: &[(String, Value)],
        id: DocId,
    ) {
        let calls = gw.protect_document(rng, literals, id).unwrap();
        for c in &calls {
            run(cloud, c);
        }
    }

    fn query(gw: &mut BiexTactic, cloud: &BiexCloud, dnf: &DnfLiterals) -> Vec<DocId> {
        let calls = gw.bool_query(dnf).unwrap();
        let responses: Vec<Vec<u8>> = calls.iter().map(|c| run(cloud, c)).collect();
        gw.bool_resolve(dnf, &responses).unwrap()
    }

    fn scenario(variant: BiexVariant) {
        let (mut gw, cloud, mut rng) = setup(variant);
        // doc1: status=final, code=glucose; doc2: status=final, code=insulin;
        // doc3: status=draft, code=glucose.
        insert(&mut gw, &cloud, &mut rng, &lits(&[("status", "final"), ("code", "glucose")]), DocId([1; 16]));
        insert(&mut gw, &cloud, &mut rng, &lits(&[("status", "final"), ("code", "insulin")]), DocId([2; 16]));
        insert(&mut gw, &cloud, &mut rng, &lits(&[("status", "draft"), ("code", "glucose")]), DocId([3; 16]));

        // Single keyword (equality through the boolean tactic).
        let dnf = vec![lits(&[("status", "final")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([1; 16]), DocId([2; 16])]);

        // Conjunction across fields.
        let dnf = vec![lits(&[("status", "final"), ("code", "glucose")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([1; 16])]);

        // Disjunction of conjunctions.
        let dnf = vec![lits(&[("status", "final"), ("code", "glucose")]), lits(&[("status", "draft")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([1; 16]), DocId([3; 16])]);

        // Empty result.
        let dnf = vec![lits(&[("status", "draft"), ("code", "insulin")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![]);

        // Delete doc1 and requery.
        let calls = gw.delete_document(&lits(&[("status", "final"), ("code", "glucose")]), DocId([1; 16])).unwrap();
        for c in &calls {
            run(&cloud, c);
        }
        let dnf = vec![lits(&[("status", "final"), ("code", "glucose")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![]);
    }

    #[test]
    fn twolev_boolean_scenario() {
        scenario(BiexVariant::TwoLev);
    }

    #[test]
    fn zmf_boolean_scenario() {
        scenario(BiexVariant::Zmf);
    }

    fn hybrid_scenario(variant: BiexVariant) {
        let (mut gw, cloud, mut rng) = setup(variant);
        // Seed a static base with two documents.
        let entries = vec![
            (lits(&[("status", "final"), ("code", "glucose")]), DocId([1; 16])),
            (lits(&[("status", "final"), ("code", "insulin")]), DocId([2; 16])),
        ];
        let calls = gw.bulk_index(&mut rng, &entries).unwrap();
        for c in &calls {
            run(&cloud, c);
        }
        assert!(gw.has_base());

        // Base-only query.
        let dnf = vec![lits(&[("status", "final"), ("code", "glucose")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([1; 16])]);

        // Dynamic insert after the migration: results merge base + overlay.
        insert(&mut gw, &cloud, &mut rng, &lits(&[("status", "final"), ("code", "glucose")]), DocId([3; 16]));
        let dnf = vec![lits(&[("status", "final"), ("code", "glucose")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([1; 16]), DocId([3; 16])]);
        let dnf = vec![lits(&[("status", "final")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([1; 16]), DocId([2; 16]), DocId([3; 16])]);

        // Deleting a *seeded* document masks it via tombstones even though
        // the static base is immutable.
        let calls = gw.delete_document(&lits(&[("status", "final"), ("code", "glucose")]), DocId([1; 16])).unwrap();
        for c in &calls {
            run(&cloud, c);
        }
        let dnf = vec![lits(&[("status", "final"), ("code", "glucose")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([3; 16])]);
        // And deleting an overlay document works the same way.
        let calls = gw.delete_document(&lits(&[("status", "final"), ("code", "glucose")]), DocId([3; 16])).unwrap();
        for c in &calls {
            run(&cloud, c);
        }
        let dnf = vec![lits(&[("status", "final")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([2; 16])]);
    }

    #[test]
    fn twolev_hybrid_base_plus_overlay() {
        hybrid_scenario(BiexVariant::TwoLev);
    }

    #[test]
    fn zmf_hybrid_base_plus_overlay() {
        hybrid_scenario(BiexVariant::Zmf);
    }

    #[test]
    fn read_vs_space_tradeoff() {
        // Same workload: 2lev issues strictly more index updates (pairs).
        let (mut g1, c1, mut r1) = setup(BiexVariant::TwoLev);
        let (mut g2, c2, mut r2) = setup(BiexVariant::Zmf);
        let l = lits(&[("a", "1"), ("b", "2"), ("c", "3")]);
        let calls1 = g1.protect_document(&mut r1, &l, DocId([1; 16])).unwrap();
        let calls2 = g2.protect_document(&mut r2, &l, DocId([1; 16])).unwrap();
        assert_eq!(calls1.len(), 3 + 6, "3 singles + 6 ordered pairs");
        assert_eq!(calls2.len(), 3, "singles only");
        // But 2lev conjunction queries need fewer chain fetches
        // (m-1 pairs + 1 tombstone vs m singles + 1 tombstone).
        let dnf = vec![lits(&[("a", "1"), ("b", "2"), ("c", "3")])];
        for c in &calls1 {
            run(&c1, c);
        }
        for c in &calls2 {
            run(&c2, c);
        }
        assert_eq!(g1.bool_query(&dnf).unwrap().len(), 3);
        assert_eq!(g2.bool_query(&dnf).unwrap().len(), 4);
    }

    #[test]
    fn eq_rides_bool_path() {
        let (mut gw, cloud, mut rng) = setup(BiexVariant::TwoLev);
        insert(&mut gw, &cloud, &mut rng, &lits(&[("status", "final")]), DocId([5; 16]));
        let calls = gw.eq_query("status", &Value::from("final")).unwrap();
        let responses: Vec<Vec<u8>> = calls.iter().map(|c| run(&cloud, c)).collect();
        let ids = gw.eq_resolve("status", &Value::from("final"), &responses).unwrap();
        assert_eq!(ids, vec![DocId([5; 16])]);
    }

    #[test]
    fn duplicate_literals_collapse() {
        let (mut gw, cloud, mut rng) = setup(BiexVariant::TwoLev);
        insert(&mut gw, &cloud, &mut rng, &lits(&[("status", "final")]), DocId([1; 16]));
        // "status=final AND status=final" must behave like a single literal.
        let dnf = vec![lits(&[("status", "final"), ("status", "final")])];
        assert_eq!(query(&mut gw, &cloud, &dnf), vec![DocId([1; 16])]);
    }

    #[test]
    fn resolve_arity_enforced() {
        let (gw, _, _) = setup(BiexVariant::TwoLev);
        let dnf = vec![lits(&[("a", "1"), ("b", "2")])];
        assert!(gw.bool_resolve(&dnf, &[]).is_err());
        // Trailing responses also rejected.
        assert!(gw.bool_resolve(&vec![], &[vec![]]).is_err());
    }

    #[test]
    fn state_roundtrip_preserves_base_flag() {
        let (mut gw, cloud, mut rng) = setup(BiexVariant::TwoLev);
        let entries = vec![(lits(&[("s", "v")]), DocId([1; 16]))];
        for c in gw.bulk_index(&mut rng, &entries).unwrap() {
            run(&cloud, &c);
        }
        let state = gw.export_state().unwrap();
        let (mut gw2, _, _) = setup(BiexVariant::TwoLev);
        assert!(!gw2.has_base());
        gw2.import_state(&state).unwrap();
        assert!(gw2.has_base());
        // Queries through the restored client still see the base.
        let dnf = vec![lits(&[("s", "v")])];
        assert_eq!(query(&mut gw2, &cloud, &dnf), vec![DocId([1; 16])]);
    }
}
