//! The Service Provider Interfaces (Table 1 of the paper).
//!
//! Tactic developers ("security experts", §4.2) implement these; the
//! middleware loads implementations at runtime through the registry
//! (strategy pattern). Every high-level operation splits into a
//! **gateway** half (trusted zone: key material, token generation,
//! resolution) and a **cloud** half (untrusted zone: storage and
//! computation over opaque data). Gateway halves talk to cloud halves only
//! through serialized [`CloudCall`]s crossing the channel. The calls one
//! query method returns are reads that do not depend on each other's
//! answers: the engine sends them in one round trip, as a read-only batch
//! when there are several, and an engine refuses a write inside one.
//!
//! Mapping to the paper's interface names:
//!
//! | Table 1 gateway interface | Trait method |
//! |---------------------------|--------------|
//! | Insertion, SecureEnc      | [`GatewayTactic::protect`] |
//! | DocIDGen                  | [`DocIdGen::generate`] |
//! | Update                    | [`GatewayTactic::protect`] (re-protection) |
//! | Deletion                  | [`GatewayTactic::delete`] |
//! | Retrieval, SecureEnc      | [`GatewayTactic::recover`] |
//! | EqQuery / EqResolution    | [`GatewayTactic::eq_query`] / [`GatewayTactic::eq_resolve`] |
//! | BoolQuery / BoolResolution| [`GatewayTactic::bool_query`] / [`GatewayTactic::bool_resolve`] |
//! | RangeQuery / resolution   | [`GatewayTactic::range_query`] / [`GatewayTactic::range_resolve`] |
//! | AggFunctionResolution     | [`GatewayTactic::agg_query`] / [`GatewayTactic::agg_resolve`] |
//!
//! Cloud interfaces (Insertion, Update, Retrieval, Deletion, EqQuery,
//! BoolQuery, AggFunction) are routes handled by [`CloudTactic::handle`].

use datablinder_docstore::{FieldName, Value};
use datablinder_obs::Recorder;
use datablinder_sse::DocId;
use rand::RngCore;

use crate::error::CoreError;
use crate::model::{AggFn, TacticDescriptor};
use crate::tactics::decode_ids;

/// One serialized request against the cloud side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloudCall {
    /// Route, e.g. `tactic/mitra/subject/update`.
    pub route: String,
    /// Opaque payload (tokens, ciphertexts).
    pub payload: Vec<u8>,
}

impl CloudCall {
    /// Convenience constructor.
    pub fn new(route: impl Into<String>, payload: Vec<u8>) -> Self {
        CloudCall { route: route.into(), payload }
    }
}

/// The result of protecting one field value for insertion.
#[derive(Debug, Clone, Default)]
pub struct ProtectedField {
    /// Shadow fields to store in the cloud document
    /// (e.g. `status__rnd` → ciphertext bytes). A field-scoped instance
    /// names the one shadow it stores once and hands out that name.
    pub stored: Vec<(FieldName, Value)>,
    /// Secure-index operations to execute against the cloud.
    pub index_calls: Vec<CloudCall>,
}

/// A boolean query: DNF over `(field, value)` equality literals.
pub type DnfLiterals = Vec<Vec<(String, Value)>>;

/// The answer of a query that made one call and got back an id list: the
/// shape of every cloud route that holds ids in the clear.
pub(crate) fn single_id_list(responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
    let [response] = responses else {
        return Err(CoreError::Wire("id-list response arity"));
    };
    decode_ids(response)
}

/// Gateway-side tactic SPI (Table 1, left column).
///
/// Implementations may keep per-keyword state (Mitra counters, Sophos
/// search tokens) — hence `&mut self` on mutating paths — and can expose
/// it for persistence via [`GatewayTactic::export_state`].
#[allow(unused_variables)]
pub trait GatewayTactic: Send {
    /// The tactic's descriptor (drives selection and Table 2).
    fn descriptor(&self) -> TacticDescriptor;

    /// Called by the engine right after the instance is built, handing it
    /// the gateway's observability [`Recorder`]. Tactics with long-lived
    /// amortized state (e.g. the Paillier randomizer pool) mirror their
    /// counters into it; the default ignores it.
    fn attach_recorder(&mut self, recorder: &Recorder) {}

    /// Protects a field value for insertion: produces stored shadow fields
    /// and secure-index calls. (Insertion + SecureEnc interfaces.)
    ///
    /// # Errors
    ///
    /// Tactic-specific protection failures.
    fn protect(
        &mut self,
        rng: &mut dyn RngCore,
        field: &str,
        value: &Value,
        id: DocId,
    ) -> Result<ProtectedField, CoreError>;

    /// Protects a whole document's annotated literals at once — implemented
    /// by *cross-field* tactics (BIEX), which index keyword pairs and thus
    /// need every literal together. Field-scoped tactics keep the default:
    /// no calls.
    ///
    /// # Errors
    ///
    /// Tactic-specific failures.
    fn protect_document(
        &mut self,
        rng: &mut dyn RngCore,
        literals: &[(String, Value)],
        id: DocId,
    ) -> Result<Vec<CloudCall>, CoreError> {
        Ok(Vec::new())
    }

    /// Document-level revocation counterpart of
    /// [`GatewayTactic::protect_document`]. Default: no calls.
    ///
    /// # Errors
    ///
    /// Tactic-specific failures.
    fn delete_document(&mut self, literals: &[(String, Value)], id: DocId) -> Result<Vec<CloudCall>, CoreError> {
        Ok(Vec::new())
    }

    /// Bulk-migration indexing: builds setup-time (static) structures over
    /// a whole corpus at once — implemented by tactics with a static base
    /// (BIEX). Default: no calls.
    ///
    /// # Errors
    ///
    /// Tactic-specific failures.
    fn bulk_index(
        &mut self,
        rng: &mut dyn RngCore,
        entries: &[(Vec<(String, Value)>, DocId)],
    ) -> Result<Vec<CloudCall>, CoreError> {
        Ok(Vec::new())
    }

    /// Produces index-revocation calls when a document is deleted.
    /// Default: nothing to revoke.
    ///
    /// # Errors
    ///
    /// Tactic-specific failures.
    fn delete(&mut self, field: &str, value: &Value, id: DocId) -> Result<Vec<CloudCall>, CoreError> {
        Ok(Vec::new())
    }

    /// Recovers the plaintext value from the ciphertext this tactic stored
    /// for its field of document `id` — implemented by the tactics that own
    /// payload encryption (DET, RND). The engine reads the ciphertext out of
    /// the shadow field `<field>__<tactic name>` of a fetched document and
    /// hands it over as it lies on the wire, with a `scratch` buffer it
    /// reuses across a whole answer to decrypt in. (Retrieval + SecureEnc.)
    ///
    /// # Errors
    ///
    /// Decryption failures — for a tactic that binds its ciphertexts to the
    /// document, one stored under another `id` among them;
    /// [`CoreError::UnsupportedOperation`] by default.
    fn recover(&self, id: DocId, ciphertext: &[u8], scratch: &mut Vec<u8>) -> Result<Value, CoreError> {
        Err(CoreError::UnsupportedOperation(format!("{}: payload recovery", self.descriptor().name)))
    }

    /// Builds the cloud calls for an equality search. (EqQuery.)
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] when the tactic has no equality support.
    fn eq_query(&mut self, field: &str, value: &Value) -> Result<Vec<CloudCall>, CoreError> {
        Err(CoreError::UnsupportedOperation(format!("{}: equality search", self.descriptor().name)))
    }

    /// Resolves equality-search responses into document ids.
    /// (EqResolution.) Default: exactly one answer, an encoded id list.
    ///
    /// # Errors
    ///
    /// Malformed responses.
    fn eq_resolve(&self, field: &str, value: &Value, responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
        single_id_list(responses)
    }

    /// Builds the cloud calls for a boolean (DNF) search. (BoolQuery.)
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] by default.
    fn bool_query(&mut self, dnf: &DnfLiterals) -> Result<Vec<CloudCall>, CoreError> {
        Err(CoreError::UnsupportedOperation(format!("{}: boolean search", self.descriptor().name)))
    }

    /// Resolves boolean-search responses. (BoolResolution.) Default:
    /// exactly one answer, an encoded id list.
    ///
    /// # Errors
    ///
    /// Malformed responses.
    fn bool_resolve(&self, dnf: &DnfLiterals, responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
        single_id_list(responses)
    }

    /// Builds the cloud calls for a range search (inclusive bounds).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] by default.
    fn range_query(&mut self, field: &str, lo: &Value, hi: &Value) -> Result<Vec<CloudCall>, CoreError> {
        Err(CoreError::UnsupportedOperation(format!("{}: range search", self.descriptor().name)))
    }

    /// Resolves range-search responses. Default: exactly one answer, an
    /// encoded id list.
    ///
    /// # Errors
    ///
    /// Malformed responses.
    fn range_resolve(&self, responses: &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> {
        single_id_list(responses)
    }

    /// Whether the cloud holds this tactic's search answers in the clear:
    /// each equality, boolean or range query it builds is one call answered
    /// by the matching ids as an encoded list, and its resolve methods are
    /// the defaults. The engine then has the cloud fetch the documents those
    /// ids name in the same round trip. Default: no — the gateway resolves
    /// the answers (Mitra's and BIEX's ids come back sealed).
    fn resolves_in_cloud(&self) -> bool {
        false
    }

    /// Builds the cloud calls for an aggregate over the whole collection or
    /// (when `ids` is non-empty) a precomputed id set. (`<Query>` +
    /// AggFunction.)
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] by default.
    fn agg_query(&mut self, field: &str, agg: AggFn, ids: &[DocId]) -> Result<Vec<CloudCall>, CoreError> {
        Err(CoreError::UnsupportedOperation(format!("{}: aggregate", self.descriptor().name)))
    }

    /// Resolves aggregate responses into a number. (AggFunctionResolution.)
    ///
    /// # Errors
    ///
    /// Malformed responses.
    fn agg_resolve(&self, agg: AggFn, responses: &[Vec<u8>]) -> Result<f64, CoreError> {
        Err(CoreError::UnsupportedOperation(format!("{}: aggregate resolution", self.descriptor().name)))
    }

    /// For legacy-friendly tactics (DET): the `(shadow field, stored
    /// value)` literal equivalent to `field = value`, letting the engine
    /// compose cross-field boolean filters evaluated by the document store
    /// itself. Default: not available.
    fn stored_literal(&self, field: &str, value: &Value) -> Option<(String, Value)> {
        None
    }

    /// Serializes gateway-local state (Mitra counters, Sophos tokens).
    fn export_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores gateway-local state.
    ///
    /// # Errors
    ///
    /// Malformed state blobs.
    fn import_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        Ok(())
    }
}

/// Cloud-side tactic SPI (Table 1, right column): a named handler for the
/// tactic's routes. The cloud engine dispatches
/// `tactic/<name>/<scope>/<op>` to the handler registered under `<name>`.
/// The ops are the tactic rows of [`crate::cloudproto::ROUTES`], each with
/// its class (read, keyed or broadcast write): an engine or cluster refuses
/// any other op as an unknown route before a handler sees it, so a tactic
/// that needs a new op adds its row.
pub trait CloudTactic: Send + Sync {
    /// The tactic name this handler serves.
    fn name(&self) -> &'static str;

    /// Hands the handler the engine's observability recorder (at
    /// registration and whenever the engine's changes). Handlers that count
    /// nothing ignore it.
    fn attach_recorder(&self, _recorder: &Recorder) {}

    /// Handles one operation for a scope.
    ///
    /// # Errors
    ///
    /// Tactic-specific failures (propagated over the channel).
    fn handle(&self, scope: &str, op: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError>;
}

/// The DocIDGen interface of Table 1: mints fresh document identifiers.
pub trait DocIdGen: Send {
    /// Generates a fresh id.
    fn generate(&mut self) -> DocId;
}

/// Random 128-bit ids (collision probability negligible at any realistic
/// scale).
pub struct RandomDocIdGen<R> {
    rng: R,
}

impl<R: RngCore + Send> RandomDocIdGen<R> {
    /// Wraps an RNG.
    pub fn new(rng: R) -> Self {
        RandomDocIdGen { rng }
    }
}

impl<R: RngCore + Send> DocIdGen for RandomDocIdGen<R> {
    fn generate(&mut self) -> DocId {
        let mut id = [0u8; 16];
        self.rng.fill_bytes(&mut id);
        DocId(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_docid_gen_unique() {
        let mut gen = RandomDocIdGen::new(rand::rngs::StdRng::seed_from_u64(1));
        let a = gen.generate();
        let b = gen.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn cloud_call_constructor() {
        let c = CloudCall::new("doc/get", vec![1, 2]);
        assert_eq!(c.route, "doc/get");
        assert_eq!(c.payload, vec![1, 2]);
    }
}
