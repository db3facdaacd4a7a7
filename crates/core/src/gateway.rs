//! The gateway engine: the trusted-zone half of the middleware
//! (Fig. 4, left side). Exposes the *Entities* interface applications use
//! (CRUD + search + aggregates), enforces schemas and protection policies,
//! selects tactics adaptively, and drives the cloud over the channel.
//!
//! # Concurrency model
//!
//! One `GatewayEngine` serves many threads: every CRUD/query route takes
//! `&self`, with interior mutability confined to fine-grained locks —
//! `plans` and `tactics` behind `RwLock`s (read-mostly after schema
//! registration), each tactic instance behind its own `Mutex` (stateful SSE
//! chains serialize per instance, *not* per gateway), and the seeded RNG
//! behind a `Mutex` that is held only long enough to fork a per-operation
//! child RNG. Lock order, where more than one is held: `registry` → `rng`;
//! a tactic-instance lock is never held across a channel call that could
//! re-enter the engine. See DESIGN.md §12.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use datablinder_docstore::{Document, Value};
use datablinder_kms::Kms;
use datablinder_kvstore::KvStore;
use datablinder_netsim::{Channel, NetError, ResilienceConfig, ResilientChannel, Transport};
use datablinder_obs::Recorder;
use datablinder_sse::DocId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cloud::{get_many_payload, with_collection};
use crate::cloudproto::{
    decode_batch_answer, decode_calls, encode_batch, is_write_route, Idempotent, BATCH_ROUTE, IDEM_ROUTE,
    READ_BATCH_ROUTE,
};
use crate::error::CoreError;
use crate::metadata::{validate_document, SchemaStore};
use crate::model::{AggFn, FieldOp, Schema, TacticOp};
use crate::pool::WorkerPool;
use crate::registry::{Selection, TacticRegistry};
use crate::spi::{CloudCall, DnfLiterals, DocIdGen, GatewayTactic, ProtectItem, ProtectedField, RandomDocIdGen};
use crate::tactics::{decode_ids, shadow_field, TacticContext};
use crate::wire::{decode_document, encode_document, skip_value, take_ciphertext, take_value};

/// Scope name of the shared cross-field boolean tactic instance.
const BOOL_SCOPE: &str = "__bool__";

/// A tactic instance shared across threads: stateful SSE chains serialize
/// on the per-instance mutex, so two threads indexing *different* fields
/// proceed in parallel.
type SharedTactic = Arc<Mutex<Box<dyn GatewayTactic>>>;

/// SplitMix64 finalizer: spreads a seed into a well-mixed token prefix so
/// gateways with nearby seeds still mint far-apart token ranges.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-field execution plan derived from selection.
#[derive(Debug, Clone)]
struct FieldPlan {
    selection: Selection,
    /// Tactic serving equality queries, if any.
    eq_tactic: Option<String>,
    /// Tactic serving range queries, if any.
    range_tactic: Option<String>,
    /// Whether the field participates in the shared boolean index.
    boolean: bool,
}

/// Per-schema execution plan.
struct SchemaPlan {
    schema: Schema,
    fields: HashMap<String, FieldPlan>,
    /// Name of the shared boolean tactic (e.g. `biex-2lev`), if any field
    /// requested boolean search served by a cross-field tactic.
    bool_tactic: Option<String>,
    /// The recover table: one row per sensitive field, sorted by shadow
    /// name — the order the fields of a stored document arrive in.
    payloads: Vec<PayloadShadow>,
}

/// One row of a plan's recover table: where a sensitive field's payload
/// ciphertext is stored, and who opens it.
struct PayloadShadow {
    /// The stored name, `<field>__<payload tactic>`.
    shadow: String,
    field: String,
    /// The handle in [`GatewayEngine::tactics`], resolved once here so
    /// decrypting a document looks nothing up by name; key rotation replaces
    /// the instance *inside* the handle, so the row never goes stale.
    tactic: SharedTactic,
}

impl SchemaPlan {
    /// The recover-table row of `field`.
    fn payload_of(&self, field: &str) -> Result<&PayloadShadow, CoreError> {
        self.payloads
            .iter()
            .find(|p| p.field == field)
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} is not annotated")))
    }

    /// Decrypts one stored document, as the cloud sent it, into application
    /// form in a single pass over the bytes: the ciphertext under each name
    /// in `rows` goes to its tactic as it lies in `stored` and comes back as
    /// the sensitive field's value, every other shadow of a sensitive field
    /// is passed over, and plaintext fields are copied. `rows` is the
    /// plan's table, or one row of it when only that field is wanted.
    ///
    /// The cloud is not trusted to send what was stored. A listed shadow
    /// that is not a byte string, and names that do not strictly ascend (as
    /// `put_document` writes them — so none can repeat and overwrite an
    /// earlier one), are [`CoreError::Wire`]; a shadow the document lacks
    /// leaves its field out, as an optional field never written does.
    ///
    /// Shadow fields are recognized as `<sensitive-base>__<suffix>`;
    /// consequently a *plaintext* field named `<sensitive field>__x` would
    /// be mistaken for a shadow field. Avoid such names (the schema is
    /// under application control, so this is a naming convention, not an
    /// attack surface).
    fn recover_stored(&self, rows: &[PayloadShadow], stored: &[u8]) -> Result<Document, CoreError> {
        datablinder_codec::decode(stored, |r| {
            let mut doc = Document::new(r.str()?);
            let mut rows = rows.iter().peekable();
            let mut previous: Option<&str> = None;
            for _ in 0..r.count()? {
                let name = r.str()?;
                if previous.is_some_and(|p| p >= name) {
                    return Err(CoreError::Wire("stored field names out of order"));
                }
                previous = Some(name);
                // Both sides ascend: rows whose shadow this document lacks
                // fall behind the cursor and are dropped.
                while rows.next_if(|row| row.shadow.as_str() < name).is_some() {}
                if let Some(row) = rows.next_if(|row| row.shadow == name) {
                    let value =
                        row.tactic.lock().unwrap_or_else(PoisonError::into_inner).recover(take_ciphertext(r)?)?;
                    doc.set(row.field.clone(), value);
                } else if name.rsplit_once("__").is_some_and(|(base, _)| self.fields.contains_key(base)) {
                    skip_value(r, 0)?;
                } else {
                    doc.set(name, take_value(r, 0)?);
                }
            }
            Ok(doc)
        })
    }
}

/// Key prefix of journaled write groups in the gateway's journal store.
const JOURNAL_PREFIX: &[u8] = b"gwj/";

fn journal_key(seq: u64) -> Vec<u8> {
    format!("gwj/{seq:016x}").into_bytes()
}

/// The gateway's small write journal: each write group (index updates +
/// the document write) is recorded here as the one sealed call it ships
/// as, before it ships, and cleared once acknowledged. A gateway that dies
/// in between finds the entry on restart and rolls it forward
/// ([`GatewayEngine::recover_pending`]).
struct WriteJournal {
    kv: KvStore,
    seq: AtomicU64,
}

/// Result of [`GatewayEngine::recover_pending`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PendingWriteReport {
    /// Journal entries found pending.
    pub entries: usize,
    /// Entries whose every call completed on replay (the cloud's dedup
    /// cache answers a call that had already applied).
    pub rolled_forward: usize,
    /// Entries aborted by an application-level error, or that did not
    /// decode; their groups did not complete and are reported in
    /// `failures`.
    pub failed: usize,
    /// One message per failed entry.
    pub failures: Vec<String>,
}

/// Result of [`GatewayEngine::fsck`]: index↔store consistency findings.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Stored documents decrypted and cross-checked.
    pub docs_checked: usize,
    /// Searches issued (one per field × tactic × distinct value).
    pub searches_run: usize,
    /// Stored documents a registered search tactic failed to return.
    pub missing_index_entries: Vec<String>,
    /// Search results that should not exist: ids absent from the store
    /// (orphan index entries) or stored under a different value.
    pub orphan_results: Vec<String>,
}

impl FsckReport {
    /// No missing index entries and no orphan results.
    pub fn is_clean(&self) -> bool {
        self.missing_index_entries.is_empty() && self.orphan_results.is_empty()
    }
}

/// The DataBlinder gateway.
///
/// Every CRUD/query route takes `&self`, so one engine (behind an `Arc`)
/// serves many threads concurrently — the shape of the paper's Fig. 5
/// multi-client evaluation with a *shared* middleware instance.
///
/// # Examples
///
/// See `examples/quickstart.rs` for the end-to-end flow.
pub struct GatewayEngine {
    application: String,
    kms: Kms,
    registry: RwLock<TacticRegistry>,
    channel: ResilientChannel,
    schema_store: SchemaStore,
    plans: RwLock<HashMap<String, Arc<SchemaPlan>>>,
    /// Tactic instances keyed by `schema / scope / tactic`.
    tactics: RwLock<HashMap<String, SharedTactic>>,
    idgen: Mutex<Box<dyn DocIdGen>>,
    rng: Mutex<StdRng>,
    /// Seed-derived prefix of idempotency tokens minted by this gateway.
    idem_prefix: u64,
    /// Monotonic suffix of idempotency tokens (one per logical write).
    idem_seq: AtomicU64,
    /// Crash journal for multi-call write groups, if enabled.
    journal: Option<WriteJournal>,
    /// Worker pool parallelizing `insert_many` field encryption, if set.
    pool: Option<Arc<WorkerPool>>,
    /// Observability recorder (disabled by default; see
    /// [`GatewayEngine::set_recorder`]).
    obs: Recorder,
}

impl GatewayEngine {
    /// Creates a gateway with the built-in registry and a seeded RNG
    /// (deterministic runs for benchmarks; use [`GatewayEngine::with_registry`]
    /// for custom setups). The channel is wrapped in a [`ResilientChannel`]
    /// with [`ResilienceConfig::default`]; use
    /// [`GatewayEngine::with_resilience`] to tune retries/deadlines/breaker.
    pub fn new(application: &str, kms: Kms, channel: Channel, seed: u64) -> Self {
        Self::with_registry(application, kms, channel, seed, TacticRegistry::with_builtins())
    }

    /// Creates a gateway with a custom registry.
    pub fn with_registry(application: &str, kms: Kms, channel: Channel, seed: u64, registry: TacticRegistry) -> Self {
        Self::with_registry_resilient(
            application,
            kms,
            ResilientChannel::new(channel, ResilienceConfig { seed, ..ResilienceConfig::default() }),
            seed,
            registry,
        )
    }

    /// Creates a gateway over a pre-configured [`ResilientChannel`]
    /// (explicit retry policy, deadline and breaker tuning).
    pub fn with_resilience(application: &str, kms: Kms, channel: ResilientChannel, seed: u64) -> Self {
        Self::with_registry_resilient(application, kms, channel, seed, TacticRegistry::with_builtins())
    }

    /// Creates a gateway with both a custom registry and a pre-configured
    /// [`ResilientChannel`].
    pub fn with_registry_resilient(
        application: &str,
        kms: Kms,
        channel: ResilientChannel,
        seed: u64,
        registry: TacticRegistry,
    ) -> Self {
        GatewayEngine {
            application: application.to_string(),
            kms,
            registry: RwLock::new(registry),
            channel,
            schema_store: SchemaStore::new(KvStore::new()),
            plans: RwLock::new(HashMap::new()),
            tactics: RwLock::new(HashMap::new()),
            idgen: Mutex::new(Box::new(RandomDocIdGen::new(StdRng::seed_from_u64(seed ^ 0x1D)))),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            idem_prefix: mix64(seed ^ 0x1DE4_70CE_7057_EA15),
            idem_seq: AtomicU64::new(0),
            journal: None,
            pool: None,
            obs: Recorder::default(),
        }
    }

    /// Attaches an observability [`Recorder`]: gateway routes, per-tactic
    /// latencies and the leakage audit ledger record into it, and a clone
    /// is forwarded to the resilient channel so retries/breaker activity
    /// land in the same domain; the tier the symmetric kernels run on is
    /// exported once, as `primitives.backend`. The default recorder is
    /// disabled, so an un-instrumented gateway pays one atomic load per
    /// operation.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.channel.set_recorder(recorder.clone());
        if recorder.label().is_none() {
            recorder.set_label("gateway");
        }
        datablinder_primitives::record_backend(&recorder);
        self.obs = recorder;
    }

    /// Attaches a [`WorkerPool`]: [`GatewayEngine::insert_many`] then
    /// parallelizes its per-field tactic encryption (Paillier
    /// exponentiation, OPE traversal, SSE token PRFs) across the pool
    /// before the single batched round trip. Results are byte-identical to
    /// the sequential path — see
    /// [`GatewayEngine::protect_documents_batch`]'s determinism notes.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// The attached worker pool, if any.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// The observability recorder (disabled unless
    /// [`GatewayEngine::set_recorder`] installed an enabled one).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Folds the recorder's measured per-tactic EWMAs (`tactic.<name>.<op>`)
    /// back into the registry as a [`MeasuredPerfMetrics`] override, so
    /// subsequent [`GatewayEngine::register_schema`] selections rank
    /// admissible tactics by observed latency instead of static cost ranks
    /// — the measurement-driven half of the §5.1 adaptive selection loop.
    ///
    /// [`MeasuredPerfMetrics`]: crate::registry::MeasuredPerfMetrics
    pub fn adopt_measurements(&self) {
        let m = crate::registry::MeasuredPerfMetrics::from_snapshot(&self.obs.snapshot());
        self.registry.write().unwrap_or_else(PoisonError::into_inner).set_measurements(m);
    }

    /// The tactic registry (inspection, custom registration). Returns a
    /// read guard; drop it before calling engine routes that may register
    /// tactics.
    pub fn registry(&self) -> RwLockReadGuard<'_, TacticRegistry> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The gateway↔cloud transport (metrics inspection).
    pub fn channel(&self) -> &dyn Transport {
        self.channel.transport()
    }

    /// The resilience wrapper around the channel (breaker state, policy).
    pub fn resilient_channel(&self) -> &ResilientChannel {
        &self.channel
    }

    /// The selection for a registered field (the §5.1 table row).
    pub fn selection(&self, schema: &str, field: &str) -> Option<Selection> {
        self.plans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(schema)?
            .fields
            .get(field)
            .map(|p| p.selection.clone())
    }

    // ------------------------------------------------------ Schema interface

    /// Registers a schema: validates that every annotation is satisfiable,
    /// derives the execution plan, instantiates tactics and prepares
    /// cloud-side indexes.
    ///
    /// # Errors
    ///
    /// [`CoreError::PolicyUnsatisfiable`] when an annotation cannot be
    /// served; channel errors during index preparation.
    pub fn register_schema(&self, schema: Schema) -> Result<(), CoreError> {
        let mut fields = HashMap::new();
        let mut bool_tactic: Option<String> = None;

        {
            let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
            for (field, annotation) in schema.sensitive_fields() {
                let selection = registry.select(field, annotation)?;
                let eq_tactic = annotation
                    .ops
                    .contains(&FieldOp::Equality)
                    .then(|| {
                        selection
                            .search_tactics
                            .iter()
                            .find(|n| registry.descriptor(n).is_some_and(|d| d.serves_op(FieldOp::Equality)))
                            .cloned()
                    })
                    .flatten();
                let range_tactic = annotation
                    .ops
                    .contains(&FieldOp::Range)
                    .then(|| {
                        selection
                            .search_tactics
                            .iter()
                            .find(|n| registry.descriptor(n).is_some_and(|d| d.serves_op(FieldOp::Range)))
                            .cloned()
                    })
                    .flatten();
                let boolean = selection.search_tactics.iter().any(|n| n.starts_with("biex"));
                if boolean {
                    let name = selection.search_tactics.iter().find(|n| n.starts_with("biex")).unwrap().clone();
                    match &bool_tactic {
                        None => bool_tactic = Some(name),
                        Some(existing) if *existing == name => {}
                        Some(existing) => {
                            return Err(CoreError::SchemaViolation(format!(
                                "conflicting boolean tactics {existing} and {name} in one schema"
                            )));
                        }
                    }
                }
                fields.insert(field.clone(), FieldPlan { selection, eq_tactic, range_tactic, boolean });
            }
        }

        // Instantiate tactics: per-field instances plus one shared boolean
        // instance, loading implementations at runtime (strategy pattern).
        for (field, plan) in &fields {
            for tactic in plan.selection.all_tactics() {
                if tactic.starts_with("biex") {
                    continue; // shared instance below
                }
                self.ensure_tactic(&schema.name, field, &tactic)?;
            }
        }
        if let Some(bt) = &bool_tactic {
            self.ensure_tactic(&schema.name, BOOL_SCOPE, bt)?;
        }

        // Cloud-side secondary indexes for legacy-friendly shadow fields.
        let mut index_calls = Vec::new();
        for (field, plan) in &fields {
            for tactic in &plan.selection.search_tactics {
                match tactic.as_str() {
                    "det" => index_calls.push(format!("{field}__det")),
                    "ope" => index_calls.push(format!("{field}__ope")),
                    _ => {}
                }
            }
            if plan.selection.payload == "det" && !index_calls.contains(&format!("{field}__det")) {
                index_calls.push(format!("{field}__det"));
            }
        }
        for shadow in index_calls {
            self.call(&CloudCall::new("doc/ensure_index", with_collection(&schema.name, shadow.as_bytes())))?;
        }

        let mut payloads = fields
            .iter()
            .map(|(field, plan)| {
                Ok(PayloadShadow {
                    shadow: shadow_field(field, &plan.selection.payload),
                    field: field.clone(),
                    tactic: self.tactic(&schema.name, field, &plan.selection.payload)?,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        payloads.sort_by(|a, b| a.shadow.cmp(&b.shadow));

        self.schema_store.put(&schema);
        self.plans
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(schema.name.clone(), Arc::new(SchemaPlan { schema, fields, bool_tactic, payloads }));
        Ok(())
    }

    fn ensure_tactic(&self, schema: &str, scope: &str, tactic: &str) -> Result<(), CoreError> {
        let key = Self::tactic_key(schema, scope, tactic);
        if self.tactics.read().unwrap_or_else(PoisonError::into_inner).contains_key(&key) {
            return Ok(());
        }
        let ctx = TacticContext {
            application: self.application.clone(),
            schema: schema.to_string(),
            scope: scope.to_string(),
            kms: self.kms.clone(),
        };
        // Build outside the tactics write lock (lock order registry → rng);
        // a racing builder's instance is discarded by `or_insert_with`.
        let mut instance = {
            let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            registry.build_gateway(tactic, &ctx, &mut *rng)?
        };
        instance.attach_recorder(&self.obs);
        self.tactics
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(instance)));
        Ok(())
    }

    fn tactic_key(schema: &str, scope: &str, tactic: &str) -> String {
        format!("{schema}/{scope}/{tactic}")
    }

    /// The shared handle of one tactic instance.
    fn tactic(&self, schema: &str, scope: &str, tactic: &str) -> Result<SharedTactic, CoreError> {
        self.tactics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&Self::tactic_key(schema, scope, tactic))
            .cloned()
            .ok_or_else(|| {
                CoreError::UnsupportedOperation(format!("tactic {tactic} not instantiated for {schema}/{scope}"))
            })
    }

    /// Forks a per-operation child RNG off the engine's seeded stream. The
    /// engine lock is held only for the fork, so tactic work never
    /// serializes on the RNG.
    fn fork_rng(&self) -> StdRng {
        StdRng::from_rng(&mut *self.rng.lock().unwrap_or_else(PoisonError::into_inner)).expect("rng fork")
    }

    /// Pre-mints the on-wire form of one write. Chain-advancing writes must
    /// not re-execute when the channel retries them (SSE chains would
    /// double-advance): they travel in a fresh idempotency envelope the
    /// cloud deduplicates.
    fn seal(&self, route: &str, payload: Vec<u8>) -> Vec<u8> {
        Idempotent { token: self.next_idem_token(), route: route.to_string(), payload }.encode()
    }

    /// One call, sealed if it writes; reads are naturally idempotent and
    /// travel bare.
    fn call(&self, call: &CloudCall) -> Result<Vec<u8>, CoreError> {
        if is_write_route(&call.route) && call.route != IDEM_ROUTE {
            return Ok(self.channel.call(IDEM_ROUTE, &self.seal(&call.route, call.payload.clone()))?);
        }
        Ok(self.channel.call(&call.route, &call.payload)?)
    }

    /// Sends a write group — index updates and the document write, or a
    /// bulk load — in one round trip: one sealed call, a `batch` of the
    /// group when it has several, in one idempotency envelope. With a
    /// journal attached, that sealed call is recorded before it ships and
    /// cleared once acknowledged; a gateway that dies in between replays
    /// it on restart, and the cloud's dedup cache answers a replay that had
    /// already applied, so the group completes exactly once. The cloud runs
    /// a batch's items in order, so each document's index updates land
    /// before the document itself.
    fn send_write_group(&self, group: &[CloudCall]) -> Result<(), CoreError> {
        let sealed = match group {
            [] => return Ok(()),
            [call] => self.seal(&call.route, call.payload.clone()),
            calls => self.seal(BATCH_ROUTE, encode_batch(calls)),
        };
        let key = self.journal.as_ref().map(|j| {
            let key = journal_key(j.seq.fetch_add(1, Ordering::Relaxed));
            let mut w = datablinder_codec::Writer::new();
            w.list(&[IDEM_ROUTE.as_bytes(), sealed.as_slice()]);
            j.kv.set(&key, &w.finish());
            self.obs.count("gateway.journal.writes", 1);
            key
        });
        // A failure leaves the journal entry pending, for recover_pending
        // to roll forward or report.
        let answer = self.channel.call(IDEM_ROUTE, &sealed)?;
        if let (Some(j), Some(key)) = (&self.journal, &key) {
            j.kv.del(key);
        }
        if group.len() > 1 {
            decode_batch_answer(&answer, group.len())?;
        }
        Ok(())
    }

    /// Sends the calls one query needs — independent of each other — in one
    /// round trip: one call bare, several in a read-only batch. The answers
    /// come back in call order.
    fn read_calls(&self, calls: &[CloudCall]) -> Result<Vec<Vec<u8>>, CoreError> {
        match calls {
            [] => Ok(Vec::new()),
            [call] => Ok(vec![self.call(call)?]),
            calls => {
                let answer = self.call(&CloudCall::new(READ_BATCH_ROUTE, encode_batch(calls)))?;
                decode_batch_answer(&answer, calls.len())
            }
        }
    }

    /// Attaches a write journal backed by `kv` (pair with
    /// [`KvStore::open_semi_durable`] so the journal itself survives the
    /// crash). Existing pending entries are preserved — call
    /// [`GatewayEngine::recover_pending`] to process them — and the entry
    /// sequence continues after the highest one found.
    pub fn enable_write_journal(&mut self, kv: KvStore) {
        let next = kv
            .keys_with_prefix(JOURNAL_PREFIX)
            .iter()
            .filter_map(|k| {
                std::str::from_utf8(&k[JOURNAL_PREFIX.len()..]).ok().and_then(|s| u64::from_str_radix(s, 16).ok())
            })
            .max()
            .map_or(0, |m| m + 1);
        self.journal = Some(WriteJournal { kv, seq: AtomicU64::new(next) });
    }

    /// Number of journaled write groups not yet acknowledged.
    pub fn pending_writes(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.kv.keys_with_prefix(JOURNAL_PREFIX).len())
    }

    /// Replays every pending journaled write group, oldest first. An entry
    /// holds one sealed call; one written before write groups became a
    /// single batch holds several, replayed in order. A call that had
    /// applied before the crash is answered from the cloud's dedup cache;
    /// the rest execute now, rolling the group forward. An entry the cloud
    /// rejects with an application error, or one that does not decode, is
    /// reported failed and dropped, and recovery carries on with the next.
    ///
    /// # Errors
    ///
    /// Transport failures propagate and leave that entry and the ones after
    /// it pending — call again once the cloud is reachable.
    pub fn recover_pending(&self) -> Result<PendingWriteReport, CoreError> {
        let Some(journal) = &self.journal else {
            return Ok(PendingWriteReport::default());
        };
        let kv = journal.kv.clone();
        let mut report = PendingWriteReport::default();
        for key in kv.keys_with_prefix(JOURNAL_PREFIX) {
            let Some(blob) = kv.get(&key) else { continue };
            let mut failure: Option<String> = None;
            match decode_calls(&blob) {
                Err(e) => failure = Some(format!("malformed journal entry: {e}")),
                Ok(calls) => {
                    for (route, payload) in calls {
                        match self.channel.call(route, payload) {
                            Ok(_) => {}
                            Err(NetError::Remote(e)) => {
                                failure = Some(e);
                                break;
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                }
            }
            report.entries += 1;
            match failure {
                None => report.rolled_forward += 1,
                Some(e) => {
                    report.failed += 1;
                    report.failures.push(e);
                }
            }
            kv.del(&key);
        }
        self.obs.count("gateway.journal.rolled_forward", report.rolled_forward as u64);
        self.obs.count("gateway.journal.failed", report.failed as u64);
        Ok(report)
    }

    /// Mints a fresh idempotency token: seed-derived prefix plus a
    /// monotonically increasing sequence number. Unique per logical write
    /// from this gateway instance; retries of one write reuse one token.
    fn next_idem_token(&self) -> [u8; 16] {
        let seq = self.idem_seq.fetch_add(1, Ordering::Relaxed);
        let mut token = [0u8; 16];
        token[..8].copy_from_slice(&self.idem_prefix.to_be_bytes());
        token[8..].copy_from_slice(&seq.to_be_bytes());
        token
    }

    fn plan(&self, schema: &str) -> Result<Arc<SchemaPlan>, CoreError> {
        self.plans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(schema)
            .cloned()
            .ok_or_else(|| CoreError::UnknownSchema(schema.to_string()))
    }

    /// Times a route: `<route>.count`, `<route>.errors`, `<route>.latency`
    /// and one span per call. The guard opens (or roots) a trace context,
    /// so everything the closure touches — channel attempts, replica
    /// applies, WAL flushes — lands in one reconstructable trace tree. With
    /// a disabled recorder this is one atomic load plus the closure.
    fn observed<T>(&self, route: &str, f: impl FnOnce(&Self) -> Result<T, CoreError>) -> Result<T, CoreError> {
        let mut span = self.obs.span(route);
        let result = f(self);
        if let Err(e) = &result {
            span.fail();
            span.set_detail(&e.to_string());
        }
        result
    }

    /// Records one leakage-audit cell: the level `tactic` actually leaked
    /// for `op` on `field` (from its registered [`OpProfile`] — the ground
    /// truth of what the cloud observed) against the ceiling the field's
    /// protection class declares. Boolean-capable tactics answering
    /// equality through their boolean machinery fall back to the
    /// `BoolQuery` profile.
    ///
    /// [`OpProfile`]: crate::model::OpProfile
    fn audit_leakage(&self, schema_name: &str, field: &str, op: TacticOp, op_name: &str, tactic: &str) {
        if !self.obs.is_enabled() {
            return;
        }
        let Ok(plan) = self.plan(schema_name) else { return };
        let Some(declared) =
            plan.schema.sensitive_fields().find(|(f, _)| f.as_str() == field).map(|(_, a)| a.class.max_leakage())
        else {
            return;
        };
        let observed = self
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .descriptor(tactic)
            .and_then(|d| {
                d.operations
                    .iter()
                    .find(|p| p.op == op)
                    .or_else(|| {
                        (op == TacticOp::EqQuery)
                            .then(|| d.operations.iter().find(|p| p.op == TacticOp::BoolQuery))
                            .flatten()
                    })
                    .map(|p| p.leakage)
            })
            .unwrap_or(declared);
        self.obs.ledger().record(field, op_name, tactic, observed as u8, declared as u8);
    }

    // ---------------------------------------------------- Entities interface

    /// Inserts an application document: validates, mints an id, protects
    /// every sensitive field, runs the index updates and stores the
    /// protected document.
    ///
    /// # Errors
    ///
    /// Schema violations, tactic failures, channel failures.
    pub fn insert(&self, schema_name: &str, doc: &Document) -> Result<DocId, CoreError> {
        self.observed("gateway.insert", |g| {
            let id = g.idgen.lock().unwrap_or_else(PoisonError::into_inner).generate();
            g.insert_with_id(schema_name, doc, id)?;
            Ok(id)
        })
    }

    fn insert_with_id(&self, schema_name: &str, doc: &Document, id: DocId) -> Result<(), CoreError> {
        {
            let plan = self.plan(schema_name)?;
            validate_document(&plan.schema, doc)?;
        }
        let (cloud_doc, index_calls) = self.protect_document_calls(schema_name, doc, id)?;
        // Index updates, then the document itself, as one write group in one
        // round trip: an insert interrupted on its way is rolled forward on
        // recovery instead of staying half-applied.
        let mut group = index_calls;
        group.push(CloudCall::new("doc/insert", with_collection(schema_name, &encode_document(&cloud_doc))));
        self.send_write_group(&group)
    }

    /// Inserts a batch of documents in one channel round trip: one write
    /// group holding every index update and insert. Semantically
    /// identical to repeated [`GatewayEngine::insert`]; amortizes channel
    /// latency for bulk loads (initial cloud migration). With a worker
    /// pool attached ([`GatewayEngine::set_worker_pool`]) the CPU-heavy
    /// per-field encryption runs in parallel, with byte-identical output.
    ///
    /// # Partial-failure guarantee
    ///
    /// The batch executes cloud-side in submission order and aborts on the
    /// first failing sub-call. Because each document's index calls precede
    /// its `doc/insert`, a mid-batch failure leaves every *stored* document
    /// fully indexed and every unstored document absent from queries —
    /// never a queryable-but-half-indexed document. Documents after the
    /// failing one are not applied at all. The whole batch travels in one
    /// idempotency envelope, so channel-level retries cannot re-run the
    /// already-applied prefix either.
    ///
    /// The gateway's local index state (e.g. chain counters) advances for
    /// the whole batch before the call ships, so an abort leaves it ahead of
    /// the cloud for the unapplied tail. That is safe: index chains tolerate
    /// gaps on read (a missing entry resolves as "update lost"), so later
    /// searches stay exact over what was actually stored.
    ///
    /// # Errors
    ///
    /// Validates *all* documents first (nothing is sent if any fails);
    /// then as [`GatewayEngine::insert`].
    pub fn insert_many(&self, schema_name: &str, docs: &[Document]) -> Result<Vec<DocId>, CoreError> {
        self.observed("gateway.insert_many", |g| {
            {
                let plan = g.plan(schema_name)?;
                for doc in docs {
                    validate_document(&plan.schema, doc)?;
                }
            }
            let ids: Vec<DocId> = {
                let mut idgen = g.idgen.lock().unwrap_or_else(PoisonError::into_inner);
                docs.iter().map(|_| idgen.generate()).collect()
            };
            let protected: Vec<(Document, Vec<CloudCall>)> = match &g.pool {
                Some(pool) if docs.len() > 1 => g.protect_documents_batch(schema_name, docs, &ids, pool)?,
                _ => docs
                    .iter()
                    .zip(&ids)
                    .map(|(doc, id)| g.protect_document_calls(schema_name, doc, *id))
                    .collect::<Result<_, _>>()?,
            };
            let mut batch: Vec<CloudCall> = Vec::new();
            for (cloud_doc, index_calls) in protected {
                batch.extend(index_calls);
                batch.push(CloudCall::new("doc/insert", with_collection(schema_name, &encode_document(&cloud_doc))));
            }
            g.send_write_group(&batch)?;
            Ok(ids)
        })
    }

    /// Initial cloud migration: inserts a corpus like
    /// [`GatewayEngine::insert_many`], but builds the boolean tactic's
    /// *static* base index over the whole corpus (the Clusion-style
    /// setup-time structures) instead of per-document dynamic chains.
    /// Subsequent [`GatewayEngine::insert`]s layer the dynamic overlay on
    /// top; queries merge both transparently.
    ///
    /// # Errors
    ///
    /// As [`GatewayEngine::insert_many`].
    pub fn migrate(&self, schema_name: &str, docs: &[Document]) -> Result<Vec<DocId>, CoreError> {
        self.observed("gateway.migrate", |g| {
            let plan = g.plan(schema_name)?;
            for doc in docs {
                validate_document(&plan.schema, doc)?;
            }
            let bool_fields: Vec<String> =
                plan.fields.iter().filter(|(_, fp)| fp.boolean).map(|(f, _)| f.clone()).collect();
            let bool_tactic = plan.bool_tactic.clone();

            let mut ids = Vec::with_capacity(docs.len());
            let mut batch: Vec<CloudCall> = Vec::new();
            let mut entries: Vec<(Vec<(String, Value)>, DocId)> = Vec::new();
            for doc in docs {
                let id = g.idgen.lock().unwrap_or_else(PoisonError::into_inner).generate();
                // Per-field tactics as usual; collect boolean literals for the
                // bulk build instead of letting protect_document chain them.
                let literals: Vec<(String, Value)> =
                    bool_fields.iter().filter_map(|f| doc.get(f).map(|v| (f.clone(), v.clone()))).collect();
                let (cloud_doc, index_calls) = g.protect_document_calls_inner(schema_name, doc, id, false)?;
                batch.extend(index_calls);
                batch.push(CloudCall::new("doc/insert", with_collection(schema_name, &encode_document(&cloud_doc))));
                if !literals.is_empty() {
                    entries.push((literals, id));
                }
                ids.push(id);
            }
            if let (Some(bt), false) = (&bool_tactic, entries.is_empty()) {
                let mut rng = g.fork_rng();
                let t = g.tactic(schema_name, BOOL_SCOPE, bt)?;
                let calls = t.lock().unwrap_or_else(PoisonError::into_inner).bulk_index(&mut rng, &entries)?;
                if let Some(calls) = calls {
                    batch.extend(calls);
                }
            }
            g.send_write_group(&batch)?;
            Ok(ids)
        })
    }

    /// Computes one document's protected form + index calls (shared by
    /// single and batched insert).
    fn protect_document_calls(
        &self,
        schema_name: &str,
        doc: &Document,
        id: DocId,
    ) -> Result<(Document, Vec<CloudCall>), CoreError> {
        self.protect_document_calls_inner(schema_name, doc, id, true)
    }

    /// As [`GatewayEngine::protect_document_calls`]; `index_boolean`
    /// controls whether the shared boolean tactic chains the document
    /// (false during bulk migration, which static-indexes instead).
    fn protect_document_calls_inner(
        &self,
        schema_name: &str,
        doc: &Document,
        id: DocId,
        index_boolean: bool,
    ) -> Result<(Document, Vec<CloudCall>), CoreError> {
        let plan = self.plan(schema_name)?;
        let mut cloud_doc = Document::new(id.to_hex());
        let mut index_calls: Vec<CloudCall> = Vec::new();
        let mut bool_literals: Vec<(String, Value)> = Vec::new();

        let work = plan_field_work(&plan, doc, &mut cloud_doc);

        for w in &work {
            if w.boolean {
                bool_literals.push((w.field.clone(), w.value.clone()));
            }
            for tactic in &w.tactics {
                let started = self.obs.start();
                let mut rng = self.fork_rng();
                let t = self.tactic(schema_name, &w.field, tactic)?;
                let protected =
                    t.lock().unwrap_or_else(PoisonError::into_inner).protect(&mut rng, &w.field, &w.value, id)?;
                for (f, v) in protected.stored {
                    cloud_doc.set(f, v);
                }
                index_calls.extend(protected.index_calls);
                if let Some(t0) = started {
                    self.obs.ewma_observe(&format!("tactic.{tactic}.update"), t0.elapsed());
                }
                self.audit_leakage(schema_name, &w.field, TacticOp::Update, "insert", tactic);
            }
        }
        if let (true, Some(bt), false) = (index_boolean, &plan.bool_tactic, bool_literals.is_empty()) {
            let mut rng = self.fork_rng();
            let t = self.tactic(schema_name, BOOL_SCOPE, bt)?;
            let calls =
                t.lock().unwrap_or_else(PoisonError::into_inner).protect_document(&mut rng, &bool_literals, id)?;
            if let Some(calls) = calls {
                index_calls.extend(calls);
            }
        }
        Ok((cloud_doc, index_calls))
    }

    /// Parallel counterpart of repeated
    /// [`GatewayEngine::protect_document_calls`] over a batch, used by
    /// [`GatewayEngine::insert_many`] when a worker pool is attached.
    ///
    /// # Determinism
    ///
    /// The output is byte-identical to the sequential path:
    ///
    /// * Per-operation RNGs are **pre-forked on the submitting thread** in
    ///   the exact order the sequential path would fork them (doc-major,
    ///   document field order, tactic order, boolean fork last per doc), so
    ///   every `(doc, field, tactic)` application sees the same child RNG.
    /// * Work is partitioned **per tactic instance**; each partition
    ///   processes its items in document order, so stateful chains (Mitra
    ///   counters, Sophos chains) advance exactly as sequentially. Distinct
    ///   instances share no state, so partitions compose in any schedule.
    /// * Results are reassembled doc-major in the sequential application
    ///   order before the batch is encoded.
    ///
    /// On failure nothing ships (same abort-atomicity as sequential); the
    /// error returned is the sequentially-first one, though later items may
    /// already have advanced local chain state — the same tolerated
    /// run-ahead the batch abort path documents.
    fn protect_documents_batch(
        &self,
        schema_name: &str,
        docs: &[Document],
        ids: &[DocId],
        pool: &WorkerPool,
    ) -> Result<Vec<(Document, Vec<CloudCall>)>, CoreError> {
        struct Item {
            doc: usize,
            ord: usize,
            field: String,
            value: Value,
            tactic: String,
            id: DocId,
            rng: StdRng,
        }
        enum Out {
            Field {
                doc: usize,
                ord: usize,
                field: String,
                tactic: String,
                took: Duration,
                result: Result<ProtectedField, CoreError>,
            },
            Boolean {
                doc: usize,
                result: Result<Option<Vec<CloudCall>>, CoreError>,
            },
        }

        let plan = self.plan(schema_name)?;
        let timing = self.obs.is_enabled();

        // Plan every doc's work and pre-fork RNGs in sequential fork order.
        let mut skeletons: Vec<Document> = Vec::with_capacity(docs.len());
        let mut partitions: HashMap<String, (String, String, Vec<Item>)> = HashMap::new();
        // (doc index, boolean literals, doc id, forked rng) per document.
        type BoolItem = (usize, Vec<(String, Value)>, DocId, StdRng);
        let mut bool_items: Vec<BoolItem> = Vec::new();
        {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            for (di, doc) in docs.iter().enumerate() {
                let mut cloud_doc = Document::new(ids[di].to_hex());
                let work = plan_field_work(&plan, doc, &mut cloud_doc);
                let mut ord = 0usize;
                let mut bool_literals: Vec<(String, Value)> = Vec::new();
                for w in &work {
                    if w.boolean {
                        bool_literals.push((w.field.clone(), w.value.clone()));
                    }
                    for tactic in &w.tactics {
                        let forked = StdRng::from_rng(&mut *rng).expect("rng fork");
                        let key = Self::tactic_key(schema_name, &w.field, tactic);
                        partitions.entry(key).or_insert_with(|| (w.field.clone(), tactic.clone(), Vec::new())).2.push(
                            Item {
                                doc: di,
                                ord,
                                field: w.field.clone(),
                                value: w.value.clone(),
                                tactic: tactic.clone(),
                                id: ids[di],
                                rng: forked,
                            },
                        );
                        ord += 1;
                    }
                }
                if let (Some(_), false) = (&plan.bool_tactic, bool_literals.is_empty()) {
                    let forked = StdRng::from_rng(&mut *rng).expect("rng fork");
                    bool_items.push((di, bool_literals, ids[di], forked));
                }
                skeletons.push(cloud_doc);
            }
        }

        // One job per tactic instance + one for the shared boolean tactic.
        let mut jobs: Vec<Box<dyn FnOnce() -> Vec<Out> + Send>> = Vec::new();
        for (_, (scope, tactic_name, items)) in partitions {
            let t = self.tactic(schema_name, &scope, &tactic_name)?;
            jobs.push(Box::new(move || {
                let mut guard = t.lock().unwrap_or_else(PoisonError::into_inner);
                // One `protect_many` call per partition: the tactic sees the
                // whole contiguous batch and can amortize cipher contexts
                // (batch seal, shared HMAC midstates). Items keep their own
                // pre-forked RNGs, so outputs stay byte-identical to the
                // sequential path.
                let mut items = items;
                let t0 = timing.then(std::time::Instant::now);
                let mut pitems: Vec<ProtectItem<'_>> = items
                    .iter_mut()
                    .map(|it| ProtectItem { rng: &mut it.rng, field: &it.field, value: &it.value, id: it.id })
                    .collect();
                let results = guard.protect_many(&mut pitems);
                drop(pitems);
                // Per-item latency is the amortized share of the batch call
                // (individual attribution is meaningless inside one batch).
                let per_item = t0.map_or(Duration::ZERO, |t0| {
                    t0.elapsed().checked_div(items.len().max(1) as u32).unwrap_or(Duration::ZERO)
                });
                items
                    .into_iter()
                    .zip(results)
                    .map(|(it, result)| Out::Field {
                        doc: it.doc,
                        ord: it.ord,
                        field: it.field,
                        tactic: it.tactic,
                        took: per_item,
                        result,
                    })
                    .collect()
            }));
        }
        if !bool_items.is_empty() {
            let bt = plan.bool_tactic.clone().expect("bool items imply a bool tactic");
            let t = self.tactic(schema_name, BOOL_SCOPE, &bt)?;
            jobs.push(Box::new(move || {
                let mut guard = t.lock().unwrap_or_else(PoisonError::into_inner);
                bool_items
                    .into_iter()
                    .map(|(di, literals, id, mut rng)| Out::Boolean {
                        doc: di,
                        result: guard.protect_document(&mut rng, &literals, id),
                    })
                    .collect()
            }));
        }

        self.obs.count("gateway.pool.jobs", jobs.len() as u64);
        // Queue depth at submission = the whole fan-out; the gauge captures
        // the high-water mark of this batch (it drains to 0 by return).
        self.obs.gauge_set("gateway.pool.queue_depth", jobs.len() as i64);
        let outputs = pool.run_ordered(jobs);
        self.obs.gauge_set("gateway.pool.queue_depth", pool.queue_depth());

        // Reassemble doc-major in sequential application order; the
        // sequentially-first error wins.
        let mut flat: Vec<Out> = outputs.into_iter().flatten().collect();
        flat.sort_by_key(|o| match o {
            Out::Field { doc, ord, .. } => (*doc, *ord),
            Out::Boolean { doc, .. } => (*doc, usize::MAX),
        });
        let mut out: Vec<(Document, Vec<CloudCall>)> = skeletons.into_iter().map(|d| (d, Vec::new())).collect();
        for o in flat {
            match o {
                Out::Field { doc, field, tactic, took, result, .. } => {
                    let protected = result?;
                    let (cloud_doc, index_calls) = &mut out[doc];
                    for (f, v) in protected.stored {
                        cloud_doc.set(f, v);
                    }
                    index_calls.extend(protected.index_calls);
                    if timing {
                        self.obs.ewma_observe(&format!("tactic.{tactic}.update"), took);
                    }
                    self.audit_leakage(schema_name, &field, TacticOp::Update, "insert", &tactic);
                }
                Out::Boolean { doc, result } => {
                    if let Some(calls) = result? {
                        out[doc].1.extend(calls);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Fetches and decrypts a document.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`], decryption failures.
    pub fn get(&self, schema_name: &str, id: DocId) -> Result<Document, CoreError> {
        self.observed("gateway.get", |g| {
            let plan = g.plan(schema_name)?;
            plan.recover_stored(&plan.payloads, &g.fetch_stored(schema_name, &id.to_hex())?)
        })
    }

    /// One stored document as the cloud holds it, still encoded.
    fn fetch_stored(&self, schema_name: &str, id: &str) -> Result<Vec<u8>, CoreError> {
        self.call(&CloudCall::new("doc/get", with_collection(schema_name, id.as_bytes())))
    }

    /// Deletes a document, revoking its index entries.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`], channel failures.
    pub fn delete(&self, schema_name: &str, id: DocId) -> Result<(), CoreError> {
        self.observed("gateway.delete", |g| g.delete_inner(schema_name, id))
    }

    fn delete_inner(&self, schema_name: &str, id: DocId) -> Result<(), CoreError> {
        // Recover plaintext values to produce the revocation tokens.
        let plaintext = self.get(schema_name, id)?;
        let plan = self.plan(schema_name)?;

        struct DeleteWork {
            field: String,
            value: Value,
            tactics: Vec<String>,
            boolean: bool,
        }
        let mut work = Vec::new();
        for (field, fp) in &plan.fields {
            if let Some(value) = plaintext.get(field) {
                work.push(DeleteWork {
                    field: field.clone(),
                    value: value.clone(),
                    tactics: fp.selection.all_tactics().into_iter().filter(|t| !t.starts_with("biex")).collect(),
                    boolean: fp.boolean,
                });
            }
        }
        let bool_tactic = plan.bool_tactic.clone();

        let mut calls = Vec::new();
        let mut bool_literals = Vec::new();
        for w in &work {
            if w.boolean {
                bool_literals.push((w.field.clone(), w.value.clone()));
            }
            for tactic in &w.tactics {
                let t = self.tactic(schema_name, &w.field, tactic)?;
                let revocations = t.lock().unwrap_or_else(PoisonError::into_inner).delete(&w.field, &w.value, id)?;
                calls.extend(revocations);
            }
        }
        if let (Some(bt), false) = (&bool_tactic, bool_literals.is_empty()) {
            let t = self.tactic(schema_name, BOOL_SCOPE, bt)?;
            let revocations = t.lock().unwrap_or_else(PoisonError::into_inner).delete_document(&bool_literals, id)?;
            if let Some(c) = revocations {
                calls.extend(c);
            }
        }
        // Revocations + the delete itself as one write group, mirroring
        // insert: an interrupted delete finishes on recovery.
        calls.push(CloudCall::new("doc/delete", with_collection(schema_name, id.to_hex().as_bytes())));
        self.send_write_group(&calls)
    }

    /// Replaces a document (delete + insert under the same id).
    ///
    /// # Errors
    ///
    /// As [`GatewayEngine::delete`] and [`GatewayEngine::insert`].
    pub fn update(&self, schema_name: &str, id: DocId, doc: &Document) -> Result<(), CoreError> {
        self.observed("gateway.update", |g| {
            g.delete_inner(schema_name, id)?;
            g.insert_with_id(schema_name, doc, id)
        })
    }

    /// Equality search on one field, returning decrypted documents.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] if the field's annotation did
    /// not request equality.
    pub fn find_equal(&self, schema_name: &str, field: &str, value: &Value) -> Result<Vec<Document>, CoreError> {
        self.observed("gateway.find_equal", |g| {
            let ids = g.equality_ids(schema_name, field, value)?;
            g.get_many(schema_name, &ids)
        })
    }

    /// Equality search returning raw ids. Shared by
    /// [`GatewayEngine::find_equal`] and [`GatewayEngine::fsck`], which
    /// must see ids that do *not* resolve to stored documents (`get_many`
    /// silently skips them).
    fn equality_ids(&self, schema_name: &str, field: &str, value: &Value) -> Result<Vec<DocId>, CoreError> {
        let plan = self.plan(schema_name)?;
        let fp = plan
            .fields
            .get(field)
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} is not annotated")))?;
        let (scope, tactic) = match (&fp.eq_tactic, fp.boolean) {
            (Some(t), false) => (field.to_string(), t.clone()),
            (Some(t), true) if t.starts_with("biex") => (BOOL_SCOPE.to_string(), t.clone()),
            (Some(t), true) => (field.to_string(), t.clone()),
            (None, _) => return Err(CoreError::UnsupportedOperation(format!("field {field} has no equality tactic"))),
        };
        let started = self.obs.start();
        let t = self.tactic(schema_name, &scope, &tactic)?;
        let calls = t.lock().unwrap_or_else(PoisonError::into_inner).eq_query(field, value)?;
        let responses = self.read_calls(&calls)?;
        let ids = t.lock().unwrap_or_else(PoisonError::into_inner).eq_resolve(field, value, &responses)?;
        if let Some(t0) = started {
            self.obs.ewma_observe(&format!("tactic.{tactic}.eq_query"), t0.elapsed());
        }
        self.audit_leakage(schema_name, field, TacticOp::EqQuery, "equality", &tactic);
        Ok(ids)
    }

    /// Boolean (DNF) search across fields, returning decrypted documents.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] when the touched fields have no
    /// common boolean capability.
    pub fn find_boolean(&self, schema_name: &str, dnf: &DnfLiterals) -> Result<Vec<Document>, CoreError> {
        self.observed("gateway.find_boolean", |g| {
            let ids = g.boolean_ids(schema_name, dnf)?;
            g.get_many(schema_name, &ids)
        })
    }

    /// Boolean search returning raw ids (see [`GatewayEngine::equality_ids`]).
    fn boolean_ids(&self, schema_name: &str, dnf: &DnfLiterals) -> Result<Vec<DocId>, CoreError> {
        let started = self.obs.start();
        let plan = self.plan(schema_name)?;
        let fields: Vec<String> = dnf.iter().flatten().map(|(f, _)| f.clone()).collect();
        let all_boolean = fields.iter().all(|f| plan.fields.get(f).is_some_and(|p| p.boolean));
        let mut used_tactic = "det".to_string();
        let ids = if all_boolean && plan.bool_tactic.is_some() {
            let bt = plan.bool_tactic.clone().unwrap();
            used_tactic = bt.clone();
            let t = self.tactic(schema_name, BOOL_SCOPE, &bt)?;
            let calls = t.lock().unwrap_or_else(PoisonError::into_inner).bool_query(dnf)?;
            let responses = self.read_calls(&calls)?;
            let resolved = t.lock().unwrap_or_else(PoisonError::into_inner).bool_resolve(dnf, &responses)?;
            resolved
        } else {
            // Legacy-friendly path: every field protected by DET can be
            // boolean-combined cloud-side.
            let all_det = fields
                .iter()
                .all(|f| plan.fields.get(f).is_some_and(|p| p.selection.all_tactics().contains(&"det".to_string())));
            if !all_det {
                return Err(CoreError::UnsupportedOperation(
                    "boolean search requires all fields to share a boolean-capable tactic".into(),
                ));
            }
            // Any DET field adapter can issue the combined query; literals
            // must be rewritten with each field's own key, so collect them
            // per field first.
            let mut rewritten: DnfLiterals = Vec::new();
            for conj in dnf {
                let mut out_conj = Vec::new();
                for (f, v) in conj {
                    let t = self.tactic(schema_name, f, "det")?;
                    let lit = t
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .stored_literal(f, v)
                        .ok_or_else(|| CoreError::UnsupportedOperation(format!("{f}: no stored literal")))?;
                    out_conj.push(lit);
                }
                rewritten.push(out_conj);
            }
            let req = crate::cloudproto::FindIdsDnf { collection: schema_name.to_string(), dnf: rewritten };
            let response = self.call(&CloudCall::new("doc/find_ids_dnf", req.encode()))?;
            decode_ids(&response)?
        };
        if let Some(t0) = started {
            self.obs.ewma_observe(&format!("tactic.{used_tactic}.bool_query"), t0.elapsed());
        }
        for field in &fields {
            self.audit_leakage(schema_name, field, TacticOp::BoolQuery, "boolean", &used_tactic);
        }
        Ok(ids)
    }

    /// Range search on one field (inclusive bounds), returning decrypted
    /// documents.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] if the field's annotation did
    /// not request range search.
    pub fn find_range(
        &self,
        schema_name: &str,
        field: &str,
        lo: &Value,
        hi: &Value,
    ) -> Result<Vec<Document>, CoreError> {
        self.observed("gateway.find_range", |g| {
            let ids = g.range_ids(schema_name, field, lo, hi)?;
            g.get_many(schema_name, &ids)
        })
    }

    /// Range search returning raw ids (see [`GatewayEngine::equality_ids`]).
    fn range_ids(&self, schema_name: &str, field: &str, lo: &Value, hi: &Value) -> Result<Vec<DocId>, CoreError> {
        let plan = self.plan(schema_name)?;
        let tactic = plan
            .fields
            .get(field)
            .and_then(|p| p.range_tactic.clone())
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} has no range tactic")))?;
        let started = self.obs.start();
        let t = self.tactic(schema_name, field, &tactic)?;
        let calls = t.lock().unwrap_or_else(PoisonError::into_inner).range_query(field, lo, hi)?;
        let responses = self.read_calls(&calls)?;
        let ids = t.lock().unwrap_or_else(PoisonError::into_inner).range_resolve(&responses)?;
        if let Some(t0) = started {
            self.obs.ewma_observe(&format!("tactic.{tactic}.range_query"), t0.elapsed());
        }
        self.audit_leakage(schema_name, field, TacticOp::RangeQuery, "range", &tactic);
        Ok(ids)
    }

    /// Cloud-side aggregate over a field, optionally restricted by a
    /// boolean filter evaluated first.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] if the field has no aggregate
    /// tactic.
    pub fn aggregate(
        &self,
        schema_name: &str,
        field: &str,
        agg: AggFn,
        filter: Option<&DnfLiterals>,
    ) -> Result<f64, CoreError> {
        self.observed("gateway.aggregate", |g| {
            let plan = g.plan(schema_name)?;
            let tactic = plan
                .fields
                .get(field)
                .and_then(|p| p.selection.agg_tactics.first().cloned())
                .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} has no aggregate tactic")))?;
            let ids = match filter {
                None => Vec::new(),
                Some(dnf) => {
                    let ids = g.boolean_ids(schema_name, dnf)?;
                    if ids.is_empty() {
                        // To the cloud an empty id list is the whole collection.
                        return Ok(0.0);
                    }
                    ids
                }
            };
            let started = g.obs.start();
            let t = g.tactic(schema_name, field, &tactic)?;
            let calls = t.lock().unwrap_or_else(PoisonError::into_inner).agg_query(field, agg, &ids)?;
            let responses = g.read_calls(&calls)?;
            let out = t.lock().unwrap_or_else(PoisonError::into_inner).agg_resolve(agg, &responses)?;
            if let Some(t0) = started {
                g.obs.ewma_observe(&format!("tactic.{tactic}.aggregate"), t0.elapsed());
            }
            g.audit_leakage(schema_name, field, TacticOp::Aggregate, "aggregate", &tactic);
            Ok(out)
        })
    }

    /// Returns the document holding the extreme (min or max) value of a
    /// range-annotated field, computed *by the cloud over ciphertexts*
    /// (OPE byte order equals plaintext order — a class-5 capability).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] if the field's range tactic is
    /// not order-preserving at rest (ORE stores no comparable bytes).
    pub fn find_extreme(&self, schema_name: &str, field: &str, maximum: bool) -> Result<Option<Document>, CoreError> {
        self.observed("gateway.find_extreme", |g| {
            let plan = g.plan(schema_name)?;
            let tactic = plan.fields.get(field).and_then(|p| p.range_tactic.clone());
            if tactic.as_deref() != Some("ope") {
                return Err(CoreError::UnsupportedOperation(format!(
                    "min/max needs an order-preserving stored field; {field} has {tactic:?}"
                )));
            }
            let mut rest = vec![maximum as u8];
            rest.extend_from_slice(format!("{field}__ope").as_bytes());
            let out = g.call(&CloudCall::new("doc/extreme", with_collection(schema_name, &rest)))?;
            if out.is_empty() {
                return Ok(None);
            }
            g.audit_leakage(schema_name, field, TacticOp::RangeQuery, "extreme", "ope");
            let id = String::from_utf8(out).map_err(|_| CoreError::Wire("utf8 id"))?;
            let doc_id = DocId::from_hex(&id).ok_or(CoreError::Wire("doc id"))?;
            Ok(Some(g.get(schema_name, doc_id)?))
        })
    }

    /// Number of stored documents.
    ///
    /// # Errors
    ///
    /// Channel failures.
    pub fn count(&self, schema_name: &str) -> Result<u64, CoreError> {
        self.observed("gateway.count", |g| {
            g.plan(schema_name)?;
            let out = g.call(&CloudCall::new("doc/count", with_collection(schema_name, b"")))?;
            out.try_into().map(u64::from_be_bytes).map_err(|_| CoreError::Wire("count response"))
        })
    }

    fn get_many(&self, schema_name: &str, ids: &[DocId]) -> Result<Vec<Document>, CoreError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let plan = self.plan(schema_name)?;
        let bytes = self.call(&CloudCall::new("doc/get_many", get_many_payload(schema_name, ids)))?;
        datablinder_codec::decode(&bytes, |r| {
            (0..r.count()?).map(|_| plan.recover_stored(&plan.payloads, r.bytes()?)).collect()
        })
    }

    /// Rotates the payload-encryption key of one field and re-encrypts
    /// every stored document under the new key version — the crypto-agility
    /// maintenance flow (§8 of DESIGN.md; Table 2's "key management"
    /// challenge made operational).
    ///
    /// Returns the new key version.
    ///
    /// # Errors
    ///
    /// Decryption failures on corrupt data; channel failures. On error the
    /// rotation may be partially applied (already re-encrypted documents
    /// stay on the new version, which remains decryptable).
    pub fn rotate_payload_key(&self, schema_name: &str, field: &str) -> Result<u64, CoreError> {
        let plan = self.plan(schema_name)?;
        let row = plan.payload_of(field)?;
        let payload_tactic = plan.fields[field].selection.payload.clone();
        let tactic = &row.tactic;

        // 1. Recover every document's plaintext value under the current
        //    key, and keep the stored form the new ciphertext goes into.
        let ids_bytes = self.call(&CloudCall::new("doc/list_ids", with_collection(schema_name, b"")))?;
        let raw_ids = datablinder_codec::Reader::new(&ids_bytes).list()?;
        let mut recovered: Vec<(&str, Option<Value>, Vec<u8>)> = Vec::new();
        for id in &raw_ids {
            let id = std::str::from_utf8(id).map_err(|_| CoreError::Wire("utf8 id"))?;
            let stored = self.fetch_stored(schema_name, id)?;
            let value = plan.recover_stored(std::slice::from_ref(row), &stored)?.remove(field);
            recovered.push((id, value, stored));
        }

        // 2. Rotate the KMS scope and rebuild the tactic instance so it
        //    derives the new key version. The fresh instance goes *into*
        //    the existing handle: the plan's recover table and every other
        //    holder of the handle decrypt with the new key from here on.
        let ctx = TacticContext {
            application: self.application.clone(),
            schema: schema_name.to_string(),
            scope: field.to_string(),
            kms: self.kms.clone(),
        };
        let new_version = self.kms.rotate(&ctx.key_scope(&payload_tactic));
        let mut fresh = {
            let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            registry.build_gateway(&payload_tactic, &ctx, &mut *rng)?
        };
        fresh.attach_recorder(&self.obs);
        *tactic.lock().unwrap_or_else(PoisonError::into_inner) = fresh;

        // 3. Re-protect each value and update the stored documents.
        for (id, value, stored) in recovered {
            let Some(value) = value else { continue };
            let doc_id = DocId::from_hex(id).ok_or(CoreError::Wire("doc id"))?;
            let mut stored = decode_document(&stored)?;
            let mut rng = self.fork_rng();
            let protected =
                tactic.lock().unwrap_or_else(PoisonError::into_inner).protect(&mut rng, field, &value, doc_id)?;
            for (f, v) in protected.stored {
                stored.set(f, v);
            }
            // Payload re-encryption produces no index calls; assert the
            // invariant so index-bearing tactics are never rotated this way.
            debug_assert!(protected.index_calls.is_empty());
            self.call(&CloudCall::new("doc/update", with_collection(schema_name, &encode_document(&stored))))?;
        }
        Ok(new_version)
    }

    /// Rotates the key of a *stateful index* tactic (Mitra/Sophos) on one
    /// field and rebuilds the encrypted index from scratch:
    ///
    /// 1. recovers every document's plaintext value (payload tactic),
    /// 2. drops the tactic's cloud scope (`kv/del_prefix`),
    /// 3. rotates the KMS scope and rebuilds the tactic instance (fresh
    ///    chains under the new key),
    /// 4. re-indexes every document in one batched round trip.
    ///
    /// Complements [`GatewayEngine::rotate_payload_key`], which handles the
    /// recoverable-payload tactics.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] if the field's equality tactic
    /// is not a field-scoped index tactic; decryption/channel failures.
    pub fn rotate_index_key(&self, schema_name: &str, field: &str) -> Result<u64, CoreError> {
        let plan = self.plan(schema_name)?;
        let row = plan.payload_of(field)?;
        let tactic =
            plan.fields[field].eq_tactic.clone().filter(|t| matches!(t.as_str(), "mitra" | "sophos")).ok_or_else(
                || CoreError::UnsupportedOperation(format!("field {field} has no rotatable index tactic")),
            )?;

        // 1. Recover plaintext values for every stored document.
        let ids_bytes = self.call(&CloudCall::new("doc/list_ids", with_collection(schema_name, b"")))?;
        let raw_ids = datablinder_codec::Reader::new(&ids_bytes).list()?;
        let mut recovered: Vec<(DocId, Value)> = Vec::new();
        for id in &raw_ids {
            let id = std::str::from_utf8(id).map_err(|_| CoreError::Wire("utf8 id"))?;
            let stored = self.fetch_stored(schema_name, id)?;
            if let Some(value) = plan.recover_stored(std::slice::from_ref(row), &stored)?.remove(field) {
                recovered.push((DocId::from_hex(id).ok_or(CoreError::Wire("doc id"))?, value));
            }
        }

        // 2. Drop the old cloud scope (prefix convention shared with the
        //    cloud tactic handlers: `t/<tactic>/<schema>:<scope>/`).
        let prefix = format!("t/{tactic}/{schema_name}:{field}/");
        self.call(&CloudCall::new("kv/del_prefix", prefix.into_bytes()))?;

        // 3. Rotate the key and rebuild the instance (fresh chains).
        let ctx = TacticContext {
            application: self.application.clone(),
            schema: schema_name.to_string(),
            scope: field.to_string(),
            kms: self.kms.clone(),
        };
        let new_version = self.kms.rotate(&ctx.key_scope(&tactic));
        let mut fresh = {
            let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            registry.build_gateway(&tactic, &ctx, &mut *rng)?
        };
        fresh.attach_recorder(&self.obs);
        // Into the existing handle, as in `rotate_payload_key`.
        let t = self.tactic(schema_name, field, &tactic)?;
        *t.lock().unwrap_or_else(PoisonError::into_inner) = fresh;

        // 4. Re-index everything, batched.
        let mut batch = Vec::with_capacity(recovered.len());
        for (id, value) in &recovered {
            let mut rng = self.fork_rng();
            let protected = t.lock().unwrap_or_else(PoisonError::into_inner).protect(&mut rng, field, value, *id)?;
            debug_assert!(protected.stored.is_empty(), "index tactics store nothing in documents");
            batch.extend(protected.index_calls);
        }
        self.send_write_group(&batch)?;
        Ok(new_version)
    }

    // ------------------------------------------------------------------ fsck

    /// Index↔store consistency check, meant to run after crash recovery:
    /// decrypts every stored document, then issues every supported search
    /// (equality, range, boolean — one per field × tactic × distinct
    /// value) and cross-checks the results. Every stored document must be
    /// reachable through each of its fields' registered search tactics,
    /// and no search may return an id that is not stored with that value
    /// (an orphan index entry).
    ///
    /// # Errors
    ///
    /// Channel/decryption failures; inconsistencies are *reported* in the
    /// [`FsckReport`], not raised as errors.
    pub fn fsck(&self, schema_name: &str) -> Result<FsckReport, CoreError> {
        // (field, eq?, range?, boolean?) snapshot of the plan, sorted for
        // deterministic reports.
        let mut field_plans: Vec<(String, bool, bool, bool)> = {
            let plan = self.plan(schema_name)?;
            let has_bool = plan.bool_tactic.is_some();
            plan.fields
                .iter()
                .map(|(f, fp)| (f.clone(), fp.eq_tactic.is_some(), fp.range_tactic.is_some(), fp.boolean && has_bool))
                .collect()
        };
        field_plans.sort_by(|a, b| a.0.cmp(&b.0));

        // Snapshot the store through the raw id list — NOT get_many, which
        // silently skips missing documents and would hide orphans.
        let ids_bytes = self.call(&CloudCall::new("doc/list_ids", with_collection(schema_name, b"")))?;
        let raw_ids = datablinder_codec::Reader::new(&ids_bytes).list()?;
        let plan = self.plan(schema_name)?;
        let mut stored_ids: Vec<DocId> = Vec::new();
        let mut plaintext: Vec<(DocId, Document)> = Vec::new();
        for id in &raw_ids {
            let hex = std::str::from_utf8(id).map_err(|_| CoreError::Wire("utf8 id"))?;
            let doc_id = DocId::from_hex(hex).ok_or(CoreError::Wire("doc id"))?;
            plaintext.push((doc_id, plan.recover_stored(&plan.payloads, &self.fetch_stored(schema_name, hex)?)?));
            stored_ids.push(doc_id);
        }

        let mut report = FsckReport { docs_checked: plaintext.len(), ..FsckReport::default() };
        for (field, eq, range, boolean) in field_plans {
            if !(eq || range || boolean) {
                continue;
            }
            // Distinct values of this field and the docs expected to hold
            // them (linear grouping: Value is neither Hash nor Ord).
            let mut groups: Vec<(Value, Vec<DocId>)> = Vec::new();
            for (id, doc) in &plaintext {
                if let Some(v) = doc.get(&field) {
                    match groups.iter_mut().find(|(gv, _)| gv == v) {
                        Some((_, ids)) => ids.push(*id),
                        None => groups.push((v.clone(), vec![*id])),
                    }
                }
            }
            for (value, expected) in &groups {
                let check = |kind: &str, got: &[DocId], report: &mut FsckReport| {
                    report.searches_run += 1;
                    for id in expected {
                        if !got.contains(id) {
                            report
                                .missing_index_entries
                                .push(format!("{kind} {field}={value:?}: stored doc {} unreachable", id.to_hex()));
                        }
                    }
                    for id in got {
                        if !expected.contains(id) {
                            let diagnosis = if stored_ids.contains(id) {
                                "stored under a different value"
                            } else {
                                "orphan index entry"
                            };
                            report
                                .orphan_results
                                .push(format!("{kind} {field}={value:?}: returned {} ({diagnosis})", id.to_hex()));
                        }
                    }
                };
                if eq {
                    let got = self.equality_ids(schema_name, &field, value)?;
                    check("eq", &got, &mut report);
                }
                if range {
                    let got = self.range_ids(schema_name, &field, value, value)?;
                    check("range", &got, &mut report);
                }
                if boolean {
                    let dnf = vec![vec![(field.clone(), value.clone())]];
                    let got = self.boolean_ids(schema_name, &dnf)?;
                    check("bool", &got, &mut report);
                }
            }
        }
        Ok(report)
    }

    // ----------------------------------------------- gateway state handling

    /// Exports every stateful tactic's gateway state (Mitra counters,
    /// Sophos chains) for persistence.
    pub fn export_tactic_state(&self) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = self
            .tactics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter_map(|(k, t)| {
                t.lock().unwrap_or_else(PoisonError::into_inner).export_state().map(|s| (k.clone(), s))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Restores tactic state exported by
    /// [`GatewayEngine::export_tactic_state`].
    ///
    /// # Errors
    ///
    /// Malformed state blobs; unknown instances are ignored.
    pub fn import_tactic_state(&self, state: &[(String, Vec<u8>)]) -> Result<(), CoreError> {
        let tactics = self.tactics.read().unwrap_or_else(PoisonError::into_inner);
        for (key, blob) in state {
            if let Some(t) = tactics.get(key) {
                t.lock().unwrap_or_else(PoisonError::into_inner).import_state(blob)?;
            }
        }
        Ok(())
    }

    /// Persists all tactic state into a gateway-local KV store (pair this
    /// with [`datablinder_kvstore::KvStore::open_semi_durable`] for the
    /// crash-safe variant). This is the paper's §7 observation made
    /// concrete: stateful SSE tactics (Mitra counters, Sophos chains) are
    /// what keeps the gateway from being a stateless cloud-native service.
    pub fn save_state(&self, kv: &KvStore) {
        for (key, blob) in self.export_tactic_state() {
            let mut k = b"gwstate/".to_vec();
            k.extend_from_slice(key.as_bytes());
            kv.set(&k, &blob);
        }
    }

    /// Restores state saved by [`GatewayEngine::save_state`]. Call after
    /// `register_schema` so the tactic instances exist.
    ///
    /// # Errors
    ///
    /// Malformed state blobs.
    pub fn load_state(&self, kv: &KvStore) -> Result<(), CoreError> {
        let entries: Vec<(String, Vec<u8>)> = kv
            .keys_with_prefix(b"gwstate/")
            .into_iter()
            .filter_map(|k| {
                let name = String::from_utf8(k[b"gwstate/".len()..].to_vec()).ok()?;
                let blob = kv.get(&k)?;
                Some((name, blob))
            })
            .collect();
        self.import_tactic_state(&entries)
    }
}

/// One annotated field of a document, with the tactics to apply in order.
struct FieldWork {
    field: String,
    value: Value,
    tactics: Vec<String>,
    boolean: bool,
}

/// Splits a document into protected-field work items (in document field
/// order — the canonical application order) and copies unannotated fields
/// straight into `cloud_doc`.
fn plan_field_work(plan: &SchemaPlan, doc: &Document, cloud_doc: &mut Document) -> Vec<FieldWork> {
    let mut work = Vec::new();
    for (field, value) in doc.iter() {
        match plan.fields.get(field) {
            None => {
                cloud_doc.set(field.clone(), value.clone());
            }
            Some(fp) => {
                let mut tactics: Vec<String> =
                    fp.selection.all_tactics().into_iter().filter(|t| !t.starts_with("biex")).collect();
                if !tactics.contains(&fp.selection.payload) {
                    tactics.push(fp.selection.payload.clone());
                }
                work.push(FieldWork { field: field.clone(), value: value.clone(), tactics, boolean: fp.boolean });
            }
        }
    }
    work
}
