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
//! behind a `Mutex` that is held only long enough to fork an operation's
//! child RNGs. Lock order, where more than one is held: `registry` → `rng`;
//! a tactic-instance lock is never held across a channel call that could
//! re-enter the engine. See DESIGN.md §12.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use datablinder_docstore::{Document, FieldName, Value};
use datablinder_kms::Kms;
use datablinder_kvstore::KvStore;
use datablinder_netsim::tcp::DEFAULT_MAX_FRAME;
use datablinder_netsim::{Channel, NetError, ResilienceConfig, ResilientChannel, Transport};
use datablinder_obs::Recorder;
use datablinder_sse::DocId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cloud::with_collection;
use crate::cloudproto::{
    decode_batch_answer, decode_calls, encode_batch, Fetch, FindIdsDnf, GetMany, Idempotent, BATCH_ROUTE, FETCH_ROUTE,
    IDEM_ROUTE, READ_BATCH_ROUTE,
};
use crate::error::CoreError;
use crate::metadata::{validate_document, SchemaStore};
use crate::model::{AggFn, FieldOp, FieldType, Schema, TacticOp};
use crate::pool::WorkerPool;
use crate::registry::{Selection, TacticRegistry};
use crate::spi::{single_id_list, CloudCall, DnfLiterals, DocIdGen, GatewayTactic, ProtectedField, RandomDocIdGen};
use crate::tactics::{shadow_field, TacticContext};
use crate::wire::{
    ciphertext_after, decode_document, document_payload, encode_document, skip_value, take_ciphertext, take_value,
    value_after, ABSENT,
};

/// Scope name of the shared cross-field boolean tactic instance.
const BOOL_SCOPE: &str = "__bool__";

/// A tactic instance shared across threads: stateful SSE chains serialize
/// on the per-instance mutex, so two threads indexing *different* fields
/// proceed in parallel.
type SharedTactic = Arc<Mutex<Box<dyn GatewayTactic>>>;

/// Locks a tactic instance, past a panic in an earlier holder, as every
/// lock in the gateway does.
fn lock(tactic: &SharedTactic) -> MutexGuard<'_, Box<dyn GatewayTactic>> {
    tactic.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forks a child RNG off `rng`, for one tactic application.
fn fork(rng: &mut StdRng) -> StdRng {
    StdRng::from_rng(rng).expect("rng fork")
}

/// SplitMix64 finalizer: spreads a seed into a well-mixed token prefix so
/// gateways with nearby seeds still mint far-apart token ranges.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One tactic instance a plan reaches: its registry name and its handle in
/// [`GatewayEngine::tactics`], resolved when the schema registers, so no
/// operation looks an instance up by name. Key rotation replaces the
/// instance *inside* the handle, so a plan never goes stale.
#[derive(Clone)]
struct Handle {
    name: String,
    tactic: SharedTactic,
}

/// Per-field execution plan derived from selection, with the handles the
/// field is written, revoked and queried through.
struct FieldPlan {
    selection: Selection,
    /// The field-scoped instances a value is protected and revoked through,
    /// in application order: search, aggregate, then payload tactics.
    writes: Vec<Handle>,
    /// The instances serving equality, range and aggregate queries, if any;
    /// a cross-field equality tactic is the schema's shared boolean one.
    eq: Option<Handle>,
    range: Option<Handle>,
    agg: Option<Handle>,
    /// Whether the field participates in the shared boolean index.
    boolean: bool,
}

impl FieldPlan {
    /// The field-scoped instance of `tactic`, if the field is written
    /// through one.
    fn write_handle(&self, tactic: &str) -> Option<&Handle> {
        self.writes.iter().find(|h| h.name == tactic)
    }
}

/// Per-schema execution plan.
struct SchemaPlan {
    schema: Schema,
    fields: HashMap<String, FieldPlan>,
    /// The shared boolean tactic (e.g. `biex-2lev`), if any field
    /// requested boolean search served by a cross-field tactic.
    bool_tactic: Option<Handle>,
    /// The recover table: one row per sensitive field, sorted by shadow
    /// name — the order the fields of a stored document arrive in.
    payloads: Vec<PayloadShadow>,
    /// The keep list: every stored name the gateway opens — each plain
    /// field and each sensitive field's payload shadow — sorted, with how
    /// the value at that position is opened. Search answers carry these
    /// values by position; every other shadow stays in the cloud.
    keep: Vec<Kept>,
}

/// One row of a plan's recover table: where a sensitive field's payload
/// ciphertext is stored, and who opens it.
struct PayloadShadow {
    /// The stored name, `<field>__<payload tactic>`.
    shadow: String,
    field: FieldName,
    /// The payload tactic's handle, as in the field's plan.
    tactic: SharedTactic,
}

/// One position of a plan's keep list.
struct Kept {
    /// The stored name the cloud projects onto.
    stored: String,
    /// The application field the value at this position becomes, shared
    /// with every document opened through the plan.
    field: FieldName,
    open: Open,
}

/// How the gateway opens the value at one keep-list position.
enum Open {
    /// A plaintext field, copied when it has the schema's type.
    Plain(FieldType),
    /// A payload shadow: the ciphertext goes to the payload tactic.
    Payload(SharedTactic),
}

impl SchemaPlan {
    /// The recover-table row of `field`.
    fn payload_of(&self, field: &str) -> Result<&PayloadShadow, CoreError> {
        self.payloads
            .iter()
            .find(|p| *p.field == *field)
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} is not annotated")))
    }

    /// Decrypts one stored document, as the cloud sent it for `id`, into
    /// application form in a single pass over the bytes: the ciphertext
    /// under each name in `rows` goes to its tactic as it lies in `stored`
    /// and comes back as the sensitive field's value, every other shadow of
    /// a sensitive field is passed over, and plaintext fields are copied.
    /// `rows` is the plan's table, or one row of it when only that field is
    /// wanted.
    ///
    /// The cloud is not trusted to send what was stored. A listed shadow
    /// that is not a byte string, and names that do not strictly ascend (as
    /// `put_document` writes them — so none can repeat and overwrite an
    /// earlier one), are [`CoreError::Wire`]; a shadow the document lacks
    /// leaves its field out, as an optional field never written does. A
    /// payload bound to its document opens only under the `id` the gateway
    /// asked for, so another document's ciphertext is [`CoreError::Sse`].
    ///
    /// Shadow fields are recognized as `<sensitive-base>__<suffix>`, a name
    /// `register_schema` refuses to a plaintext field. Searches read through
    /// [`SchemaPlan::open_answer`] instead; `get`, `fsck` and rotations
    /// read whole stored documents here.
    fn recover_stored(&self, rows: &[PayloadShadow], id: DocId, stored: &[u8]) -> Result<Document, CoreError> {
        let mut scratch = Vec::new();
        datablinder_codec::decode(stored, |r| {
            let doc_id = r.str()?;
            let mut fields = Vec::with_capacity(self.keep.len());
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
                    let value = lock(&row.tactic).recover(id, take_ciphertext(r)?, &mut scratch)?;
                    fields.push((row.field.clone(), value));
                } else if name.rsplit_once("__").is_some_and(|(base, _)| self.fields.contains_key(base)) {
                    skip_value(r, 0)?;
                } else {
                    fields.push((name.into(), take_value(r, 0)?));
                }
            }
            Ok(Document::from_fields(doc_id, fields))
        })
    }

    /// Decrypts a search answer: a count, then per document its id and,
    /// per keep-list position, a value or [`ABSENT`]. No name is read and
    /// nothing is passed over.
    ///
    /// It works by column. Every document is first split into its
    /// positions, plain values checked and copied and payload ciphertexts
    /// left where they lie in `answer`; then each payload position is
    /// opened for every document under one lock of its tactic (one lock
    /// held at a time) with one scratch buffer; then each document is built
    /// in one step. A rotation that swaps a tactic's instance therefore
    /// waits for, or follows, a whole column, and nothing is cached past it.
    ///
    /// The cloud is not trusted to answer as asked: an id that is not a
    /// document id, a payload position that is not a byte string, a plain
    /// one that is not of its field's type (a whole named document fails
    /// here, its field count starting with a `Null` tag), a missing value
    /// or a trailing byte is [`CoreError::Wire`], a payload that does not
    /// open under its document's id is [`CoreError::Sse`], and either fails
    /// the whole answer.
    fn open_answer(&self, answer: &[u8]) -> Result<Vec<Document>, CoreError> {
        let width = self.keep.len();
        datablinder_codec::decode(answer, |r| {
            let count = r.count()?;
            let mut ids = Vec::with_capacity(count);
            let mut cells = Vec::with_capacity(count.saturating_mul(width).min(answer.len()));
            for _ in 0..count {
                let id = datablinder_codec::decode(r.bytes()?, |d| {
                    let id = d.str()?;
                    for kept in &self.keep {
                        cells.push(match (d.u8()?, &kept.open) {
                            (ABSENT, _) => Cell::Absent,
                            (tag, Open::Payload(_)) => Cell::Sealed(ciphertext_after(tag, d)?),
                            (tag, Open::Plain(field_type)) => {
                                let value = value_after(tag, d, 0)?;
                                if !field_type.admits(&value) {
                                    return Err(CoreError::Wire("plain field of another type"));
                                }
                                Cell::Open(value)
                            }
                        });
                    }
                    Ok(id)
                })?;
                ids.push((id, DocId::from_hex(id).ok_or(CoreError::Wire("answer document id"))?));
            }
            let mut scratch = Vec::new();
            for (position, kept) in self.keep.iter().enumerate() {
                let Open::Payload(tactic) = &kept.open else { continue };
                let tactic = lock(tactic);
                for (row, &(_, id)) in ids.iter().enumerate() {
                    let cell = &mut cells[row * width + position];
                    if let Cell::Sealed(ciphertext) = *cell {
                        *cell = Cell::Open(tactic.recover(id, ciphertext, &mut scratch)?);
                    }
                }
            }
            let mut cells = cells.into_iter();
            let documents = ids.into_iter().map(|(id, _)| {
                let mut fields = Vec::with_capacity(width);
                for (kept, cell) in self.keep.iter().zip(cells.by_ref().take(width)) {
                    if let Cell::Open(value) = cell {
                        fields.push((kept.field.clone(), value));
                    }
                }
                Document::from_fields(id, fields)
            });
            Ok(documents.collect())
        })
    }
}

/// One keep-list position of a search answer while
/// [`SchemaPlan::open_answer`] opens it.
enum Cell<'a> {
    /// The document lacks the kept name.
    Absent,
    /// A payload ciphertext, as it lies in the answer.
    Sealed(&'a [u8]),
    /// A plain value, or a payload opened.
    Open(Value),
}

/// Key prefix of journaled write groups in the gateway's journal store.
const JOURNAL_PREFIX: &[u8] = b"gwj/";

/// The sealed envelope a journal entry holds: the entry itself, or, in an
/// entry written while entries were a call list, its lone `[idem, sealed]`
/// pair.
fn journaled_envelope(entry: &[u8]) -> Result<&[u8], CoreError> {
    match Idempotent::parts(entry) {
        Ok(_) => Ok(entry),
        Err(e) => match decode_calls(entry).as_deref() {
            Ok(&[(IDEM_ROUTE, sealed)]) if Idempotent::parts(sealed).is_ok() => Ok(sealed),
            _ => Err(e),
        },
    }
}

fn journal_key(seq: u64) -> Vec<u8> {
    format!("gwj/{seq:016x}").into_bytes()
}

/// Payload bytes one rotation write group carries at most (1 MiB), an
/// eighth of the TCP transport's default frame cap; a larger document
/// travels alone.
const REWRITE_GROUP_BYTES: usize = DEFAULT_MAX_FRAME as usize / 8;

/// `calls` cut into consecutive write groups of at most
/// [`REWRITE_GROUP_BYTES`] payload bytes each, none empty.
fn bounded_groups(calls: &[CloudCall]) -> Vec<&[CloudCall]> {
    let mut groups = Vec::new();
    let (mut start, mut bytes) = (0, 0);
    for (i, call) in calls.iter().enumerate() {
        if i > start && bytes + call.payload.len() > REWRITE_GROUP_BYTES {
            groups.push(&calls[start..i]);
            (start, bytes) = (i, 0);
        }
        bytes += call.payload.len();
    }
    if start < calls.len() {
        groups.push(&calls[start..]);
    }
    groups
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
    /// exported once, as the info gauge `primitives.backend`
    /// ([`datablinder_primitives::backend_bits`]), so a slow host can be
    /// told from a slow build by what the process itself reports. The
    /// default recorder is disabled, so an un-instrumented gateway pays one
    /// atomic load per operation.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.channel.set_recorder(recorder.clone());
        if recorder.label().is_none() {
            recorder.set_label("gateway");
        }
        recorder.gauge_set("primitives.backend", i64::from(datablinder_primitives::backend_bits()));
        self.obs = recorder;
    }

    /// Attaches a [`WorkerPool`]: [`GatewayEngine::insert_many`] then
    /// parallelizes its per-field tactic encryption (Paillier
    /// exponentiation, OPE traversal, SSE token PRFs) across the pool
    /// before the single batched round trip. Results are byte-identical to
    /// a run without the pool — see [`GatewayEngine::insert_group`]'s
    /// determinism notes.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
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
    /// served; [`CoreError::SchemaViolation`] for a plain field named like
    /// a sensitive field's shadow (`<field>__<suffix>`); channel errors
    /// during index preparation.
    pub fn register_schema(&self, schema: Schema) -> Result<(), CoreError> {
        // `<field>__<suffix>` names a sensitive field's shadows: a plain
        // field may not take one, or the keep list could name it twice.
        for (name, _) in schema.plain_fields() {
            if name.rsplit_once("__").is_some_and(|(base, _)| schema.sensitive_fields().any(|(f, _)| f == base)) {
                return Err(CoreError::SchemaViolation(format!("plain field {name} takes a shadow's name")));
            }
        }
        // (field, selection, equality tactic, range tactic) per sensitive field.
        let mut selected = Vec::new();
        let mut bool_tactic: Option<String> = None;
        {
            let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
            for (field, annotation) in schema.sensitive_fields() {
                let selection = registry.select(field, annotation)?;
                let serving = |op: FieldOp| {
                    let serves = |n: &&String| registry.descriptor(n).is_some_and(|d| d.serves_op(op));
                    annotation
                        .ops
                        .contains(&op)
                        .then(|| selection.search_tactics.iter().find(serves).cloned())
                        .flatten()
                };
                let (eq, range) = (serving(FieldOp::Equality), serving(FieldOp::Range));
                if let Some(name) = selection.search_tactics.iter().find(|n| n.starts_with("biex")) {
                    match &bool_tactic {
                        None => bool_tactic = Some(name.clone()),
                        Some(existing) if existing == name => {}
                        Some(existing) => {
                            return Err(CoreError::SchemaViolation(format!(
                                "conflicting boolean tactics {existing} and {name} in one schema"
                            )));
                        }
                    }
                }
                selected.push((field.clone(), selection, eq, range));
            }
        }

        // Instantiate tactics: one shared boolean instance plus per-field
        // instances, loading implementations at runtime (strategy pattern),
        // and resolve every handle a field is served through.
        let bool_tactic = bool_tactic.map(|bt| self.ensure_tactic(&schema.name, BOOL_SCOPE, &bt)).transpose()?;
        let mut fields = HashMap::new();
        for (field, selection, eq, range) in selected {
            let writes = selection
                .all_tactics()
                .iter()
                .filter(|t| !t.starts_with("biex"))
                .map(|t| self.ensure_tactic(&schema.name, &field, t))
                .collect::<Result<Vec<_>, _>>()?;
            let handle = |name: &String| {
                if name.starts_with("biex") {
                    bool_tactic.clone()
                } else {
                    writes.iter().find(|h| &h.name == name).cloned()
                }
            };
            let (eq, range, agg) = (
                eq.as_ref().and_then(handle),
                range.as_ref().and_then(handle),
                selection.agg_tactics.first().and_then(handle),
            );
            let boolean = selection.search_tactics.iter().any(|n| n.starts_with("biex"));
            fields.insert(field, FieldPlan { selection, writes, eq, range, agg, boolean });
        }

        // Cloud-side secondary indexes for legacy-friendly shadow fields.
        let index_calls: Vec<CloudCall> = fields
            .iter()
            .flat_map(|(field, fp)| {
                ["det", "ope"].into_iter().filter(|t| fp.write_handle(t).is_some()).map(|t| {
                    CloudCall::new("doc/ensure_index", with_collection(&schema.name, shadow_field(field, t).as_bytes()))
                })
            })
            .collect();
        self.send_write_groups(&[&index_calls])?;

        let mut payloads: Vec<PayloadShadow> = fields
            .iter()
            .map(|(field, fp)| PayloadShadow {
                shadow: shadow_field(field, &fp.selection.payload),
                field: field.as_str().into(),
                tactic: fp
                    .write_handle(&fp.selection.payload)
                    .expect("every field is written through its payload")
                    .tactic
                    .clone(),
            })
            .collect();
        payloads.sort_by(|a, b| a.shadow.cmp(&b.shadow));
        let mut keep: Vec<Kept> = schema
            .plain_fields()
            .map(|(name, field_type)| Kept {
                stored: name.clone(),
                field: name.as_str().into(),
                open: Open::Plain(field_type),
            })
            .chain(payloads.iter().map(|p| Kept {
                stored: p.shadow.clone(),
                field: p.field.clone(),
                open: Open::Payload(Arc::clone(&p.tactic)),
            }))
            .collect();
        keep.sort_by(|a, b| a.stored.cmp(&b.stored));

        self.schema_store.put(&schema);
        self.plans
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(schema.name.clone(), Arc::new(SchemaPlan { schema, fields, bool_tactic, payloads, keep }));
        Ok(())
    }

    /// The handle of one tactic instance, built on first use.
    fn ensure_tactic(&self, schema: &str, scope: &str, tactic: &str) -> Result<Handle, CoreError> {
        let key = format!("{schema}/{scope}/{tactic}");
        let existing = self.tactics.read().unwrap_or_else(PoisonError::into_inner).get(&key).cloned();
        let shared = match existing {
            Some(shared) => shared,
            // Built outside the map's write lock; a racing builder's
            // instance is discarded by `or_insert_with`.
            None => {
                let instance = self.build_tactic(tactic, &self.context(schema, scope))?;
                let mut tactics = self.tactics.write().unwrap_or_else(PoisonError::into_inner);
                tactics.entry(key).or_insert_with(|| Arc::new(Mutex::new(instance))).clone()
            }
        };
        Ok(Handle { name: tactic.to_string(), tactic: shared })
    }

    /// Where the instances of `schema`'s `scope` derive their keys.
    fn context(&self, schema: &str, scope: &str) -> TacticContext {
        TacticContext {
            application: self.application.clone(),
            schema: schema.to_string(),
            scope: scope.to_string(),
            kms: self.kms.clone(),
        }
    }

    /// A fresh instance of `tactic`, recording into the gateway's recorder
    /// (lock order registry → rng).
    fn build_tactic(&self, tactic: &str, ctx: &TacticContext) -> Result<Box<dyn GatewayTactic>, CoreError> {
        let mut instance = {
            let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            registry.build_gateway(tactic, ctx, &mut *rng)?
        };
        instance.attach_recorder(&self.obs);
        Ok(instance)
    }

    /// Pre-mints the on-wire form of one write. Chain-advancing writes must
    /// not re-execute when the channel retries them (SSE chains would
    /// double-advance): they travel in a fresh idempotency envelope the
    /// cloud deduplicates.
    fn seal(&self, route: &str, payload: Vec<u8>) -> Vec<u8> {
        Idempotent { token: self.next_idem_token(), route: route.to_string(), payload }.encode()
    }

    /// One read. Reads are naturally idempotent and travel bare; every
    /// write is sealed in [`GatewayEngine::send_write_groups`].
    fn call(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, CoreError> {
        Ok(self.channel.call(route, payload)?)
    }

    /// Sends write groups — index updates and the document write, a bulk
    /// load, a rotation's rewrite, a schema's indexes — one round trip
    /// each, in order: one sealed call, a `batch` of the group when it has
    /// several, in one idempotency envelope. With a journal attached, every
    /// group's sealed call is an entry recorded before the first ships and
    /// cleared once acknowledged; a gateway that dies, or a send that fails,
    /// leaves that group and the ones after it for recover_pending to
    /// replay, and the cloud's dedup cache answers a replay that had
    /// already applied, so each group completes exactly once. The cloud
    /// runs a batch's items in order, so each document's index updates land
    /// before the document itself.
    fn send_write_groups(&self, groups: &[&[CloudCall]]) -> Result<(), CoreError> {
        let sealed: Vec<_> = groups
            .iter()
            .filter(|group| !group.is_empty())
            .map(|&group| {
                let sealed = match group {
                    [call] => self.seal(&call.route, call.payload.clone()),
                    calls => self.seal(BATCH_ROUTE, encode_batch(calls)),
                };
                let key = self.journal.as_ref().map(|j| {
                    let key = journal_key(j.seq.fetch_add(1, Ordering::Relaxed));
                    j.kv.set(&key, &sealed);
                    self.obs.count("gateway.journal.writes", 1);
                    key
                });
                (group.len(), sealed, key)
            })
            .collect();
        for (len, sealed, key) in sealed {
            let answer = self.channel.call(IDEM_ROUTE, &sealed)?;
            if let (Some(j), Some(key)) = (&self.journal, &key) {
                j.kv.del(key);
            }
            if len > 1 {
                decode_batch_answer(&answer, len)?;
            }
        }
        Ok(())
    }

    /// Sends the calls one query needs — independent of each other — in one
    /// round trip: one call bare, several in a read-only batch. The answers
    /// come back in call order.
    fn read_calls(&self, calls: &[CloudCall]) -> Result<Vec<Vec<u8>>, CoreError> {
        match calls {
            [] => Ok(Vec::new()),
            [call] => Ok(vec![self.call(&call.route, &call.payload)?]),
            calls => decode_batch_answer(&self.call(READ_BATCH_ROUTE, &encode_batch(calls))?, calls.len()),
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
    /// is the sealed call its group shipped as: if it had applied before
    /// the crash the cloud's dedup cache answers it, otherwise it executes
    /// now, rolling the group forward. An entry the cloud rejects with an
    /// application error, one too large for the transport's frame, or one
    /// that is not a sealed envelope, is reported failed and dropped, and
    /// recovery carries on with the next.
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
            let Some(entry) = kv.get(&key) else { continue };
            let failure = match journaled_envelope(&entry) {
                Err(e) => Some(format!("malformed journal entry: {e}")),
                Ok(sealed) => match self.channel.call(IDEM_ROUTE, sealed) {
                    Ok(_) => None,
                    // No retry can ship an entry larger than the frame.
                    Err(NetError::Remote(e) | NetError::FrameTooLarge(e)) => Some(e),
                    Err(e) => return Err(e.into()),
                },
            };
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
    fn audit_leakage(&self, plan: &SchemaPlan, field: &str, op: TacticOp, op_name: &str, tactic: &str) {
        if !self.obs.is_enabled() {
            return;
        }
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

    /// Asks `handle`'s tactic one aggregate: its calls, built under the
    /// instance lock; one round trip, with the lock released; the answers,
    /// resolved under the lock again; then the query's observations.
    fn ask<T>(
        &self,
        plan: &SchemaPlan,
        handle: &Handle,
        op: TacticOp,
        fields: &[&str],
        query: impl FnOnce(&mut dyn GatewayTactic) -> Result<Vec<CloudCall>, CoreError>,
        resolve: impl FnOnce(&dyn GatewayTactic, &[Vec<u8>]) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let started = self.obs.start();
        let calls = query(lock(&handle.tactic).as_mut())?;
        let answers = self.read_calls(&calls)?;
        let out = resolve(lock(&handle.tactic).as_ref(), &answers)?;
        self.observe_query(plan, started, op, fields, &handle.name);
        Ok(out)
    }

    /// Builds `handle`'s search: its calls, and whether the tactic resolves
    /// in the cloud, under the instance lock; its resolve, to run under the
    /// lock again once the answers are in.
    fn search<'a>(
        &self,
        plan: Arc<SchemaPlan>,
        handle: &Handle,
        op: TacticOp,
        fields: Vec<&'a str>,
        query: impl FnOnce(&mut dyn GatewayTactic) -> Result<Vec<CloudCall>, CoreError>,
        resolve: impl FnOnce(&dyn GatewayTactic, &[Vec<u8>]) -> Result<Vec<DocId>, CoreError> + 'a,
    ) -> Result<Search<'a>, CoreError> {
        let started = self.obs.start();
        let (calls, in_cloud) = {
            let mut tactic = lock(&handle.tactic);
            (query(tactic.as_mut())?, tactic.resolves_in_cloud())
        };
        let tactic = Arc::clone(&handle.tactic);
        Ok(Search {
            plan,
            tactic: handle.name.clone(),
            op,
            fields,
            calls,
            in_cloud,
            started,
            resolve: Box::new(move |answers| resolve(lock(&tactic).as_ref(), answers)),
        })
    }

    /// The ids a search resolves to: its calls in one round trip, then the
    /// tactic's resolve, then the query's observations.
    fn ids(&self, search: Search<'_>) -> Result<Vec<DocId>, CoreError> {
        let answers = self.read_calls(&search.calls)?;
        let ids = (search.resolve)(&answers)?;
        self.observe_query(&search.plan, search.started, search.op, &search.fields, &search.tactic);
        Ok(ids)
    }

    /// The documents a search names, decrypted: the one read helper of the
    /// `find_*` routes. A tactic that resolves in the cloud has its one call
    /// wrapped in a `doc/fetch`, and the cloud answers with the documents:
    /// one round trip. Any other search resolves its ids first and fetches
    /// them with `doc/get_many`: two. Either way the request carries the
    /// plan's keep list, and each document comes back by position onto it.
    fn documents(&self, search: Search<'_>) -> Result<Vec<Document>, CoreError> {
        let plan = Arc::clone(&search.plan);
        let collection = plan.schema.name.as_str();
        let keep = plan.keep.iter().map(|k| k.stored.as_str()).collect();
        let stored = match search.calls.as_slice() {
            [call] if search.in_cloud => {
                let req = Fetch { collection, keep, route: &call.route, payload: &call.payload };
                let stored = self.call(FETCH_ROUTE, &req.encode())?;
                self.observe_query(&plan, search.started, search.op, &search.fields, &search.tactic);
                stored
            }
            _ => {
                let ids = self.ids(search)?;
                if ids.is_empty() {
                    return Ok(Vec::new());
                }
                let hex: Vec<String> = ids.into_iter().map(DocId::to_hex).collect();
                let ids = hex.iter().map(String::as_bytes).collect();
                self.call("doc/get_many", &GetMany { collection, ids, keep }.encode())?
            }
        };
        plan.open_answer(&stored)
    }

    /// One query's observations: the `tactic.<name>.<op>` EWMA since
    /// `started`, and a leakage-audit cell per field the query touched.
    fn observe_query(&self, plan: &SchemaPlan, started: Option<Instant>, op: TacticOp, fields: &[&str], tactic: &str) {
        // `started` is set exactly when the recorder is enabled.
        let Some(t0) = started else { return };
        let (ewma, audit) = match op {
            TacticOp::EqQuery => (format!("tactic.{tactic}.eq_query"), "equality"),
            TacticOp::RangeQuery => (format!("tactic.{tactic}.range_query"), "range"),
            TacticOp::BoolQuery => (format!("tactic.{tactic}.bool_query"), "boolean"),
            TacticOp::Aggregate => (format!("tactic.{tactic}.aggregate"), "aggregate"),
            TacticOp::Init | TacticOp::Update => unreachable!("{op:?} is not a query"),
        };
        self.obs.ewma_observe(&ewma, t0.elapsed());
        for field in fields {
            self.audit_leakage(plan, field, op, audit, tactic);
        }
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
            Ok(g.insert_docs(schema_name, std::slice::from_ref(doc), None, BoolIndex::PerDocument)?[0])
        })
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
        self.observed("gateway.insert_many", |g| g.insert_docs(schema_name, docs, None, BoolIndex::PerDocument))
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
        self.observed("gateway.migrate", |g| g.insert_docs(schema_name, docs, None, BoolIndex::Bulk))
    }

    /// Validates every document, mints their ids unless `id` names the one
    /// document's, and ships them as one write group.
    fn insert_docs(
        &self,
        schema_name: &str,
        docs: &[Document],
        id: Option<DocId>,
        boolean: BoolIndex,
    ) -> Result<Vec<DocId>, CoreError> {
        let plan = self.plan(schema_name)?;
        for doc in docs {
            validate_document(&plan.schema, doc)?;
        }
        let ids: Vec<DocId> = match id {
            Some(id) => vec![id],
            None => {
                let mut idgen = self.idgen.lock().unwrap_or_else(PoisonError::into_inner);
                docs.iter().map(|_| idgen.generate()).collect()
            }
        };
        self.send_write_groups(&[&self.insert_group(&plan, docs, &ids, boolean)?])?;
        Ok(ids)
    }

    /// The write group inserting `docs` under `ids`: per document, the
    /// index updates of every protected field, then its `doc/insert`; with
    /// [`BoolIndex::Bulk`], the boolean tactic's static base last.
    ///
    /// # Determinism
    ///
    /// The output does not depend on whether, or on how many threads, a
    /// worker pool runs it:
    ///
    /// * Every RNG is forked up front under one lock, in document order:
    ///   per document, field (document field order) and tactic, then the
    ///   document's boolean fork; a bulk build's one fork after all of them.
    /// * Work is partitioned **per tactic instance**, and each partition is
    ///   one loop over `protect`, its items in document order, so
    ///   stateful chains (Mitra counters, Sophos chains) advance as a
    ///   document-at-a-time loop would. Distinct instances share no state,
    ///   so partitions compose in any schedule.
    /// * Items sit in one list in application order, doc-major, and each
    ///   keeps its own result, so the group is read back in that order.
    ///
    /// Items borrow the documents' names and values. Without a pool, or for
    /// one document, each partition runs in turn on the caller's thread;
    /// a pool's jobs own copies. Each stored document is encoded once,
    /// straight from its borrowed plain fields and the tactics' shadows.
    /// On failure nothing ships and the error returned is the first in
    /// application order, though later items may already have advanced
    /// local chain state — the tolerated run-ahead
    /// [`GatewayEngine::insert_many`] documents.
    fn insert_group(
        &self,
        plan: &SchemaPlan,
        docs: &[Document],
        ids: &[DocId],
        boolean: BoolIndex,
    ) -> Result<Vec<CloudCall>, CoreError> {
        let timing = self.obs.is_enabled();
        let mut partitions: Vec<&Handle> = Vec::new();
        let mut items: Vec<Item> = Vec::new();
        // Per document: where its items start in `items`, and its plain
        // fields in `plain`.
        let mut starts: Vec<(usize, usize)> = Vec::with_capacity(docs.len() + 1);
        let mut plain: Vec<(&str, &Value)> = Vec::new();
        // Each document's boolean literals, if it has some; indexed per
        // document, each also gets a fork, and a bulk build forks once.
        let mut entries: Vec<(Vec<(String, Value)>, DocId)> = Vec::new();
        let mut bool_rngs: Vec<(usize, StdRng)> = Vec::new();
        let mut bulk_rng = None;
        {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            for (d, (doc, id)) in docs.iter().zip(ids).enumerate() {
                starts.push((items.len(), plain.len()));
                let mut literals = Vec::new();
                for (field, value) in doc.iter() {
                    let Some(fp) = plan.fields.get(field) else {
                        plain.push((field, value));
                        continue;
                    };
                    for handle in &fp.writes {
                        let partition = match partitions.iter().position(|h| Arc::ptr_eq(&h.tactic, &handle.tactic)) {
                            Some(p) => p,
                            None => {
                                partitions.push(handle);
                                partitions.len() - 1
                            }
                        };
                        items.push(Item { partition, field, value, id: *id, rng: fork(&mut rng), out: None });
                    }
                    if fp.boolean && plan.bool_tactic.is_some() {
                        literals.push((field.to_string(), value.clone()));
                    }
                }
                if !literals.is_empty() {
                    if boolean == BoolIndex::PerDocument {
                        bool_rngs.push((d, fork(&mut rng)));
                    }
                    entries.push((literals, *id));
                }
            }
            starts.push((items.len(), plain.len()));
            if boolean == BoolIndex::Bulk && !entries.is_empty() {
                bulk_rng = Some(fork(&mut rng));
            }
        }

        let (took, bool_calls) = match &self.pool {
            Some(pool) if docs.len() > 1 => {
                self.protect_pooled(pool, plan, &partitions, &mut items, &mut entries, bool_rngs, timing)
            }
            _ => {
                let took = partitions.iter().enumerate().map(|(p, h)| protect_items(&h.tactic, &mut items, p, timing));
                let took = took.collect();
                let bt = plan.bool_tactic.as_ref();
                (took, bt.map_or_else(Vec::new, |bt| protect_documents(&bt.tactic, &entries, bool_rngs)))
            }
        };

        let mut bool_calls = bool_calls.into_iter().peekable();
        let mut group = Vec::new();
        for (d, id) in ids.iter().enumerate() {
            let ((first, plain_from), (end, plain_to)) = (starts[d], starts[d + 1]);
            let mut shadows = Vec::new();
            for item in &mut items[first..end] {
                let protected = item.out.take().expect("every item is protected")?;
                shadows.extend(protected.stored);
                group.extend(protected.index_calls);
                let name = &partitions[item.partition].name;
                if timing {
                    self.obs.ewma_observe(&format!("tactic.{name}.update"), took[item.partition]);
                }
                self.audit_leakage(plan, item.field, TacticOp::Update, "insert", name);
            }
            if let Some((_, calls)) = bool_calls.next_if(|(doc, _)| *doc == d) {
                group.extend(calls?);
            }
            let mut fields = plain[plain_from..plain_to].to_vec();
            fields.extend(shadows.iter().map(|(name, value)| (&**name, value)));
            group.push(CloudCall::new("doc/insert", document_payload(&plan.schema.name, &id.to_hex(), fields)));
        }
        if let (Some(bt), Some(mut rng)) = (&plan.bool_tactic, bulk_rng) {
            group.extend(lock(&bt.tactic).bulk_index(&mut rng, &entries)?);
        }
        Ok(group)
    }

    /// Runs [`GatewayEngine::insert_group`]'s partitions, and the boolean
    /// tactic's documents if `bool_rngs` holds any, as jobs on `pool`, and
    /// leaves each item's result in it. Jobs outlive no borrow, so each
    /// takes copies of its partition's items, and the boolean job takes
    /// `entries`. Returns each partition's per-item time share and the
    /// boolean calls.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn protect_pooled(
        &self,
        pool: &WorkerPool,
        plan: &SchemaPlan,
        partitions: &[&Handle],
        items: &mut [Item],
        entries: &mut Vec<(Vec<(String, Value)>, DocId)>,
        bool_rngs: Vec<(usize, StdRng)>,
        timing: bool,
    ) -> (Vec<Duration>, Vec<(usize, Result<Vec<CloudCall>, CoreError>)>) {
        let mut jobs: Vec<Box<dyn FnOnce() -> Done + Send>> = Vec::new();
        for (p, handle) in partitions.iter().enumerate() {
            let tactic = handle.tactic.clone();
            let owned: Vec<(String, Value, DocId, StdRng)> = items
                .iter()
                .filter(|it| it.partition == p)
                .map(|it| (it.field.to_string(), it.value.clone(), it.id, it.rng.clone()))
                .collect();
            jobs.push(Box::new(move || {
                let items = owned.iter().map(|(field, value, id, rng)| Item {
                    partition: 0,
                    field,
                    value,
                    id: *id,
                    rng: rng.clone(),
                    out: None,
                });
                let mut items: Vec<Item> = items.collect();
                let took = protect_items(&tactic, &mut items, 0, timing);
                Done::Fields(items.into_iter().map(|it| it.out.expect("every item is protected")).collect(), took)
            }));
        }
        if let (Some(bt), false) = (&plan.bool_tactic, bool_rngs.is_empty()) {
            let tactic = bt.tactic.clone();
            let entries = std::mem::take(entries);
            jobs.push(Box::new(move || Done::Boolean(protect_documents(&tactic, &entries, bool_rngs))));
        }
        self.obs.count("gateway.pool.jobs", jobs.len() as u64);
        // Queue depth at submission = the whole fan-out; the gauge captures
        // the high-water mark of this batch.
        self.obs.gauge_set("gateway.pool.queue_depth", jobs.len() as i64);
        let outputs = pool.run_ordered(jobs);
        self.obs.gauge_set("gateway.pool.queue_depth", pool.queue_depth());
        let (mut took, mut bool_calls) = (Vec::new(), Vec::new());
        for (p, done) in outputs.into_iter().enumerate() {
            match done {
                Done::Fields(outs, share) => {
                    for (it, out) in items.iter_mut().filter(|it| it.partition == p).zip(outs) {
                        it.out = Some(out);
                    }
                    took.push(share);
                }
                Done::Boolean(calls) => bool_calls = calls,
            }
        }
        (took, bool_calls)
    }

    /// Fetches and decrypts a document.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`], decryption failures.
    pub fn get(&self, schema_name: &str, id: DocId) -> Result<Document, CoreError> {
        self.observed("gateway.get", |g| {
            let plan = g.plan(schema_name)?;
            plan.recover_stored(&plan.payloads, id, &g.fetch_stored(schema_name, &id.to_hex())?)
        })
    }

    /// One stored document as the cloud holds it, still encoded.
    fn fetch_stored(&self, schema_name: &str, id: &str) -> Result<Vec<u8>, CoreError> {
        self.call("doc/get", &with_collection(schema_name, id.as_bytes()))
    }

    /// Every stored document as the cloud holds it, still encoded, with its
    /// id: the raw id list, then one `doc/get` each — not `get_many`, which
    /// silently skips missing documents and would hide orphans.
    fn stored_documents(&self, schema_name: &str) -> Result<Vec<(DocId, Vec<u8>)>, CoreError> {
        let ids = self.call("doc/list_ids", &with_collection(schema_name, b""))?;
        let ids = datablinder_codec::Reader::new(&ids).list()?;
        ids.into_iter()
            .map(|id| {
                let hex = std::str::from_utf8(id).map_err(|_| CoreError::Wire("utf8 id"))?;
                Ok((DocId::from_hex(hex).ok_or(CoreError::Wire("doc id"))?, self.fetch_stored(schema_name, hex)?))
            })
            .collect()
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
        let work = plan_field_work(&plan, &plaintext);
        let mut calls = Vec::new();
        for (field, value, fp) in &work {
            for handle in &fp.writes {
                calls.extend(lock(&handle.tactic).delete(field, value, id)?);
            }
        }
        let literals = bool_literals(&work);
        if let (Some(bt), false) = (&plan.bool_tactic, literals.is_empty()) {
            calls.extend(lock(&bt.tactic).delete_document(&literals, id)?);
        }
        // Revocations + the delete itself as one write group, mirroring
        // insert: an interrupted delete finishes on recovery.
        calls.push(CloudCall::new("doc/delete", with_collection(schema_name, id.to_hex().as_bytes())));
        self.send_write_groups(&[&calls])
    }

    /// Replaces a document (delete + insert under the same id).
    ///
    /// # Errors
    ///
    /// As [`GatewayEngine::delete`] and [`GatewayEngine::insert`].
    pub fn update(&self, schema_name: &str, id: DocId, doc: &Document) -> Result<(), CoreError> {
        self.observed("gateway.update", |g| {
            g.delete_inner(schema_name, id)?;
            g.insert_docs(schema_name, std::slice::from_ref(doc), Some(id), BoolIndex::PerDocument).map(drop)
        })
    }

    /// Equality search on one field, returning decrypted documents.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] if the field's annotation did
    /// not request equality.
    pub fn find_equal(&self, schema_name: &str, field: &str, value: &Value) -> Result<Vec<Document>, CoreError> {
        self.observed("gateway.find_equal", |g| g.documents(g.equality(schema_name, field, value)?))
    }

    /// Equality search on one field.
    fn equality<'a>(&self, schema_name: &str, field: &'a str, value: &'a Value) -> Result<Search<'a>, CoreError> {
        let plan = self.plan(schema_name)?;
        let fp = plan
            .fields
            .get(field)
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} is not annotated")))?;
        let handle = fp
            .eq
            .clone()
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} has no equality tactic")))?;
        self.search(
            plan,
            &handle,
            TacticOp::EqQuery,
            vec![field],
            |t| t.eq_query(field, value),
            move |t, answers| t.eq_resolve(field, value, answers),
        )
    }

    /// Boolean (DNF) search across fields, returning decrypted documents.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] when the touched fields have no
    /// common boolean capability.
    pub fn find_boolean(&self, schema_name: &str, dnf: &DnfLiterals) -> Result<Vec<Document>, CoreError> {
        self.observed("gateway.find_boolean", |g| g.documents(g.boolean(schema_name, dnf)?))
    }

    /// Boolean search across fields: the schema's boolean tactic when it
    /// serves every field, else each literal under its own field's DET key.
    fn boolean<'a>(&self, schema_name: &str, dnf: &'a DnfLiterals) -> Result<Search<'a>, CoreError> {
        let plan = self.plan(schema_name)?;
        let fields: Vec<&str> = dnf.iter().flatten().map(|(f, _)| f.as_str()).collect();
        let all_boolean = fields.iter().all(|f| plan.fields.get(*f).is_some_and(|p| p.boolean));
        if let (Some(bt), true) = (plan.bool_tactic.clone(), all_boolean) {
            return self.search(
                plan,
                &bt,
                TacticOp::BoolQuery,
                fields,
                |t| t.bool_query(dnf),
                move |t, answers| t.bool_resolve(dnf, answers),
            );
        }
        // Legacy-friendly path: fields protected by DET are boolean-combined
        // cloud-side, each literal rewritten under its own field's key. The
        // document store answers with the ids in the clear.
        let started = self.obs.start();
        let mut in_cloud = true;
        let mut rewritten: DnfLiterals = Vec::new();
        for conj in dnf {
            let mut out_conj = Vec::new();
            for (f, v) in conj {
                let det = plan.fields.get(f).and_then(|p| p.write_handle("det")).ok_or_else(|| {
                    CoreError::UnsupportedOperation(
                        "boolean search requires all fields to share a boolean-capable tactic".into(),
                    )
                })?;
                let det = lock(&det.tactic);
                in_cloud &= det.resolves_in_cloud();
                let lit = det
                    .stored_literal(f, v)
                    .ok_or_else(|| CoreError::UnsupportedOperation(format!("{f}: no stored literal")))?;
                out_conj.push(lit);
            }
            rewritten.push(out_conj);
        }
        let req = FindIdsDnf { collection: schema_name.to_string(), dnf: rewritten };
        Ok(Search {
            plan,
            tactic: "det".into(),
            op: TacticOp::BoolQuery,
            fields,
            calls: vec![CloudCall::new("doc/find_ids_dnf", req.encode())],
            in_cloud,
            started,
            resolve: Box::new(single_id_list),
        })
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
        self.observed("gateway.find_range", |g| g.documents(g.range(schema_name, field, lo, hi)?))
    }

    /// Range search on one field (inclusive bounds).
    fn range<'a>(
        &self,
        schema_name: &str,
        field: &'a str,
        lo: &'a Value,
        hi: &'a Value,
    ) -> Result<Search<'a>, CoreError> {
        let plan = self.plan(schema_name)?;
        let handle = plan
            .fields
            .get(field)
            .and_then(|p| p.range.clone())
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} has no range tactic")))?;
        self.search(
            plan,
            &handle,
            TacticOp::RangeQuery,
            vec![field],
            |t| t.range_query(field, lo, hi),
            |t, answers| t.range_resolve(answers),
        )
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
            let handle = plan
                .fields
                .get(field)
                .and_then(|p| p.agg.as_ref())
                .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} has no aggregate tactic")))?;
            let ids = match filter {
                None => Vec::new(),
                Some(dnf) => {
                    let ids = g.ids(g.boolean(schema_name, dnf)?)?;
                    if ids.is_empty() {
                        // To the cloud an empty id list is the whole collection.
                        return Ok(0.0);
                    }
                    ids
                }
            };
            g.ask(
                &plan,
                handle,
                TacticOp::Aggregate,
                &[field],
                |t| t.agg_query(field, agg, &ids),
                |t, answers| t.agg_resolve(agg, answers),
            )
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
            let tactic = plan.fields.get(field).and_then(|p| p.range.as_ref()).map(|h| h.name.as_str());
            if tactic != Some("ope") {
                return Err(CoreError::UnsupportedOperation(format!(
                    "min/max needs an order-preserving stored field; {field} has {tactic:?}"
                )));
            }
            let mut rest = vec![maximum as u8];
            rest.extend_from_slice(format!("{field}__ope").as_bytes());
            let out = g.call("doc/extreme", &with_collection(schema_name, &rest))?;
            if out.is_empty() {
                return Ok(None);
            }
            g.audit_leakage(&plan, field, TacticOp::RangeQuery, "extreme", "ope");
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
            let out = g.call("doc/count", &with_collection(schema_name, b""))?;
            out.try_into().map(u64::from_be_bytes).map_err(|_| CoreError::Wire("count response"))
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
    /// Decryption failures on corrupt data; channel failures. The KMS
    /// scope is rotated before the rewrite ships, one write group per
    /// megabyte of documents; a journaled gateway whose rewrite fails rolls
    /// the groups still pending forward with
    /// [`GatewayEngine::recover_pending`].
    pub fn rotate_payload_key(&self, schema_name: &str, field: &str) -> Result<u64, CoreError> {
        let plan = self.plan(schema_name)?;
        let fp = plan
            .fields
            .get(field)
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("field {field} is not annotated")))?;
        self.rotate(schema_name, field, &fp.selection.payload)
    }

    /// Rotates the key of a *stateful index* tactic (Mitra/Sophos) on one
    /// field and rebuilds the encrypted index from scratch: fresh chains
    /// under the new key, the old cloud scope dropped in the same write
    /// group that re-indexes every document.
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
        let tactic = plan.fields.get(field).and_then(|fp| fp.eq.as_ref()).map(|h| h.name.as_str());
        match tactic {
            Some(tactic @ ("mitra" | "sophos")) => self.rotate(schema_name, field, tactic),
            _ => Err(CoreError::UnsupportedOperation(format!("field {field} has no rotatable index tactic"))),
        }
    }

    /// Rotates the key of `tactic`, one of the tactics `field` is written
    /// through, and re-protects every stored value under the new version:
    ///
    /// 1. recovers every document's value (payload tactic),
    /// 2. rotates the KMS scope,
    /// 3. rebuilds the instance *into* the existing handle, so the plan and
    ///    every other holder of it use the new key from here on,
    /// 4. re-protects every value in one `protect` loop, its RNGs forked
    ///    after the rebuild's draw,
    /// 5. ships the rewrite as write groups: an index tactic's old cloud
    ///    scope dropped (`t/<tactic>/<schema>:<scope>/`, the prefix the
    ///    cloud handlers use) in one group with every index call, so no
    ///    search sees the index wiped but not rebuilt; a payload tactic's
    ///    document updates in groups of at most [`REWRITE_GROUP_BYTES`], so
    ///    a large collection stays under the transport's frame cap.
    fn rotate(&self, schema_name: &str, field: &str, tactic: &str) -> Result<u64, CoreError> {
        let plan = self.plan(schema_name)?;
        let row = plan.payload_of(field)?;
        let handle =
            plan.fields[field].write_handle(tactic).expect("a rotated tactic is one the field is written through");
        let mut recovered = Vec::new();
        for (id, stored) in self.stored_documents(schema_name)? {
            if let Some(value) = plan.recover_stored(std::slice::from_ref(row), id, &stored)?.remove(field) {
                recovered.push((id, value, stored));
            }
        }

        let ctx = self.context(schema_name, field);
        let version = self.kms.rotate(&ctx.key_scope(tactic));
        *lock(&handle.tactic) = self.build_tactic(tactic, &ctx)?;

        let mut items: Vec<Item> = {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            let items = recovered.iter().map(|(id, value, _)| (id, value, fork(&mut rng)));
            items.map(|(id, value, rng)| Item { partition: 0, field, value, id: *id, rng, out: None }).collect()
        };
        protect_items(&handle.tactic, &mut items, 0, false);
        let results = items.into_iter().map(|it| it.out.expect("every item is protected"));

        let (mut index, mut updates) = (Vec::new(), Vec::new());
        if tactic != plan.fields[field].selection.payload {
            index.push(CloudCall::new("kv/del_prefix", format!("t/{tactic}/{schema_name}:{field}/").into_bytes()));
        }
        for ((_, _, stored), result) in recovered.iter().zip(results) {
            let protected = result?;
            index.extend(protected.index_calls);
            if !protected.stored.is_empty() {
                let mut doc = decode_document(stored)?;
                for (f, v) in protected.stored {
                    doc.set(f, v);
                }
                updates.push(CloudCall::new("doc/update", with_collection(schema_name, &encode_document(&doc))));
            }
        }
        let mut groups = vec![&index[..]];
        groups.extend(bounded_groups(&updates));
        self.send_write_groups(&groups)?;
        Ok(version)
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
        let plan = self.plan(schema_name)?;
        let has_bool = plan.bool_tactic.is_some();
        let mut field_plans: Vec<(String, bool, bool, bool)> = plan
            .fields
            .iter()
            .map(|(f, fp)| (f.clone(), fp.eq.is_some(), fp.range.is_some(), fp.boolean && has_bool))
            .collect();
        field_plans.sort_by(|a, b| a.0.cmp(&b.0));

        let mut stored_ids: Vec<DocId> = Vec::new();
        let mut plaintext: Vec<(DocId, Document)> = Vec::new();
        for (id, stored) in self.stored_documents(schema_name)? {
            plaintext.push((id, plan.recover_stored(&plan.payloads, id, &stored)?));
            stored_ids.push(id);
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
                    let got = self.ids(self.equality(schema_name, &field, value)?)?;
                    check("eq", &got, &mut report);
                }
                if range {
                    let got = self.ids(self.range(schema_name, &field, value, value)?)?;
                    check("range", &got, &mut report);
                }
                if boolean {
                    let dnf = vec![vec![(field.clone(), value.clone())]];
                    let got = self.ids(self.boolean(schema_name, &dnf)?)?;
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

/// One search with its calls built and not yet sent. The `find_*` routes
/// take the documents it names ([`GatewayEngine::documents`]); fsck and
/// filtered aggregates take its raw ids ([`GatewayEngine::ids`]), which
/// include ids that name no stored document — `get_many` skips those.
struct Search<'a> {
    plan: Arc<SchemaPlan>,
    /// The answering tactic's name, for its EWMA and ledger cells.
    tactic: String,
    op: TacticOp,
    fields: Vec<&'a str>,
    calls: Vec<CloudCall>,
    /// Whether the tactic resolves in the cloud
    /// ([`GatewayTactic::resolves_in_cloud`]).
    in_cloud: bool,
    /// When the search began, when the recorder is enabled.
    started: Option<Instant>,
    /// The tactic's resolve, over the calls' answers.
    resolve: Resolve<'a>,
}

/// A search's resolve: its calls' answers to the ids they name.
type Resolve<'a> = Box<dyn FnOnce(&[Vec<u8>]) -> Result<Vec<DocId>, CoreError> + 'a>;

/// How [`GatewayEngine::insert_group`] indexes documents for the schema's
/// shared boolean tactic.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BoolIndex {
    /// Chains each document into the dynamic overlay (`protect_document`).
    PerDocument,
    /// Builds the static base over the whole batch (`bulk_index`), as a
    /// migration does.
    Bulk,
}

/// One field value to protect, borrowed from its document, with the RNG
/// forked for it, the partition (tactic instance) that protects it, and,
/// once protected, its result.
struct Item<'a> {
    partition: usize,
    field: &'a str,
    value: &'a Value,
    id: DocId,
    rng: StdRng,
    out: Option<Result<ProtectedField, CoreError>>,
}

/// What one pool job of [`GatewayEngine::protect_pooled`] produced.
enum Done {
    /// A partition's results, in item order, with each item's share of the
    /// partition's time.
    Fields(Vec<Result<ProtectedField, CoreError>>, Duration),
    /// Each indexed document's boolean index calls.
    Boolean(Vec<(usize, Result<Vec<CloudCall>, CoreError>)>),
}

/// Protects the items of `partition` in order under one hold of the
/// instance lock, each through `protect` with its own forked RNG, and
/// leaves each result in its item. Returns each item's share of the loop
/// when `timed`, zero otherwise.
fn protect_items(tactic: &SharedTactic, items: &mut [Item], partition: usize, timed: bool) -> Duration {
    let mut tactic = lock(tactic);
    let t0 = timed.then(Instant::now);
    let mut n = 0;
    for it in items.iter_mut().filter(|it| it.partition == partition) {
        it.out = Some(tactic.protect(&mut it.rng, it.field, it.value, it.id));
        n += 1;
    }
    t0.map_or(Duration::ZERO, |t0| t0.elapsed() / n.max(1))
}

/// Indexes each document of `entries` through the boolean tactic's
/// `protect_document`, under one hold of its lock, with the RNG `rngs`
/// forked for it; nothing when `rngs` is empty (a bulk build).
fn protect_documents(
    tactic: &SharedTactic,
    entries: &[(Vec<(String, Value)>, DocId)],
    rngs: Vec<(usize, StdRng)>,
) -> Vec<(usize, Result<Vec<CloudCall>, CoreError>)> {
    if rngs.is_empty() {
        return Vec::new();
    }
    let mut t = lock(tactic);
    let docs = entries.iter().zip(rngs);
    docs.map(|((literals, id), (doc, mut rng))| (doc, t.protect_document(&mut rng, literals, *id))).collect()
}

/// The annotated fields of a document with their plans, in document field
/// order — the canonical application order.
fn plan_field_work<'a>(plan: &'a SchemaPlan, doc: &'a Document) -> Vec<(&'a str, &'a Value, &'a FieldPlan)> {
    doc.iter().filter_map(|(field, value)| plan.fields.get(field).map(|fp| (field, value, fp))).collect()
}

/// The literals of `work` the shared boolean tactic indexes.
fn bool_literals(work: &[(&str, &Value, &FieldPlan)]) -> Vec<(String, Value)> {
    work.iter().filter(|(_, _, fp)| fp.boolean).map(|(f, v, _)| (f.to_string(), (*v).clone())).collect()
}
