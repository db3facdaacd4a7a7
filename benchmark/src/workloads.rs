//! The four workloads and the one run skeleton they share.
//!
//! Load is a closed loop: an application thread in the trusted zone calls
//! the gateway and waits for the reply. A run is [`ROUNDS`] equal rounds. In
//! every round a workload runs a slice of its own characteristic mix (the
//! *main window*), probes each operation kind the mix leaves out, bulk-loads
//! a few batches, and reopens a second, fixed stack of the same kind (the
//! *fixture*) from disk; every fifth round it also builds that fixture anew.
//! So every workload reports every end-to-end metric through its own
//! transport and backend, every metric has one value per round, and the
//! reported value is that of a quiet round ([`typical`]). Rounds are bounded
//! by frozen operation counts that scale with `--seconds`, not by time, so
//! the work is identical from run to run. README.md says why.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::corpus::{
    bulk_schema, expected_probe_selection, expected_selection, live_obs, main_schema, patient_name, probe_schema,
    Corpus, Obs, Prng, SchemaKind, BULK, CODES, MAIN, PROBE, STATUSES,
};
use crate::host;
use crate::kernels;
use crate::metrics::{Values, RUN_SECONDS};
use crate::sut::{self, dir_bytes, plain_bytes, Backend, DocId, Document, Link, Stack, StackSpec, Value};
use crate::trace::{self, Breakdown, Name, Tracer};

/// Operation kinds, in the order of the `op.*` span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Eq,
    Bool,
    Range,
    Aggregate,
    Get,
}

const KINDS: [Kind; 6] = [Kind::Insert, Kind::Eq, Kind::Bool, Kind::Range, Kind::Aggregate, Kind::Get];
const KIND_NAMES: [&str; 6] = ["insert", "eq", "bool", "range", "aggregate", "get"];
const OP_NAMES: [Name; 6] = [Name::OpInsert, Name::OpEq, Name::OpBool, Name::OpRange, Name::OpAggregate, Name::OpGet];

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub schema: SchemaKind,
    pub link: Link,
    pub backend: Backend,
    pub preload_docs: usize,
    pub patients: usize,
    /// Preload with `migrate` (static BIEX index) instead of `insert_many`.
    pub migrate: bool,
    /// The main window's mix, cycled by the client.
    pub mix: &'static [Kind],
    /// Operations of the main window and of each probe (indexed by [`Kind`];
    /// unused for kinds in the mix), and `insert_many` batches, all rounds
    /// together, at `--seconds` = [`RUN_SECONDS`]. The counts
    /// scale with `--seconds`; they were calibrated once on the 2-core
    /// reference host so that a run measures for about that long, and are
    /// frozen so that the work is identical from run to run.
    pub main_ops: usize,
    pub probe_ops: [usize; 6],
    pub batches: usize,
}

const CLUSTER: Backend = Backend::Cluster { nodes: 5, replication: 3, write_quorum: 2 };

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "paper_mix",
        why: "The paper's Fig. 5 mix (insert : find_equal : Paillier average = 1 : 1 : 1, 1 client, census schema): big-integer crypto does >90% of the work; socket and cluster do none",
        schema: SchemaKind::Census,
        link: Link::Instant,
        backend: Backend::Engine,
        preload_docs: 2_048,
        patients: 512,
        migrate: false,
        mix: &[Kind::Insert, Kind::Eq, Kind::Aggregate],
        main_ops: 768,
        probe_ops: [0, 0, 6_400, 1_920, 0, 32_000],
        batches: 32,
    },
    Spec {
        name: "search_tcp",
        why: "Read-only FHIR-schema searches (equality : boolean : range = 2 : 1 : 1), 1 client over a loopback socket: SSE/OPE tokens, index lookups, fetch-and-decrypt of 16-64 documents, a kernel socket per hop",
        schema: SchemaKind::Fhir,
        link: Link::Tcp,
        backend: Backend::Engine,
        preload_docs: 2_048,
        patients: 128,
        migrate: true,
        mix: &[Kind::Eq, Kind::Bool, Kind::Eq, Kind::Range],
        main_ops: 8_192,
        probe_ops: [768, 0, 0, 0, 160, 16_000],
        batches: 32,
    },
    Spec {
        name: "ingest_durable",
        why: "Write-only single inserts, 1 client, symmetric-only schema, durable engine: symmetric crypto, encoding, cloud apply, WAL group commit and snapshot compaction; no reads, no big-integer crypto",
        schema: SchemaKind::Lean,
        link: Link::Instant,
        backend: Backend::Engine,
        preload_docs: 4_096,
        patients: 1_024,
        migrate: false,
        mix: &[Kind::Insert],
        main_ops: 65_536,
        probe_ops: [0, 6_400, 6_400, 1_920, 320, 32_000],
        batches: 512,
    },
    Spec {
        name: "cluster_mix",
        why: "insert : get : find_equal = 1 : 1 : 1, 1 client, 5-node cluster (R=3, W=2): quorum fan-out, idempotent envelopes and scatter-gather reads dominate; crypto is cheap, no socket",
        schema: SchemaKind::Lean,
        link: Link::Instant,
        backend: CLUSTER,
        preload_docs: 4_096,
        patients: 1_024,
        migrate: false,
        mix: &[Kind::Insert, Kind::Get, Kind::Eq],
        main_ops: 73_728,
        probe_ops: [0, 0, 3_200, 1_280, 320, 0],
        batches: 192,
    },
];

/// Equal rounds a run is cut into; every metric has one value per round.
const ROUNDS: usize = 16;
/// A client issues its mix in runs of this many operations of a kind (16
/// inserts, 16 lookups, 16 averages, ...), so that what an operation costs
/// is what its kind costs, not what the kind before it left in the caches.
/// Issued one by one, the insert of `paper_mix` always followed a 30 ms
/// Paillier scan and measured the host's memory more than the product: over
/// six runs of one seed the scan itself moved by 8 %, the insert's median
/// by 40 % (84 to 119 us). It is also the Paillier pool's refill period, so
/// a whole cycle of the mix carries whole refills.
const MIX_RUN: usize = 16;
/// The fixture is built anew in every round whose index divides by this.
const SETUP_EVERY: usize = 5;
const BATCH: usize = 64;
const PROBE_DOCS: usize = 256;
const PROBE_PATIENTS: usize = 32;
/// `effective` slots (= documents) one range query covers: about 30 days
/// on the 2,048 documents of `search_tcp`.
const RANGE_SLOTS: usize = 24;
/// Documents written after a checkpoint, so that a directory is a snapshot
/// plus a WAL tail of fixed length whatever the run's speed.
const TAIL_DOCS: usize = 512;
const FIXTURE_TAIL_DOCS: usize = 128;
/// Quiescent full-content checks per kind after the timed rounds.
const VERIFY_OPS: usize = 16;
/// Ids read back after the reopen.
const READBACK_IDS: usize = 1_000;
/// Slice length of the traced / untraced alternation.
const TRACE_SLICE: Duration = Duration::from_millis(20);
const LIVE_FIRST_PATIENT: usize = 1_000_000;

/// Everything derived from `--seed` before any window opens.
struct Inputs {
    corpus: Corpus,
    probe: Corpus,
    documents: Vec<Document>,
    probe_documents: Vec<Document>,
    preload_plain_bytes: u64,
}

impl Inputs {
    fn generate(spec: &Spec, seed: u64, scale: usize) -> Inputs {
        let mut rng = Prng::new(seed ^ 0xC0_4B05);
        // Answer sizes are exact when the (status, code) pairs and the
        // patients both divide the document count; `--quick` keeps that.
        let docs = ((spec.preload_docs / scale) / 32 * 32).max(64);
        let patients = (1..=(spec.patients / scale).max(1)).rev().find(|p| docs.is_multiple_of(*p)).unwrap_or(1);
        let corpus = Corpus::generate(&mut rng, docs, patients, 0);
        let probe = Corpus::generate(&mut rng, PROBE_DOCS, PROBE_PATIENTS, 5_000_000);
        let documents: Vec<Document> = corpus.docs.iter().map(Obs::document).collect();
        let probe_documents: Vec<Document> = probe.docs.iter().map(Obs::document).collect();
        let preload_plain_bytes = documents.iter().chain(&probe_documents).map(|d| plain_bytes(d) as u64).sum();
        Inputs { corpus, probe, documents, probe_documents, preload_plain_bytes }
    }
}

/// Where a read is served: the workload's own collection if its mix has the
/// kind, the probe collection otherwise.
fn served_by_probe(spec: &Spec, kind: Kind) -> bool {
    kind != Kind::Insert && !spec.mix.contains(&kind)
}

/// Where single inserts go: the workload's own collection if they are part
/// of its mix, the bulk collection (same annotations) if they are a probe.
fn insert_home(spec: &Spec) -> &'static str {
    if spec.mix.contains(&Kind::Insert) {
        MAIN
    } else {
        BULK
    }
}

struct Loaded {
    stack: Stack,
    /// Document ids of the two preloaded corpora, by corpus index.
    ids: Vec<DocId>,
    probe_ids: Vec<DocId>,
}

fn set_up(
    spec: &Spec,
    backend: Backend,
    inputs: &Inputs,
    dir: Option<&Path>,
    tracer: Option<Arc<Tracer>>,
) -> Result<Loaded, String> {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let stack = Stack::build(StackSpec {
        schemas: vec![main_schema(spec.schema), bulk_schema(spec.schema), probe_schema()],
        link: spec.link,
        backend,
        dir: dir.map(Path::to_path_buf),
        snapshot_every: Some(50_000),
        tracer,
    })?;
    // If selection drifts the workload measures something else: abort.
    for (collection, expected) in [
        (MAIN, expected_selection(spec.schema)),
        (BULK, expected_selection(spec.schema)),
        (PROBE, expected_probe_selection()),
    ] {
        for (field, want) in expected {
            let got = stack.selection(collection, field);
            if got != want {
                return Err(format!(
                    "tactic selection drifted for {collection}.{field}: expected {want:?}, got {got:?}"
                ));
            }
        }
    }
    let mut ids = Vec::with_capacity(inputs.documents.len());
    if spec.migrate {
        ids = stack.migrate(MAIN, &inputs.documents)?;
    } else {
        for chunk in inputs.documents.chunks(BATCH) {
            ids.extend(stack.insert_many(MAIN, chunk)?);
        }
    }
    let mut probe_ids = Vec::with_capacity(inputs.probe_documents.len());
    for chunk in inputs.probe_documents.chunks(BATCH) {
        probe_ids.extend(stack.insert_many(PROBE, chunk)?);
    }
    Ok(Loaded { stack, ids, probe_ids })
}

/// A second stack of the same workload in a directory of its own, which no
/// timed operation touches: set-up, a checkpoint, a fixed tail of single
/// inserts, shutdown. Building it is `setup_s`; opening its cloud from disk
/// is `recovery_s`. The main stack can serve for neither: it is built once,
/// and the directory it leaves grows with every round, whereas the fixture
/// is the same whenever it is measured, so both metrics have samples spread
/// over the whole run like every other.
struct Fixture {
    stack: Stack,
    setup_s: f64,
}

impl Fixture {
    fn build(spec: &Spec, inputs: &Inputs, dir: &Path, scale: usize) -> Result<Fixture, String> {
        let t0 = Instant::now();
        let Loaded { mut stack, .. } = set_up(spec, spec.backend, inputs, Some(dir), None)?;
        let setup_s = t0.elapsed().as_secs_f64();
        stack.checkpoint()?;
        let mut rng = Prng::new(0xF1C5);
        for serial in 0..FIXTURE_TAIL_DOCS / scale {
            stack.insert(MAIN, &live_obs(&mut rng, serial, LIVE_FIRST_PATIENT).document())?;
        }
        stack.shutdown_cloud();
        Ok(Fixture { stack, setup_s })
    }

    /// Opens the cloud from the fixture's directory and shuts it down again.
    fn reopen(&mut self) -> Result<f64, String> {
        let reopen = self.stack.reopen_cloud()?;
        self.stack.shutdown_cloud();
        Ok(reopen.seconds)
    }
}

/// Latency samples by kind, in client-then-time order; `traced` holds the
/// operations that ran with spans on (traced runs only).
#[derive(Default)]
struct Samples {
    plain: [Vec<u64>; 6],
    traced: [Vec<u64>; 6],
}

impl Samples {
    fn absorb(&mut self, other: &mut Samples) {
        for k in 0..6 {
            self.plain[k].append(&mut other.plain[k]);
            self.traced[k].append(&mut other.traced[k]);
        }
    }

    fn all(&self, kind: Kind) -> Vec<u64> {
        let k = kind as usize;
        self.plain[k].iter().chain(&self.traced[k]).copied().collect()
    }

    fn ops(&self) -> usize {
        (0..6).map(|k| self.plain[k].len() + self.traced[k].len()).sum()
    }
}

fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3
}

fn quantile_us(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64 / 1e3
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else { return 0.0 };
    let at = last as f64 * q;
    let below = sorted[at.floor() as usize];
    below + (sorted[at.ceil() as usize] - below) * at.fract()
}

/// The value of a quiet round: the quartile of the per-round values on the
/// better side, the lower one of a time and the upper one of a rate. What
/// the product does in every round (a Paillier pool refill every 16
/// encryptions, a WAL flush) is in every round's value and so in the
/// result. What the host or a rare event adds to some rounds (a neighbour
/// taking the core, a snapshot being written) is not, as long as a third of
/// the rounds are quiet; a median gives way when half of them are not, which
/// on a shared host happens.
pub fn typical(per_round: &[f64], higher_is_better: bool) -> f64 {
    quantile(per_round, if higher_is_better { 0.75 } else { 0.25 })
}

/// The [`typical`] mean of samples that are not cut into rounds: of
/// [`ROUNDS`] consecutive blocks (of whole pool refills, if that long).
fn typical_mean_us(ns: &[u64]) -> f64 {
    let block = (ns.len() / ROUNDS).max(1);
    let block = if block >= 2 * MIX_RUN { block / MIX_RUN * MIX_RUN } else { block };
    let means: Vec<f64> = ns.chunks_exact(block).map(mean_us).collect();
    typical(&means, false)
}

/// One closed-loop client. It lives for the whole run so that document
/// serials, acknowledged ids and failure counts carry across phases.
struct Client {
    index: usize,
    rng: Prng,
    next_serial: usize,
    samples: Samples,
    attempted: u64,
    failed: u64,
    /// Acknowledged live inserts: collection, id and plaintext identifier.
    acked: Vec<(&'static str, DocId, i64)>,
    /// Of those, the ones in the workload's own collection, and their values.
    acked_main: usize,
    acked_main_value_tenths: i64,
    acked_plain_bytes: u64,
    longest_insert_ns: u64,
    first_failure: Option<String>,
}

/// What a client needs to issue and check operations.
struct Ctx<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    loaded: &'a Loaded,
    tracer: Option<&'a Tracer>,
    /// The exact average of the main collection when no writer is active.
    quiescent_main_average: Option<f64>,
}

impl Client {
    fn new(index: usize, seed: u64) -> Client {
        Client {
            index,
            rng: Prng::new(seed ^ (0xC11E_4700 + index as u64)),
            next_serial: 0,
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            acked: Vec::new(),
            acked_main: 0,
            acked_main_value_tenths: 0,
            acked_plain_bytes: 0,
            longest_insert_ns: 0,
            first_failure: None,
        }
    }

    fn next_live(&mut self) -> Obs {
        let serial = self.index * 10_000_000 + self.next_serial;
        self.next_serial += 1;
        live_obs(&mut self.rng, serial, LIVE_FIRST_PATIENT)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    fn acknowledge(&mut self, collection: &'static str, id: DocId, obs: &Obs, doc: &Document) {
        self.acked.push((collection, id, obs.identifier));
        if collection == MAIN {
            self.acked_main += 1;
            self.acked_main_value_tenths += obs.value_tenths;
        }
        self.acked_plain_bytes += plain_bytes(doc) as u64;
    }

    /// Issues one operation, times it, and checks the answer's size.
    fn step(&mut self, ctx: &Ctx<'_>, kind: Kind) {
        let stack = &ctx.loaded.stack;
        let on_probe = served_by_probe(ctx.spec, kind);
        let (collection, corpus, ids) = if on_probe {
            (PROBE, &ctx.inputs.probe, &ctx.loaded.probe_ids)
        } else {
            (MAIN, &ctx.inputs.corpus, &ctx.loaded.ids)
        };
        let name = OP_NAMES[kind as usize];
        self.attempted += 1;
        let (timing, outcome): (Timing, Result<(), String>) = match kind {
            Kind::Insert => {
                let obs = self.next_live();
                let doc = obs.document();
                let home = insert_home(ctx.spec);
                let (timing, result) = timed(ctx.tracer, name, || stack.insert(home, &doc));
                self.longest_insert_ns = self.longest_insert_ns.max(timing.ns);
                (timing, result.map(|id| self.acknowledge(home, id, &obs, &doc)))
            }
            Kind::Eq => {
                let subject = Value::from(patient_name(self.rng.below(corpus.patients)));
                let want = corpus.docs.len() / corpus.patients;
                let (timing, found) = timed(ctx.tracer, name, || stack.find_equal(collection, "subject", &subject));
                (timing, found.and_then(|docs| expect_len("find_equal", docs.len(), want)))
            }
            Kind::Bool => {
                let literals = [
                    ("status", Value::from(STATUSES[self.rng.below(STATUSES.len())])),
                    ("code", Value::from(CODES[self.rng.below(CODES.len())])),
                ];
                let want = corpus.docs.len() / (STATUSES.len() * CODES.len());
                let (timing, found) = timed(ctx.tracer, name, || stack.find_all_of(collection, &literals));
                (timing, found.and_then(|docs| expect_len("find_boolean", docs.len(), want)))
            }
            Kind::Range => {
                let (lo, hi) = corpus.slot_window(self.rng.below(corpus.docs.len() - RANGE_SLOTS + 1), RANGE_SLOTS);
                let (timing, found) = timed(ctx.tracer, name, || stack.find_range(collection, "effective", lo, hi));
                (timing, found.and_then(|docs| expect_len("find_range", docs.len(), RANGE_SLOTS)))
            }
            Kind::Aggregate => {
                let exact = if on_probe {
                    Some(corpus.value_sum_tenths() as f64 / 10.0 / corpus.docs.len() as f64)
                } else {
                    ctx.quiescent_main_average
                };
                let (timing, average) = timed(ctx.tracer, name, || stack.average(collection, "value"));
                let checked = average.and_then(|avg| match exact {
                    Some(want) if (avg - want).abs() >= 0.01 => Err(format!("average {avg}, oracle {want}")),
                    None if !(3.5..=153.5).contains(&avg) => Err(format!("average {avg} outside the value domain")),
                    _ => Ok(()),
                });
                (timing, checked)
            }
            Kind::Get => {
                let i = self.rng.below(ids.len());
                let want = corpus.docs[i].identifier;
                let (timing, got) = timed(ctx.tracer, name, || stack.get(collection, ids[i]));
                let checked = got.and_then(|doc| match doc.get("identifier") {
                    Some(v) if v.as_i64() == Some(want) => Ok(()),
                    other => Err(format!("get returned identifier {other:?}, oracle {want}")),
                });
                (timing, checked)
            }
        };
        let by_kind = if timing.traced { &mut self.samples.traced } else { &mut self.samples.plain };
        by_kind[kind as usize].push(timing.ns);
        if let Err(e) = outcome {
            self.fail(format!("{}: {e}", KIND_NAMES[kind as usize]));
        }
    }

    /// One `insert_many` of [`BATCH`] live documents; returns the seconds taken.
    fn batch(&mut self, ctx: &Ctx<'_>) -> f64 {
        let observations: Vec<Obs> = (0..BATCH).map(|_| self.next_live()).collect();
        let docs: Vec<Document> = observations.iter().map(Obs::document).collect();
        self.attempted += 1;
        let (timing, result) = timed(ctx.tracer, Name::OpBatch, || ctx.loaded.stack.insert_many(BULK, &docs));
        let seconds = timing.ns as f64 / 1e9;
        match result {
            Ok(ids) if ids.len() == docs.len() => {
                for ((id, obs), doc) in ids.into_iter().zip(&observations).zip(&docs) {
                    self.acknowledge(BULK, id, obs, doc);
                }
            }
            Ok(ids) => self.fail(format!("insert_many acknowledged {} of {} documents", ids.len(), docs.len())),
            Err(e) => self.fail(format!("insert_many: {e}")),
        }
        seconds
    }
}

/// How long one call into the gateway took, and whether it ran with spans on.
struct Timing {
    ns: u64,
    traced: bool,
}

/// Times one call into the gateway, under an `op.*` span if this slice of
/// the run is traced.
fn timed<T>(tracer: Option<&Tracer>, name: Name, call: impl FnOnce() -> T) -> (Timing, T) {
    let tracer = tracer.filter(|t| t.slice_is_traced());
    let open = tracer.map(|t| t.open_op(name));
    let started = Instant::now();
    let out = call();
    let ns = started.elapsed().as_nanos() as u64;
    if let (Some(t), Some(open)) = (tracer, open) {
        t.close(open);
    }
    (Timing { ns, traced: tracer.is_some() }, out)
}

fn expect_len(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} returned {got} documents, oracle {want}"))
    }
}

/// What one timed phase did.
#[derive(Default)]
struct Phase {
    samples: Samples,
    seconds: f64,
    /// Round trips, bytes sent, bytes received, retries during the phase.
    wire: [u64; 4],
}

impl Phase {
    /// Completed operations over the time from the first client's start to
    /// the last one's end.
    fn ops_per_s(&self) -> f64 {
        self.samples.ops() as f64 / self.seconds
    }

    /// Adds another slice of the same phase.
    fn absorb(&mut self, slice: &mut Phase) {
        self.samples.absorb(&mut slice.samples);
        self.seconds += slice.seconds;
        for (total, part) in self.wire.iter_mut().zip(slice.wire) {
            *total += part;
        }
    }
}

/// Runs `clients` closed loops over `mix`, `ops` operations in all (each
/// client does its equal share), giving up at `cap` on a host too slow for
/// the frozen counts.
fn run_phase(ctx: &Ctx<'_>, clients: &mut [Client], mix: &[Kind], ops: usize, cap: Duration) -> Phase {
    let wire_before = ctx.loaded.stack.wire();
    let per_client = ops.div_ceil(clients.len()).max(1);
    let barrier = Barrier::new(clients.len());
    // From the first client's start to the last one's end.
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    for i in 0..per_client {
                        client.step(ctx, mix[(i / MIX_RUN + client.index) % mix.len()]);
                        if i % 64 == 63 && started.elapsed() >= cap {
                            break;
                        }
                    }
                    (started, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let started = spans.iter().map(|s| s.0).min().expect("at least one client");
    let finished = spans.iter().map(|s| s.1).max().expect("at least one client");
    let wire_after = ctx.loaded.stack.wire();
    let mut samples = Samples::default();
    for c in clients.iter_mut() {
        samples.absorb(&mut c.samples);
    }
    Phase {
        samples,
        seconds: finished.duration_since(started).as_secs_f64(),
        wire: std::array::from_fn(|i| wire_after[i] - wire_before[i]),
    }
}

fn identifiers(docs: &[Document]) -> BTreeSet<i64> {
    docs.iter().filter_map(|d| d.get("identifier").and_then(Value::as_i64)).collect()
}

/// Every field of every returned document equals the oracle's.
fn same_content(returned: &[Document], corpus: &Corpus, want: &BTreeSet<i64>) -> Result<(), String> {
    let got = identifiers(returned);
    if &got != want || returned.len() != want.len() {
        return Err(format!("returned identifiers {got:?}, oracle {want:?}"));
    }
    let first = corpus.docs[0].identifier;
    for doc in returned {
        let identifier = doc.get("identifier").and_then(Value::as_i64).expect("checked above");
        for (field, value) in corpus.docs[(identifier - first) as usize].document().iter() {
            if doc.get(field) != Some(value) {
                return Err(format!("document {identifier}: field {field} is {:?}, oracle {value:?}", doc.get(field)));
            }
        }
    }
    Ok(())
}

/// Quiescent checks of full decrypted content, [`VERIFY_OPS`] per kind.
fn verify_content(ctx: &Ctx<'_>, client: &mut Client) {
    let stack = &ctx.loaded.stack;
    let corpus = &ctx.inputs.corpus;
    let check = |client: &mut Client, what: &str, outcome: Result<(), String>| {
        client.attempted += 1;
        if let Err(e) = outcome {
            client.fail(format!("content check, {what}: {e}"));
        }
    };
    for _ in 0..VERIFY_OPS {
        let patient = client.rng.below(corpus.patients);
        let outcome = stack
            .find_equal(MAIN, "subject", &Value::from(patient_name(patient)))
            .and_then(|docs| same_content(&docs, corpus, &corpus.identifiers_of_patient(patient)));
        check(client, "find_equal", outcome);

        let (status, code) = (STATUSES[client.rng.below(4)], CODES[client.rng.below(8)]);
        let outcome = stack
            .find_all_of(MAIN, &[("status", Value::from(status)), ("code", Value::from(code))])
            .and_then(|docs| same_content(&docs, corpus, &corpus.identifiers_of_pair(status, code)));
        check(client, "find_boolean", outcome);

        let on_probe = served_by_probe(ctx.spec, Kind::Range);
        let (collection, ranged) = if on_probe { (PROBE, &ctx.inputs.probe) } else { (MAIN, corpus) };
        let first_slot = client.rng.below(ranged.docs.len() - RANGE_SLOTS + 1);
        let (lo, hi) = ranged.slot_window(first_slot, RANGE_SLOTS);
        let outcome = stack
            .find_range(collection, "effective", lo, hi)
            .and_then(|docs| same_content(&docs, ranged, &ranged.identifiers_in_slots(first_slot, RANGE_SLOTS)));
        check(client, "find_range", outcome);

        let i = client.rng.below(ctx.loaded.ids.len());
        let want = BTreeSet::from([corpus.docs[i].identifier]);
        let outcome = stack.get(MAIN, ctx.loaded.ids[i]).and_then(|doc| same_content(&[doc], corpus, &want));
        check(client, "get", outcome);
    }
    for _ in 0..3 {
        client.step(ctx, Kind::Aggregate);
        client.samples = Samples::default();
    }
}

/// The exact average of the main collection, given everything acknowledged.
fn main_average(inputs: &Inputs, clients: &[Client]) -> f64 {
    let tenths = inputs.corpus.value_sum_tenths() + clients.iter().map(|c| c.acked_main_value_tenths).sum::<i64>();
    let docs = inputs.corpus.docs.len() + clients.iter().map(|c| c.acked_main).sum::<usize>();
    tenths as f64 / 10.0 / docs as f64
}

/// Cluster only: with one node down, the tail is written by quorum; the
/// node then rejoins and anti-entropy runs until replicas agree. Returns
/// the rejoin time in ms and the anti-entropy passes taken.
struct Churn {
    resync_ms: f64,
    rounds: u64,
}

fn write_tail(ctx: &Ctx<'_>, client: &mut Client, scale: usize) -> Churn {
    let stack = &ctx.loaded.stack;
    let clustered = matches!(stack.backend(), Backend::Cluster { .. });
    if clustered {
        stack.kill_node(1);
    }
    for _ in 0..TAIL_DOCS / scale {
        client.step(ctx, Kind::Insert);
    }
    client.samples = Samples::default();
    let mut churn = Churn { resync_ms: 0.0, rounds: 0 };
    if clustered {
        let t0 = Instant::now();
        client.attempted += 1;
        if let Err(e) = stack.rejoin_node(1) {
            client.fail(format!("rejoin: {e}"));
        }
        churn.resync_ms = t0.elapsed().as_secs_f64() * 1e3;
        loop {
            churn.rounds += 1;
            if stack.anti_entropy_converged() || churn.rounds >= 8 {
                break;
            }
        }
        client.attempted += 1;
        if !stack.replicas_converged() {
            client.fail("replica digests did not converge after rejoin and anti-entropy".into());
        }
    }
    churn
}

/// After the reopen: the count matches everything acknowledged, and a
/// sample of acknowledged ids reads back as the right documents.
fn verify_readback(ctx: &Ctx<'_>, clients: &mut [Client]) {
    let stack = &ctx.loaded.stack;
    let acked_main: usize = clients.iter().map(|c| c.acked_main).sum();
    let acked: usize = clients.iter().map(|c| c.acked.len()).sum();
    let mut written: Vec<(&'static str, DocId, i64)> =
        ctx.loaded.ids.iter().zip(&ctx.inputs.corpus.docs).map(|(id, obs)| (MAIN, *id, obs.identifier)).collect();
    written.extend(clients.iter().flat_map(|c| c.acked.iter().copied()));
    let client = &mut clients[0];
    for (collection, want) in [(MAIN, ctx.inputs.corpus.docs.len() + acked_main), (BULK, acked - acked_main)] {
        client.attempted += 1;
        match stack.count(collection) {
            Ok(got) if got == want as u64 => {}
            Ok(got) => client.fail(format!("count of {collection} after reopen is {got}, acknowledged {want}")),
            Err(e) => client.fail(format!("count of {collection} after reopen: {e}")),
        }
    }
    let stride = (written.len() / READBACK_IDS).max(1);
    for (collection, id, identifier) in written.into_iter().step_by(stride) {
        client.attempted += 1;
        match stack.get(collection, id) {
            Ok(doc) if doc.get("identifier").and_then(Value::as_i64) == Some(identifier) => {}
            Ok(doc) => client.fail(format!("read-back of {identifier} returned {:?}", doc.get("identifier"))),
            Err(e) => client.fail(format!("acknowledged document {identifier} unreadable after reopen: {e}")),
        }
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:").and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub first_failure: Option<String>,
}

pub struct RunArgs<'a> {
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics and the span file, instead of the
    /// end-to-end metrics.
    pub traced: bool,
    /// 1 for a full run; `--quick` divides corpus sizes and the tails by 20
    /// and the rounds by 4.
    pub scale: usize,
    /// Directory for durable state and trace files (`benchmark/out`).
    pub out: &'a Path,
}

/// The operation counts of one round: the workload's frozen counts scaled
/// by `--seconds` and cut into rounds. A traced run spends half of its time
/// on the same rounds and the rest on the per-layer experiments.
struct Plan {
    rounds: usize,
    main: usize,
    probes: [usize; 6],
    batches: usize,
    /// No slice of a round runs longer than this, whatever the host.
    cap: Duration,
    factor: f64,
}

impl Plan {
    fn of(spec: &Spec, args: &RunArgs<'_>) -> Plan {
        let rounds = if args.scale > 1 { ROUNDS / 4 } else { ROUNDS };
        let factor = args.seconds / f64::from(RUN_SECONDS) * if args.traced { 0.5 } else { 1.0 };
        let per_round = |count: usize, unit: usize| {
            let exact = count as f64 * factor / rounds as f64;
            ((exact / unit as f64).round() as usize).max(1) * unit
        };
        // A round carries whole cycles of the mix (runs of MIX_RUN of each
        // kind) and the insert probe whole runs: a Paillier pool refills
        // once in 16 encryptions at ~60 times an insert's median, so every
        // round has to carry the same number of refills for the rounds'
        // means to be comparable.
        let mut probes = spec.probe_ops.map(|count| if count == 0 { 0 } else { per_round(count, 1) });
        if probes[Kind::Insert as usize] > 0 {
            probes[Kind::Insert as usize] = per_round(spec.probe_ops[Kind::Insert as usize], MIX_RUN);
        }
        Plan {
            rounds,
            main: per_round(spec.main_ops, spec.mix.len() * MIX_RUN),
            probes,
            batches: per_round(spec.batches, 1),
            cap: Duration::from_secs_f64(args.seconds.max(1.0) * 4.0 / rounds as f64),
            factor,
        }
    }

    /// A share of the main window's count in whole cycles of the mix, for
    /// the per-layer experiments.
    fn part(&self, spec: &Spec, share: f64) -> usize {
        let cycle = spec.mix.len() * MIX_RUN;
        ((spec.main_ops as f64 * self.factor * share / cycle as f64).round() as usize).max(1) * cycle
    }
}

/// Phase durations, reported on standard error for calibration.
struct Stopwatch {
    last: Instant,
    laps: Vec<String>,
}

impl Stopwatch {
    fn lap(&mut self, label: &str) {
        self.laps.push(format!("{label} {:.2}s", self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }
}

/// Where the time of the rounds went, all rounds together.
#[derive(Default)]
struct Spent {
    parts: Vec<(&'static str, f64)>,
}

impl Spent {
    fn on<T>(&mut self, label: &'static str, work: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = work();
        let seconds = t0.elapsed().as_secs_f64();
        match self.parts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, total)) => *total += seconds,
            None => self.parts.push((label, seconds)),
        }
        out
    }

    fn report(&self) -> String {
        let parts: Vec<String> = self.parts.iter().map(|(label, s)| format!("{label} {s:.2}s")).collect();
        parts.join(", ")
    }
}

/// One value per round of every end-to-end timing; [`typical`] picks from them.
#[derive(Default)]
struct PerRound {
    ops_per_s: Vec<f64>,
    mean_us: [Vec<f64>; 6],
    p50_us: [Vec<f64>; 6],
    batch_docs_per_s: Vec<f64>,
    recovery_s: Vec<f64>,
    /// One value per set-up of the fixture.
    setup_s: Vec<f64>,
}

impl PerRound {
    /// Latencies of each kind: from the main window's slice if the mix has
    /// it, from the round's probes otherwise.
    fn push_latencies(&mut self, spec: &Spec, slice: &Samples, probed: &Samples) {
        for kind in KINDS {
            let ns = if spec.mix.contains(&kind) { slice.all(kind) } else { probed.all(kind) };
            self.mean_us[kind as usize].push(mean_us(&ns));
            self.p50_us[kind as usize].push(quantile_us(&ns, 0.5));
        }
    }
}

/// What the phases common to both kinds of run measured.
struct Measured {
    per_round: PerRound,
    /// The main window and the probes, all rounds together.
    main: Phase,
    probes: Samples,
    /// WAL records journaled and group commits made during the main window.
    wal: [u64; 2],
    stored_bytes_per_plain_byte: f64,
    snapshot_bytes: u64,
    /// The reopen of the directory the run left.
    reopen: sut::Reopen,
    churn: Churn,
}

impl Measured {
    /// Latencies of a kind: from the main window if the mix has it, from
    /// its probe otherwise.
    fn latencies(&self, spec: &Spec, kind: Kind) -> Vec<u64> {
        if spec.mix.contains(&kind) {
            self.main.samples.all(kind)
        } else {
            self.probes.all(kind)
        }
    }
}

fn data_dir(args: &RunArgs<'_>, spec: &Spec, label: &str) -> PathBuf {
    args.out.join(format!("data-{}-{}-{label}", spec.name, std::process::id()))
}

/// The kinds the main mix leaves out.
fn probes(spec: &Spec) -> impl Iterator<Item = Kind> + '_ {
    KINDS.into_iter().filter(|k| !spec.mix.contains(k))
}

fn ctx<'a>(
    spec: &'a Spec,
    inputs: &'a Inputs,
    loaded: &'a Loaded,
    tracer: Option<&'a Tracer>,
    quiescent_with: Option<&[Client]>,
) -> Ctx<'a> {
    let quiescent_main_average = quiescent_with.map(|clients| main_average(inputs, clients));
    Ctx { spec, inputs, loaded, tracer, quiescent_main_average }
}

/// One run of one workload: set-up, the timed rounds, content checks,
/// checkpoint and tail, shutdown, reopen and read-back.
pub fn run(spec: &Spec, args: &RunArgs<'_>) -> Result<Outcome, String> {
    let inputs = Inputs::generate(spec, args.seed, args.scale);
    let plan = Plan::of(spec, args);
    let dir = data_dir(args, spec, "main");
    let fixture_dir = data_dir(args, spec, "fixture");
    let tracer = args.traced.then(|| Arc::new(Tracer::new(TRACE_SLICE)));
    let spans_on = tracer.as_deref();
    let mut watch = Stopwatch { last: Instant::now(), laps: Vec::new() };

    let mut loaded = set_up(spec, spec.backend, &inputs, Some(&dir), tracer.clone())?;
    // One client issues everything that is timed; the second exists for the
    // scaling experiment of a traced run.
    let mut clients: Vec<Client> = (0..2).map(|i| Client::new(i, args.seed)).collect();
    watch.lap("set-up");

    // Every round does the same: the read probes; the mix; the insert probe
    // if the mix has no inserts; the batches; the fixture, built anew every
    // fifth round and reopened in every one. So the samples of every metric
    // are spread over the whole run, and a burst of interference from the
    // host (seconds long, on a shared box) spoils some rounds of every
    // metric instead of all rounds of one. The counts are frozen, so the
    // size of every collection at every step is the same in every run.
    let mut per_round = PerRound::default();
    let mut probe_samples = Samples::default();
    let mut main = Phase::default();
    let mut fixture: Option<Fixture> = None;
    let (mut main_spans, mut other_spans) = (Vec::new(), Vec::new());
    let drain = |into: &mut Vec<trace::Span>| into.extend(tracer.iter().flat_map(|t| t.drain()));
    // WAL records and group commits of the main window's slices.
    let mut wal = [0u64; 2];
    let mut spent = Spent::default();
    for round in 0..plan.rounds {
        let mut probed = Samples::default();
        for kind in probes(spec).filter(|k| *k != Kind::Insert) {
            let ctx = ctx(spec, &inputs, &loaded, spans_on, Some(&clients));
            let ops = plan.probes[kind as usize];
            let mut probe = spent.on("read probes", || run_phase(&ctx, &mut clients[..1], &[kind], ops, plan.cap));
            probed.absorb(&mut probe.samples);
        }
        let ctx = ctx(spec, &inputs, &loaded, spans_on, None);
        drain(&mut other_spans);
        let wal_before = loaded.stack.wal();
        let mut slice = spent.on("main", || run_phase(&ctx, &mut clients[..1], spec.mix, plan.main, plan.cap));
        let wal_after = loaded.stack.wal();
        wal = [wal[0] + wal_after[0] - wal_before[0], wal[1] + wal_after[1] - wal_before[1]];
        drain(&mut main_spans);
        if !spec.mix.contains(&Kind::Insert) {
            let ops = plan.probes[Kind::Insert as usize];
            let mut probe =
                spent.on("insert probe", || run_phase(&ctx, &mut clients[..1], &[Kind::Insert], ops, plan.cap));
            probed.absorb(&mut probe.samples);
        }
        let batch_seconds: f64 = spent.on("batches", || (0..plan.batches).map(|_| clients[0].batch(&ctx)).sum());

        per_round.ops_per_s.push(slice.ops_per_s());
        per_round.push_latencies(spec, &slice.samples, &probed);
        per_round.batch_docs_per_s.push((plan.batches * BATCH) as f64 / batch_seconds);
        main.absorb(&mut slice);
        probe_samples.absorb(&mut probed);

        if round % SETUP_EVERY == 0 {
            drop(fixture.take());
            let built = spent.on("fixture set-ups", || Fixture::build(spec, &inputs, &fixture_dir, args.scale))?;
            per_round.setup_s.push(built.setup_s);
            fixture = Some(built);
        }
        let fixture = fixture.as_mut().expect("built in round 0");
        per_round.recovery_s.push(spent.on("fixture reopens", || fixture.reopen())?);
    }
    drop(fixture);
    let _ = std::fs::remove_dir_all(&fixture_dir);
    drain(&mut other_spans);
    watch.lap("timed rounds");
    watch.laps.push(format!("({})", spent.report()));

    let mut values = Values::default();
    if args.traced {
        layer_experiments(spec, args, &plan, &inputs, &loaded, &mut clients, &main, &mut values)?;
        watch.lap("layer experiments");
    }

    let churn = {
        let ctx = ctx(spec, &inputs, &loaded, None, Some(&clients));
        verify_content(&ctx, &mut clients[0]);
        if let Err(e) = loaded.stack.checkpoint() {
            clients[0].fail(format!("checkpoint: {e}"));
        }
        write_tail(&ctx, &mut clients[0], args.scale)
    };
    watch.lap("checks, checkpoint, tail");

    loaded.stack.shutdown_cloud();
    let plain = inputs.preload_plain_bytes + clients.iter().map(|c| c.acked_plain_bytes).sum::<u64>();
    let stored_bytes_per_plain_byte = dir_bytes(&dir) as f64 / plain as f64;
    let snapshot_bytes = sut::snapshot_bytes(&dir);
    let reopen = loaded.stack.reopen_cloud()?;
    verify_readback(&ctx(spec, &inputs, &loaded, None, None), &mut clients);
    watch.lap("reopen and read-back");

    let measured = Measured {
        per_round,
        main,
        probes: probe_samples,
        wal,
        stored_bytes_per_plain_byte,
        snapshot_bytes,
        reopen,
        churn,
    };
    if args.traced {
        let main_breakdown = Breakdown::of(&main_spans);
        let mut spans = main_spans;
        spans.extend(other_spans);
        spans.sort_by_key(|s| s.id);
        per_layer_values(spec, &measured, &clients, &main_breakdown, &Breakdown::of(&spans), &mut values);
        values.set("cloud.dedup_hits", loaded.stack.dedup_hits() as f64);
        values.set("cluster.read_repairs", loaded.stack.read_repairs() as f64);
        values.set("trace.spans", spans.len() as f64);
        let file = args.out.join(format!("trace-{}.json", spec.name));
        trace::write_file(&file, spec.name, &spans).map_err(|e| format!("writing {}: {e}", file.display()))?;
    } else {
        end_to_end_values(&measured, &mut values);
    }
    drop(loaded);
    let _ = std::fs::remove_dir_all(&dir);
    watch.lap("report");
    eprintln!("dbbench: {}: {}", spec.name, watch.laps.join(" | "));

    let attempted = clients.iter().map(|c| c.attempted).sum::<u64>().max(1);
    let failed = clients.iter().map(|c| c.failed).sum();
    let first_failure = clients.iter().find_map(|c| c.first_failure.clone());
    let finite = values.0.values().all(|v| v.is_finite());
    Ok(Outcome { correct: failed == 0 && finite, attempted, failed, values, first_failure })
}

fn end_to_end_values(m: &Measured, values: &mut Values) {
    let p = &m.per_round;
    values.set("setup_s", typical(&p.setup_s, false));
    values.set("ops_per_s", typical(&p.ops_per_s, true));
    let names = ["insert_mean_us", "eq_mean_us", "bool_mean_us", "range_mean_us", "aggregate_mean_us", "get_mean_us"];
    for (kind, name) in KINDS.into_iter().zip(names) {
        values.set(name, typical(&p.mean_us[kind as usize], false));
    }
    values.set("insert_p50_us", typical(&p.p50_us[Kind::Insert as usize], false));
    values.set("eq_p50_us", typical(&p.p50_us[Kind::Eq as usize], false));
    values.set("batch_docs_per_s", typical(&p.batch_docs_per_s, true));
    values.set("wire_bytes_per_op", (m.main.wire[1] + m.main.wire[2]) as f64 / m.main.samples.ops() as f64);
    values.set("stored_bytes_per_plain_byte", m.stored_bytes_per_plain_byte);
    values.set("recovery_s", typical(&p.recovery_s, false));
    values.set("peak_rss_mb", peak_rss_mb());
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics that come from spans and counts of the common
/// phases. `main` covers the main window's spans, `all` every span.
fn per_layer_values(
    spec: &Spec,
    m: &Measured,
    clients: &[Client],
    main: &Breakdown,
    all: &Breakdown,
    values: &mut Values,
) {
    let clustered = matches!(spec.backend, Backend::Cluster { .. });
    // gateway.*: op span minus its transport spans, per kind.
    let names = [
        "gateway.insert_self_us",
        "gateway.eq_self_us",
        "gateway.bool_self_us",
        "gateway.range_self_us",
        "gateway.aggregate_self_us",
        "gateway.get_self_us",
    ];
    for (k, name) in names.into_iter().enumerate() {
        let (count, total, children) = if main.ops[k].0 > 0 { main.ops[k] } else { all.ops[k] };
        values.set(name, ratio(total.saturating_sub(children) as f64 / 1e3, count as f64));
    }
    // transport.* and cloud.*: the main window's mix. Times are per traced
    // operation, counts per operation of the whole window.
    let traced_ops = main.op_count() as f64;
    let all_ops = m.main.samples.ops() as f64;
    let cloud_us = main.cloud_total_ns() as f64 / 1e3;
    values.set("transport.call_us", ratio(main.transport_ns as f64 / 1e3, main.transport_calls as f64));
    values.set(
        "transport.self_us",
        ratio(main.transport_ns.saturating_sub(main.cloud_total_ns()) as f64 / 1e3, main.transport_calls as f64),
    );
    values.set("transport.calls_per_op", ratio(m.main.wire[0] as f64, all_ops));
    values.set("transport.bytes_sent_per_op", ratio(m.main.wire[1] as f64, all_ops));
    values.set("transport.bytes_recv_per_op", ratio(m.main.wire[2] as f64, all_ops));
    values.set("transport.retries", m.main.wire[3] as f64);
    values.set("cloud.handle_us_per_op", ratio(cloud_us, traced_ops));
    values.set("cloud.doc_us_per_op", ratio(main.cloud_ns[0] as f64 / 1e3, traced_ops));
    values.set("cloud.tactic_us_per_op", ratio(main.cloud_ns[1] as f64 / 1e3, traced_ops));
    values.set("cloud.batch_us_per_op", ratio(main.cloud_ns[2] as f64 / 1e3, traced_ops));
    values.set("cloud.calls_per_op", ratio(main.cloud_calls as f64, traced_ops));
    values.set("cluster.handle_us_per_op", if clustered { ratio(cloud_us, traced_ops) } else { 0.0 });
    values.set("trace.closure_pct", 100.0 * ratio(main.covered_ns as f64, main.op_ns() as f64));
    values.set("workload.traced_ops", traced_ops);

    // Tracing overhead: the same kinds in the same window, spans on and off.
    let (mut with, mut without) = (0.0f64, 0.0f64);
    for kind in KINDS {
        let (on, off) = (&m.main.samples.traced[kind as usize], &m.main.samples.plain[kind as usize]);
        if !on.is_empty() && !off.is_empty() {
            let n = (on.len() + off.len()) as f64;
            with += n * typical_mean_us(on);
            without += n * typical_mean_us(off);
        }
    }
    values.set("trace.overhead_pct", 100.0 * ratio(with - without, without));

    // durability.*: counts over the main window.
    let inserts = m.main.samples.all(Kind::Insert).len() as f64;
    let (records, commits) = (m.wal[0] as f64, m.wal[1] as f64);
    values.set("durability.wal_records_per_doc", ratio(records, inserts));
    values.set("durability.records_per_commit", ratio(records, commits));
    let per_record = values.get("durability.wal_bytes_per_record").unwrap_or(0.0);
    values.set("durability.wal_bytes_per_doc", per_record * ratio(records, inserts));
    values.set("durability.snapshot_bytes", m.snapshot_bytes as f64);
    values.set("durability.replay_records_per_s", ratio(m.reopen.replayed_records as f64, m.reopen.seconds));
    let longest = clients.iter().map(|c| c.longest_insert_ns).max().unwrap_or(0);
    values.set("durability.snapshot_stall_ms", longest as f64 / 1e6);
    // Every insert is two replicated writes (index update and document),
    // each journaled once by every replica that applied it.
    values.set("cluster.applies_per_write", if clustered { ratio(records, 2.0 * inserts) } else { 0.0 });
    values.set("cluster.resync_ms", m.churn.resync_ms);
    values.set("cluster.antientropy_rounds", m.churn.rounds as f64);

    // Workload diagnostics.
    for (kind, p99, count) in [
        (Kind::Insert, "workload.insert_p99_us", "workload.insert_samples"),
        (Kind::Eq, "workload.eq_p99_us", "workload.eq_samples"),
        (Kind::Aggregate, "workload.aggregate_p99_us", "workload.aggregate_samples"),
    ] {
        let all = m.latencies(spec, kind);
        values.set(p99, quantile_us(&all, 0.99));
        values.set(count, all.len() as f64);
    }
    values.set("workload.bool_p50_us", quantile_us(&m.latencies(spec, Kind::Bool), 0.5));
    values.set("workload.range_p50_us", quantile_us(&m.latencies(spec, Kind::Range), 0.5));
    let longest = KINDS.iter().flat_map(|k| m.main.samples.all(*k)).max().unwrap_or(0);
    values.set("workload.max_us", longest as f64 / 1e3);
    values.set("workload.total_ops_per_s", m.main.ops_per_s());
    values.set("workload.setup_s", typical(&m.per_round.setup_s, false));
    values.set("workload.recovery_s", m.reopen.seconds);
}

/// The per-layer metrics that need runs of their own, on the loaded stack
/// with spans off: the product's own counters, the control stack, and the
/// kernel rungs.
#[allow(clippy::too_many_arguments)]
fn layer_experiments(
    spec: &Spec,
    args: &RunArgs<'_>,
    plan: &Plan,
    inputs: &Inputs,
    loaded: &Loaded,
    clients: &mut [Client],
    main: &Phase,
    values: &mut Values,
) -> Result<(), String> {
    let clustered = matches!(spec.backend, Backend::Cluster { .. });
    let here = ctx(spec, inputs, loaded, None, None);

    // Hit ratios and WAL record size from the product's own counters,
    // switched on for a short slice that nothing times.
    loaded.stack.set_counters(true);
    let mix: Vec<Kind> = spec.mix.iter().copied().chain([Kind::Insert, Kind::Eq]).collect();
    run_phase(&here, &mut clients[..1], &mix, plan.part(spec, 0.03).max(64), plan.cap);
    loaded.stack.set_counters(false);
    let s = &loaded.stack;
    let hit_ratio = |hit: &str, miss: &str| ratio(s.counter(hit) as f64, (s.counter(hit) + s.counter(miss)) as f64);
    values.set(
        "primitives.cipher_cache_hit_ratio",
        hit_ratio("primitives.cipher_cache.hit", "primitives.cipher_cache.miss"),
    );
    values.set("paillier.pool_hit_ratio", hit_ratio("paillier.pool.hit", "paillier.pool.miss"));
    values.set(
        "durability.wal_bytes_per_record",
        ratio(s.counter("cloud.wal.bytes") as f64, s.counter("cloud.wal.appends") as f64),
    );

    // Two clients against one, on all the CPUs the process may use (the
    // threads the stack started while confined stay where they are).
    let ops = plan.part(spec, 0.06);
    let (one, two) = host::with_all_cpus(|| {
        let one = run_phase(&here, &mut clients[..1], spec.mix, ops, plan.cap);
        let two = run_phase(&here, &mut clients[..2], spec.mix, 2 * ops, plan.cap);
        (one.ops_per_s(), two.ops_per_s())
    });
    values.set("workload.scaling_2c", ratio(two, one));

    // Control: the same mix with the workload's distinguishing layer
    // removed (a durable engine → a volatile one; a cluster → one durable
    // engine). The socket workload's control is `transport.self_us`.
    let control_dir = data_dir(args, spec, "control");
    let (backend, dir) = if clustered { (Backend::Engine, Some(control_dir.as_path())) } else { (spec.backend, None) };
    let control = set_up(spec, backend, inputs, dir, None)?;
    let mut control_clients = vec![Client::new(0, args.seed ^ 0xC0)];
    let there = ctx(spec, inputs, &control, None, None);
    let phase = run_phase(&there, &mut control_clients, spec.mix, plan.part(spec, 0.25), plan.cap);
    // Mean latency of one mix cycle's operations, spans off.
    let cycle_mean = |of: &dyn Fn(Kind) -> f64| spec.mix.iter().map(|k| of(*k)).sum::<f64>() / spec.mix.len() as f64;
    let main_insert = typical_mean_us(&main.samples.plain[Kind::Insert as usize]);
    let control_insert = typical_mean_us(&phase.samples.all(Kind::Insert));
    let main_op = cycle_mean(&|k| typical_mean_us(&main.samples.plain[k as usize]));
    let control_op = cycle_mean(&|k| typical_mean_us(&phase.samples.all(k)));
    let durable_single = !clustered && spec.link == Link::Instant && spec.mix.contains(&Kind::Insert);
    values.set("durability.overhead_us_per_insert", if durable_single { main_insert - control_insert } else { 0.0 });
    values.set("cluster.fanout_overhead_us", if clustered { main_op - control_op } else { 0.0 });
    for c in &control_clients {
        clients[0].attempted += c.attempted;
        clients[0].failed += c.failed;
        if clients[0].first_failure.is_none() {
            clients[0].first_failure = c.first_failure.clone();
        }
    }
    drop(control);
    let _ = std::fs::remove_dir_all(&control_dir);

    let scratch = data_dir(args, spec, "kernels");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    for kernel in &sut::KERNELS {
        values.set(kernel.name, kernels::measure(kernel, &scratch, Duration::from_millis(12), 3));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What every round carries is in the typical value; what a few rounds
    /// carry — a stall, a burst of interference — is not.
    #[test]
    fn typical_keeps_what_every_round_has_and_drops_what_few_have() {
        let mut rounds = vec![2.0; ROUNDS];
        assert_eq!(typical(&rounds, false), 2.0);
        for slow in rounds.iter_mut().take(ROUNDS / 2) {
            *slow = 3.5;
        }
        assert_eq!(typical(&rounds, false), 2.0);
        assert_eq!(quantile(&rounds, 0.5), 2.75);
        let rates: Vec<f64> = rounds.iter().map(|t| 1.0 / t).collect();
        assert_eq!(typical(&rates, true), 0.5);
        assert_eq!(typical(&[], false), 0.0);
    }

    #[test]
    fn the_typical_mean_of_a_flat_run_carries_periodic_costs() {
        let mut ns: Vec<u64> = (0..4_096).map(|i| if i % 16 == 0 { 17_000 } else { 1_000 }).collect();
        assert_eq!(typical_mean_us(&ns), 2.0);
        ns[1_000] = 300_000_000;
        assert_eq!(typical_mean_us(&ns), 2.0);
        assert!(mean_us(&ns) > 70.0);
        assert_eq!(typical_mean_us(&[1_000, 2_000, 3_000]), 1.5);
    }

    #[test]
    fn every_round_carries_whole_cycles_of_the_mix() {
        let out = PathBuf::new();
        for spec in &SPECS {
            for (seconds, traced) in [(f64::from(RUN_SECONDS), false), (f64::from(RUN_SECONDS), true), (1.0, false)] {
                let plan = Plan::of(spec, &RunArgs { seed: 1, seconds, traced, scale: 1, out: &out });
                assert_eq!(plan.main % (spec.mix.len() * MIX_RUN), 0, "{}", spec.name);
                assert_eq!(plan.part(spec, 0.06) % (spec.mix.len() * MIX_RUN), 0, "{}", spec.name);
                assert_eq!(plan.probes[Kind::Insert as usize] % MIX_RUN, 0, "{}", spec.name);
                assert!(plan.batches >= 1);
            }
        }
    }

    #[test]
    fn every_workload_probes_exactly_what_its_mix_leaves_out() {
        for spec in &SPECS {
            for kind in KINDS {
                let in_mix = spec.mix.contains(&kind);
                assert_eq!(probes(spec).any(|k| k == kind), !in_mix, "{} {kind:?}", spec.name);
                assert_eq!(spec.probe_ops[kind as usize] == 0, in_mix, "{} {kind:?}", spec.name);
            }
            // What the mix asks of the workload's own collection its schema serves.
            assert!(!spec.mix.contains(&Kind::Range) || spec.schema == SchemaKind::Fhir, "{}", spec.name);
            assert!(!spec.mix.contains(&Kind::Aggregate) || spec.schema != SchemaKind::Lean, "{}", spec.name);
            assert!(spec.why.len() <= 200, "{}: BENCHMARK.json allows 200 characters", spec.name);
        }
    }
}
