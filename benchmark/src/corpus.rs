//! Frozen inputs: the benchmark's own document generator, its three
//! schemas (copies of the §5.2 census, the §5.1 FHIR annotations and a lean
//! symmetric-only schema), the probe collection and the plaintext oracle.
//! Later refactors of the product's `fhir` / `workload` crates cannot
//! change what is measured here.
//!
//! The corpus is *structurally* fixed and only *arranged* by the seed:
//! every patient owns the same number of documents, every (status, code)
//! pair occurs equally often and `effective` timestamps sit one per slot on
//! a regular grid. Answer sizes — and with them wire bytes and query cost —
//! are therefore the same for every seed, while which documents match
//! which query is not.

use std::collections::{BTreeSet, HashMap};

use crate::sut::{AggFn, Document, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema, Value};

/// SplitMix64: the benchmark's own generator, independent of the `rand`
/// stand-in under `vendor/`, so inputs stay frozen if that is replaced.
#[derive(Clone)]
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Self {
        Prng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁴⁰ for the sizes used).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

pub const STATUSES: [&str; 4] = ["registered", "preliminary", "final", "amended"];
pub const CODES: [&str; 8] = [
    "glucose",
    "heart-rate",
    "blood-pressure",
    "body-temperature",
    "bmi",
    "cholesterol",
    "hemoglobin",
    "oxygen-saturation",
];
const PERFORMERS: [&str; 6] =
    ["John Smith", "Maria Garcia", "Wei Chen", "Fatima al-Said", "Anna Kowalska", "James O'Brien"];

/// Status and code of documents created inside timed windows: no query
/// asks for them, so answers to timed queries never change size.
const LIVE_STATUS: &str = "cancelled";
const LIVE_CODE: &str = "unspecified";

/// The preloaded era, 2012-01-01 to 2019-01-01, is cut into one slot per
/// document, whatever the corpus size.
const ERA_START: i64 = 1_325_376_000;
const ERA_SECS: i64 = 220_924_800;
/// Documents created inside timed windows live after every queried range.
const LIVE_ERA_START: i64 = 1_900_000_000;

/// Which annotations a collection carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemaKind {
    /// §5.2: Mitra `subject`, RND `performer`, 5×DET, Paillier avg on `value`.
    Census,
    /// §5.1: BIEX-2Lev `status`/`code`/`value`, Mitra, DET+OPE dates, Paillier.
    Fhir,
    /// Census without the Paillier aggregate: symmetric crypto only.
    Lean,
}

pub const MAIN: &str = "observation";
pub const BULK: &str = "bulk";
pub const PROBE: &str = "probe";

fn annotated(class: ProtectionClass, ops: &[FieldOp]) -> FieldAnnotation {
    FieldAnnotation::new(class, ops.to_vec())
}

/// The workload's own collection.
pub fn main_schema(kind: SchemaKind) -> Schema {
    schema(MAIN, kind)
}

/// A collection with the annotations of the workload's own, for the writes
/// that are not part of its mix (`insert_many` batches, the insert probe):
/// they cost what the workload's schema makes them cost, and the collection
/// the mix reads does not grow under them.
pub fn bulk_schema(kind: SchemaKind) -> Schema {
    schema(BULK, kind)
}

fn schema(name: &str, kind: SchemaKind) -> Schema {
    use FieldOp::{Boolean, Equality, Insert, Range};
    use ProtectionClass::{C1, C2, C3, C4, C5};
    let base = Schema::new(name)
        .plain_field("identifier", FieldType::Integer, true)
        .plain_field("interpretation", FieldType::Text, false)
        .sensitive_field("subject", FieldType::Text, true, annotated(C2, &[Insert, Equality]))
        .sensitive_field("performer", FieldType::Text, true, annotated(C1, &[Insert]));
    match kind {
        SchemaKind::Fhir => base
            .sensitive_field("status", FieldType::Text, true, annotated(C3, &[Insert, Equality, Boolean]))
            .sensitive_field("code", FieldType::Text, true, annotated(C3, &[Insert, Equality, Boolean]))
            .sensitive_field("effective", FieldType::Integer, true, annotated(C5, &[Insert, Equality, Boolean, Range]))
            .sensitive_field("issued", FieldType::Integer, true, annotated(C5, &[Insert, Equality, Boolean, Range]))
            .sensitive_field(
                "value",
                FieldType::Float,
                true,
                annotated(C3, &[Insert, Equality, Boolean]).with_aggs(vec![AggFn::Avg]),
            ),
        SchemaKind::Census | SchemaKind::Lean => {
            let value = annotated(C4, &[Insert, Equality]);
            base.sensitive_field("status", FieldType::Text, true, annotated(C4, &[Insert, Equality]))
                .sensitive_field("code", FieldType::Text, true, annotated(C4, &[Insert, Equality]))
                .sensitive_field("effective", FieldType::Integer, true, annotated(C5, &[Insert, Equality]))
                .sensitive_field("issued", FieldType::Integer, true, annotated(C5, &[Insert, Equality]))
                .sensitive_field(
                    "value",
                    FieldType::Float,
                    true,
                    if kind == SchemaKind::Census { value.with_aggs(vec![AggFn::Avg]) } else { value },
                )
        }
    }
}

/// The tactics each field of [`main_schema`] must select (sorted). If the
/// product's selection drifts from this, the workload would measure
/// something else, so set-up aborts.
pub fn expected_selection(kind: SchemaKind) -> Vec<(&'static str, Vec<&'static str>)> {
    match kind {
        SchemaKind::Fhir => vec![
            ("status", vec!["biex-2lev"]),
            ("code", vec!["biex-2lev"]),
            ("subject", vec!["mitra"]),
            ("effective", vec!["det", "ope"]),
            ("issued", vec!["det", "ope"]),
            ("performer", vec!["rnd"]),
            ("value", vec!["biex-2lev", "paillier"]),
        ],
        SchemaKind::Census | SchemaKind::Lean => vec![
            ("status", vec!["det"]),
            ("code", vec!["det"]),
            ("subject", vec!["mitra"]),
            ("effective", vec!["det"]),
            ("issued", vec!["det"]),
            ("performer", vec!["rnd"]),
            ("value", if kind == SchemaKind::Census { vec!["det", "paillier"] } else { vec!["det"] }),
        ],
    }
}

/// A small side collection that serves the reads a workload's own mix
/// leaves out, so that every workload reports every end-to-end metric
/// through its own transport and backend. It carries the census annotations
/// plus range search on `effective` (range needs OPE and aggregates need
/// Paillier, which the lean schema lacks). It is preloaded during set-up and
/// never written afterwards, so what a probe costs does not change while
/// the workload's own collection grows.
pub fn probe_schema() -> Schema {
    use FieldOp::{Equality, Insert, Range};
    let mut schema = main_schema(SchemaKind::Census);
    schema.name = PROBE.into();
    schema.sensitive_field(
        "effective",
        FieldType::Integer,
        true,
        annotated(ProtectionClass::C5, &[Insert, Equality, Range]),
    )
}

pub fn expected_probe_selection() -> Vec<(&'static str, Vec<&'static str>)> {
    let mut expected = expected_selection(SchemaKind::Census);
    expected.retain(|(field, _)| *field != "effective");
    expected.push(("effective", vec!["det", "ope"]));
    expected
}

/// One plaintext observation.
#[derive(Clone, Debug)]
pub struct Obs {
    pub identifier: i64,
    pub status: &'static str,
    pub code: &'static str,
    pub patient: usize,
    pub effective: i64,
    pub issued: i64,
    pub performer: &'static str,
    /// Tenths, so that sums are exact and the rendered float is `n / 10`.
    pub value_tenths: i64,
}

pub fn patient_name(patient: usize) -> String {
    format!("Patient {patient:06}")
}

impl Obs {
    pub fn value(&self) -> f64 {
        self.value_tenths as f64 / 10.0
    }

    pub fn document(&self) -> Document {
        Document::new(format!("obs-{}", self.identifier))
            .with("identifier", Value::from(self.identifier))
            .with("status", Value::from(self.status))
            .with("code", Value::from(self.code))
            .with("subject", Value::from(patient_name(self.patient)))
            .with("effective", Value::from(self.effective))
            .with("issued", Value::from(self.issued))
            .with("performer", Value::from(self.performer))
            .with("value", Value::from(self.value()))
            .with("interpretation", Value::from(if self.value_tenths > 100 { "High" } else { "Normal" }))
    }
}

/// The preloaded documents of one collection, with the indexes the oracle
/// answers from.
pub struct Corpus {
    pub docs: Vec<Obs>,
    pub patients: usize,
    by_patient: HashMap<usize, Vec<usize>>,
    by_pair: HashMap<(&'static str, &'static str), Vec<usize>>,
    /// Document index per `effective` slot.
    by_slot: Vec<usize>,
    slot_secs: i64,
}

impl Corpus {
    /// `docs` documents over `patients` patients; `docs` must be a
    /// multiple of `patients` and of 32 for answer sizes to be exact.
    pub fn generate(rng: &mut Prng, docs: usize, patients: usize, first_identifier: i64) -> Corpus {
        let patient_of = rng.permutation(docs);
        let pair_of = rng.permutation(docs);
        let slot_of = rng.permutation(docs);
        let slot_secs = ERA_SECS / docs as i64;
        let mut out = Vec::with_capacity(docs);
        for i in 0..docs {
            let pair = pair_of[i] % (STATUSES.len() * CODES.len());
            let effective = ERA_START + slot_of[i] as i64 * slot_secs + rng.below(slot_secs as usize) as i64;
            out.push(Obs {
                identifier: first_identifier + i as i64,
                status: STATUSES[pair % STATUSES.len()],
                code: CODES[pair / STATUSES.len()],
                patient: patient_of[i] % patients,
                effective,
                issued: effective + 3_600 + rng.below(29 * 24 * 3_600) as i64,
                performer: PERFORMERS[rng.below(PERFORMERS.len())],
                value_tenths: 35 + rng.below(1_500) as i64,
            });
        }
        let mut by_patient: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut by_pair: HashMap<(&'static str, &'static str), Vec<usize>> = HashMap::new();
        let mut by_slot = vec![0usize; docs];
        for (i, d) in out.iter().enumerate() {
            by_patient.entry(d.patient).or_default().push(i);
            by_pair.entry((d.status, d.code)).or_default().push(i);
            by_slot[slot_of[i]] = i;
        }
        Corpus { docs: out, patients, by_patient, by_pair, by_slot, slot_secs }
    }

    pub fn identifiers_of_patient(&self, patient: usize) -> BTreeSet<i64> {
        self.by_patient.get(&patient).into_iter().flatten().map(|&i| self.docs[i].identifier).collect()
    }

    pub fn identifiers_of_pair(&self, status: &'static str, code: &'static str) -> BTreeSet<i64> {
        self.by_pair.get(&(status, code)).into_iter().flatten().map(|&i| self.docs[i].identifier).collect()
    }

    /// The inclusive `effective` bounds covering exactly slots
    /// `first_slot .. first_slot + slots`.
    pub fn slot_window(&self, first_slot: usize, slots: usize) -> (i64, i64) {
        let lo = ERA_START + first_slot as i64 * self.slot_secs;
        (lo, lo + slots as i64 * self.slot_secs - 1)
    }

    pub fn identifiers_in_slots(&self, first_slot: usize, slots: usize) -> BTreeSet<i64> {
        self.by_slot[first_slot..first_slot + slots].iter().map(|&i| self.docs[i].identifier).collect()
    }

    pub fn value_sum_tenths(&self) -> i64 {
        self.docs.iter().map(|d| d.value_tenths).sum()
    }
}

/// A document created inside a timed window: a patient, status, code and
/// era that no query targets. `serial` must be unique across the run.
pub fn live_obs(rng: &mut Prng, serial: usize, first_patient: usize) -> Obs {
    let effective = LIVE_ERA_START + serial as i64 * 60;
    Obs {
        identifier: 10_000_000 + serial as i64,
        status: LIVE_STATUS,
        code: LIVE_CODE,
        patient: first_patient + serial / 4,
        effective,
        issued: effective + 3_600,
        performer: PERFORMERS[rng.below(PERFORMERS.len())],
        value_tenths: 35 + rng.below(1_500) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whatever the seed, every query the workloads issue has the same
    /// answer size: that is what makes wire bytes and query cost stationary.
    #[test]
    fn answer_sizes_do_not_depend_on_the_seed() {
        for seed in [1, 2, 99] {
            let corpus = Corpus::generate(&mut Prng::new(seed), 2_048, 128, 0);
            for patient in 0..128 {
                assert_eq!(corpus.identifiers_of_patient(patient).len(), 16);
            }
            for status in STATUSES {
                for code in CODES {
                    assert_eq!(corpus.identifiers_of_pair(status, code).len(), 64);
                }
            }
            for first_slot in [0, 777, 2_024] {
                let (lo, hi) = corpus.slot_window(first_slot, 24);
                let inside: BTreeSet<i64> =
                    corpus.docs.iter().filter(|d| (lo..=hi).contains(&d.effective)).map(|d| d.identifier).collect();
                assert_eq!(inside, corpus.identifiers_in_slots(first_slot, 24));
                assert_eq!(inside.len(), 24);
            }
        }
    }

    #[test]
    fn the_seed_arranges_the_corpus() {
        let a = Corpus::generate(&mut Prng::new(1), 256, 32, 0);
        let b = Corpus::generate(&mut Prng::new(2), 256, 32, 0);
        assert_ne!(a.identifiers_of_patient(0), b.identifiers_of_patient(0));
        let again = Corpus::generate(&mut Prng::new(1), 256, 32, 0);
        assert_eq!(a.identifiers_of_patient(0), again.identifiers_of_patient(0));
        assert_eq!(a.value_sum_tenths(), again.value_sum_tenths());
    }

    /// Live documents can never match a timed query.
    #[test]
    fn live_documents_are_disjoint_from_every_query() {
        let corpus = Corpus::generate(&mut Prng::new(3), 256, 32, 0);
        let live = live_obs(&mut Prng::new(4), 7, 1_000_000);
        assert!(!STATUSES.contains(&live.status) && !CODES.contains(&live.code));
        assert!(live.patient >= 1_000_000);
        assert!(live.effective > corpus.slot_window(0, 256).1);
    }
}
