//! FHIR-like medical resources: the paper's healthcare validation case
//! (§5.1).
//!
//! Provides the exact annotated *Observation* schema of the paper's
//! example (glucose blood-test observations), plus a synthetic clinical
//! data generator producing realistic field distributions for the
//! benchmarks (the paper used FHIR-compliant documents from its industry
//! partners; we substitute synthetic data with the same shape —
//! DESIGN.md §5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
use datablinder_core::model::{AggFn, FieldAnnotation, FieldOp, FieldType, ProtectionClass, Schema};
use datablinder_docstore::{Document, Value};
use rand::seq::SliceRandom;
use rand::Rng;

/// Observation status codes (FHIR `Observation.status` value set).
pub const STATUSES: [&str; 4] = ["registered", "preliminary", "final", "amended"];

/// LOINC-style codes the generator draws from.
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

/// Clinician names for the `performer` field.
pub const PERFORMERS: [&str; 6] =
    ["John Smith", "Maria Garcia", "Wei Chen", "Fatima al-Said", "Anna Kowalska", "James O'Brien"];

/// The §5.1 Observation schema, with the paper's exact annotations:
///
/// | field | class | ops | agg |
/// |-------|-------|-----|-----|
/// | status | C3 | I, EQ, BL | |
/// | code | C3 | I, EQ, BL | |
/// | subject | C2 | I, EQ | |
/// | effective | C5 | I, EQ, BL, RG | |
/// | issued | C5 | I, EQ, BL, RG | |
/// | performer | C1 | I | |
/// | value | C3 | I, EQ, BL | avg |
///
/// (`identifier` and `interpretation` are stored as plaintext metadata in
/// the example document; `interpretation` is also listed sensitive-free.)
pub fn observation_schema() -> Schema {
    use FieldOp::*;
    Schema::new("observation")
        .plain_field("identifier", FieldType::Integer, true)
        .plain_field("interpretation", FieldType::Text, false)
        .sensitive_field(
            "status",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C3, vec![Insert, Equality, Boolean]),
        )
        .sensitive_field(
            "code",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C3, vec![Insert, Equality, Boolean]),
        )
        .sensitive_field(
            "subject",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C2, vec![Insert, Equality]),
        )
        .sensitive_field(
            "effective",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C5, vec![Insert, Equality, Boolean, Range]),
        )
        .sensitive_field(
            "issued",
            FieldType::Integer,
            true,
            FieldAnnotation::new(ProtectionClass::C5, vec![Insert, Equality, Boolean, Range]),
        )
        .sensitive_field("performer", FieldType::Text, true, FieldAnnotation::new(ProtectionClass::C1, vec![Insert]))
        .sensitive_field(
            "value",
            FieldType::Float,
            true,
            FieldAnnotation::new(ProtectionClass::C3, vec![Insert, Equality, Boolean]).with_aggs(vec![AggFn::Avg]),
        )
}

/// The paper's example document (`id: f001`, glucose observation).
pub fn example_observation() -> Document {
    Document::new("f001")
        .with("identifier", Value::from(6323i64))
        .with("status", Value::from("final"))
        .with("code", Value::from("glucose"))
        .with("subject", Value::from("John Doe"))
        .with("effective", Value::from(1359966610i64))
        .with("issued", Value::from(1362407410i64))
        .with("performer", Value::from("John Smith"))
        .with("value", Value::from(6.3f64))
        .with("interpretation", Value::from("High"))
}

/// Synthetic clinical observation generator.
///
/// # Examples
///
/// ```
/// use datablinder_fhir::ObservationGenerator;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut gen = ObservationGenerator::new(100);
/// let obs = gen.generate(&mut rng);
/// assert!(obs.get("status").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ObservationGenerator {
    /// Number of distinct patients the generator cycles through.
    pub patient_pool: usize,
    counter: u64,
}

impl ObservationGenerator {
    /// Creates a generator over a pool of `patient_pool` patients.
    pub fn new(patient_pool: usize) -> Self {
        ObservationGenerator { patient_pool: patient_pool.max(1), counter: 0 }
    }

    /// Patient name for index `i` (stable, so equality searches have
    /// predictable result sizes).
    pub fn patient(&self, i: usize) -> String {
        format!("Patient {:05}", i % self.patient_pool)
    }

    /// Generates one observation document (id field unused; the middleware
    /// mints DocIds).
    pub fn generate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Document {
        self.counter += 1;
        let code = *CODES.choose(rng).expect("non-empty");
        let value = match code {
            "glucose" => rng.gen_range(3.5..12.0),
            "heart-rate" => rng.gen_range(45.0..180.0),
            "blood-pressure" => rng.gen_range(80.0..190.0),
            "body-temperature" => rng.gen_range(35.0..41.5),
            "bmi" => rng.gen_range(15.0..45.0),
            "cholesterol" => rng.gen_range(2.5..8.5),
            "hemoglobin" => rng.gen_range(7.0..19.0),
            _ => rng.gen_range(80.0..100.0),
        };
        // Timestamps in 2012..2019 (the paper's example era).
        let effective: i64 = rng.gen_range(1_325_376_000..1_546_300_800);
        let issued = effective + rng.gen_range(3600..30 * 24 * 3600);
        let interpretation = if value > 10.0 { "High" } else { "Normal" };
        Document::new(format!("obs-{}", self.counter))
            .with("identifier", Value::from(self.counter as i64))
            .with("status", Value::from(*STATUSES.choose(rng).expect("non-empty")))
            .with("code", Value::from(code))
            .with("subject", Value::from(self.patient(rng.gen_range(0..self.patient_pool))))
            .with("effective", Value::from(effective))
            .with("issued", Value::from(issued))
            .with("performer", Value::from(*PERFORMERS.choose(rng).expect("non-empty")))
            .with("value", Value::from((value * 10.0f64).round() / 10.0))
            .with("interpretation", Value::from(interpretation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablinder_core::metadata::validate_document;
    use datablinder_core::registry::TacticRegistry;
    use rand::SeedableRng;

    #[test]
    fn example_document_validates() {
        validate_document(&observation_schema(), &example_observation()).unwrap();
    }

    #[test]
    fn generated_documents_validate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut gen = ObservationGenerator::new(50);
        let schema = observation_schema();
        for _ in 0..200 {
            let doc = gen.generate(&mut rng);
            validate_document(&schema, &doc).unwrap();
        }
    }

    /// The §5.1 tactic-selection table holds for the schema as published.
    #[test]
    fn schema_selection_reproduces_paper() {
        let schema = observation_schema();
        let registry = TacticRegistry::with_builtins();
        let expect: &[(&str, &[&str])] = &[
            ("status", &["biex-2lev"]),
            ("code", &["biex-2lev"]),
            ("subject", &["mitra"]),
            ("effective", &["det", "ope"]),
            ("issued", &["det", "ope"]),
            ("performer", &["rnd"]),
            ("value", &["biex-2lev", "paillier"]),
        ];
        for (field, tactics) in expect {
            let annotation = schema.fields[*field].annotation.as_ref().unwrap();
            let selection = registry.select(field, annotation).unwrap();
            let mut listed = selection.listed_tactics();
            listed.sort();
            let mut want: Vec<String> = tactics.iter().map(|s| s.to_string()).collect();
            want.sort();
            assert_eq!(listed, want, "selection for {field}");
        }
    }

    #[test]
    fn generator_value_ranges_plausible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut gen = ObservationGenerator::new(10);
        for _ in 0..100 {
            let doc = gen.generate(&mut rng);
            let v = doc.get("value").unwrap().as_f64().unwrap();
            assert!(v > 0.0 && v < 200.0);
            let eff = doc.get("effective").unwrap().as_i64().unwrap();
            let iss = doc.get("issued").unwrap().as_i64().unwrap();
            assert!(iss > eff, "issued after effective");
        }
    }

    #[test]
    fn patient_pool_cycles() {
        let gen = ObservationGenerator::new(10);
        assert_eq!(gen.patient(0), gen.patient(10));
        assert_ne!(gen.patient(0), gen.patient(1));
    }
}
