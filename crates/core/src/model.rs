//! The two conceptual abstraction models of the paper (§3):
//!
//! * the **data protection tactic model** (§3.1, Fig. 1): tactics reified
//!   as a set of operations, each with a leakage profile and performance
//!   metrics — the vocabulary *tactic providers* use;
//! * the **data access model** (§3.2, Fig. 2): per-field protection
//!   classes and required operations — the vocabulary *application
//!   developers* use.

use std::collections::BTreeMap;

use datablinder_docstore::Value;

/// Leakage levels of Fuller et al. (SoK, IEEE S&P 2017), as adopted in
/// §3.1. Ordered from most protective to least: `Structure` leaks only
/// sizes, `Order` leaks numeric/lexicographic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakageLevel {
    /// Only the size of the data structure (hideable by padding).
    Structure = 1,
    /// Past and future access patterns of identifiers.
    Identifiers = 2,
    /// Query predicate structure (e.g. boolean intersections).
    Predicates = 3,
    /// Which objects share the same value.
    Equalities = 4,
    /// Numeric/lexicographic order of objects.
    Order = 5,
}

impl LeakageLevel {
    /// All levels, most protective first.
    pub const ALL: [LeakageLevel; 5] = [
        LeakageLevel::Structure,
        LeakageLevel::Identifiers,
        LeakageLevel::Predicates,
        LeakageLevel::Equalities,
        LeakageLevel::Order,
    ];
}

impl std::fmt::Display for LeakageLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LeakageLevel::Structure => "Structure",
            LeakageLevel::Identifiers => "Identifiers",
            LeakageLevel::Predicates => "Predicates",
            LeakageLevel::Equalities => "Equalities",
            LeakageLevel::Order => "Order",
        };
        f.write_str(s)
    }
}

/// Data protection classes C1..C5 of the data access model (§3.2). Each
/// class admits tactics whose worst-case leakage is at most its
/// counterpart leakage level; C1 admits the least leakage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtectionClass {
    /// Admits only `Structure` leakage.
    C1 = 1,
    /// Admits up to `Identifiers`.
    C2 = 2,
    /// Admits up to `Predicates`.
    C3 = 3,
    /// Admits up to `Equalities`.
    C4 = 4,
    /// Admits up to `Order`.
    C5 = 5,
}

impl ProtectionClass {
    /// The strongest leakage level this class admits.
    pub fn max_leakage(self) -> LeakageLevel {
        match self {
            ProtectionClass::C1 => LeakageLevel::Structure,
            ProtectionClass::C2 => LeakageLevel::Identifiers,
            ProtectionClass::C3 => LeakageLevel::Predicates,
            ProtectionClass::C4 => LeakageLevel::Equalities,
            ProtectionClass::C5 => LeakageLevel::Order,
        }
    }

    /// Whether a tactic operation with leakage `l` is admissible.
    pub fn admits(self, l: LeakageLevel) -> bool {
        l <= self.max_leakage()
    }
}

impl std::fmt::Display for ProtectionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", *self as u8)
    }
}

/// High-level operations of the data access model (Fig. 2) — what clients
/// annotate fields with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldOp {
    /// Insertion (every annotated field needs it).
    Insert,
    /// Equality search.
    Equality,
    /// Boolean (conjunction/disjunction) search, possibly cross-field.
    Boolean,
    /// Range search.
    Range,
}

impl std::fmt::Display for FieldOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FieldOp::Insert => "I",
            FieldOp::Equality => "EQ",
            FieldOp::Boolean => "BL",
            FieldOp::Range => "RG",
        };
        f.write_str(s)
    }
}

/// Aggregate functions of the data access model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggFn {
    /// Cloud-side homomorphic sum.
    Sum,
    /// Cloud-side homomorphic average (sum + count).
    Avg,
    /// Count of documents.
    Count,
}

impl std::fmt::Display for AggFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggFn::Sum => "sum",
            AggFn::Avg => "avg",
            AggFn::Count => "count",
        };
        f.write_str(s)
    }
}

/// Tactic-internal operations (Fig. 1): each carries a leakage profile and
/// performance metrics, on a per-operation basis as §3.1 argues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TacticOp {
    /// Setup of cryptographic primitives and data structures.
    Init,
    /// Dynamic add/update/delete of documents.
    Update,
    /// Equality query.
    EqQuery,
    /// Boolean query.
    BoolQuery,
    /// Range/comparison query.
    RangeQuery,
    /// Aggregate computation.
    Aggregate,
}

/// Performance metrics of one tactic operation (Fig. 1's right side).
/// Coarse-grained ranks rather than measured numbers: the registry uses
/// them for tie-breaking during selection; benches measure real numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfMetrics {
    /// Relative computational cost rank (1 = cheapest).
    pub compute_rank: u8,
    /// Round trips per operation.
    pub round_trips: u8,
    /// Relative storage blow-up rank (1 = none).
    pub storage_rank: u8,
}

impl PerfMetrics {
    /// Convenience constructor.
    pub const fn new(compute_rank: u8, round_trips: u8, storage_rank: u8) -> Self {
        PerfMetrics { compute_rank, round_trips, storage_rank }
    }
}

/// Descriptor of one tactic operation: leakage + performance (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpProfile {
    /// The operation.
    pub op: TacticOp,
    /// Its leakage profile.
    pub leakage: LeakageLevel,
    /// Its performance metrics.
    pub metrics: PerfMetrics,
}

/// A full tactic descriptor: the reified data protection tactic model.
///
/// Tactic providers register one of these per tactic; the middleware's
/// selection algorithm consumes only this metadata (crypto agility: no
/// scheme-specific logic in the selector).
#[derive(Debug, Clone, PartialEq)]
pub struct TacticDescriptor {
    /// Unique name, e.g. `"mitra"`.
    pub name: String,
    /// Human-readable scheme family, e.g. `"SSE (forward private)"`.
    pub family: String,
    /// Per-operation leakage/performance profiles.
    pub operations: Vec<OpProfile>,
    /// Which high-level field ops this tactic can serve.
    pub serves: Vec<FieldOp>,
    /// Which aggregates this tactic can serve.
    pub serves_agg: Vec<AggFn>,
    /// Number of gateway-side SPI interfaces the implementation uses
    /// (Table 2's "SPI Gateway" column).
    pub gateway_interfaces: u8,
    /// Number of cloud-side SPI interfaces (Table 2's "SPI Cloud" column).
    pub cloud_interfaces: u8,
    /// Whether the scheme keeps state at the gateway (Sophos/Mitra's
    /// "local storage" / stateless-gateway discussion in §7).
    pub gateway_state: bool,
}

impl TacticDescriptor {
    /// Worst-case leakage across all operations — the paper's "a chain is
    /// only as strong as its weakest link" rule collapses a tactic to this.
    pub fn worst_leakage(&self) -> LeakageLevel {
        self.operations.iter().map(|o| o.leakage).max().unwrap_or(LeakageLevel::Structure)
    }

    /// Protection class this tactic can serve (its counterpart class).
    pub fn protection_class(&self) -> ProtectionClass {
        match self.worst_leakage() {
            LeakageLevel::Structure => ProtectionClass::C1,
            LeakageLevel::Identifiers => ProtectionClass::C2,
            LeakageLevel::Predicates => ProtectionClass::C3,
            LeakageLevel::Equalities => ProtectionClass::C4,
            LeakageLevel::Order => ProtectionClass::C5,
        }
    }

    /// Whether the tactic serves a field op.
    pub fn serves_op(&self, op: FieldOp) -> bool {
        self.serves.contains(&op)
    }

    /// Total compute rank (selection tie-breaker: cheaper wins).
    pub fn cost_rank(&self) -> u32 {
        self.operations.iter().map(|o| o.metrics.compute_rank as u32).sum()
    }
}

/// A field annotation in the data access model (Fig. 2 / the §5.1 example).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldAnnotation {
    /// Requested protection class.
    pub class: ProtectionClass,
    /// Required operations (`op [...]` in the paper's annotation syntax).
    pub ops: Vec<FieldOp>,
    /// Required aggregates (`agg [...]`).
    pub aggs: Vec<AggFn>,
}

impl FieldAnnotation {
    /// Annotation with operations only.
    pub fn new(class: ProtectionClass, ops: Vec<FieldOp>) -> Self {
        FieldAnnotation { class, ops, aggs: Vec::new() }
    }

    /// Adds aggregates.
    #[must_use]
    pub fn with_aggs(mut self, aggs: Vec<AggFn>) -> Self {
        self.aggs = aggs;
        self
    }
}

/// The expected plaintext type of a field (schema validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// UTF-8 text.
    Text,
    /// Signed integer.
    Integer,
    /// Floating point.
    Float,
    /// Boolean.
    Boolean,
}

impl FieldType {
    /// Whether a field of this type may hold `value`: a float field takes
    /// integers too.
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (FieldType::Text, Value::Str(_))
                | (FieldType::Integer, Value::I64(_))
                | (FieldType::Float, Value::F64(_) | Value::I64(_))
                | (FieldType::Boolean, Value::Bool(_))
        )
    }
}

/// One field of a schema: type plus (for sensitive fields) the annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSpec {
    /// Expected type.
    pub field_type: FieldType,
    /// `Some` marks the field sensitive; `None` stores plaintext.
    pub annotation: Option<FieldAnnotation>,
    /// Whether the field must be present in every document.
    pub required: bool,
}

/// An application schema: named fields with annotations (the *Schema*
/// interface of the deployment view, Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Schema (collection) name.
    pub name: String,
    /// Field specifications by name.
    pub fields: BTreeMap<String, FieldSpec>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        Schema { name: name.into(), fields: BTreeMap::new() }
    }

    /// Adds a plaintext (non-sensitive) field.
    #[must_use]
    pub fn plain_field(mut self, name: &str, field_type: FieldType, required: bool) -> Self {
        self.fields.insert(name.into(), FieldSpec { field_type, annotation: None, required });
        self
    }

    /// Adds a sensitive field with an annotation.
    #[must_use]
    pub fn sensitive_field(
        mut self,
        name: &str,
        field_type: FieldType,
        required: bool,
        annotation: FieldAnnotation,
    ) -> Self {
        self.fields.insert(name.into(), FieldSpec { field_type, annotation: Some(annotation), required });
        self
    }

    /// Names of sensitive fields.
    pub fn sensitive_fields(&self) -> impl Iterator<Item = (&String, &FieldAnnotation)> {
        self.fields.iter().filter_map(|(n, s)| s.annotation.as_ref().map(|a| (n, a)))
    }

    /// Iterates plaintext (non-sensitive) fields with their types.
    pub fn plain_fields(&self) -> impl Iterator<Item = (&String, FieldType)> {
        self.fields.iter().filter(|(_, s)| s.annotation.is_none()).map(|(n, s)| (n, s.field_type))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_total_order() {
        assert!(LeakageLevel::Structure < LeakageLevel::Identifiers);
        assert!(LeakageLevel::Identifiers < LeakageLevel::Predicates);
        assert!(LeakageLevel::Predicates < LeakageLevel::Equalities);
        assert!(LeakageLevel::Equalities < LeakageLevel::Order);
    }

    #[test]
    fn class_admission() {
        assert!(ProtectionClass::C3.admits(LeakageLevel::Predicates));
        assert!(ProtectionClass::C3.admits(LeakageLevel::Structure));
        assert!(!ProtectionClass::C3.admits(LeakageLevel::Equalities));
        assert!(ProtectionClass::C5.admits(LeakageLevel::Order));
        assert!(!ProtectionClass::C1.admits(LeakageLevel::Identifiers));
    }

    #[test]
    fn descriptor_weakest_link() {
        let d = TacticDescriptor {
            name: "x".into(),
            family: "test".into(),
            operations: vec![
                OpProfile { op: TacticOp::Init, leakage: LeakageLevel::Structure, metrics: PerfMetrics::new(1, 1, 1) },
                OpProfile {
                    op: TacticOp::EqQuery,
                    leakage: LeakageLevel::Equalities,
                    metrics: PerfMetrics::new(1, 1, 1),
                },
            ],
            serves: vec![FieldOp::Equality],
            serves_agg: vec![],
            gateway_interfaces: 2,
            cloud_interfaces: 1,
            gateway_state: false,
        };
        assert_eq!(d.worst_leakage(), LeakageLevel::Equalities);
        assert_eq!(d.protection_class(), ProtectionClass::C4);
        assert!(d.serves_op(FieldOp::Equality));
        assert!(!d.serves_op(FieldOp::Range));
        assert_eq!(d.cost_rank(), 2);
    }

    #[test]
    fn schema_builder() {
        let s = Schema::new("obs").plain_field("id", FieldType::Text, true).sensitive_field(
            "status",
            FieldType::Text,
            true,
            FieldAnnotation::new(ProtectionClass::C3, vec![FieldOp::Insert, FieldOp::Equality]),
        );
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.sensitive_fields().count(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProtectionClass::C2.to_string(), "C2");
        assert_eq!(LeakageLevel::Order.to_string(), "Order");
        assert_eq!(FieldOp::Boolean.to_string(), "BL");
        assert_eq!(AggFn::Avg.to_string(), "avg");
    }
}
