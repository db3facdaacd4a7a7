//! The tactic registry and the adaptive selection algorithm.
//!
//! Selection is purely metadata-driven (descriptors only — no
//! scheme-specific logic), which is what makes the architecture
//! crypto-agile: registering a new tactic with a descriptor makes it
//! immediately eligible, and deprecating one (e.g. after a new attack on
//! OPE) re-routes future fields to the next-best admissible tactic.

use std::collections::HashMap;

use rand::RngCore;

use crate::error::CoreError;
use crate::model::{FieldAnnotation, FieldOp, TacticDescriptor};
use crate::spi::GatewayTactic;
use crate::tactics::{biex, det, mitra, ope, ore, paillier, rnd, sophos, TacticContext};

/// Factory building a gateway tactic instance for a context.
pub type GatewayFactory =
    Box<dyn Fn(&TacticContext, &mut dyn RngCore) -> Result<Box<dyn GatewayTactic>, CoreError> + Send + Sync>;

/// The outcome of tactic selection for one field (the middle table of
/// §5.1: "Sensitives / Tactic Selection / Reason").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Search tactics covering the field's non-insert operations, in
    /// registry priority order. Empty when only insertion is required.
    pub search_tactics: Vec<String>,
    /// Aggregate tactics covering the field's `agg` annotations.
    pub agg_tactics: Vec<String>,
    /// The tactic owning payload encryption (recoverable storage):
    /// `det` when DET is selected, otherwise `rnd`.
    pub payload: String,
    /// Human-readable selection rationale.
    pub reason: String,
}

impl Selection {
    /// Every distinct tactic the field uses (search + agg + payload).
    pub fn all_tactics(&self) -> Vec<String> {
        let mut out = self.search_tactics.clone();
        out.extend(self.agg_tactics.iter().cloned());
        if !out.contains(&self.payload) {
            out.push(self.payload.clone());
        }
        out
    }

    /// The tactics the paper's §5.1 table lists (search + agg; the
    /// implicit RND payload is not listed unless it is the only tactic).
    pub fn listed_tactics(&self) -> Vec<String> {
        let mut out = self.search_tactics.clone();
        out.extend(self.agg_tactics.iter().cloned());
        if out.is_empty() {
            out.push(self.payload.clone());
        }
        out
    }
}

/// Measured per-tactic latencies that override the static
/// [`PerfMetrics`](crate::model::PerfMetrics) cost ranks during selection.
///
/// The static ranks in Table 2 are relative a-priori estimates; a running
/// deployment knows better. Feeding an observability snapshot's
/// `tactic.<name>.<op>` EWMAs back through
/// [`TacticRegistry::set_measurements`] makes subsequent selections rank
/// *measured* tactics by their observed latency (normalised onto the
/// static-rank scale so measured and unmeasured tactics stay comparable)
/// while unmeasured tactics keep their static rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasuredPerfMetrics {
    nanos: HashMap<String, f64>,
}

impl MeasuredPerfMetrics {
    /// No measurements: selection uses static ranks only.
    pub fn new() -> Self {
        MeasuredPerfMetrics::default()
    }

    /// Records the observed mean latency for one tactic, in nanoseconds.
    pub fn set(&mut self, tactic: &str, nanos: f64) {
        if nanos.is_finite() && nanos > 0.0 {
            self.nanos.insert(tactic.to_string(), nanos);
        }
    }

    /// The observed latency for a tactic, if measured.
    pub fn get(&self, tactic: &str) -> Option<f64> {
        self.nanos.get(tactic).copied()
    }

    /// Whether no tactic has been measured.
    pub fn is_empty(&self) -> bool {
        self.nanos.is_empty()
    }

    /// Extracts per-tactic latencies from an observability snapshot: every
    /// `tactic.<name>.<op>` EWMA contributes, and a tactic measured under
    /// several operations gets the mean of its per-op EWMAs.
    pub fn from_snapshot(snapshot: &datablinder_obs::Snapshot) -> Self {
        let mut sums: HashMap<String, (f64, u32)> = HashMap::new();
        for e in &snapshot.ewmas {
            let Some(rest) = e.name.strip_prefix("tactic.") else { continue };
            let Some((tactic, _op)) = rest.rsplit_once('.') else { continue };
            let entry = sums.entry(tactic.to_string()).or_insert((0.0, 0));
            entry.0 += e.nanos;
            entry.1 += 1;
        }
        let mut m = MeasuredPerfMetrics::new();
        for (tactic, (sum, n)) in sums {
            m.set(&tactic, sum / n as f64);
        }
        m
    }
}

/// The tactic registry: descriptors in priority order plus factories.
pub struct TacticRegistry {
    descriptors: Vec<TacticDescriptor>,
    factories: HashMap<String, GatewayFactory>,
    measurements: MeasuredPerfMetrics,
}

impl TacticRegistry {
    /// An empty registry (for fully custom deployments).
    pub fn empty() -> Self {
        TacticRegistry { descriptors: Vec::new(), factories: HashMap::new(), measurements: MeasuredPerfMetrics::new() }
    }

    /// The registry with every built-in tactic of Table 2, in selection
    /// priority order.
    pub fn with_builtins() -> Self {
        let mut r = TacticRegistry::empty();
        r.register(rnd::descriptor(), Box::new(|ctx, _| Ok(Box::new(rnd::RndTactic::build(ctx)?))));
        r.register(det::descriptor(), Box::new(|ctx, _| Ok(Box::new(det::DetTactic::build(ctx)?))));
        r.register(mitra::descriptor(), Box::new(|ctx, _| Ok(Box::new(mitra::MitraTactic::build(ctx)?))));
        r.register(
            sophos::descriptor(),
            Box::new(|ctx, rng| Ok(Box::new(sophos::SophosTactic::build(ctx, &mut BoxRng(rng))?))),
        );
        r.register(
            biex::descriptor_2lev(),
            Box::new(|ctx, _| Ok(Box::new(biex::BiexTactic::build(ctx, biex::BiexVariant::TwoLev)?))),
        );
        r.register(
            biex::descriptor_zmf(),
            Box::new(|ctx, _| Ok(Box::new(biex::BiexTactic::build(ctx, biex::BiexVariant::Zmf)?))),
        );
        r.register(ope::descriptor(), Box::new(|ctx, _| Ok(Box::new(ope::OpeTactic::build(ctx)?))));
        r.register(ore::descriptor(), Box::new(|ctx, _| Ok(Box::new(ore::OreTactic::build(ctx)?))));
        r.register(
            paillier::descriptor(),
            Box::new(|ctx, rng| Ok(Box::new(paillier::PaillierTactic::build(ctx, &mut BoxRng(rng))?))),
        );
        r
    }

    /// Registers a tactic (the SPI extension point for tactic providers).
    pub fn register(&mut self, descriptor: TacticDescriptor, factory: GatewayFactory) {
        self.factories.insert(descriptor.name.clone(), factory);
        self.descriptors.push(descriptor);
    }

    /// Removes a tactic (crypto agility: deprecating a broken scheme).
    /// Returns whether it existed.
    pub fn deprecate(&mut self, name: &str) -> bool {
        let existed = self.factories.remove(name).is_some();
        self.descriptors.retain(|d| d.name != name);
        existed
    }

    /// All descriptors in priority order.
    pub fn descriptors(&self) -> &[TacticDescriptor] {
        &self.descriptors
    }

    /// Looks up one descriptor.
    pub fn descriptor(&self, name: &str) -> Option<&TacticDescriptor> {
        self.descriptors.iter().find(|d| d.name == name)
    }

    /// Installs measured per-tactic latencies; subsequent [`select`] calls
    /// rank measured tactics by observed latency instead of static cost.
    ///
    /// [`select`]: TacticRegistry::select
    pub fn set_measurements(&mut self, measurements: MeasuredPerfMetrics) {
        self.measurements = measurements;
    }

    /// The measured latencies currently in force.
    pub fn measurements(&self) -> &MeasuredPerfMetrics {
        &self.measurements
    }

    /// The effective selection cost of each admissible tactic, as
    /// `name -> cost`. With no measurements this is the static
    /// `cost_rank()`; with measurements, measured tactics cost
    /// `observed_nanos / unit` where `unit` (nanos per static rank point)
    /// is calibrated over the measured admissible tactics, keeping
    /// measured and unmeasured costs on one scale.
    fn effective_costs(&self, admissible: &[&TacticDescriptor]) -> HashMap<String, f64> {
        let mut measured_nanos = 0.0f64;
        let mut measured_ranks = 0u32;
        for d in admissible {
            if let Some(n) = self.measurements.get(&d.name) {
                measured_nanos += n;
                measured_ranks += d.cost_rank();
            }
        }
        let unit =
            if measured_ranks > 0 && measured_nanos > 0.0 { measured_nanos / measured_ranks as f64 } else { 0.0 };
        admissible
            .iter()
            .map(|d| {
                let cost = match self.measurements.get(&d.name) {
                    Some(n) if unit > 0.0 => n / unit,
                    _ => d.cost_rank() as f64,
                };
                (d.name.clone(), cost)
            })
            .collect()
    }

    /// Builds a gateway tactic instance (runtime loading — the strategy
    /// pattern of §4.2).
    ///
    /// # Errors
    ///
    /// Unknown names or factory failures.
    pub fn build_gateway(
        &self,
        name: &str,
        ctx: &TacticContext,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn GatewayTactic>, CoreError> {
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| CoreError::UnsupportedOperation(format!("unknown tactic {name}")))?;
        factory(ctx, rng)
    }

    /// Selects tactics for a field annotation: the smallest set of
    /// admissible tactics covering all required operations, tie-broken by
    /// total compute-cost rank, then registry order.
    ///
    /// # Errors
    ///
    /// [`CoreError::PolicyUnsatisfiable`] when an operation cannot be
    /// served within the class.
    pub fn select(&self, field: &str, annotation: &FieldAnnotation) -> Result<Selection, CoreError> {
        let admissible: Vec<&TacticDescriptor> =
            self.descriptors.iter().filter(|d| annotation.class.admits(d.worst_leakage())).collect();

        let required: Vec<FieldOp> = annotation.ops.iter().copied().filter(|op| *op != FieldOp::Insert).collect();

        // Check coverage per op first, for a precise error.
        for &op in &required {
            if !admissible.iter().any(|d| d.serves_op(op)) {
                return Err(CoreError::PolicyUnsatisfiable { field: field.to_string(), class: annotation.class, op });
            }
        }

        let costs = self.effective_costs(&admissible);
        let search_tactics = if required.is_empty() { Vec::new() } else { best_cover(&admissible, &required, &costs) };

        // Aggregates: cheapest admissible tactic per function.
        let mut agg_tactics: Vec<String> = Vec::new();
        for &agg in &annotation.aggs {
            let candidate = admissible
                .iter()
                .filter(|d| d.serves_agg.contains(&agg))
                .min_by(|a, b| {
                    let ca = costs.get(&a.name).copied().unwrap_or(f64::MAX);
                    let cb = costs.get(&b.name).copied().unwrap_or(f64::MAX);
                    ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .ok_or(CoreError::PolicyUnsatisfiable {
                    field: field.to_string(),
                    class: annotation.class,
                    // Aggregates surface as Insert coverage failures for
                    // error-reporting purposes; the message names the field.
                    op: FieldOp::Insert,
                })?;
            if !agg_tactics.contains(&candidate.name) {
                agg_tactics.push(candidate.name.clone());
            }
        }

        let payload = if search_tactics.iter().any(|n| n == "det") { "det".to_string() } else { "rnd".to_string() };

        let mut reason = build_reason(&search_tactics, &agg_tactics, annotation);
        let measured: Vec<&String> =
            search_tactics.iter().chain(agg_tactics.iter()).filter(|n| self.measurements.get(n).is_some()).collect();
        if !measured.is_empty() {
            reason.push_str("; measured latencies ranked");
        }
        Ok(Selection { search_tactics, agg_tactics, payload, reason })
    }
}

/// Adapts `&mut dyn RngCore` to a concrete `RngCore` value for factories
/// with generic bounds.
struct BoxRng<'a>(&'a mut dyn RngCore);

impl RngCore for BoxRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Smallest covering set (ops ≤ 3, tactics ≤ ~10: exhaustive subsets of
/// size 1..=3 are cheap), tie-broken by effective cost (static rank, or
/// normalised measured latency) then priority order.
fn best_cover(admissible: &[&TacticDescriptor], required: &[FieldOp], costs: &HashMap<String, f64>) -> Vec<String> {
    let covers = |set: &[&TacticDescriptor]| required.iter().all(|op| set.iter().any(|d| d.serves_op(*op)));
    for size in 1..=3usize {
        let mut best: Option<(f64, Vec<String>)> = None;
        let mut consider = |set: Vec<&TacticDescriptor>| {
            if !covers(&set) {
                return;
            }
            let cost: f64 = set.iter().map(|d| costs.get(&d.name).copied().unwrap_or(f64::MAX)).sum();
            let names: Vec<String> = set.iter().map(|d| d.name.clone()).collect();
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, names));
            }
        };
        match size {
            1 => {
                for &a in admissible {
                    consider(vec![a]);
                }
            }
            2 => {
                for i in 0..admissible.len() {
                    for j in i + 1..admissible.len() {
                        consider(vec![admissible[i], admissible[j]]);
                    }
                }
            }
            _ => {
                for i in 0..admissible.len() {
                    for j in i + 1..admissible.len() {
                        for k in j + 1..admissible.len() {
                            consider(vec![admissible[i], admissible[j], admissible[k]]);
                        }
                    }
                }
            }
        }
        if let Some((_, names)) = best {
            return names;
        }
    }
    Vec::new() // unreachable: per-op coverage was verified by the caller
}

fn build_reason(search: &[String], aggs: &[String], annotation: &FieldAnnotation) -> String {
    let mut parts = Vec::new();
    if annotation.ops.contains(&FieldOp::Range) {
        parts.push("Range queries".to_string());
    }
    if annotation.ops.contains(&FieldOp::Boolean) && search.iter().any(|n| n.starts_with("biex")) {
        parts.push("Boolean & cross-field".to_string());
    }
    if search.is_empty() && aggs.is_empty() {
        parts.push(format!("{} protection level", annotation.class.max_leakage()));
    }
    if search.iter().any(|n| n == "mitra" || n == "sophos") && !annotation.ops.contains(&FieldOp::Boolean) {
        parts.push("Identifier protection level".to_string());
    }
    if !aggs.is_empty() {
        parts.push("Cloud-side aggregates".to_string());
    }
    if parts.is_empty() {
        parts.push("Equality search".to_string());
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AggFn, ProtectionClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn annotation(class: ProtectionClass, ops: &[FieldOp]) -> FieldAnnotation {
        FieldAnnotation::new(class, ops.to_vec())
    }

    /// The §5.1 example table, field by field.
    #[test]
    fn selection_matches_paper_table() {
        use FieldOp::*;
        let r = TacticRegistry::with_builtins();

        // status: C3, op [I, EQ, BL] -> BIEX-2Lev
        let s = r.select("status", &annotation(ProtectionClass::C3, &[Insert, Equality, Boolean])).unwrap();
        assert_eq!(s.listed_tactics(), vec!["biex-2lev"]);

        // code: C3, op [I, EQ, BL] -> BIEX-2Lev
        let s = r.select("code", &annotation(ProtectionClass::C3, &[Insert, Equality, Boolean])).unwrap();
        assert_eq!(s.listed_tactics(), vec!["biex-2lev"]);

        // subject: C2, op [I, EQ] -> Mitra
        let s = r.select("subject", &annotation(ProtectionClass::C2, &[Insert, Equality])).unwrap();
        assert_eq!(s.listed_tactics(), vec!["mitra"]);

        // effective: C5, op [I, EQ, BL, RG] -> DET, OPE
        let s = r.select("effective", &annotation(ProtectionClass::C5, &[Insert, Equality, Boolean, Range])).unwrap();
        let mut listed = s.listed_tactics();
        listed.sort();
        assert_eq!(listed, vec!["det", "ope"]);
        assert_eq!(s.payload, "det");

        // issued: same as effective
        let s = r.select("issued", &annotation(ProtectionClass::C5, &[Insert, Equality, Boolean, Range])).unwrap();
        let mut listed = s.listed_tactics();
        listed.sort();
        assert_eq!(listed, vec!["det", "ope"]);

        // performer: C1, op [I] -> RND
        let s = r.select("performer", &annotation(ProtectionClass::C1, &[Insert])).unwrap();
        assert_eq!(s.listed_tactics(), vec!["rnd"]);
        assert_eq!(s.payload, "rnd");

        // value: C3, op [I, EQ, BL], agg [avg] -> BIEX-2Lev, Paillier
        let a = annotation(ProtectionClass::C3, &[Insert, Equality, Boolean]).with_aggs(vec![AggFn::Avg]);
        let s = r.select("value", &a).unwrap();
        assert_eq!(s.listed_tactics(), vec!["biex-2lev", "paillier"]);
    }

    #[test]
    fn policy_unsatisfiable_detected() {
        use FieldOp::*;
        let r = TacticRegistry::with_builtins();
        // Boolean search within C2: no boolean tactic is that strong.
        let err = r.select("f", &annotation(ProtectionClass::C2, &[Insert, Boolean])).unwrap_err();
        assert!(matches!(err, CoreError::PolicyUnsatisfiable { op: FieldOp::Boolean, .. }));
        // Range within C4: OPE/ORE leak order (class 5).
        let err = r.select("f", &annotation(ProtectionClass::C4, &[Insert, Range])).unwrap_err();
        assert!(matches!(err, CoreError::PolicyUnsatisfiable { op: FieldOp::Range, .. }));
        // Equality within C1: even Mitra leaks identifiers.
        let err = r.select("f", &annotation(ProtectionClass::C1, &[Insert, Equality])).unwrap_err();
        assert!(matches!(err, CoreError::PolicyUnsatisfiable { op: FieldOp::Equality, .. }));
    }

    #[test]
    fn higher_class_prefers_cheaper_tactics() {
        use FieldOp::*;
        let r = TacticRegistry::with_builtins();
        // With C4 allowed, DET (cheap) wins over Mitra for equality.
        let s = r.select("f", &annotation(ProtectionClass::C4, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["det"]);
        // But at C2, only identifier-level SSE qualifies.
        let s = r.select("f", &annotation(ProtectionClass::C2, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["mitra"]);
    }

    #[test]
    fn measured_latencies_invert_static_ranking() {
        use FieldOp::*;
        let mut r = TacticRegistry::with_builtins();
        // Statically, C4 equality prefers DET (cheapest admissible).
        let s = r.select("f", &annotation(ProtectionClass::C4, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["det"]);

        // Observed latencies invert the static ranking: DET measured slow
        // (e.g. contended payload-key path), Mitra measured fast.
        let mut m = MeasuredPerfMetrics::new();
        m.set("det", 50_000.0);
        m.set("mitra", 1_000.0);
        r.set_measurements(m);
        let s = r.select("f", &annotation(ProtectionClass::C4, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["mitra"], "selection follows observed latency");
        assert!(s.reason.contains("measured latencies"), "reason: {}", s.reason);

        // Clearing measurements restores the static choice.
        r.set_measurements(MeasuredPerfMetrics::new());
        let s = r.select("f", &annotation(ProtectionClass::C4, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["det"]);
    }

    #[test]
    fn unmeasured_tactics_keep_static_rank() {
        use FieldOp::*;
        let mut r = TacticRegistry::with_builtins();
        // Only DET is measured, and it performs exactly as its static rank
        // suggests relative to the calibration unit — since it is the only
        // measured tactic, its measured cost equals its static rank, so the
        // static winner is unchanged.
        let mut m = MeasuredPerfMetrics::new();
        m.set("det", 10_000.0);
        r.set_measurements(m);
        let s = r.select("f", &annotation(ProtectionClass::C4, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["det"]);
    }

    #[test]
    fn measurements_from_snapshot_average_per_op_ewmas() {
        let rec = datablinder_obs::Recorder::new();
        rec.ewma_observe("tactic.det.eq_query", std::time::Duration::from_nanos(4_000));
        rec.ewma_observe("tactic.det.update", std::time::Duration::from_nanos(2_000));
        rec.ewma_observe("tactic.mitra.eq_query", std::time::Duration::from_nanos(9_000));
        rec.count("gateway.insert.count", 1); // non-EWMA noise ignored
        let m = MeasuredPerfMetrics::from_snapshot(&rec.snapshot());
        assert_eq!(m.get("det"), Some(3_000.0), "mean of the two per-op EWMAs");
        assert_eq!(m.get("mitra"), Some(9_000.0));
        assert_eq!(m.get("ope"), None);
    }

    #[test]
    fn deprecation_reroutes_selection() {
        use FieldOp::*;
        let mut r = TacticRegistry::with_builtins();
        assert!(r.deprecate("mitra"));
        assert!(!r.deprecate("mitra"));
        // Sophos takes over as the class-2 equality tactic.
        let s = r.select("f", &annotation(ProtectionClass::C2, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["sophos"]);
    }

    #[test]
    fn custom_tactic_registration_wins_when_cheaper() {
        use crate::model::*;
        use FieldOp::*;
        let mut r = TacticRegistry::with_builtins();
        let custom = TacticDescriptor {
            name: "super-eq".into(),
            family: "test".into(),
            operations: vec![OpProfile {
                op: TacticOp::EqQuery,
                leakage: LeakageLevel::Identifiers,
                metrics: PerfMetrics::new(1, 1, 1),
            }],
            serves: vec![Insert, Equality],
            serves_agg: vec![],
            gateway_interfaces: 2,
            cloud_interfaces: 1,
            gateway_state: false,
        };
        r.register(custom, Box::new(|ctx, _| Ok(Box::new(rnd::RndTactic::build(ctx)?))));
        let s = r.select("f", &annotation(ProtectionClass::C2, &[Insert, Equality])).unwrap();
        assert_eq!(s.search_tactics, vec!["super-eq"]);
    }

    #[test]
    fn build_gateway_unknown_name_errors() {
        let r = TacticRegistry::with_builtins();
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = TacticContext {
            application: "a".into(),
            schema: "s".into(),
            scope: "f".into(),
            kms: datablinder_kms::Kms::generate(&mut rng),
        };
        assert!(r.build_gateway("nope", &ctx, &mut rng).is_err());
        assert!(r.build_gateway("rnd", &ctx, &mut rng).is_ok());
    }

    #[test]
    fn table2_shape_from_descriptors() {
        // Table 2's class/leakage columns regenerate from the registry.
        let r = TacticRegistry::with_builtins();
        let d = r.descriptor("det").unwrap();
        assert_eq!(d.protection_class(), ProtectionClass::C4);
        let d = r.descriptor("mitra").unwrap();
        assert_eq!(d.protection_class(), ProtectionClass::C2);
        assert_eq!(d.gateway_interfaces, 7);
        assert_eq!(d.cloud_interfaces, 5);
        let d = r.descriptor("sophos").unwrap();
        assert_eq!(d.protection_class(), ProtectionClass::C2);
        let d = r.descriptor("rnd").unwrap();
        assert_eq!(d.protection_class(), ProtectionClass::C1);
        let d = r.descriptor("biex-2lev").unwrap();
        assert_eq!(d.protection_class(), ProtectionClass::C3);
        let d = r.descriptor("ope").unwrap();
        assert_eq!(d.protection_class(), ProtectionClass::C5);
        let d = r.descriptor("ore").unwrap();
        assert_eq!(d.protection_class(), ProtectionClass::C5);
    }
}
