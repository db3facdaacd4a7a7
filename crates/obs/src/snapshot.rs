//! Point-in-time snapshots of a recorder, renderable as JSON and aligned
//! text tables — and parseable back from JSON ([`Snapshot::from_json`]),
//! which is how per-node snapshots travel over the `obs/snapshot` cloud
//! route for federation.

use std::fmt::Write as _;
use std::time::Duration;

use crate::histogram::LatencyHistogram;
use crate::json::{write_escaped, Json};
use crate::ledger::level_name;
use crate::span::{Span, SpanOutcome};

/// Summary of one named histogram at snapshot time. Carries the raw
/// non-zero buckets alongside the derived statistics, so summaries from
/// different nodes merge losslessly ([`HistogramSummary::to_histogram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Instrument name (`subsystem.route.metric`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_nanos: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 90th percentile, nanoseconds.
    pub p90_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Largest sample, nanoseconds.
    pub max_nanos: u64,
    /// Sum of all samples, nanoseconds (saturating).
    pub sum_nanos: u64,
    /// Sparse non-zero `(bucket index, count)` pairs — the lossless raw
    /// form backing federation merges.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSummary {
    /// Summarises `h` under `name`.
    pub fn of(name: &str, h: &LatencyHistogram) -> Self {
        HistogramSummary {
            name: name.to_string(),
            count: h.count(),
            mean_nanos: h.mean().as_nanos() as u64,
            p50_nanos: h.percentile(0.50).as_nanos() as u64,
            p90_nanos: h.percentile(0.90).as_nanos() as u64,
            p99_nanos: h.percentile(0.99).as_nanos() as u64,
            max_nanos: h.max().as_nanos() as u64,
            sum_nanos: h.sum_nanos(),
            buckets: h.nonzero_buckets(),
        }
    }

    /// Rebuilds the histogram this summary was taken from (lossless up to
    /// bucket resolution).
    pub fn to_histogram(&self) -> LatencyHistogram {
        LatencyHistogram::from_buckets(&self.buckets, self.sum_nanos, self.max_nanos)
    }
}

/// Summary of one named EWMA at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaSummary {
    /// Instrument name.
    pub name: String,
    /// Smoothed latency, nanoseconds.
    pub nanos: f64,
    /// Samples folded in.
    pub samples: u64,
}

/// One leakage-ledger cell (see [`crate::ledger::LeakageLedger`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The field operated on.
    pub field: String,
    /// The high-level operation (`insert`, `equality`, …).
    pub op: String,
    /// The tactic whose execution produced the worst observation.
    pub tactic: String,
    /// Worst observed leakage level (1–5).
    pub observed: u8,
    /// Declared admissible level from the field's protection class (1–5).
    pub declared: u8,
    /// Executions recorded.
    pub count: u64,
}

impl LedgerEntry {
    /// Whether this cell leaked beyond its declaration.
    pub fn violates(&self) -> bool {
        self.observed > self.declared
    }
}

/// A point-in-time view over every instrument of a recorder.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The recorder's node label, when one was set (e.g. `node3`).
    pub label: Option<String>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// EWMA summaries, sorted by name.
    pub ewmas: Vec<EwmaSummary>,
    /// Leakage-ledger cells, sorted by field then operation.
    pub ledger: Vec<LedgerEntry>,
    /// Traced spans still retained in the ring (trace_id ≠ 0), the raw
    /// material trace trees are reconstructed from.
    pub trace_spans: Vec<Span>,
    /// Total spans recorded since the recorder was created.
    pub spans_recorded: u64,
    /// Spans evicted by the ring bound.
    pub spans_dropped: u64,
}

fn fmt_nanos(nanos: u64) -> String {
    let d = Duration::from_nanos(nanos);
    if d >= Duration::from_secs(1) {
        format!("{:.2}s", d.as_secs_f64())
    } else if d >= Duration::from_millis(1) {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else if d >= Duration::from_micros(1) {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{nanos}ns")
    }
}

fn write_opt_str(out: &mut String, key: &str, value: Option<&str>) {
    let _ = write!(out, ",\"{key}\":");
    match value {
        Some(v) => write_escaped(out, v),
        None => out.push_str("null"),
    }
}

impl Snapshot {
    /// The counter named `name` (0 when absent — counters that never
    /// incremented were never created).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram summary named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The EWMA summary named `name`, if present.
    pub fn ewma(&self, name: &str) -> Option<&EwmaSummary> {
        self.ewmas.iter().find(|e| e.name == name)
    }

    /// Counters whose name starts with `prefix` (e.g. `"gateway."`).
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters.iter().filter(|(n, _)| n.starts_with(prefix)).cloned().collect()
    }

    /// Renders the snapshot as a JSON document (parseable back with
    /// [`Snapshot::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"label\":");
        match &self.label {
            Some(l) => write_escaped(&mut out, l),
            None => out.push_str("null"),
        }
        out.push_str(",\"counters\":[");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}");
        }
        out.push_str("],\"gauges\":[");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}");
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &h.name);
            let _ = write!(
                out,
                ",\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"sum_ns\":{}",
                h.count, h.mean_nanos, h.p50_nanos, h.p90_nanos, h.p99_nanos, h.max_nanos, h.sum_nanos
            );
            out.push_str(",\"buckets\":[");
            for (j, (idx, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{idx},{count}]");
            }
            out.push_str("]}");
        }
        out.push_str("],\"ewmas\":[");
        for (i, e) in self.ewmas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &e.name);
            let _ = write!(out, ",\"nanos\":{:.1},\"samples\":{}}}", e.nanos, e.samples);
        }
        out.push_str("],\"ledger\":[");
        for (i, e) in self.ledger.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"field\":");
            write_escaped(&mut out, &e.field);
            out.push_str(",\"op\":");
            write_escaped(&mut out, &e.op);
            out.push_str(",\"tactic\":");
            write_escaped(&mut out, &e.tactic);
            let _ = write!(
                out,
                ",\"observed\":{},\"declared\":{},\"count\":{},\"violation\":{}}}",
                e.observed,
                e.declared,
                e.count,
                e.violates()
            );
        }
        out.push_str("],\"trace_spans\":[");
        for (i, s) in self.trace_spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"trace\":{},\"span\":{},\"parent\":{}",
                s.id, s.trace_id, s.span_id, s.parent_id
            );
            out.push_str(",\"route\":");
            write_escaped(&mut out, &s.route);
            write_opt_str(&mut out, "node", s.node.as_deref());
            write_opt_str(&mut out, "tactic", s.tactic.as_deref());
            write_opt_str(&mut out, "field", s.field.as_deref());
            write_opt_str(&mut out, "detail", s.detail.as_deref());
            let _ = write!(
                out,
                ",\"ok\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.outcome == SpanOutcome::Ok,
                s.start_nanos,
                s.duration.as_nanos().min(u64::MAX as u128) as u64
            );
        }
        let _ =
            write!(out, "],\"spans\":{{\"recorded\":{},\"dropped\":{}}}}}", self.spans_recorded, self.spans_dropped);
        out
    }

    /// Parses a snapshot back from its [`Snapshot::to_json`] form.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field. Absent optional keys (e.g.
    /// from an older emitter without `label`/`trace_spans`) default to
    /// empty rather than erroring.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_value(&Json::parse(text)?)
    }

    /// As [`Snapshot::from_json`] over an already-parsed JSON node (used
    /// when the snapshot is nested in a larger document, e.g. a federated
    /// cluster snapshot).
    pub fn from_value(doc: &Json) -> Result<Snapshot, String> {
        let arr = |key: &str| -> &[Json] { doc.get(key).and_then(Json::as_array).unwrap_or(&[]) };
        let name_of = |j: &Json| -> Result<String, String> {
            Ok(j.get("name").and_then(Json::as_str).ok_or("snapshot: entry without name")?.to_string())
        };
        let mut snap =
            Snapshot { label: doc.get("label").and_then(Json::as_str).map(str::to_string), ..Snapshot::default() };
        for c in arr("counters") {
            let value = c.get("value").and_then(Json::as_u64).ok_or("snapshot: counter without value")?;
            snap.counters.push((name_of(c)?, value));
        }
        for g in arr("gauges") {
            let value = g.get("value").and_then(Json::as_f64).ok_or("snapshot: gauge without value")? as i64;
            snap.gauges.push((name_of(g)?, value));
        }
        for h in arr("histograms") {
            let u = |key: &str| h.get(key).and_then(Json::as_u64).unwrap_or(0);
            let mut buckets = Vec::new();
            for pair in h.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
                let pair = pair.as_array().ok_or("snapshot: histogram bucket not a pair")?;
                if pair.len() != 2 {
                    return Err("snapshot: histogram bucket not a pair".into());
                }
                let idx = pair[0].as_u64().ok_or("snapshot: bucket index")? as u32;
                let count = pair[1].as_u64().ok_or("snapshot: bucket count")?;
                buckets.push((idx, count));
            }
            snap.histograms.push(HistogramSummary {
                name: name_of(h)?,
                count: u("count"),
                mean_nanos: u("mean_ns"),
                p50_nanos: u("p50_ns"),
                p90_nanos: u("p90_ns"),
                p99_nanos: u("p99_ns"),
                max_nanos: u("max_ns"),
                sum_nanos: u("sum_ns"),
                buckets,
            });
        }
        for e in arr("ewmas") {
            snap.ewmas.push(EwmaSummary {
                name: name_of(e)?,
                nanos: e.get("nanos").and_then(Json::as_f64).unwrap_or(0.0),
                samples: e.get("samples").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        for e in arr("ledger") {
            let s = |key: &str| -> Result<String, String> {
                Ok(e.get(key).and_then(Json::as_str).ok_or("snapshot: ledger field missing")?.to_string())
            };
            snap.ledger.push(LedgerEntry {
                field: s("field")?,
                op: s("op")?,
                tactic: s("tactic")?,
                observed: e.get("observed").and_then(Json::as_u64).unwrap_or(0) as u8,
                declared: e.get("declared").and_then(Json::as_u64).unwrap_or(0) as u8,
                count: e.get("count").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        for s in arr("trace_spans") {
            let u = |key: &str| s.get(key).and_then(Json::as_u64).unwrap_or(0);
            let opt = |key: &str| s.get(key).and_then(Json::as_str).map(str::to_string);
            snap.trace_spans.push(Span {
                id: u("id"),
                trace_id: u("trace"),
                span_id: u("span"),
                parent_id: u("parent"),
                node: opt("node"),
                route: s.get("route").and_then(Json::as_str).ok_or("snapshot: span without route")?.to_string(),
                tactic: opt("tactic"),
                field: opt("field"),
                detail: opt("detail"),
                outcome: if s.get("ok") == Some(&Json::Bool(false)) { SpanOutcome::Err } else { SpanOutcome::Ok },
                start_nanos: u("start_ns"),
                duration: Duration::from_nanos(u("dur_ns")),
            });
        }
        if let Some(spans) = doc.get("spans") {
            snap.spans_recorded = spans.get("recorded").and_then(Json::as_u64).unwrap_or(0);
            snap.spans_dropped = spans.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        }
        Ok(snap)
    }

    /// Renders the snapshot as aligned text tables.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("counters & gauges\n");
            let width =
                self.counters.iter().map(|(n, _)| n.len()).chain(self.gauges.iter().map(|(n, _)| n.len())).max();
            let width = width.unwrap_or(0).max(4);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$} {value:>12}");
            }
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$} {value:>12}");
            }
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            out.push_str("latency histograms\n");
            let width = self.histograms.iter().map(|h| h.name.len()).max().unwrap_or(4).max(4);
            let _ = writeln!(
                out,
                "  {:<width$} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "mean", "p50", "p99", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<width$} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    fmt_nanos(h.mean_nanos),
                    fmt_nanos(h.p50_nanos),
                    fmt_nanos(h.p99_nanos),
                    fmt_nanos(h.max_nanos)
                );
            }
            out.push('\n');
        }
        if !self.ewmas.is_empty() {
            out.push_str("moving averages\n");
            let width = self.ewmas.iter().map(|e| e.name.len()).max().unwrap_or(4).max(4);
            for e in &self.ewmas {
                let _ = writeln!(out, "  {:<width$} {:>10} ({} samples)", e.name, fmt_nanos(e.nanos as u64), e.samples);
            }
            out.push('\n');
        }
        if !self.ledger.is_empty() {
            out.push_str("leakage ledger (observed vs declared)\n");
            let width = self.ledger.iter().map(|e| e.field.len()).max().unwrap_or(5).max(5);
            let _ = writeln!(
                out,
                "  {:<width$} {:>9} {:>10} {:>12} {:>12} {:>7}",
                "field", "op", "tactic", "observed", "declared", "count"
            );
            for e in &self.ledger {
                let flag = if e.violates() { " VIOLATION" } else { "" };
                let _ = writeln!(
                    out,
                    "  {:<width$} {:>9} {:>10} {:>12} {:>12} {:>7}{flag}",
                    e.field,
                    e.op,
                    e.tactic,
                    level_name(e.observed),
                    level_name(e.declared),
                    e.count
                );
            }
            out.push('\n');
        }
        let _ = writeln!(out, "spans: {} recorded, {} dropped", self.spans_recorded, self.spans_dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> Snapshot {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        let mut span = Span::untraced(3, "gateway.insert", SpanOutcome::Err, Duration::from_micros(40));
        span.trace_id = 11;
        span.span_id = 12;
        span.parent_id = 11;
        span.node = Some("node1".into());
        span.detail = Some("quorum not met".into());
        span.start_nanos = 5_000;
        Snapshot {
            label: Some("gw".into()),
            counters: vec![("gateway.insert.count".into(), 7)],
            gauges: vec![("channel.breaker.state".into(), 1)],
            histograms: vec![HistogramSummary::of("gateway.insert.latency", &h)],
            ewmas: vec![EwmaSummary { name: "tactic.mitra.eq_query".into(), nanos: 1234.5, samples: 3 }],
            ledger: vec![LedgerEntry {
                field: "subject".into(),
                op: "equality".into(),
                tactic: "mitra".into(),
                observed: 2,
                declared: 2,
                count: 9,
            }],
            trace_spans: vec![span],
            spans_recorded: 10,
            spans_dropped: 2,
        }
    }

    #[test]
    fn json_round_trips_through_parser() {
        let snap = sample();
        let parsed = Json::parse(&snap.to_json()).unwrap();
        let counters = parsed.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters[0].get("name").unwrap().as_str(), Some("gateway.insert.count"));
        assert_eq!(counters[0].get("value").unwrap().as_u64(), Some(7));
        let ledger = parsed.get("ledger").unwrap().as_array().unwrap();
        assert_eq!(ledger[0].get("violation"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("spans").unwrap().get("recorded").unwrap().as_u64(), Some(10));
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("gw"));
    }

    #[test]
    fn from_json_reconstructs_the_snapshot() {
        let snap = sample();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.label.as_deref(), Some("gw"));
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms, snap.histograms, "buckets survive the round trip");
        assert_eq!(back.ledger, snap.ledger);
        assert_eq!(back.spans_recorded, 10);
        assert_eq!(back.spans_dropped, 2);
        assert_eq!(back.trace_spans.len(), 1);
        let s = &back.trace_spans[0];
        assert_eq!((s.trace_id, s.span_id, s.parent_id), (11, 12, 11));
        assert_eq!(s.node.as_deref(), Some("node1"));
        assert_eq!(s.detail.as_deref(), Some("quorum not met"));
        assert_eq!(s.outcome, SpanOutcome::Err);
        assert_eq!(s.start_nanos, 5_000);
        assert_eq!(s.duration, Duration::from_micros(40));
        assert_eq!(s.tactic, None, "null decodes back to None");
    }

    #[test]
    fn from_json_tolerates_pre_trace_documents() {
        // A snapshot emitted before label/trace_spans existed.
        let old = r#"{"counters":[{"name":"a.count","value":2}],"gauges":[],"histograms":[],"ewmas":[],"ledger":[],"spans":{"recorded":1,"dropped":0}}"#;
        let snap = Snapshot::from_json(old).unwrap();
        assert_eq!(snap.label, None);
        assert_eq!(snap.counter("a.count"), 2);
        assert!(snap.trace_spans.is_empty());
        assert_eq!(snap.spans_recorded, 1);
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let deep = nested(100_000);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting deeper than"));
        assert!(Snapshot::from_json(&deep).is_err());
        let deep_field = format!("{{\"counters\":{deep}}}");
        assert!(Snapshot::from_json(&deep_field).is_err());
        // The cap sits far above what a snapshot or a federation writes.
        assert!(Json::parse(&nested(64)).is_ok());
        assert!(Json::parse(&nested(65)).is_err());
    }

    #[test]
    fn summary_rebuilds_histogram_losslessly() {
        let mut h = LatencyHistogram::new();
        for us in [3, 50, 50, 900, 12_000] {
            h.record(Duration::from_micros(us));
        }
        let summary = HistogramSummary::of("x", &h);
        let back = summary.to_histogram();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.mean(), h.mean());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.percentile(0.99), h.percentile(0.99));
    }

    #[test]
    fn text_tables_align_and_name_levels() {
        let text = sample().to_text();
        assert!(text.contains("gateway.insert.count"));
        assert!(text.contains("Identifiers"), "levels rendered by name: {text}");
        assert!(text.contains("spans: 10 recorded, 2 dropped"));
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("gateway.insert.count"), 7);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("channel.breaker.state"), Some(1));
        assert_eq!(snap.histogram("gateway.insert.latency").unwrap().count, 1);
        assert_eq!(snap.ewma("tactic.mitra.eq_query").unwrap().samples, 3);
        assert_eq!(snap.counters_with_prefix("gateway.").len(), 1);
    }
}
