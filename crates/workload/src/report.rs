//! Plain-text rendering of Figure 5 and the §5.2 latency table.

use std::time::Duration;

use crate::runner::{OpKind, ScenarioReport};

fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    let mut s = String::new();
    for _ in 0..filled.min(width) {
        s.push('█');
    }
    for _ in filled.min(width)..width {
        s.push('·');
    }
    s
}

fn fmt_dur(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2}s", d.as_secs_f64())
    } else if d >= Duration::from_millis(1) {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0}µs", d.as_secs_f64() * 1e6)
    }
}

/// The three operation classes with the titles Figure 5 gives them.
const CLASSES: [(&str, OpKind); 3] =
    [("insert", OpKind::Insert), ("equality search", OpKind::Search), ("aggregate", OpKind::Aggregate)];

/// Percentage of `from` lost at `to` (both "larger is better").
fn loss_pct(from: f64, to: f64) -> f64 {
    100.0 * (1.0 - to / from)
}

/// Renders the Figure 5 throughput comparison: per-operation and overall
/// bars for the three scenarios, then — given exactly `[S_A, S_B, S_C]` —
/// the two headline losses of §5.2, overall and per operation class.
pub fn render_figure5(reports: &[&ScenarioReport]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5 — Per-operation and overall throughput comparison\n");
    out.push_str("(requests/second; larger is better)\n\n");
    let classes = CLASSES.iter().map(|(title, op)| (*title, Some(*op)));
    for (title, op) in classes.chain([("overall", None)]) {
        let rate = |r: &ScenarioReport| op.map_or(r.throughput(), |op| r.op_throughput(op));
        out.push_str(&format!("{title}:\n"));
        let max = reports.iter().map(|r| rate(r)).fold(0.0f64, f64::max);
        for r in reports {
            out.push_str(&format!("  {:<4} {} {:>10.1} req/s\n", r.label, bar(rate(r), max, 40), rate(r)));
        }
        out.push('\n');
    }
    if let [sa, sb, sc] = reports {
        let (tactics, middleware) =
            (loss_pct(sa.throughput(), sc.throughput()), loss_pct(sb.throughput(), sc.throughput()));
        out.push_str(&format!("overall throughput loss S_A -> S_C (tactics): {tactics:.1}% (paper: ~44%)\n"));
        out.push_str(&format!("additional loss S_B -> S_C (middleware):      {middleware:.1}% (paper: ~1.4%)\n"));
        // The mix gives every class the same share of requests, so a
        // class's own cost shows in its service rate (1 / mean latency),
        // not in its share of the run's throughput.
        out.push_str("per operation class, by service rate (mean latency S_A / S_B / S_C):\n");
        for (title, op) in CLASSES {
            let mean = |r: &ScenarioReport| r.histogram(op).mean();
            let rate = |r: &ScenarioReport| 1.0 / mean(r).as_secs_f64().max(1e-9);
            out.push_str(&format!(
                "  {title:<16} S_A -> S_C {:>5.1}%   S_B -> S_C {:>5.1}%   ({} / {} / {})\n",
                loss_pct(rate(sa), rate(sc)),
                loss_pct(rate(sb), rate(sc)),
                fmt_dur(mean(sa)),
                fmt_dur(mean(sb)),
                fmt_dur(mean(sc)),
            ));
        }
    }
    out
}

/// Renders every slow operation captured in `recorder`'s ring as a text
/// timeline, oldest first — one tree per operation that crossed the
/// armed threshold. Returns a note when the ring is empty (threshold
/// disarmed, or nothing was slow enough).
pub fn render_slow_ops(recorder: &datablinder_obs::Recorder) -> String {
    let trees = recorder.slow_ops();
    if trees.is_empty() {
        return "no slow operations captured (threshold disarmed or never crossed)\n".to_string();
    }
    let mut out = format!("slow operations — {} captured\n\n", trees.len());
    for tree in &trees {
        out.push_str(&datablinder_obs::render_trace_timeline(tree));
        out.push('\n');
    }
    out
}

/// Renders the §5.2 latency table: overall average, p50, p75, p99.
pub fn render_latency_table(reports: &[&ScenarioReport]) -> String {
    let mut out = String::new();
    out.push_str("§5.2 latency table — overall request latency\n\n");
    out.push_str(&format!("{:<6} {:>10} {:>10} {:>10} {:>10}\n", "", "avg", "p50", "p75", "p99"));
    for r in reports {
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>10} {:>10}\n",
            r.label,
            fmt_dur(r.overall.mean()),
            fmt_dur(r.overall.percentile(0.50)),
            fmt_dur(r.overall.percentile(0.75)),
            fmt_dur(r.overall.percentile(0.99)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablinder_obs::histogram::LatencyHistogram;

    fn fake(label: &'static str, per_op_ms: u64) -> ScenarioReport {
        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(Duration::from_millis(per_op_ms));
        }
        let mut overall = LatencyHistogram::new();
        overall.merge(&h);
        ScenarioReport {
            label,
            elapsed: Duration::from_secs(1),
            completed: 10,
            failed: 0,
            insert: h.clone(),
            search: LatencyHistogram::new(),
            aggregate: LatencyHistogram::new(),
            overall,
        }
    }

    #[test]
    fn renders_include_labels_and_headline() {
        let (a, b, c) = (fake("S_A", 1), fake("S_B", 2), fake("S_C", 2));
        let fig = render_figure5(&[&a, &b, &c]);
        assert!(fig.contains("S_A"));
        assert!(fig.contains("overall"));
        assert!(fig.contains("paper: ~44%"));
        // S_A inserts at 1 ms, S_B and S_C at 2 ms: half the service rate, no middleware loss.
        assert!(
            fig.contains("insert           S_A -> S_C  50.0%   S_B -> S_C   0.0%   (1.00ms / 2.00ms / 2.00ms)"),
            "{fig}"
        );
        let tbl = render_latency_table(&[&a, &b, &c]);
        assert!(tbl.contains("p99"));
        assert!(tbl.contains("S_C"));
    }

    #[test]
    fn slow_op_renderer_handles_empty_and_captured_rings() {
        let rec = datablinder_obs::Recorder::new();
        assert!(render_slow_ops(&rec).contains("no slow operations"));
        rec.set_slow_op_threshold(Duration::from_nanos(1));
        {
            let _root = rec.span("workload.insert");
            let _child = rec.quiet_span("channel.call");
        }
        let text = render_slow_ops(&rec);
        assert!(text.contains("1 captured"), "{text}");
        assert!(text.contains("workload.insert"), "{text}");
        assert!(text.contains("channel.call"), "{text}");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(10.0, 10.0, 4), "████");
        assert_eq!(bar(0.0, 10.0, 4), "····");
        assert_eq!(bar(5.0, 10.0, 4), "██··");
        assert_eq!(bar(1.0, 0.0, 2), "··");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_dur(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00s");
    }
}
