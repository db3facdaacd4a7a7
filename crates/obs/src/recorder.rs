//! The [`Recorder`]: the one handle instrumented code holds.
//!
//! A recorder bundles a metrics registry, a span sink and a leakage
//! ledger behind a single enabled flag. Disabled recorders (the default
//! everywhere) cost one relaxed atomic load per instrumentation point —
//! no clock reads, no name lookups, no allocation — which is what lets
//! every layer carry instrumentation unconditionally.
//!
//! Since the tracing layer landed, a recorder also participates in causal
//! traces: [`Recorder::span`] opens a [`SpanGuard`] that becomes a child
//! of whatever trace context is installed on the thread (or a new root),
//! installs its own context for the guard's lifetime, and on drop emits a
//! tree-positioned [`Span`]. Root guards additionally feed the **slow-op
//! ring**: when [`Recorder::set_slow_op_threshold`] is armed, any root
//! operation at or past the threshold captures its *entire* span tree —
//! including spans recorded by other recorders on the same thread — into
//! a bounded ring readable via [`Recorder::slow_ops`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::ledger::LeakageLedger;
use crate::metrics::MetricsRegistry;
use crate::snapshot::Snapshot;
use crate::span::{Span, SpanOutcome, SpanSink};
use crate::trace::{self, CtxScope, TraceCtx};

/// Default span-ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

/// Slow-op trees retained (oldest evicted first).
const SLOW_OP_CAPACITY: usize = 32;

struct Inner {
    enabled: AtomicBool,
    op_ids: AtomicU64,
    metrics: MetricsRegistry,
    spans: SpanSink,
    ledger: LeakageLedger,
    label: Mutex<Option<String>>,
    /// Slow-op threshold in nanoseconds; 0 disarms the slow-op log.
    slow_threshold: AtomicU64,
    slow_ops: Mutex<VecDeque<Vec<Span>>>,
}

/// A cloneable handle over one observability domain. Clones share state.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish_non_exhaustive()
    }
}

impl Default for Recorder {
    /// The default recorder is *disabled*, so instrumented components can
    /// carry one unconditionally at near-zero cost.
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    fn build(enabled: bool) -> Self {
        Recorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                op_ids: AtomicU64::new(0),
                metrics: MetricsRegistry::new(),
                spans: SpanSink::new(DEFAULT_SPAN_CAPACITY),
                ledger: LeakageLedger::new(),
                label: Mutex::new(None),
                slow_threshold: AtomicU64::new(0),
                slow_ops: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// An enabled recorder with the default span-ring capacity.
    pub fn new() -> Self {
        Recorder::build(true)
    }

    /// A disabled recorder: every instrumentation call short-circuits
    /// after one atomic load.
    pub fn disabled() -> Self {
        Recorder::build(false)
    }

    /// Whether recording is on. This is the hot-path guard.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Labels every span this recorder emits with a node name (e.g.
    /// `node3`), so federated snapshots can tell replicas apart.
    pub fn set_label(&self, label: &str) {
        *self.inner.label.lock().unwrap_or_else(PoisonError::into_inner) = Some(label.to_string());
    }

    /// The node label, if one was set.
    pub fn label(&self) -> Option<String> {
        self.inner.label.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Arms (or with [`Duration::ZERO`] disarms) the slow-op log: root
    /// operations lasting at least `threshold` capture their full trace
    /// tree into a bounded ring.
    pub fn set_slow_op_threshold(&self, threshold: Duration) {
        let nanos = threshold.as_nanos().min(u64::MAX as u128) as u64;
        self.inner.slow_threshold.store(nanos, Ordering::Relaxed);
    }

    /// The captured slow-op trees, oldest first. Each entry is every span
    /// collected under one slow root operation.
    pub fn slow_ops(&self) -> Vec<Vec<Span>> {
        self.inner.slow_ops.lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The span sink.
    pub fn spans(&self) -> &SpanSink {
        &self.inner.spans
    }

    /// The leakage audit ledger.
    pub fn ledger(&self) -> &LeakageLedger {
        &self.inner.ledger
    }

    /// Mints a fresh operation id for a span.
    pub fn next_op_id(&self) -> u64 {
        self.inner.op_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts timing an operation: `Some(now)` when enabled, `None`
    /// otherwise (so disabled recorders skip the clock read too). Pair
    /// with [`Recorder::finish_route`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes an operation started with [`Recorder::start`]: bumps
    /// `<route>.count` (and `<route>.errors` on failure), records the
    /// latency histogram `<route>.latency` and pushes a span.
    pub fn finish_route(&self, route: &str, started: Option<Instant>, ok: bool) {
        let Some(started) = started else { return };
        self.record_op(route, None, None, started.elapsed(), ok);
    }

    /// Opens a metric-bearing span guard: on drop it bumps the `.count` /
    /// `.errors` / `.latency` instruments for `route` and records a span
    /// positioned in the ambient trace (child of the current context, or a
    /// new trace root when none is installed).
    pub fn span(&self, route: &str) -> SpanGuard {
        self.guard(route, false, false)
    }

    /// Opens a span-only guard: the span lands in the sink and the trace
    /// tree, but no counters or histograms move. For fine-grained tree
    /// detail (per-attempt, per-flush) that must not disturb the pinned
    /// route-level metrics.
    pub fn quiet_span(&self, route: &str) -> SpanGuard {
        self.guard(route, true, false)
    }

    /// Opens a metric-bearing guard that is *always* a new trace root,
    /// regardless of any installed context — for background work (resync,
    /// anti-entropy) that must not attach to whatever trace happened to be
    /// on the thread.
    pub fn span_root(&self, route: &str) -> SpanGuard {
        self.guard(route, false, true)
    }

    fn guard(&self, route: &str, quiet: bool, force_root: bool) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { state: None };
        }
        let parent = if force_root { None } else { trace::current() };
        let span_id = trace::mint_id();
        let (trace_id, parent_id) = match parent {
            Some(p) => (p.trace_id, p.span_id),
            None => (span_id, 0),
        };
        let ctx = TraceCtx { trace_id, span_id };
        let opened_collector = parent.is_none() && self.inner.slow_threshold.load(Ordering::Relaxed) > 0;
        if opened_collector {
            trace::open_collector(trace_id);
        }
        let scope = ctx.enter();
        SpanGuard {
            state: Some(GuardState {
                recorder: self.clone(),
                route: route.to_string(),
                ctx,
                parent_id,
                opened_collector,
                quiet,
                ok: true,
                detail: None,
                start: Instant::now(),
                start_nanos: trace::epoch_nanos(),
                duration_override: None,
                _scope: scope,
            }),
        }
    }

    /// As [`Recorder::finish_route`] with the tactic and field attached to
    /// the span. Trace-aware: when a context is installed on the thread
    /// the span joins that trace as a leaf.
    pub fn record_op(&self, route: &str, tactic: Option<&str>, field: Option<&str>, duration: Duration, ok: bool) {
        if !self.is_enabled() {
            return;
        }
        let m = self.metrics();
        m.counter(&format!("{route}.count")).inc();
        if !ok {
            m.counter(&format!("{route}.errors")).inc();
        }
        m.histogram(&format!("{route}.latency")).record(duration);
        let ctx = trace::current();
        let (trace_id, span_id, parent_id, start_nanos) = match ctx {
            Some(c) => (
                c.trace_id,
                trace::mint_id(),
                c.span_id,
                trace::epoch_nanos().saturating_sub(duration.as_nanos().min(u64::MAX as u128) as u64),
            ),
            None => (0, 0, 0, 0),
        };
        let span = Span {
            id: self.next_op_id(),
            trace_id,
            span_id,
            parent_id,
            node: self.label(),
            route: route.to_string(),
            tactic: tactic.map(str::to_string),
            field: field.map(str::to_string),
            detail: None,
            outcome: if ok { SpanOutcome::Ok } else { SpanOutcome::Err },
            start_nanos,
            duration,
        };
        trace::collect(&span);
        self.inner.spans.push(span);
    }

    /// Bumps a counter by `n` (no-op when disabled).
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.metrics().counter(name).add(n);
        }
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, name: &str, value: i64) {
        if self.is_enabled() {
            self.metrics().gauge(name).set(value);
        }
    }

    /// Records a latency histogram sample (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &str, latency: Duration) {
        if self.is_enabled() {
            self.metrics().histogram(name).record(latency);
        }
    }

    /// Folds a sample into an EWMA (no-op when disabled).
    #[inline]
    pub fn ewma_observe(&self, name: &str, latency: Duration) {
        if self.is_enabled() {
            self.metrics().ewma(name).observe(latency);
        }
    }

    /// A full point-in-time snapshot: metrics, ledger, span counters, the
    /// node label and the traced spans still in the ring.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.metrics().snapshot();
        snap.label = self.label();
        snap.ledger = self.ledger().entries();
        snap.spans_recorded = self.inner.spans.recorded();
        snap.spans_dropped = self.inner.spans.dropped();
        snap.trace_spans = self.inner.spans.recent().into_iter().filter(|s| s.trace_id != 0).collect();
        snap
    }
}

struct GuardState {
    recorder: Recorder,
    route: String,
    ctx: TraceCtx,
    parent_id: u64,
    opened_collector: bool,
    quiet: bool,
    ok: bool,
    detail: Option<String>,
    start: Instant,
    start_nanos: u64,
    duration_override: Option<Duration>,
    /// Restores the previous thread-local context when the guard drops.
    _scope: CtxScope,
}

/// An open operation: times itself from construction to drop, emits one
/// [`Span`] positioned in the ambient trace, and (unless quiet) bumps the
/// route's `.count` / `.errors` / `.latency` instruments. Obtained from
/// [`Recorder::span`], [`Recorder::quiet_span`] or [`Recorder::span_root`];
/// inert (and free) when the recorder is disabled.
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    state: Option<GuardState>,
}

impl SpanGuard {
    /// Marks the operation's outcome (default: success).
    pub fn set_ok(&mut self, ok: bool) {
        if let Some(st) = &mut self.state {
            st.ok = ok;
        }
    }

    /// Marks the operation failed.
    pub fn fail(&mut self) {
        self.set_ok(false);
    }

    /// Attaches a free-form annotation (e.g. the error an attempt died
    /// with).
    pub fn set_detail(&mut self, detail: &str) {
        if let Some(st) = &mut self.state {
            st.detail = Some(detail.to_string());
        }
    }

    /// Overrides the recorded duration (used where time is measured on a
    /// virtual clock rather than this guard's wall clock).
    pub fn set_duration(&mut self, duration: Duration) {
        if let Some(st) = &mut self.state {
            st.duration_override = Some(duration);
        }
    }

    /// The trace context this guard installed, `None` when the recorder
    /// was disabled at construction.
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.state.as_ref().map(|st| st.ctx)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(st) = self.state.take() else { return };
        let duration = st.duration_override.unwrap_or_else(|| st.start.elapsed());
        let r = &st.recorder;
        if !st.quiet {
            let m = r.metrics();
            m.counter(&format!("{}.count", st.route)).inc();
            if !st.ok {
                m.counter(&format!("{}.errors", st.route)).inc();
            }
            m.histogram(&format!("{}.latency", st.route)).record(duration);
        }
        let span = Span {
            id: r.next_op_id(),
            trace_id: st.ctx.trace_id,
            span_id: st.ctx.span_id,
            parent_id: st.parent_id,
            node: r.label(),
            route: st.route.clone(),
            tactic: None,
            field: None,
            detail: st.detail.clone(),
            outcome: if st.ok { SpanOutcome::Ok } else { SpanOutcome::Err },
            start_nanos: st.start_nanos,
            duration,
        };
        trace::collect(&span);
        r.inner.spans.push(span);
        if st.opened_collector {
            let tree = trace::close_collector(st.ctx.trace_id);
            let threshold = r.inner.slow_threshold.load(Ordering::Relaxed);
            if threshold > 0 && duration.as_nanos() as u64 >= threshold && !tree.is_empty() {
                let mut ring = r.inner.slow_ops.lock().unwrap_or_else(PoisonError::into_inner);
                if ring.len() == SLOW_OP_CAPACITY {
                    ring.pop_front();
                }
                ring.push_back(tree);
            }
        }
        // `_scope` drops with `st`, restoring the previous trace context.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        assert!(r.start().is_none(), "disabled start skips the clock");
        r.count("gateway.insert.count", 1);
        r.observe("gateway.insert.latency", Duration::from_millis(1));
        r.ewma_observe("tactic.det.eq_query", Duration::from_millis(1));
        r.gauge_set("channel.breaker.state", 1);
        r.record_op("gateway.insert", None, None, Duration::from_millis(1), true);
        let g = r.span("gateway.insert");
        assert!(g.ctx().is_none(), "disabled guard is inert");
        drop(g);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.gauges.is_empty());
        assert_eq!(snap.spans_recorded, 0);
    }

    #[test]
    fn enabled_recorder_routes_everything() {
        let r = Recorder::new();
        let t = r.start();
        assert!(t.is_some());
        r.finish_route("gateway.insert", t, true);
        let t = r.start();
        r.finish_route("gateway.insert", t, false);
        let snap = r.snapshot();
        assert_eq!(snap.counter("gateway.insert.count"), 2);
        assert_eq!(snap.counter("gateway.insert.errors"), 1);
        assert_eq!(snap.histogram("gateway.insert.latency").unwrap().count, 2);
        assert_eq!(snap.spans_recorded, 2);
        let spans = r.spans().recent();
        assert_eq!(spans[0].outcome, SpanOutcome::Ok);
        assert_eq!(spans[1].outcome, SpanOutcome::Err);
        assert_ne!(spans[0].id, spans[1].id);
    }

    #[test]
    fn toggling_at_runtime() {
        let r = Recorder::disabled();
        r.count("c", 1);
        r.set_enabled(true);
        r.count("c", 1);
        r.set_enabled(false);
        r.count("c", 1);
        assert_eq!(r.snapshot().counter("c"), 1);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.count("shared", 3);
        assert_eq!(r.snapshot().counter("shared"), 3);
    }

    #[test]
    fn span_guard_matches_record_op_metrics() {
        let by_guard = Recorder::new();
        {
            let mut g = by_guard.span("gateway.search");
            g.set_ok(false);
        }
        let by_call = Recorder::new();
        by_call.record_op("gateway.search", None, None, Duration::from_micros(5), false);
        for snap in [by_guard.snapshot(), by_call.snapshot()] {
            assert_eq!(snap.counter("gateway.search.count"), 1);
            assert_eq!(snap.counter("gateway.search.errors"), 1);
            assert_eq!(snap.histogram("gateway.search.latency").unwrap().count, 1);
            assert_eq!(snap.spans_recorded, 1);
        }
    }

    #[test]
    fn guards_nest_into_one_trace_tree() {
        let r = Recorder::new();
        r.set_label("gw");
        {
            let root = r.span("gateway.insert");
            let root_ctx = root.ctx().unwrap();
            assert_eq!(root_ctx.trace_id, root_ctx.span_id, "rootless guard starts its own trace");
            {
                let child = r.quiet_span("channel.attempt");
                let child_ctx = child.ctx().unwrap();
                assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
                assert_ne!(child_ctx.span_id, root_ctx.span_id);
            }
            // record_op under an installed context joins as a leaf.
            r.record_op("cloud.apply", None, None, Duration::from_micros(1), true);
        }
        assert_eq!(trace::current(), None, "scope restored");
        let spans = r.spans().recent();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.route == "gateway.insert").unwrap();
        let attempt = spans.iter().find(|s| s.route == "channel.attempt").unwrap();
        let apply = spans.iter().find(|s| s.route == "cloud.apply").unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(attempt.parent_id, root.span_id);
        assert_eq!(apply.parent_id, root.span_id);
        assert!(spans.iter().all(|s| s.trace_id == root.trace_id));
        assert!(spans.iter().all(|s| s.node.as_deref() == Some("gw")));
        // Quiet span moved no counters; the metric-bearing guard did.
        let snap = r.snapshot();
        assert_eq!(snap.counter("gateway.insert.count"), 1);
        assert_eq!(snap.counter("channel.attempt.count"), 0);
        assert_eq!(snap.counter("cloud.apply.count"), 1);
        assert_eq!(snap.trace_spans.len(), 3, "snapshot exports traced spans");
    }

    #[test]
    fn span_root_detaches_from_ambient_trace() {
        let r = Recorder::new();
        let outer = r.span("gateway.insert");
        let outer_ctx = outer.ctx().unwrap();
        let bg = r.span_root("cluster.resync");
        let bg_ctx = bg.ctx().unwrap();
        assert_ne!(bg_ctx.trace_id, outer_ctx.trace_id, "background work starts its own trace");
        assert_eq!(bg_ctx.trace_id, bg_ctx.span_id);
        drop(bg);
        assert_eq!(trace::current(), Some(outer_ctx), "previous context restored");
        drop(outer);
        let spans = r.spans().recent();
        assert_eq!(spans.iter().find(|s| s.route == "cluster.resync").unwrap().parent_id, 0);
    }

    #[test]
    fn slow_op_ring_captures_full_tree() {
        let r = Recorder::new();
        r.set_slow_op_threshold(Duration::from_nanos(1));
        {
            let mut root = r.span("gateway.insert");
            root.set_duration(Duration::from_millis(50));
            {
                let mut child = r.quiet_span("channel.call");
                child.set_detail("attempt 1");
                child.set_duration(Duration::from_millis(40));
            }
        }
        // Fast ops below the threshold are not captured.
        r.set_slow_op_threshold(Duration::from_secs(3600));
        {
            let _fast = r.span("gateway.count");
        }
        let slow = r.slow_ops();
        assert_eq!(slow.len(), 1, "one slow tree captured");
        let tree = &slow[0];
        assert_eq!(tree.len(), 2);
        assert!(tree.iter().any(|s| s.route == "gateway.insert"));
        assert!(tree.iter().any(|s| s.route == "channel.call" && s.detail.as_deref() == Some("attempt 1")));
        let rendered = trace::render_trace_timeline(tree);
        assert!(rendered.contains("gateway.insert"), "{rendered}");
        assert!(rendered.contains("attempt 1"), "{rendered}");
    }

    #[test]
    fn disarmed_slow_op_log_collects_nothing() {
        let r = Recorder::new();
        {
            let mut g = r.span("gateway.insert");
            g.set_duration(Duration::from_secs(10));
        }
        assert!(r.slow_ops().is_empty(), "threshold 0 means off");
    }
}
