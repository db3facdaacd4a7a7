//! Causal trace context: the glue that turns flat spans into trees.
//!
//! A [`TraceCtx`] names one position in one trace: the trace it belongs to
//! and the span that is currently open. Context propagates two ways:
//!
//! * **within a process/thread** through an implicit thread-local (all the
//!   simulated transport is synchronous, so a gateway operation and every
//!   replica apply it fans out to share one call stack), and
//! * **across the wire** through the [`TRACED_ROUTE`] envelope: callers
//!   that hold a context wrap `(route, payload)` in
//!   [`encode_traced`]; services unwrap with [`decode_traced`], install
//!   the carried context for the duration of the inner call, and restore
//!   the previous one after. Envelopes without a trace context — every
//!   pre-existing route — keep decoding exactly as before; the envelope is
//!   strictly additive.
//!
//! Span and trace ids are minted from one process-wide counter, so ids are
//! unique across every recorder in the process (gateway, cluster, and each
//! replica node), which is what lets a federated snapshot reassemble one
//! tree from spans recorded by different recorders. Span start offsets are
//! measured from a process-wide epoch ([`epoch_nanos`]) for the same
//! reason.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use datablinder_codec::{Malformed, Writer};

use crate::span::Span;

/// The reserved route carrying a traced envelope. Classified as neither a
/// read nor a write by itself: services unwrap it and re-dispatch on the
/// inner route before any write/journal decision.
pub const TRACED_ROUTE: &str = "obs/traced";

/// One position in one trace: which trace, and which span is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace this context belongs to (the root span's id).
    pub trace_id: u64,
    /// The currently open span — the parent of anything started under it.
    pub span_id: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
    static COLLECTORS: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
}

struct Collector {
    trace_id: u64,
    spans: Vec<Span>,
}

/// Mints a process-unique span/trace id (never 0 — 0 means "untraced").
pub fn mint_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since the process trace epoch (first use fixes the epoch).
pub fn epoch_nanos() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The trace context currently installed on this thread, if any.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(|c| c.get())
}

/// Installs `ctx` (or clears it with `None`) and returns the previous
/// value. Prefer the RAII [`CtxScope`] via [`TraceCtx::enter`].
pub fn swap_current(ctx: Option<TraceCtx>) -> Option<TraceCtx> {
    CURRENT.with(|c| c.replace(ctx))
}

/// Restores the previous thread-local context on drop.
#[must_use = "dropping the scope immediately uninstalls the context"]
pub struct CtxScope {
    prev: Option<TraceCtx>,
}

impl TraceCtx {
    /// Installs `self` as the current context until the scope drops.
    pub fn enter(self) -> CtxScope {
        CtxScope { prev: swap_current(Some(self)) }
    }
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        swap_current(self.prev);
    }
}

/// Opens a per-thread collector accumulating every span finished under
/// `trace_id` (used by the slow-op log to capture whole trees).
pub(crate) fn open_collector(trace_id: u64) {
    COLLECTORS.with(|c| c.borrow_mut().push(Collector { trace_id, spans: Vec::new() }));
}

/// Offers a finished span to the innermost matching open collector.
pub(crate) fn collect(span: &Span) {
    if span.trace_id == 0 {
        return;
    }
    COLLECTORS.with(|c| {
        let mut stack = c.borrow_mut();
        if let Some(col) = stack.iter_mut().rev().find(|col| col.trace_id == span.trace_id) {
            col.spans.push(span.clone());
        }
    });
}

/// Closes the collector for `trace_id` and returns what it gathered.
pub(crate) fn close_collector(trace_id: u64) -> Vec<Span> {
    COLLECTORS.with(|c| {
        let mut stack = c.borrow_mut();
        match stack.iter().rposition(|col| col.trace_id == trace_id) {
            Some(pos) => stack.remove(pos).spans,
            None => Vec::new(),
        }
    })
}

// ---------------------------------------------------------------------------
// Wire envelope
// ---------------------------------------------------------------------------

/// Encodes a traced envelope: `trace_id ‖ span_id ‖ route ‖ payload`, every
/// field length-prefixed (`u16` for the route, `u32` for the payload) so any
/// strict prefix fails to decode.
pub fn encode_traced(ctx: TraceCtx, route: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::from(Vec::with_capacity(8 + 8 + 2 + route.len() + 4 + payload.len()));
    w.u64(ctx.trace_id).u64(ctx.span_id).u16(route.len() as u16).raw(route.as_bytes()).bytes(payload);
    w.finish()
}

/// Decodes a traced envelope, borrowing the inner route and payload.
///
/// # Errors
///
/// [`Malformed`] naming the first bad field; truncated input at any strict
/// prefix and trailing bytes are always an error, never a partial decode.
pub fn decode_traced(buf: &[u8]) -> Result<(TraceCtx, &str, &[u8]), Malformed> {
    datablinder_codec::decode(buf, |r| {
        let ctx = TraceCtx { trace_id: r.u64()?, span_id: r.u64()? };
        let route_len = r.u16()? as usize;
        let route = std::str::from_utf8(r.take(route_len)?).map_err(|_| Malformed("traced route utf8"))?;
        Ok((ctx, route, r.bytes()?))
    })
}

// ---------------------------------------------------------------------------
// Timeline rendering
// ---------------------------------------------------------------------------

/// Renders a trace tree as an indented text timeline: one line per span
/// with its offset from the trace start, duration, a proportional bar, and
/// outcome. Spans are `spans` in any order; orphans (parent not in the
/// set) render at the root level.
pub fn render_trace_timeline(spans: &[Span]) -> String {
    if spans.is_empty() {
        return "(empty trace)\n".to_string();
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_nanos, spans[i].span_id));
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let t0 = spans.iter().map(|s| s.start_nanos).min().unwrap_or(0);
    let total = spans
        .iter()
        .map(|s| (s.start_nanos - t0).saturating_add(s.duration.as_nanos() as u64))
        .max()
        .unwrap_or(0)
        .max(1);
    let mut depth_of = std::collections::BTreeMap::new();
    // Iterative depth: parents sort before children by start offset almost
    // always; a second pass catches stragglers.
    for _ in 0..2 {
        for &i in &order {
            let s = &spans[i];
            let d = if s.parent_id == 0 || !ids.contains(&s.parent_id) {
                0
            } else {
                depth_of.get(&s.parent_id).copied().unwrap_or(0) + 1
            };
            depth_of.insert(s.span_id, d);
        }
    }
    const BAR: usize = 24;
    let mut out = String::new();
    let root = order.iter().map(|&i| &spans[i]).find(|s| s.parent_id == 0 || !ids.contains(&s.parent_id));
    if let Some(r) = root {
        let _ = writeln!(out, "trace {} · root {} · {:.3}ms total", r.trace_id, r.route, total as f64 / 1e6);
    }
    for &i in &order {
        let s = &spans[i];
        let depth = depth_of.get(&s.span_id).copied().unwrap_or(0);
        let off = s.start_nanos - t0;
        let dur = s.duration.as_nanos() as u64;
        let lead = ((off as u128 * BAR as u128) / total as u128) as usize;
        let fill = (dur as u128 * BAR as u128).div_ceil(total as u128) as usize;
        let fill = fill.clamp(1, BAR.saturating_sub(lead).max(1));
        let mut bar = String::with_capacity(BAR);
        for _ in 0..lead.min(BAR - 1) {
            bar.push(' ');
        }
        for _ in 0..fill {
            bar.push('█');
        }
        while bar.chars().count() < BAR {
            bar.push(' ');
        }
        let node = s.node.as_deref().unwrap_or("-");
        let outcome = match s.outcome {
            crate::span::SpanOutcome::Ok => "ok",
            crate::span::SpanOutcome::Err => "ERR",
        };
        let detail = s.detail.as_deref().map(|d| format!(" ({d})")).unwrap_or_default();
        let _ = writeln!(
            out,
            "  [{bar}] +{:>9.3}ms {:>9.3}ms {:indent$}{} @{node} {outcome}{detail}",
            off as f64 / 1e6,
            dur as f64 / 1e6,
            "",
            s.route,
            indent = depth * 2,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;
    use std::time::Duration;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = mint_id();
        let b = mint_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ctx_scope_nests_and_restores() {
        assert_eq!(current(), None);
        let outer = TraceCtx { trace_id: 1, span_id: 1 };
        let inner = TraceCtx { trace_id: 1, span_id: 2 };
        {
            let _o = outer.enter();
            assert_eq!(current(), Some(outer));
            {
                let _i = inner.enter();
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn traced_envelope_round_trips() {
        let ctx = TraceCtx { trace_id: 42, span_id: 7 };
        let buf = encode_traced(ctx, "doc/insert", b"payload");
        let (got, route, payload) = decode_traced(&buf).unwrap();
        assert_eq!(got, ctx);
        assert_eq!(route, "doc/insert");
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn traced_envelope_rejects_every_strict_prefix() {
        let buf = encode_traced(TraceCtx { trace_id: 1, span_id: 2 }, "r", b"xyz");
        for cut in 0..buf.len() {
            assert!(decode_traced(&buf[..cut]).is_err(), "prefix of {cut} bytes must not decode");
        }
        let mut extended = buf.clone();
        extended.push(0);
        assert!(decode_traced(&extended).is_err(), "trailing bytes must not decode");
    }

    #[test]
    fn collector_gathers_matching_spans() {
        open_collector(9);
        let mk = |trace_id: u64, span_id: u64| Span {
            trace_id,
            span_id,
            parent_id: 0,
            ..Span::untraced(0, "r", SpanOutcome::Ok, Duration::ZERO)
        };
        collect(&mk(9, 1));
        collect(&mk(8, 2)); // other trace: ignored
        collect(&mk(0, 3)); // untraced: ignored
        let got = close_collector(9);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].span_id, 1);
        assert!(close_collector(9).is_empty(), "collector closed");
    }

    #[test]
    fn timeline_renders_tree() {
        let mut root = Span::untraced(0, "gateway.insert", SpanOutcome::Ok, Duration::from_millis(4));
        root.trace_id = 5;
        root.span_id = 5;
        root.start_nanos = 0;
        let mut child = Span::untraced(1, "channel.call", SpanOutcome::Err, Duration::from_millis(2));
        child.trace_id = 5;
        child.span_id = 6;
        child.parent_id = 5;
        child.start_nanos = 1_000_000;
        child.node = Some("node2".into());
        child.detail = Some("timed out".into());
        let text = render_trace_timeline(&[child, root]);
        assert!(text.contains("gateway.insert"), "{text}");
        assert!(text.contains("channel.call"), "{text}");
        assert!(text.contains("@node2"), "{text}");
        assert!(text.contains("timed out"), "{text}");
        assert!(text.contains("trace 5"), "{text}");
    }
}
