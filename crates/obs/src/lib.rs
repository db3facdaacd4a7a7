//! End-to-end observability for the DataBlinder reproduction, built from
//! scratch on `std` alone (DESIGN.md §11):
//!
//! * [`span`] — structured spans with a ring-buffered in-memory sink,
//! * [`metrics`] — sharded atomic counters, gauges, log-linear latency
//!   histograms and EWMAs behind a named registry,
//! * [`ledger`] — the leakage audit ledger: observed leakage per field
//!   and executed operation vs the declared protection class,
//! * [`snapshot`] — point-in-time views renderable as JSON or aligned
//!   text tables,
//! * [`json`] — the minimal writer/parser backing snapshot emission and
//!   the verify smoke run,
//! * [`recorder`] — the single cloneable [`Recorder`] handle instrumented
//!   layers hold; disabled (the default) it costs one atomic load per
//!   instrumentation point,
//! * [`trace`] — causal trace contexts: span trees spanning recorders and
//!   (via the [`trace::TRACED_ROUTE`] envelope) the simulated wire,
//! * [`federation`] — folding per-node snapshots into one cluster view,
//! * [`prometheus`] — Prometheus/OpenMetrics text exposition.
//!
//! # Examples
//!
//! ```
//! use datablinder_obs::Recorder;
//! use std::time::Duration;
//!
//! let rec = Recorder::new();
//! let t = rec.start();
//! // ... do the work being measured ...
//! rec.finish_route("gateway.insert", t, true);
//! rec.ledger().record("subject", "equality", "mitra", 2, 2);
//!
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("gateway.insert.count"), 1);
//! assert!(snap.to_json().contains("gateway.insert.count"));
//! assert!(rec.ledger().is_clean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod federation;
pub mod histogram;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use federation::{merge_snapshots, ClusterSnapshot};
pub use histogram::{AtomicHistogram, LatencyHistogram};
pub use json::Json;
pub use ledger::{level_name, LeakageLedger};
pub use metrics::{Counter, Ewma, Gauge, MetricsRegistry};
pub use prometheus::{render_exposition, render_multi_exposition};
pub use recorder::{Recorder, SpanGuard};
pub use snapshot::{EwmaSummary, HistogramSummary, LedgerEntry, Snapshot};
pub use span::{Span, SpanOutcome, SpanSink};
pub use trace::{render_trace_timeline, TraceCtx, TRACED_ROUTE};
