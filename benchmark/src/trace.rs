//! Benchmark-owned tracing. Spans are recorded around calls *into* each
//! layer, from outside the product: `op` (a gateway call made by a client
//! thread) ⊃ `transport.call` (the `netsim::Transport` decorator) ⊃
//! `cloud.handle` (the `netsim::CloudService` decorator). Spans stay in
//! memory and are written out once, after the run.
//!
//! A layer's self time is its span minus the part its children cover:
//! gateway = `op` − Σ `transport.call`, transport = `transport.call` −
//! `cloud.handle`, cloud = `cloud.handle`.
//!
//! Tracing alternates on and off in fixed time slices inside one window, so
//! traced and untraced operations see the same collection sizes and the
//! same machine; their latency difference is the tracing overhead.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Span names; the discriminant is what the trace file stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    OpInsert,
    OpEq,
    OpBool,
    OpRange,
    OpAggregate,
    OpGet,
    OpBatch,
    TransportCall,
    /// `cloud.handle` split by route family.
    CloudDoc,
    CloudTactic,
    CloudBatch,
    CloudOther,
}

pub const NAMES: [&str; 12] = [
    "op.insert",
    "op.eq",
    "op.bool",
    "op.range",
    "op.aggregate",
    "op.get",
    "op.batch",
    "transport.call",
    "cloud.handle.doc",
    "cloud.handle.tactic",
    "cloud.handle.batch",
    "cloud.handle.other",
];

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root (`op.*`) span.
    pub parent: u64,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The innermost open span of this thread; 0 when the current
    /// operation is not traced.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

const SHARDS: usize = 8;

pub struct Tracer {
    epoch: Instant,
    slice: Duration,
    next_id: AtomicU64,
    /// The open `transport.call` span whose request is on a socket: the
    /// server thread that handles it cannot see the client's thread-local.
    /// One slot suffices because the socket workload runs a single client.
    in_flight: AtomicU64,
    shards: [Mutex<Vec<Span>>; SHARDS],
}

/// An open span; closing it records it and restores the thread's parent.
pub struct Open {
    id: u64,
    parent: u64,
    restore: u64,
    name: Name,
    start_ns: u64,
}

impl Tracer {
    pub fn new(slice: Duration) -> Self {
        Tracer {
            epoch: Instant::now(),
            slice,
            next_id: AtomicU64::new(1),
            in_flight: AtomicU64::new(0),
            shards: Default::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether an operation starting now is traced (even slices are).
    pub fn slice_is_traced(&self) -> bool {
        (self.epoch.elapsed().as_nanos() / self.slice.as_nanos().max(1)).is_multiple_of(2)
    }

    /// Opens a root span on this thread.
    pub fn open_op(&self, name: Name) -> Open {
        self.open_under(0, name)
    }

    /// Opens a child of this thread's current span, or `None` when the
    /// current operation is untraced.
    pub fn open_child(&self, name: Name) -> Option<Open> {
        let parent = CURRENT.with(Cell::get);
        (parent != 0).then(|| self.open_under(parent, name))
    }

    /// Opens a child of the request that is on the socket, for the thread
    /// on the far side.
    pub fn open_remote_child(&self, name: Name) -> Option<Open> {
        let parent = self.in_flight.load(Ordering::Acquire);
        (parent != 0).then(|| self.open_under(parent, name))
    }

    fn open_under(&self, parent: u64, name: Name) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT.with(|c| c.replace(id));
        Open { id, parent, restore, name, start_ns: self.now_ns() }
    }

    /// Marks `open` as the request now crossing the socket.
    pub fn set_in_flight(&self, open: Option<&Open>) {
        self.in_flight.store(open.map_or(0, |o| o.id), Ordering::Release);
    }

    pub fn close(&self, open: Open) -> Span {
        let span =
            Span { id: open.id, parent: open.parent, name: open.name, start_ns: open.start_ns, end_ns: self.now_ns() };
        CURRENT.with(|c| c.set(open.restore));
        self.shards[open.id as usize % SHARDS].lock().expect("span shard").push(span);
        span
    }

    /// All recorded spans, ordered by id (parents before children).
    pub fn drain(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("span shard"));
        }
        all.sort_by_key(|s| s.id);
        all
    }
}

/// Per-layer totals over a set of spans.
#[derive(Default, Debug, Clone)]
pub struct Breakdown {
    /// Per op kind (indexed like the first seven [`Name`]s): count, total
    /// span ns, and the ns its `transport.call` children cover.
    pub ops: [(u64, u64, u64); 7],
    pub transport_calls: u64,
    pub transport_ns: u64,
    /// `cloud.handle` ns by family: doc, tactic, batch, other.
    pub cloud_ns: [u64; 4],
    pub cloud_calls: u64,
    /// Σ over ops of gateway self + transport self + cloud, each clamped
    /// at 0; equals Σ op ns when every child nests inside its parent.
    pub covered_ns: u64,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        use std::collections::HashMap;
        let mut b = Breakdown::default();
        // span id → (root op id, ns) for transport calls; children are
        // recorded after their parents close, so resolve in two passes.
        let mut transport: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut op_children: HashMap<u64, u64> = HashMap::new();
        let mut transport_children: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if s.name == Name::TransportCall {
                transport.insert(s.id, (s.parent, s.nanos()));
                *op_children.entry(s.parent).or_default() += s.nanos();
                b.transport_calls += 1;
                b.transport_ns += s.nanos();
            }
        }
        for s in spans {
            let family = match s.name {
                Name::CloudDoc => 0,
                Name::CloudTactic => 1,
                Name::CloudBatch => 2,
                Name::CloudOther => 3,
                _ => continue,
            };
            b.cloud_ns[family] += s.nanos();
            b.cloud_calls += 1;
            *transport_children.entry(s.parent).or_default() += s.nanos();
        }
        let mut transport_self_by_op: HashMap<u64, u64> = HashMap::new();
        let mut cloud_by_op: HashMap<u64, u64> = HashMap::new();
        for (id, (op, ns)) in &transport {
            let cloud = transport_children.get(id).copied().unwrap_or(0);
            *transport_self_by_op.entry(*op).or_default() += ns.saturating_sub(cloud);
            *cloud_by_op.entry(*op).or_default() += cloud.min(*ns);
        }
        for s in spans {
            let kind = s.name as usize;
            if kind >= b.ops.len() {
                continue;
            }
            let children = op_children.get(&s.id).copied().unwrap_or(0);
            b.ops[kind].0 += 1;
            b.ops[kind].1 += s.nanos();
            b.ops[kind].2 += children;
            let gateway_self = s.nanos().saturating_sub(children);
            let below =
                transport_self_by_op.get(&s.id).copied().unwrap_or(0) + cloud_by_op.get(&s.id).copied().unwrap_or(0);
            b.covered_ns += gateway_self + below.min(s.nanos());
        }
        b
    }

    pub fn op_count(&self) -> u64 {
        self.ops.iter().map(|o| o.0).sum()
    }

    pub fn op_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.1).sum()
    }

    pub fn cloud_total_ns(&self) -> u64 {
        self.cloud_ns.iter().sum()
    }
}

/// Writes the span file: a name table and one `[id, parent, name,
/// start_ns, end_ns]` row per span (see README.md, "Reading a trace").
pub fn write_file(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"names\":[")?;
    for (i, n) in NAMES.iter().enumerate() {
        write!(out, "{}\"{n}\"", if i == 0 { "" } else { "," })?;
    }
    write!(out, "],\"columns\":[\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\n[{},{},{},{},{}]", s.id, s.parent, s.name as u8, s.start_ns, s.end_ns)?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns }
    }

    /// One insert of 100 ns with two round trips of 30 ns, each spending
    /// 20 ns in the cloud: gateway self 40, transport self 20, cloud 40.
    #[test]
    fn self_times_sum_to_the_op() {
        let spans = [
            span(1, 0, Name::OpInsert, 0, 100),
            span(2, 1, Name::TransportCall, 10, 40),
            span(3, 2, Name::CloudTactic, 15, 35),
            span(4, 1, Name::TransportCall, 50, 80),
            span(5, 4, Name::CloudDoc, 55, 75),
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.ops[Name::OpInsert as usize], (1, 100, 60));
        assert_eq!((b.transport_calls, b.transport_ns), (2, 60));
        assert_eq!(b.cloud_ns, [20, 20, 0, 0]);
        assert_eq!(b.cloud_calls, 2);
        assert_eq!(b.covered_ns, b.op_ns());
    }

    /// A child that outlives its parent must not push closure above 100 %.
    #[test]
    fn a_child_longer_than_its_parent_is_clamped() {
        let spans = [
            span(1, 0, Name::OpGet, 0, 50),
            span(2, 1, Name::TransportCall, 10, 40),
            span(3, 2, Name::CloudDoc, 5, 60),
        ];
        let b = Breakdown::of(&spans);
        assert!(b.covered_ns <= b.op_ns(), "{} > {}", b.covered_ns, b.op_ns());
    }

    #[test]
    fn children_find_their_parent_on_this_thread_and_across_a_socket() {
        let tracer = Tracer::new(Duration::from_secs(3600));
        assert!(tracer.open_child(Name::TransportCall).is_none(), "no op open: untraced");
        let op = tracer.open_op(Name::OpEq);
        let call = tracer.open_child(Name::TransportCall).expect("child of the open op");
        tracer.set_in_flight(Some(&call));
        let far = std::thread::scope(|s| {
            s.spawn(|| {
                let open = tracer.open_remote_child(Name::CloudDoc).expect("request in flight");
                tracer.close(open)
            })
            .join()
            .expect("server thread")
        });
        tracer.set_in_flight(None);
        let call = tracer.close(call);
        let op = tracer.close(op);
        assert_eq!((op.parent, call.parent, far.parent), (0, op.id, call.id));
        assert!(tracer.open_child(Name::TransportCall).is_none(), "closed: the thread is untraced again");
        assert_eq!(tracer.drain().len(), 3);
    }
}
