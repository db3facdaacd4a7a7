//! Deterministic crash-point injection for the *cloud process* itself.
//!
//! [`fault`](crate::fault) kills messages; this module kills the machine.
//! A [`CrashPlan`] names one crash point — "die after N applied records",
//! "tear the N-th WAL append at byte M", or "journal the N-th record fully
//! but die before applying it" — and a [`CrashInjector`] hands the cloud's
//! durability layer a verdict at every write. Like [`FaultPlan`]
//! (crate::fault::FaultPlan), a seeded constructor derives the point from
//! one SplitMix64 stream, so a `(seed, workload)` pair replays the exact
//! same crash. After the point fires the injector latches into the
//! *crashed* state: the process is dead until a restart harness rebuilds
//! the engine from disk and the injector is cleared or replaced.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::fault::SplitMix64;

/// Where in the write path the cloud dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Refuse the `n`-th write (0-based) before anything reaches the WAL:
    /// the first `n` writes journal and apply, then the machine vanishes.
    BeforeAppend(u64),
    /// Tear the `n`-th WAL append: only the first `byte` bytes of the
    /// frame reach disk, then the machine vanishes. Recovery must treat
    /// the partial frame as a torn tail.
    MidAppend {
        /// Index (0-based) of the journaled write to tear.
        record: u64,
        /// How many bytes of the frame survive (clamped to `len - 1`).
        byte: u64,
    },
    /// The `n`-th append reaches disk in full, but the machine dies
    /// before the mutation is applied — recovery must roll it forward.
    AfterAppend(u64),
}

/// A single planned crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    point: CrashPoint,
}

impl CrashPlan {
    /// A plan that crashes at exactly `point`.
    pub fn at(point: CrashPoint) -> Self {
        CrashPlan { point }
    }

    /// Derives a crash point from `seed`, landing on one of the first
    /// `horizon` writes (like `FaultPlan`, all randomness comes from one
    /// SplitMix64 stream; equal seeds give equal plans).
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC4A5_11F0_57A7_E5EE);
        let record = rng.next_u64() % horizon.max(1);
        let mode = rng.next_u64() % 3;
        let byte = rng.next_u64() % 64;
        let point = match mode {
            0 => CrashPoint::BeforeAppend(record),
            1 => CrashPoint::MidAppend { record, byte },
            _ => CrashPoint::AfterAppend(record),
        };
        CrashPlan { point }
    }

    /// The planned crash point.
    pub fn point(&self) -> CrashPoint {
        self.point
    }
}

/// What the durability layer must do with the write it is about to journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVerdict {
    /// Journal and apply normally.
    Proceed,
    /// The machine is already gone: journal nothing, apply nothing.
    Refuse,
    /// Write only the first `n` bytes of the frame, then die.
    Torn(usize),
    /// Write the whole frame, then die before applying.
    DieAfterAppend,
}

/// Shared, thread-safe crash state consulted by the cloud's write path.
#[derive(Debug)]
pub struct CrashInjector {
    plan: CrashPlan,
    writes: AtomicU64,
    crashed: AtomicBool,
}

impl CrashInjector {
    /// A live injector armed with `plan`.
    pub fn new(plan: CrashPlan) -> Self {
        CrashInjector { plan, writes: AtomicU64::new(0), crashed: AtomicBool::new(false) }
    }

    /// Whether the crash point has fired (the process is "down").
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Number of writes that were allowed to journal in full.
    pub fn writes_allowed(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Consulted once per journaled write with the frame's on-disk length;
    /// counts the write and decides whether the machine survives it.
    pub fn on_append(&self, frame_len: usize) -> CrashVerdict {
        if self.crashed() {
            return CrashVerdict::Refuse;
        }
        let n = self.writes.load(Ordering::SeqCst);
        let verdict = match self.plan.point {
            CrashPoint::BeforeAppend(r) if n >= r => CrashVerdict::Refuse,
            CrashPoint::MidAppend { record, byte } if n == record => {
                CrashVerdict::Torn((byte as usize).min(frame_len.saturating_sub(1)))
            }
            CrashPoint::AfterAppend(r) if n == r => CrashVerdict::DieAfterAppend,
            _ => CrashVerdict::Proceed,
        };
        match verdict {
            CrashVerdict::Proceed => {
                self.writes.fetch_add(1, Ordering::SeqCst);
            }
            CrashVerdict::DieAfterAppend => {
                self.writes.fetch_add(1, Ordering::SeqCst);
                self.crashed.store(true, Ordering::SeqCst);
            }
            CrashVerdict::Refuse | CrashVerdict::Torn(_) => {
                self.crashed.store(true, Ordering::SeqCst);
            }
        }
        verdict
    }
}

/// A cluster-membership event: one node leaves or returns.
///
/// Where [`CrashPoint`] kills *the* cloud process, a [`NodeEvent`] kills one
/// node of a replicated cluster — the rest keep serving, and a rejoining
/// node is expected to resync from its peers' WALs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// Node `idx` vanishes: its in-memory engine is dropped, its durable
    /// state stays on disk.
    Kill(usize),
    /// Node `idx` restarts from its own disk and resyncs from live peers.
    Rejoin(usize),
    /// A brand-new node joins the ring (the cluster assigns its index);
    /// vnode ownership is recomputed and the newcomer pulls the key
    /// ranges it gained before serving quorums.
    AddNode,
    /// Node `idx` is decommissioned: surviving replicas pull the ranges
    /// they inherit, then the node leaves the ring for good. The cluster
    /// refuses the event if it would drop membership below the
    /// replication factor.
    RemoveNode(usize),
}

/// A deterministic schedule of [`NodeEvent`]s keyed by operation count.
///
/// The cluster ticks the companion [`NodeFailureInjector`] once per handled
/// request; every event whose op index has been reached fires exactly once,
/// in schedule order. Like [`CrashPlan`], a seeded constructor derives the
/// whole schedule from one SplitMix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFailurePlan {
    events: Vec<(u64, NodeEvent)>,
}

impl NodeFailurePlan {
    /// A plan firing exactly the given `(op_index, event)` pairs. The list
    /// is sorted by op index (stable, so same-index events keep their
    /// relative order).
    pub fn at(mut events: Vec<(u64, NodeEvent)>) -> Self {
        events.sort_by_key(|(op, _)| *op);
        NodeFailurePlan { events }
    }

    /// Derives `cycles` kill/rejoin pairs over `nodes` nodes from `seed`,
    /// landing on the first `horizon` operations. Each cycle kills one
    /// node and rejoins it a seeded number of ops later; equal seeds give
    /// equal plans.
    pub fn seeded(seed: u64, nodes: usize, cycles: usize, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0DE7_EC7A_B1E0_FA11);
        let nodes = nodes.max(1) as u64;
        let horizon = horizon.max(2);
        let mut events = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            let victim = (rng.next_u64() % nodes) as usize;
            let kill_at = rng.next_u64() % (horizon - 1);
            let down_for = 1 + rng.next_u64() % (horizon - kill_at).max(1);
            events.push((kill_at, NodeEvent::Kill(victim)));
            events.push((kill_at + down_for, NodeEvent::Rejoin(victim)));
        }
        NodeFailurePlan::at(events)
    }

    /// Derives a full membership-churn storm from `seed`: kill/rejoin
    /// cycles interleaved with ring-membership changes (add a node,
    /// remove a node) over the first `horizon` operations. `cycles`
    /// counts scheduled disturbances; roughly one in three is a
    /// membership change, the rest are kill/rejoin pairs. Victim indices
    /// are drawn from the *initial* `nodes` — the cluster maps a
    /// `RemoveNode` of an already-removed or essential node to a no-op,
    /// so any seed yields a valid storm. Equal seeds give equal plans.
    pub fn seeded_churn(seed: u64, nodes: usize, cycles: usize, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xE1A5_71CC_1B57_E111);
        let nodes = nodes.max(1) as u64;
        let horizon = horizon.max(2);
        let mut events = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            let at = rng.next_u64() % (horizon - 1);
            match rng.next_u64() % 6 {
                0 => events.push((at, NodeEvent::AddNode)),
                1 => {
                    let victim = (rng.next_u64() % nodes) as usize;
                    events.push((at, NodeEvent::RemoveNode(victim)));
                }
                _ => {
                    let victim = (rng.next_u64() % nodes) as usize;
                    let down_for = 1 + rng.next_u64() % (horizon - at).max(1);
                    events.push((at, NodeEvent::Kill(victim)));
                    events.push((at + down_for, NodeEvent::Rejoin(victim)));
                }
            }
        }
        NodeFailurePlan::at(events)
    }

    /// The scheduled events, sorted by op index.
    pub fn events(&self) -> &[(u64, NodeEvent)] {
        &self.events
    }
}

/// Shared, thread-safe membership-event source the cluster ticks per op.
///
/// `on_op` counts the operation and returns every not-yet-fired event whose
/// op index has been reached, in schedule order — the caller executes the
/// kills/rejoins. Firing is exactly-once even under concurrent ticks.
#[derive(Debug)]
pub struct NodeFailureInjector {
    plan: NodeFailurePlan,
    ops: AtomicU64,
    cursor: AtomicU64,
}

impl NodeFailureInjector {
    /// A live injector armed with `plan`.
    pub fn new(plan: NodeFailurePlan) -> Self {
        NodeFailureInjector { plan, ops: AtomicU64::new(0), cursor: AtomicU64::new(0) }
    }

    /// Counts one cluster operation and drains the events it triggers.
    pub fn on_op(&self) -> Vec<NodeEvent> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        let mut fired = Vec::new();
        loop {
            let cur = self.cursor.load(Ordering::SeqCst) as usize;
            match self.plan.events.get(cur) {
                Some(&(op, event)) if op <= n => {
                    // Claim this event; lose the race → another thread fires it.
                    if self
                        .cursor
                        .compare_exchange(cur as u64, cur as u64 + 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        fired.push(event);
                    }
                }
                _ => break,
            }
        }
        fired
    }

    /// Operations ticked so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether every scheduled event has fired.
    pub fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::SeqCst) as usize >= self.plan.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn before_append_counts_then_refuses() {
        let inj = CrashInjector::new(CrashPlan::at(CrashPoint::BeforeAppend(2)));
        assert_eq!(inj.on_append(10), CrashVerdict::Proceed);
        assert_eq!(inj.on_append(10), CrashVerdict::Proceed);
        assert_eq!(inj.on_append(10), CrashVerdict::Refuse);
        assert!(inj.crashed());
        assert_eq!(inj.on_append(10), CrashVerdict::Refuse, "stays dead");
        assert_eq!(inj.writes_allowed(), 2);
    }

    #[test]
    fn mid_append_tears_the_frame() {
        let inj = CrashInjector::new(CrashPlan::at(CrashPoint::MidAppend { record: 1, byte: 7 }));
        assert_eq!(inj.on_append(20), CrashVerdict::Proceed);
        assert_eq!(inj.on_append(20), CrashVerdict::Torn(7));
        assert!(inj.crashed());
    }

    #[test]
    fn torn_byte_clamped_below_frame_len() {
        let inj = CrashInjector::new(CrashPlan::at(CrashPoint::MidAppend { record: 0, byte: 999 }));
        assert_eq!(inj.on_append(12), CrashVerdict::Torn(11), "never a full frame");
    }

    #[test]
    fn after_append_dies_post_write() {
        let inj = CrashInjector::new(CrashPlan::at(CrashPoint::AfterAppend(0)));
        assert_eq!(inj.on_append(16), CrashVerdict::DieAfterAppend);
        assert!(inj.crashed());
        assert_eq!(inj.writes_allowed(), 1, "the frame did reach disk");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_varied() {
        let a = CrashPlan::seeded(42, 100);
        let b = CrashPlan::seeded(42, 100);
        assert_eq!(a, b);
        let modes: std::collections::HashSet<u8> = (0..64)
            .map(|s| match CrashPlan::seeded(s, 100).point() {
                CrashPoint::BeforeAppend(_) => 0,
                CrashPoint::MidAppend { .. } => 1,
                CrashPoint::AfterAppend(_) => 2,
            })
            .collect();
        assert_eq!(modes.len(), 3, "seeds cover all crash modes");
    }

    #[test]
    fn node_events_fire_once_in_order() {
        let plan = NodeFailurePlan::at(vec![(3, NodeEvent::Rejoin(1)), (1, NodeEvent::Kill(1))]);
        assert_eq!(plan.events(), &[(1, NodeEvent::Kill(1)), (3, NodeEvent::Rejoin(1))]);
        let inj = NodeFailureInjector::new(plan);
        assert!(inj.on_op().is_empty(), "op 0: nothing scheduled yet");
        assert_eq!(inj.on_op(), vec![NodeEvent::Kill(1)], "op 1: kill fires");
        assert!(inj.on_op().is_empty());
        assert_eq!(inj.on_op(), vec![NodeEvent::Rejoin(1)]);
        assert!(inj.exhausted());
        assert!(inj.on_op().is_empty(), "events fire exactly once");
    }

    #[test]
    fn node_events_catch_up_in_one_tick() {
        // Two events scheduled at op 0 both drain on the first tick.
        let plan = NodeFailurePlan::at(vec![(0, NodeEvent::Kill(2)), (0, NodeEvent::Rejoin(2))]);
        let inj = NodeFailureInjector::new(plan);
        assert_eq!(inj.on_op(), vec![NodeEvent::Kill(2), NodeEvent::Rejoin(2)]);
    }

    #[test]
    fn seeded_churn_plans_mix_membership_and_failures() {
        let a = NodeFailurePlan::seeded_churn(7, 5, 24, 200);
        assert_eq!(a, NodeFailurePlan::seeded_churn(7, 5, 24, 200), "deterministic");
        let mut kinds = std::collections::HashSet::new();
        for (_, e) in a.events() {
            kinds.insert(match e {
                NodeEvent::Kill(_) => 0u8,
                NodeEvent::Rejoin(_) => 1,
                NodeEvent::AddNode => 2,
                NodeEvent::RemoveNode(_) => 3,
            });
        }
        assert_eq!(kinds.len(), 4, "24 cycles cover all event kinds");
        let kills = a.events().iter().filter(|(_, e)| matches!(e, NodeEvent::Kill(_))).count();
        let rejoins = a.events().iter().filter(|(_, e)| matches!(e, NodeEvent::Rejoin(_))).count();
        assert_eq!(kills, rejoins, "every kill is paired with a rejoin");
    }

    #[test]
    fn seeded_node_plans_are_deterministic_and_paired() {
        let a = NodeFailurePlan::seeded(9, 5, 3, 100);
        assert_eq!(a, NodeFailurePlan::seeded(9, 5, 3, 100));
        assert_eq!(a.events().len(), 6, "3 cycles = 3 kills + 3 rejoins");
        let kills = a.events().iter().filter(|(_, e)| matches!(e, NodeEvent::Kill(_))).count();
        assert_eq!(kills, 3);
        for (op, _) in a.events() {
            assert!(*op <= 200, "events land near the horizon: {op}");
        }
    }
}
