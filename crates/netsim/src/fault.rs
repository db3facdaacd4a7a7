//! Deterministic fault injection for the simulated channel.
//!
//! [`FaultyService`] wraps any [`CloudService`] and injects message loss,
//! transient remote failures, duplicate delivery, response corruption and
//! extra latency, per route, with configurable probabilities. All randomness
//! comes from one seeded [`SplitMix64`] stream and every call consumes a
//! fixed number of draws, so two runs with the same seed and workload inject
//! exactly the same faults — the property the resilience tests assert on.
//!
//! # Examples
//!
//! ```
//! use datablinder_netsim::prelude::*;
//!
//! let plan = FaultPlan::uniform(RouteFaults::none().with_drop(0.2));
//! let svc = FaultyService::new(
//!     |_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> { Ok(p.to_vec()) },
//!     plan,
//!     42,
//! );
//! let ch = Channel::connect(svc, LatencyModel::instant());
//! let outcomes: Vec<bool> = (0..20).map(|_| ch.call("echo", b"x").is_ok()).collect();
//! assert!(outcomes.contains(&false), "some calls drop");
//! assert!(outcomes.contains(&true), "most calls survive");
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::{CloudService, NetError, Refusal};

/// Sebastiano Vigna's SplitMix64 — tiny, seedable, and good enough for fault
/// dice. Implemented inline so `netsim` stays free of a `rand` dependency.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-route fault probabilities. All fields are independent probabilities in
/// `[0, 1]`; `delay_by` is the latency added when the delay die fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteFaults {
    /// P(message lost in transit) — surfaces as [`NetError::Timeout`]. Half
    /// the drops lose the request (the cloud never executes), half lose the
    /// response (the cloud *did* execute — the dangerous half for writes).
    pub drop: f64,
    /// P(transient remote failure before execution) — surfaces as
    /// [`NetError::Remote`].
    pub fail: f64,
    /// P(the network delivers the request twice) — the service executes
    /// twice, the caller sees the second response.
    pub duplicate: f64,
    /// P(response corrupted in transit and caught by framing) — surfaces as
    /// [`NetError::MalformedFrame`], which is safe to retry.
    pub corrupt: f64,
    /// P(response body replaced with well-framed garbage) — surfaces as an
    /// `Ok` full of junk the application must reject. Models a byzantine
    /// cloud rather than a lossy wire, so it is *not* retried away.
    pub garble: f64,
    /// P(extra latency added to the round trip).
    pub delay: f64,
    /// Latency added when the delay die fires.
    pub delay_by: Duration,
}

impl RouteFaults {
    /// No faults at all.
    pub fn none() -> Self {
        RouteFaults {
            drop: 0.0,
            fail: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            garble: 0.0,
            delay: 0.0,
            delay_by: Duration::ZERO,
        }
    }

    /// Sets the message-loss probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the transient-remote-failure probability.
    pub fn with_fail(mut self, p: f64) -> Self {
        self.fail = p;
        self
    }

    /// Sets the duplicate-delivery probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the detected-corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Sets the garbled-response (byzantine) probability.
    pub fn with_garble(mut self, p: f64) -> Self {
        self.garble = p;
        self
    }

    /// Sets the extra-latency probability and magnitude.
    pub fn with_delay(mut self, p: f64, by: Duration) -> Self {
        self.delay = p;
        self.delay_by = by;
        self
    }
}

impl Default for RouteFaults {
    fn default() -> Self {
        RouteFaults::none()
    }
}

/// Which faults apply to which routes.
///
/// Routes are matched by longest prefix among the registered overrides;
/// unmatched routes get the default. An empty plan injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    default: RouteFaults,
    overrides: Vec<(String, RouteFaults)>,
}

impl FaultPlan {
    /// No faults on any route.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The same faults on every route.
    pub fn uniform(faults: RouteFaults) -> Self {
        FaultPlan { default: faults, overrides: Vec::new() }
    }

    /// Adds a prefix-matched override, e.g. `"tactic/"` for all tactic
    /// traffic or `"doc/insert"` for one exact route.
    pub fn route(mut self, prefix: impl Into<String>, faults: RouteFaults) -> Self {
        self.overrides.push((prefix.into(), faults));
        self
    }

    /// The faults in effect for `route` (longest matching prefix wins).
    pub fn faults_for(&self, route: &str) -> RouteFaults {
        self.overrides
            .iter()
            .filter(|(prefix, _)| route.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, faults)| *faults)
            .unwrap_or(self.default)
    }
}

/// Counters for faults actually injected (not probabilities — events).
#[derive(Debug, Default)]
pub struct FaultStats {
    drops: AtomicU64,
    failures: AtomicU64,
    duplicates: AtomicU64,
    corruptions: AtomicU64,
    garbles: AtomicU64,
    delays: AtomicU64,
}

impl FaultStats {
    /// Messages lost in transit.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Injected transient remote failures.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Requests delivered (and executed) twice.
    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// Responses corrupted detectably.
    pub fn corruptions(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Responses replaced with well-framed garbage.
    pub fn garbles(&self) -> u64 {
        self.garbles.load(Ordering::Relaxed)
    }

    /// Round trips that got extra latency.
    pub fn delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }

    /// Point-in-time copy, for determinism comparisons.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            drops: self.drops(),
            failures: self.failures(),
            duplicates: self.duplicates(),
            corruptions: self.corruptions(),
            garbles: self.garbles(),
            delays: self.delays(),
        }
    }
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// See [`FaultStats::drops`].
    pub drops: u64,
    /// See [`FaultStats::failures`].
    pub failures: u64,
    /// See [`FaultStats::duplicates`].
    pub duplicates: u64,
    /// See [`FaultStats::corruptions`].
    pub corruptions: u64,
    /// See [`FaultStats::garbles`].
    pub garbles: u64,
    /// See [`FaultStats::delays`].
    pub delays: u64,
}

/// A [`CloudService`] decorator that injects faults per a [`FaultPlan`].
///
/// Every `handle` call consumes exactly seven dice rolls from the seeded
/// stream regardless of which faults fire, so fault sequences depend only on
/// (seed, call order) — never on which earlier faults happened to trigger.
pub struct FaultyService<S> {
    inner: S,
    plan: FaultPlan,
    rng: Mutex<SplitMix64>,
    stats: FaultStats,
    injected_nanos: AtomicU64,
}

impl<S: CloudService> FaultyService<S> {
    /// Wraps `inner`, injecting faults per `plan`, seeded with `seed`.
    pub fn new(inner: S, plan: FaultPlan, seed: u64) -> Self {
        FaultyService {
            inner,
            plan,
            rng: Mutex::new(SplitMix64::new(seed)),
            stats: FaultStats::default(),
            injected_nanos: AtomicU64::new(0),
        }
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S> std::fmt::Debug for FaultyService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyService").field("plan", &self.plan).field("stats", &self.stats).finish()
    }
}

impl<S: CloudService> CloudService for FaultyService<S> {
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        // A traced envelope carries the real route inside; fault plans are
        // keyed on that inner route, so peek through the envelope (the
        // inner service still does the authoritative unwrap itself).
        let faults = if route == datablinder_obs::trace::TRACED_ROUTE {
            match datablinder_obs::trace::decode_traced(payload) {
                Ok((_, inner_route, _)) => self.plan.faults_for(inner_route),
                Err(_) => self.plan.faults_for(route),
            }
        } else {
            self.plan.faults_for(route)
        };

        // Draw every die up front so the stream position after this call is
        // independent of which faults fire.
        let (r_drop, r_drop_phase, r_fail, r_dup, r_corrupt, r_garble, r_delay) = {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            (
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
            )
        };

        if r_delay < faults.delay {
            self.stats.delays.fetch_add(1, Ordering::Relaxed);
            self.injected_nanos.fetch_add(faults.delay_by.as_nanos() as u64, Ordering::Relaxed);
        }

        let dropped = r_drop < faults.drop;
        if dropped && r_drop_phase < 0.5 {
            // Request lost before reaching the cloud: nothing executes.
            self.stats.drops.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Timeout);
        }

        if r_fail < faults.fail {
            self.stats.failures.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Remote(Refusal::Storage, "injected transient failure".into()));
        }

        let mut result = self.inner.handle(route, payload);
        if r_dup < faults.duplicate {
            // The network delivered the request twice. Both executions hit
            // the cloud state; the caller sees the second response.
            self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
            result = self.inner.handle(route, payload);
        }

        if dropped && r_drop_phase >= 0.5 {
            // Response lost on the way back: the cloud executed but the
            // gateway cannot know — the case idempotency tokens exist for.
            self.stats.drops.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Timeout);
        }

        match result {
            Ok(body) => {
                if r_corrupt < faults.corrupt {
                    self.stats.corruptions.fetch_add(1, Ordering::Relaxed);
                    return Err(NetError::MalformedFrame);
                }
                if r_garble < faults.garble {
                    self.stats.garbles.fetch_add(1, Ordering::Relaxed);
                    return Ok(vec![0xFF; body.len().max(8)]);
                }
                Ok(body)
            }
            err => err,
        }
    }

    fn take_injected_delay(&self) -> Duration {
        // Drain our own injected latency plus anything a nested wrapper
        // accumulated.
        Duration::from_nanos(self.injected_nanos.swap(0, Ordering::Relaxed)) + self.inner.take_injected_delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, LatencyModel};

    fn echo(_: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        Ok(payload.to_vec())
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mean: f64 = (0..1000).map(|_| a.next_f64()).sum::<f64>() / 1000.0;
        assert!((0.4..0.6).contains(&mean), "mean {mean} should be near 0.5");
    }

    #[test]
    fn plan_longest_prefix_wins() {
        let plan = FaultPlan::uniform(RouteFaults::none().with_drop(0.1))
            .route("tactic/", RouteFaults::none().with_drop(0.2))
            .route("tactic/mitra/", RouteFaults::none().with_drop(0.3));
        assert_eq!(plan.faults_for("doc/get").drop, 0.1);
        assert_eq!(plan.faults_for("tactic/ore/x:y/search").drop, 0.2);
        assert_eq!(plan.faults_for("tactic/mitra/x:y/insert").drop, 0.3);
    }

    #[test]
    fn fault_sequence_is_deterministic_per_seed() {
        let run = |seed: u64| -> (Vec<bool>, FaultStatsSnapshot) {
            let svc =
                FaultyService::new(echo, FaultPlan::uniform(RouteFaults::none().with_drop(0.3).with_fail(0.2)), seed);
            let outcomes = (0..100).map(|i| svc.handle("r", &[i as u8]).is_ok()).collect();
            (outcomes, svc.stats().snapshot())
        };
        let (o1, s1) = run(99);
        let (o2, s2) = run(99);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        let (o3, _) = run(100);
        assert_ne!(o1, o3, "different seed, different faults");
    }

    #[test]
    fn duplicate_delivery_executes_twice() {
        let calls = AtomicU64::new(0);
        let svc = FaultyService::new(
            move |_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(vec![calls.load(Ordering::Relaxed) as u8, p[0]])
            },
            FaultPlan::uniform(RouteFaults::none().with_duplicate(1.0)),
            1,
        );
        // The caller gets the *second* execution's response.
        assert_eq!(svc.handle("r", &[9]).unwrap(), vec![2, 9]);
        assert_eq!(svc.stats().duplicates(), 1);
    }

    #[test]
    fn injected_delay_is_drained_and_charged() {
        let svc = FaultyService::new(
            echo,
            FaultPlan::uniform(RouteFaults::none().with_delay(1.0, Duration::from_millis(3))),
            1,
        );
        let ch = Channel::connect(svc, LatencyModel::instant());
        ch.call("r", b"x").unwrap();
        assert_eq!(ch.metrics().virtual_time(), Duration::from_millis(3));
        // Drained: the next call charges its own delay only.
        ch.call("r", b"x").unwrap();
        assert_eq!(ch.metrics().virtual_time(), Duration::from_millis(6));
    }

    #[test]
    fn delay_plus_deadline_times_out() {
        let svc = FaultyService::new(
            echo,
            FaultPlan::uniform(RouteFaults::none().with_delay(1.0, Duration::from_millis(10))),
            1,
        );
        let ch = Channel::connect(svc, LatencyModel::instant());
        let err = ch.call_with_deadline("r", b"x", Some(Duration::from_millis(2)));
        assert_eq!(err, Err(NetError::Timeout));
        assert_eq!(ch.metrics().virtual_time(), Duration::from_millis(2));
    }

    #[test]
    fn garble_returns_ok_garbage() {
        let svc = FaultyService::new(echo, FaultPlan::uniform(RouteFaults::none().with_garble(1.0)), 1);
        let out = svc.handle("r", b"hello").unwrap();
        assert_eq!(out, vec![0xFF; 8]);
        assert_eq!(svc.stats().garbles(), 1);
    }

    #[test]
    fn corrupt_returns_malformed_frame() {
        let svc = FaultyService::new(echo, FaultPlan::uniform(RouteFaults::none().with_corrupt(1.0)), 1);
        assert_eq!(svc.handle("r", b"hello"), Err(NetError::MalformedFrame));
        assert_eq!(svc.stats().corruptions(), 1);
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let svc = FaultyService::new(echo, FaultPlan::none(), 1);
        for i in 0..50u8 {
            assert_eq!(svc.handle("r", &[i]).unwrap(), vec![i]);
        }
        assert_eq!(svc.stats().snapshot(), FaultStatsSnapshot::default());
    }
}
