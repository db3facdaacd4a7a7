//! Retries, deadlines and circuit breaking over any [`Transport`].
//!
//! [`ResilientChannel`] exposes the same `call` API as [`Channel`] but
//! absorbs transient faults: it retries retryable errors with exponential
//! backoff and deterministic seeded jitter, applies a per-call deadline, and
//! fails fast through a [`CircuitBreaker`] while the remote side looks dead.
//! All waiting — backoff included — goes through [`Transport::advance`]: a
//! simulated channel charges its virtual clock, so simulated time reflects
//! what a real client would have endured; a TCP channel really sleeps.
//!
//! What is safe to retry lives here; *whether* a retried write re-executes
//! is the cloud's problem, solved by idempotency tokens one layer up (see
//! DESIGN.md §Resilience).
//!
//! # Examples
//!
//! ```
//! use datablinder_netsim::prelude::*;
//!
//! let plan = FaultPlan::uniform(RouteFaults::none().with_drop(0.3));
//! let svc = FaultyService::new(
//!     |_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> { Ok(p.to_vec()) },
//!     plan,
//!     7,
//! );
//! let ch = ResilientChannel::new(Channel::connect(svc, LatencyModel::lan()), ResilienceConfig::default());
//! for i in 0..50u8 {
//!     assert_eq!(ch.call("echo", &[i]).unwrap(), vec![i]); // drops retried away
//! }
//! assert!(ch.metrics().attempts() > ch.metrics().round_trips());
//! ```

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use datablinder_obs::trace::{self, TraceCtx};
use datablinder_obs::Recorder;

use crate::fault::SplitMix64;
use crate::transport::Transport;
use crate::{Channel, ChannelMetrics, NetError};

/// When and how often to retry a failed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries per call, first attempt included. `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a seeded
    /// uniform draw from `[1 - jitter, 1]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// One attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Whether `err` is worth retrying under this policy.
    ///
    /// Timeouts, detected corruption, dropped connections and breaker
    /// rejections are transport conditions that a retry (after
    /// backoff/cooldown) may clear. Unknown routes and oversized frames are
    /// deterministic bugs, and a remote *application* error reproduces on
    /// retry: neither is retried.
    pub fn is_retryable(&self, err: &NetError) -> bool {
        match err {
            NetError::Timeout
            | NetError::MalformedFrame
            | NetError::CircuitOpen
            | NetError::Unavailable(_)
            | NetError::Disconnected(_) => true,
            NetError::Remote(..) | NetError::UnknownRoute(_) | NetError::FrameTooLarge(_) => false,
        }
    }

    /// The pause before attempt `attempt + 1`, given that `attempt` (1-based)
    /// just failed: `min(base · 2^(attempt-1), max)`, scaled by seeded jitter.
    pub(crate) fn backoff_for(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base_backoff.saturating_mul(1u32 << exp.min(31));
        let capped = raw.min(self.max_backoff);
        let scale = 1.0 - self.jitter.clamp(0.0, 1.0) * rng.next_f64();
        Duration::from_nanos((capped.as_nanos() as f64 * scale) as u64)
    }
}

/// Circuit breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, cooldown: Duration::from_millis(100) }
    }
}

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive transport failures are counted.
    Closed,
    /// Calls fail fast until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome closes or re-opens the breaker.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Duration,
}

/// Closed → open after N consecutive transport failures → half-open probe
/// after a cooldown → closed on probe success (open again on probe failure).
///
/// Time is whatever clock the caller passes in — the [`ResilientChannel`]
/// feeds it the channel's virtual clock, keeping breaker behaviour
/// deterministic in simulation.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                open_until: Duration::ZERO,
            }),
        }
    }

    /// Asks to place a call at time `now`. `Ok(true)` means the call is the
    /// half-open probe (the breaker just transitioned); `Ok(false)` a normal
    /// admission; `Err(remaining)` a fast-fail with the cooldown left.
    pub fn admit(&self, now: Duration) -> Result<bool, Duration> {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match g.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(false),
            BreakerState::Open => {
                if now >= g.open_until {
                    g.state = BreakerState::HalfOpen;
                    Ok(true)
                } else {
                    Err(g.open_until - now)
                }
            }
        }
    }

    /// Cooldown left before a half-open probe would be admitted, if open.
    /// Never mutates state (unlike [`CircuitBreaker::admit`]).
    pub fn remaining_cooldown(&self, now: Duration) -> Option<Duration> {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match g.state {
            BreakerState::Open if g.open_until > now => Some(g.open_until - now),
            _ => None,
        }
    }

    /// Records a successful call: closes the breaker, clears the streak.
    /// Returns `true` when this actually moved the breaker (it was open or
    /// half-open) — the close transitions observability counts.
    pub fn on_success(&self) -> bool {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let moved = g.state != BreakerState::Closed;
        g.state = BreakerState::Closed;
        g.consecutive_failures = 0;
        moved
    }

    /// Records a transport failure at time `now`. Returns `true` when this
    /// failure tripped the breaker open (threshold reached, or a half-open
    /// probe failed).
    pub fn on_failure(&self, now: Duration) -> bool {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.consecutive_failures = g.consecutive_failures.saturating_add(1);
        let trips = match g.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => g.consecutive_failures >= self.config.failure_threshold.max(1),
            BreakerState::Open => false,
        };
        if trips {
            g.state = BreakerState::Open;
            g.open_until = now + self.config.cooldown;
        }
        trips
    }

    /// The current position.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).state
    }
}

/// Everything a [`ResilientChannel`] needs to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Retry schedule and error classification.
    pub retry: RetryPolicy,
    /// Circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Per-call deadline in simulated time; `None` waits forever.
    pub deadline: Option<Duration>,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            deadline: None,
            seed: 0x5EED_CAB1E,
        }
    }
}

/// A [`Transport`] wrapped with retries, deadlines and a circuit breaker.
///
/// Exposes the same `call(route, payload)` shape as [`Channel`]. Works over
/// any transport — the simulated [`Channel`] or a real
/// [`TcpChannel`](crate::tcp::TcpChannel) — with identical retry, deadline,
/// breaker and tracing behaviour. Cloning shares the underlying transport,
/// metrics, breaker and jitter stream.
#[derive(Clone)]
pub struct ResilientChannel {
    transport: Arc<dyn Transport>,
    policy: RetryPolicy,
    deadline: Option<Duration>,
    breaker: Arc<CircuitBreaker>,
    jitter: Arc<Mutex<SplitMix64>>,
    obs: Recorder,
}

impl ResilientChannel {
    /// Wraps an existing simulated channel.
    pub fn new(channel: Channel, config: ResilienceConfig) -> Self {
        ResilientChannel::over(Arc::new(channel), config)
    }

    /// Wraps any transport.
    pub fn over(transport: Arc<dyn Transport>, config: ResilienceConfig) -> Self {
        ResilientChannel {
            transport,
            policy: config.retry,
            deadline: config.deadline,
            breaker: Arc::new(CircuitBreaker::new(config.breaker)),
            jitter: Arc::new(Mutex::new(SplitMix64::new(config.seed))),
            obs: Recorder::default(),
        }
    }

    /// Attaches an observability recorder (disabled by default); clones of
    /// this channel made *after* the call share it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// Builder form of [`ResilientChannel::set_recorder`].
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.obs = recorder;
        self
    }

    /// The attached observability recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Calls with the configured deadline, retrying per policy.
    ///
    /// # Errors
    ///
    /// The last attempt's error once retries are exhausted, or immediately
    /// for non-retryable errors ([`NetError::Remote`], unknown routes).
    pub fn call(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.call_with_deadline(route, payload, self.deadline)
    }

    /// Calls with an explicit per-call deadline (overriding the configured
    /// one), retrying per policy.
    ///
    /// # Errors
    ///
    /// As [`ResilientChannel::call`].
    pub fn call_with_deadline(
        &self,
        route: &str,
        payload: &[u8],
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, NetError> {
        let metrics = self.transport.metrics();
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        // A trace installed by the caller (the gateway route span) makes
        // this call — and every attempt under it — part of that trace.
        let ambient = trace::current();
        // Span durations are measured on the channel's virtual clock so they
        // include simulated latency, timeouts and backoff sleeps.
        let vt0 = if self.obs.is_enabled() { Some(metrics.virtual_time()) } else { None };
        let mut call_guard = vt0.map(|_| self.obs.span("channel.call"));
        loop {
            attempt += 1;
            metrics.record_attempt();
            self.obs.count("channel.call.attempts", 1);

            let outcome = match self.breaker.admit(metrics.virtual_time()) {
                Ok(probe) => {
                    if probe {
                        metrics.record_breaker_half_open();
                        self.obs.count("channel.breaker.transitions", 1);
                        self.obs.gauge_set("channel.breaker.state", breaker_gauge(BreakerState::HalfOpen));
                    }
                    let result = self.attempt_once(route, payload, deadline, ambient);
                    match &result {
                        Ok(_) => self.note_success(),
                        Err(e) if is_transport_failure(e) => {
                            if self.breaker.on_failure(metrics.virtual_time()) {
                                metrics.record_breaker_open();
                                self.obs.count("channel.breaker.transitions", 1);
                                self.obs.gauge_set("channel.breaker.state", breaker_gauge(BreakerState::Open));
                            }
                        }
                        // The remote side answered — it is alive. Application
                        // failures must not starve the route.
                        Err(_) => self.note_success(),
                    }
                    result
                }
                Err(_remaining) => Err(NetError::CircuitOpen),
            };

            match outcome {
                Ok(body) => {
                    finish_call_guard(call_guard.as_mut(), vt0, metrics, true, None);
                    return Ok(body);
                }
                Err(err) => {
                    if attempt >= max_attempts || !self.policy.is_retryable(&err) {
                        finish_call_guard(call_guard.as_mut(), vt0, metrics, false, Some(&err));
                        return Err(err);
                    }
                    metrics.record_retry();
                    self.obs.count("channel.call.retries", 1);
                    let mut pause = self
                        .policy
                        .backoff_for(attempt, &mut self.jitter.lock().unwrap_or_else(PoisonError::into_inner));
                    if let Some(remaining) = self.breaker.remaining_cooldown(metrics.virtual_time()) {
                        // No point re-knocking on an open breaker: stretch
                        // the pause to the cooldown so the next attempt can
                        // be the half-open probe.
                        pause = pause.max(remaining);
                    }
                    self.obs.count("channel.backoff.sleeps", 1);
                    self.obs.count("channel.backoff.nanos", pause.as_nanos() as u64);
                    self.transport.advance(pause);
                }
            }
        }
    }

    /// Reports a successful call to the breaker, counting the transition if
    /// the breaker was not already closed.
    fn note_success(&self) {
        if self.breaker.on_success() {
            self.obs.count("channel.breaker.transitions", 1);
        }
        self.obs.gauge_set("channel.breaker.state", breaker_gauge(BreakerState::Closed));
    }

    /// One attempt over the wire. Under an ambient trace the request is
    /// wrapped in the [`trace::TRACED_ROUTE`] envelope — so the remote
    /// service joins the trace — and a quiet per-attempt span (no counters,
    /// virtual-clock duration, error detail) is recorded. With no ambient
    /// trace the frame on the wire is byte-identical to before tracing
    /// existed.
    fn attempt_once(
        &self,
        route: &str,
        payload: &[u8],
        deadline: Option<Duration>,
        ambient: Option<TraceCtx>,
    ) -> Result<Vec<u8>, NetError> {
        let Some(ambient) = ambient else {
            return self.transport.call_with_deadline(route, payload, deadline);
        };
        let va0 = self.transport.metrics().virtual_time();
        let mut guard = self.obs.quiet_span("channel.attempt");
        // Propagate even when this channel's recorder is disabled: the
        // trace belongs to the caller, not to us.
        let ctx = guard.ctx().unwrap_or(ambient);
        let framed = trace::encode_traced(ctx, route, payload);
        let result = self.transport.call_with_deadline(trace::TRACED_ROUTE, &framed, deadline);
        guard.set_duration(self.transport.metrics().virtual_time().saturating_sub(va0));
        if let Err(e) = &result {
            guard.fail();
            guard.set_detail(&e.to_string());
        }
        result
    }

    /// Traffic and resilience counters (shared with the inner transport).
    pub fn metrics(&self) -> &ChannelMetrics {
        self.transport.metrics()
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    /// The breaker's current position.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// The retry policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Advances the transport clock (simulated or real), e.g. to let a
    /// breaker cooldown elapse in tests.
    pub fn advance(&self, delta: Duration) {
        self.transport.advance(delta);
    }
}

impl std::fmt::Debug for ResilientChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientChannel")
            .field("policy", &self.policy)
            .field("deadline", &self.deadline)
            .field("breaker", &self.breaker.state())
            .finish()
    }
}

/// Gauge encoding of a breaker position (`channel.breaker.state`):
/// closed = 0, open = 1, half-open = 2.
pub fn breaker_gauge(state: BreakerState) -> i64 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    }
}

fn is_transport_failure(err: &NetError) -> bool {
    // Only evidence that the *path* is unhealthy counts toward the breaker.
    // Remote/UnknownRoute/Unavailable mean the other side answered, and
    // FrameTooLarge is the caller's own deterministic bug.
    matches!(err, NetError::Timeout | NetError::MalformedFrame | NetError::Disconnected(_))
}

/// Closes the per-call span guard with the virtual-clock duration and
/// outcome. The guard carries the `channel.call` counters and histogram, so
/// this replicates exactly what `record_op("channel.call", …)` used to do.
fn finish_call_guard(
    guard: Option<&mut datablinder_obs::SpanGuard>,
    vt0: Option<Duration>,
    metrics: &ChannelMetrics,
    ok: bool,
    err: Option<&NetError>,
) {
    if let (Some(guard), Some(vt0)) = (guard, vt0) {
        guard.set_duration(metrics.virtual_time().saturating_sub(vt0));
        guard.set_ok(ok);
        if let Some(e) = err {
            guard.set_detail(&e.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyService, RouteFaults};
    use crate::{LatencyModel, Refusal};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        let mut rng = SplitMix64::new(1);
        assert_eq!(policy.backoff_for(1, &mut rng), Duration::from_micros(500));
        assert_eq!(policy.backoff_for(2, &mut rng), Duration::from_micros(1000));
        assert_eq!(policy.backoff_for(3, &mut rng), Duration::from_micros(2000));
        assert_eq!(policy.backoff_for(30, &mut rng), Duration::from_millis(50), "capped at max_backoff");
    }

    #[test]
    fn jitter_shrinks_backoff_deterministically() {
        let policy = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        let a = policy.backoff_for(1, &mut SplitMix64::new(3));
        let b = policy.backoff_for(1, &mut SplitMix64::new(3));
        assert_eq!(a, b, "same seed, same jitter");
        assert!(a <= Duration::from_micros(500));
        assert!(a >= Duration::from_micros(250), "jitter scales into [0.5, 1]·base: {a:?}");
    }

    #[test]
    fn classification() {
        let policy = RetryPolicy::default();
        assert!(policy.is_retryable(&NetError::Timeout));
        assert!(policy.is_retryable(&NetError::MalformedFrame));
        assert!(policy.is_retryable(&NetError::CircuitOpen));
        assert!(policy.is_retryable(&NetError::Unavailable("1/2 acks".into())));
        assert!(!policy.is_retryable(&NetError::Remote(Refusal::Unsupported, "app bug".into())));
        assert!(!policy.is_retryable(&NetError::UnknownRoute("x".into())));
    }

    #[test]
    fn breaker_state_machine() {
        let b = CircuitBreaker::new(BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(10) });
        let t0 = Duration::ZERO;
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        assert!(b.on_failure(t0), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(t0), Err(Duration::from_millis(10)));
        assert_eq!(b.remaining_cooldown(Duration::from_millis(4)), Some(Duration::from_millis(6)));

        // Cooldown elapses: one probe admitted.
        assert_eq!(b.admit(Duration::from_millis(10)), Ok(true));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe fails → straight back to open.
        assert!(b.on_failure(Duration::from_millis(10)));
        assert_eq!(b.state(), BreakerState::Open);

        // Second probe succeeds → closed, streak cleared.
        assert_eq!(b.admit(Duration::from_millis(20)), Ok(true));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(Duration::from_millis(20)), "streak restarted");
    }

    #[test]
    fn success_resets_failure_streak() {
        let b = CircuitBreaker::new(BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(1) });
        b.on_failure(Duration::ZERO);
        b.on_success();
        assert!(!b.on_failure(Duration::ZERO), "streak was reset");
        assert!(b.on_failure(Duration::ZERO));
    }

    #[test]
    fn retries_absorb_transient_drops() {
        let plan = FaultPlan::uniform(RouteFaults::none().with_drop(0.4));
        let svc = FaultyService::new(|_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> { Ok(p.to_vec()) }, plan, 11);
        let ch = ResilientChannel::new(
            Channel::connect(svc, LatencyModel::lan()),
            ResilienceConfig {
                retry: RetryPolicy { max_attempts: 10, ..RetryPolicy::default() },
                ..Default::default()
            },
        );
        for i in 0..100u8 {
            assert_eq!(ch.call("echo", &[i]).unwrap(), vec![i]);
        }
        let m = ch.metrics();
        assert!(m.attempts() > m.round_trips(), "attempts {} > round trips {}", m.attempts(), m.round_trips());
        assert!(m.retries() > 0);
        assert!(m.timeouts() > 0);
        assert!(m.virtual_time() > Duration::ZERO, "backoff charged to the clock");
    }

    #[test]
    fn non_retryable_error_returns_immediately() {
        let svc = |_: &str, _: &[u8]| -> Result<Vec<u8>, NetError> {
            Err(NetError::Remote(Refusal::Unsupported, "bug".into()))
        };
        let ch = ResilientChannel::new(Channel::connect(svc, LatencyModel::instant()), ResilienceConfig::default());
        assert_eq!(ch.call("r", b"x"), Err(NetError::Remote(Refusal::Unsupported, "bug".into())));
        assert_eq!(ch.metrics().attempts(), 1, "no retries for application errors");
    }

    #[test]
    fn breaker_opens_fast_fails_and_recovers() {
        // Service: times out for the first 4 deliveries, then echoes.
        let deliveries = AtomicU64::new(0);
        let svc = move |_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> {
            if deliveries.fetch_add(1, Ordering::Relaxed) < 4 {
                Err(NetError::Timeout)
            } else {
                Ok(p.to_vec())
            }
        };
        let config = ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker: BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(50) },
            deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let ch = ResilientChannel::new(Channel::connect(svc, LatencyModel::instant()), config);

        // Three timeouts trip the breaker...
        for _ in 0..3 {
            assert_eq!(ch.call("r", b"x"), Err(NetError::Timeout));
        }
        assert_eq!(ch.breaker_state(), BreakerState::Open);
        assert_eq!(ch.metrics().breaker_opens(), 1);

        // ...now calls fail fast without touching the wire.
        let sent_before = ch.metrics().bytes_sent();
        assert_eq!(ch.call("r", b"x"), Err(NetError::CircuitOpen));
        assert_eq!(ch.metrics().bytes_sent(), sent_before, "fast-fail sent nothing");

        // After the cooldown the half-open probe goes through. The 4th
        // delivery still times out, re-opening; the probe after that heals.
        ch.advance(Duration::from_millis(50));
        assert_eq!(ch.call("r", b"x"), Err(NetError::Timeout));
        assert_eq!(ch.breaker_state(), BreakerState::Open);
        assert_eq!(ch.metrics().breaker_opens(), 2);

        ch.advance(Duration::from_millis(50));
        assert_eq!(ch.call("r", b"x").unwrap(), b"x");
        assert_eq!(ch.breaker_state(), BreakerState::Closed);
        assert_eq!(ch.metrics().breaker_half_opens(), 2);
    }

    #[test]
    fn retry_waits_out_breaker_cooldown() {
        // Always-timing-out service; generous retries. The breaker opens
        // mid-retry-loop and the backoff stretches to its cooldown, so the
        // retry loop keeps attempting (as probes) rather than burning all
        // attempts on instant CircuitOpen fast-fails.
        let svc = |_: &str, _: &[u8]| -> Result<Vec<u8>, NetError> { Err(NetError::Timeout) };
        let config = ResilienceConfig {
            retry: RetryPolicy { max_attempts: 6, jitter: 0.0, ..RetryPolicy::default() },
            breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(30) },
            deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let ch = ResilientChannel::new(Channel::connect(svc, LatencyModel::instant()), config);
        assert_eq!(ch.call("r", b"x"), Err(NetError::Timeout));
        let m = ch.metrics();
        assert_eq!(m.attempts(), 6);
        // Attempts after the breaker opened were half-open probes, not
        // CircuitOpen fast-fails.
        assert!(m.breaker_half_opens() >= 3, "probes: {}", m.breaker_half_opens());
        assert!(m.virtual_time() >= Duration::from_millis(60), "cooldowns waited out: {:?}", m.virtual_time());
    }

    #[test]
    fn recorder_tracks_retries_and_breaker_transitions() {
        // Times out for the first 4 deliveries, then echoes — same shape as
        // breaker_opens_fast_fails_and_recovers, now checked via the recorder.
        let deliveries = AtomicU64::new(0);
        let svc = move |_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> {
            if deliveries.fetch_add(1, Ordering::Relaxed) < 4 {
                Err(NetError::Timeout)
            } else {
                Ok(p.to_vec())
            }
        };
        let config = ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker: BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(50) },
            deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let rec = Recorder::new();
        let ch =
            ResilientChannel::new(Channel::connect(svc, LatencyModel::instant()), config).with_recorder(rec.clone());

        for _ in 0..3 {
            let _ = ch.call("r", b"x");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("channel.call.attempts"), 3);
        assert_eq!(snap.counter("channel.breaker.transitions"), 1, "closed -> open");
        assert_eq!(snap.gauge("channel.breaker.state"), Some(breaker_gauge(BreakerState::Open)));

        // Fast-fail while open, probe fails (open again), probe heals.
        let _ = ch.call("r", b"x");
        ch.advance(Duration::from_millis(50));
        let _ = ch.call("r", b"x");
        ch.advance(Duration::from_millis(50));
        assert_eq!(ch.call("r", b"x").unwrap(), b"x");

        let snap = rec.snapshot();
        // open, half-open, open (probe failed), half-open, closed = 5 total.
        assert_eq!(snap.counter("channel.breaker.transitions"), 5);
        assert_eq!(snap.gauge("channel.breaker.state"), Some(breaker_gauge(BreakerState::Closed)));
        assert_eq!(snap.counter("channel.call.errors"), 5);
        assert_eq!(snap.counter("channel.call.count"), 6);
        assert!(snap.histogram("channel.call.latency").is_some());
    }

    #[test]
    fn ambient_trace_wraps_attempts_in_the_envelope() {
        // Under a trace, the wire carries TRACED_ROUTE with the real route
        // inside, and per-attempt quiet spans join the caller's tree.
        let svc = |route: &str, payload: &[u8]| -> Result<Vec<u8>, NetError> {
            assert_eq!(route, trace::TRACED_ROUTE);
            let (ctx, inner, body) = trace::decode_traced(payload).expect("traced envelope");
            assert_ne!(ctx.trace_id, 0);
            assert_eq!(inner, "echo");
            Ok(body.to_vec())
        };
        let rec = Recorder::new();
        let ch = ResilientChannel::new(Channel::connect(svc, LatencyModel::instant()), ResilienceConfig::default())
            .with_recorder(rec.clone());
        {
            let _root = rec.span("gateway.op");
            assert_eq!(ch.call("echo", b"ping").unwrap(), b"ping");
        }
        let spans = rec.spans().recent();
        let root = spans.iter().find(|s| s.route == "gateway.op").unwrap();
        let call = spans.iter().find(|s| s.route == "channel.call").unwrap();
        let attempt = spans.iter().find(|s| s.route == "channel.attempt").unwrap();
        assert_eq!(call.parent_id, root.span_id, "call nests under the caller's span");
        assert_eq!(attempt.parent_id, call.span_id, "attempt nests under the call");
        assert!(spans.iter().all(|s| s.trace_id == root.trace_id), "one trace");
        let snap = rec.snapshot();
        assert_eq!(snap.counter("channel.call.count"), 1);
        assert_eq!(snap.counter("channel.attempt.count"), 0, "attempt spans are quiet");
    }

    #[test]
    fn untraced_calls_stay_unwrapped_on_the_wire() {
        // No ambient trace: the frame is byte-identical to pre-tracing
        // behavior even with an enabled recorder attached.
        let svc = |route: &str, p: &[u8]| -> Result<Vec<u8>, NetError> {
            assert_eq!(route, "echo", "no envelope without a trace");
            Ok(p.to_vec())
        };
        let ch = ResilientChannel::new(Channel::connect(svc, LatencyModel::instant()), ResilienceConfig::default())
            .with_recorder(Recorder::new());
        assert_eq!(ch.call("echo", b"ping").unwrap(), b"ping");
    }

    #[test]
    fn traced_faults_target_the_inner_route() {
        // A fault plan keyed on the inner route still fires when the wire
        // carries the traced envelope.
        let plan = FaultPlan::none().route("echo", RouteFaults::none().with_fail(1.0));
        let svc = FaultyService::new(|_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> { Ok(p.to_vec()) }, plan, 5);
        let rec = Recorder::new();
        let ch = ResilientChannel::new(
            Channel::connect(svc, LatencyModel::instant()),
            ResilienceConfig { retry: RetryPolicy::none(), ..Default::default() },
        )
        .with_recorder(rec.clone());
        let _root = rec.span("gateway.op");
        let err = ch.call("echo", b"x");
        assert_eq!(err, Err(NetError::Remote(Refusal::Storage, "injected transient failure".into())));
    }

    #[test]
    fn recorder_counts_backoff_sleeps() {
        let plan = FaultPlan::uniform(RouteFaults::none().with_drop(0.4));
        let svc = FaultyService::new(|_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> { Ok(p.to_vec()) }, plan, 11);
        let rec = Recorder::new();
        let ch = ResilientChannel::new(
            Channel::connect(svc, LatencyModel::lan()),
            ResilienceConfig {
                retry: RetryPolicy { max_attempts: 10, ..RetryPolicy::default() },
                ..Default::default()
            },
        )
        .with_recorder(rec.clone());
        for i in 0..100u8 {
            assert_eq!(ch.call("echo", &[i]).unwrap(), vec![i]);
        }
        let snap = rec.snapshot();
        let m = ch.metrics();
        assert_eq!(snap.counter("channel.call.attempts"), m.attempts());
        assert_eq!(snap.counter("channel.call.retries"), m.retries());
        assert_eq!(snap.counter("channel.backoff.sleeps"), m.retries(), "every retry backed off");
        assert!(snap.counter("channel.backoff.nanos") > 0);
    }

    #[test]
    fn clone_shares_breaker_and_metrics() {
        let svc = |_: &str, _: &[u8]| -> Result<Vec<u8>, NetError> { Err(NetError::Timeout) };
        let config = ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker: BreakerConfig { failure_threshold: 1, cooldown: Duration::from_secs(1) },
            deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let ch = ResilientChannel::new(Channel::connect(svc, LatencyModel::instant()), config);
        let ch2 = ch.clone();
        let _ = ch.call("r", b"x");
        assert_eq!(ch2.breaker_state(), BreakerState::Open);
        assert_eq!(ch2.metrics().attempts(), 1);
    }
}
