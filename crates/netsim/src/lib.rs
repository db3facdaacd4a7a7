//! Simulated gateway↔cloud transport.
//!
//! The original evaluation ran the gateway on a private OpenStack cloud and
//! the cloud components on a public provider. We substitute (per DESIGN.md)
//! an in-process channel that:
//!
//! * serializes every request/response through a real wire framing
//!   (length-prefixed routes and payloads, via `bytes`), so serialization
//!   cost is paid like on a real network,
//! * meters round trips and bytes in both directions,
//! * charges a configurable [`LatencyModel`] to a virtual clock (and can
//!   optionally really sleep, for wall-clock-faithful runs).
//!
//! Because the paper's evaluation compares *relative* overheads
//! (S_A vs S_B vs S_C), a deterministic simulated channel preserves the
//! comparison while making results reproducible.
//!
//! # Examples
//!
//! ```
//! use datablinder_netsim::{Channel, CloudService, LatencyModel, NetError};
//!
//! struct Echo;
//! impl CloudService for Echo {
//!     fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
//!         assert_eq!(route, "echo");
//!         Ok(payload.to_vec())
//!     }
//! }
//!
//! let ch = Channel::connect(Echo, LatencyModel::lan());
//! assert_eq!(ch.call("echo", b"ping").unwrap(), b"ping");
//! assert_eq!(ch.metrics().round_trips(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datablinder_codec::{Malformed, Writer};

pub mod crash;
pub mod fault;
pub mod prelude;
pub mod resilient;
pub mod tcp;
pub mod transport;

pub use crash::{CrashInjector, CrashPlan, CrashPoint, CrashVerdict, NodeEvent, NodeFailureInjector, NodeFailurePlan};
pub use fault::{FaultPlan, FaultStats, FaultStatsSnapshot, FaultyService, RouteFaults};
pub use resilient::{
    breaker_gauge, BreakerConfig, BreakerState, CircuitBreaker, ResilienceConfig, ResilientChannel, RetryPolicy,
};
pub use tcp::{CloudServer, FrameDecoder, FrameError, ServerConfig, TcpChannel, TcpConfig};
pub use transport::Transport;

/// Errors crossing the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No handler for the route.
    UnknownRoute(String),
    /// The remote handler failed; the message crossed the wire.
    Remote(String),
    /// A frame could not be decoded.
    MalformedFrame,
    /// The request or response was lost, or the response missed the caller's
    /// deadline. The caller cannot tell whether the remote side executed.
    Timeout,
    /// The circuit breaker is open; the call was failed fast without
    /// touching the network.
    CircuitOpen,
    /// Too few replicas answered to satisfy the requested quorum. Unlike
    /// [`NetError::Timeout`], the cluster *did* respond — it simply could
    /// not gather enough durable acks. Retryable: replicas may rejoin.
    Unavailable(String),
    /// The connection to the remote side dropped (dial failure, reset, or
    /// close mid-conversation). Like [`NetError::Timeout`], the caller
    /// cannot tell whether the remote side executed — retries must ride
    /// the idempotency envelope. Retryable: the next attempt reconnects.
    Disconnected(String),
    /// A frame exceeded the configured size limit; the offending side
    /// closed the connection rather than allocate unboundedly. Not
    /// retryable — the same request would be oversized again.
    FrameTooLarge(String),
}

impl From<Malformed> for NetError {
    fn from(_: Malformed) -> Self {
        NetError::MalformedFrame
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownRoute(r) => write!(f, "unknown route: {r}"),
            NetError::Remote(e) => write!(f, "remote error: {e}"),
            NetError::MalformedFrame => write!(f, "malformed frame"),
            NetError::Timeout => write!(f, "timed out"),
            NetError::CircuitOpen => write!(f, "circuit breaker open"),
            NetError::Unavailable(m) => write!(f, "quorum unavailable: {m}"),
            NetError::Disconnected(m) => write!(f, "disconnected: {m}"),
            NetError::FrameTooLarge(m) => write!(f, "frame too large: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The cloud-side request handler.
pub trait CloudService: Send + Sync {
    /// Handles one request; the returned bytes travel back to the gateway.
    ///
    /// # Errors
    ///
    /// Any [`NetError`]; [`NetError::Remote`] for application failures.
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError>;

    /// Drains latency injected by fault wrappers during the last `handle`
    /// call, to be charged to the channel's clock on top of the model cost.
    /// Plain services have none.
    fn take_injected_delay(&self) -> Duration {
        Duration::ZERO
    }
}

impl<F> CloudService for F
where
    F: Fn(&str, &[u8]) -> Result<Vec<u8>, NetError> + Send + Sync,
{
    fn handle(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self(route, payload)
    }
}

/// Latency and bandwidth model charged per round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed round-trip time in microseconds.
    pub rtt_micros: u64,
    /// Per-byte cost in nanoseconds (inverse bandwidth), both directions.
    pub per_byte_nanos: u64,
    /// Whether `call` really sleeps (wall-clock mode) or only charges the
    /// virtual clock (fast deterministic mode, the default).
    pub real_sleep: bool,
}

impl LatencyModel {
    /// Zero-cost channel (pure function-call dispatch).
    pub fn instant() -> Self {
        LatencyModel { rtt_micros: 0, per_byte_nanos: 0, real_sleep: false }
    }

    /// Data-center LAN: 200 µs RTT, ~10 Gbit/s.
    pub fn lan() -> Self {
        LatencyModel { rtt_micros: 200, per_byte_nanos: 1, real_sleep: false }
    }

    /// Gateway to a nearby public-cloud region: 2 ms RTT, ~2 Gbit/s — the
    /// shape of the paper's OpenStack-to-public-cloud deployment
    /// (private datacenter to an in-country provider).
    pub fn metro() -> Self {
        LatencyModel { rtt_micros: 2_000, per_byte_nanos: 4, real_sleep: false }
    }

    /// Long-haul WAN: 10 ms RTT, ~1 Gbit/s.
    pub fn wan() -> Self {
        LatencyModel { rtt_micros: 10_000, per_byte_nanos: 8, real_sleep: false }
    }

    fn cost(&self, bytes: usize) -> Duration {
        Duration::from_micros(self.rtt_micros) + Duration::from_nanos(self.per_byte_nanos * bytes as u64)
    }
}

/// Traffic counters for one channel.
#[derive(Debug, Default)]
pub struct ChannelMetrics {
    round_trips: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    virtual_nanos: AtomicU64,
    attempts: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_half_opens: AtomicU64,
}

impl ChannelMetrics {
    /// Completed request/response pairs.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Bytes sent gateway → cloud (framed size).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes received cloud → gateway (framed size).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Total simulated network time charged.
    pub fn virtual_time(&self) -> Duration {
        Duration::from_nanos(self.virtual_nanos.load(Ordering::Relaxed))
    }

    /// Calls issued through a [`ResilientChannel`], including retries and
    /// attempts that never completed (dropped, timed out, breaker-rejected).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Attempts that were re-issues of an earlier failed attempt.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Calls that ended in [`NetError::Timeout`] (lost in transit or past
    /// their deadline).
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Times the circuit breaker tripped closed/half-open → open.
    pub fn breaker_opens(&self) -> u64 {
        self.breaker_opens.load(Ordering::Relaxed)
    }

    /// Times the circuit breaker admitted a half-open probe after cooldown.
    pub fn breaker_half_opens(&self) -> u64 {
        self.breaker_half_opens.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all counters, e.g. for determinism checks.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            round_trips: self.round_trips(),
            bytes_sent: self.bytes_sent(),
            bytes_received: self.bytes_received(),
            virtual_nanos: self.virtual_nanos.load(Ordering::Relaxed),
            attempts: self.attempts(),
            retries: self.retries(),
            timeouts: self.timeouts(),
            breaker_opens: self.breaker_opens(),
            breaker_half_opens: self.breaker_half_opens(),
        }
    }

    pub(crate) fn record_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_breaker_half_open(&self) {
        self.breaker_half_opens.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`ChannelMetrics`].
///
/// Two runs of the same seeded workload must produce equal snapshots; the
/// resilience tests compare them with `==`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`ChannelMetrics::round_trips`].
    pub round_trips: u64,
    /// See [`ChannelMetrics::bytes_sent`].
    pub bytes_sent: u64,
    /// See [`ChannelMetrics::bytes_received`].
    pub bytes_received: u64,
    /// Simulated network time charged, in nanoseconds.
    pub virtual_nanos: u64,
    /// See [`ChannelMetrics::attempts`].
    pub attempts: u64,
    /// See [`ChannelMetrics::retries`].
    pub retries: u64,
    /// See [`ChannelMetrics::timeouts`].
    pub timeouts: u64,
    /// See [`ChannelMetrics::breaker_opens`].
    pub breaker_opens: u64,
    /// See [`ChannelMetrics::breaker_half_opens`].
    pub breaker_half_opens: u64,
}

/// A gateway-side handle to a cloud service. Cloning shares the service,
/// metrics and model.
#[derive(Clone)]
pub struct Channel {
    service: Arc<dyn CloudService>,
    model: LatencyModel,
    metrics: Arc<ChannelMetrics>,
}

impl Channel {
    /// Connects to `service` with the given latency model.
    pub fn connect<S: CloudService + 'static>(service: S, model: LatencyModel) -> Self {
        Channel::from_arc(Arc::new(service), model)
    }

    /// Connects to an already-shared service — keep the other handle to
    /// inspect fault stats or cloud state after the channel takes ownership.
    pub fn from_arc(service: Arc<dyn CloudService>, model: LatencyModel) -> Self {
        Channel { service, model, metrics: Arc::new(ChannelMetrics::default()) }
    }

    /// Performs one round trip: frames the request, "transmits" both ways,
    /// charges latency, decodes the response.
    ///
    /// # Errors
    ///
    /// Propagates handler errors and frame decoding failures.
    pub fn call(&self, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.call_with_deadline(route, payload, None)
    }

    /// Like [`Channel::call`] but gives up once the round trip would exceed
    /// `deadline` of simulated time.
    ///
    /// Two timeout shapes exist: the service layer (a fault wrapper) may lose
    /// the message outright and report [`NetError::Timeout`], in which case
    /// the caller waits out its full deadline; or the response arrives but
    /// the model cost plus injected delay exceeds the deadline, in which case
    /// the bytes crossed (and count as a round trip) yet the caller has
    /// already given up. Either way only `deadline` — never the full cost —
    /// is charged to the clock.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on a lost message or missed deadline, plus
    /// everything [`Channel::call`] returns.
    pub fn call_with_deadline(
        &self,
        route: &str,
        payload: &[u8],
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, NetError> {
        let frame = encode_request(route, payload);
        self.metrics.bytes_sent.fetch_add(frame.len() as u64, Ordering::Relaxed);

        // The wire: decode on the "cloud side" from the serialized frame.
        let (decoded_route, decoded_payload) = decode_request(&frame)?;
        let result = self.service.handle(&decoded_route, &decoded_payload);
        let injected = self.service.take_injected_delay();

        if matches!(result, Err(NetError::Timeout)) {
            // Lost in transit: no response bytes, no round trip. The caller
            // waits out its deadline (or one bare send cost when unbounded).
            let wait = deadline.unwrap_or_else(|| self.model.cost(frame.len())) + injected;
            self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            self.charge(wait);
            return Err(NetError::Timeout);
        }

        let response = encode_response(&result);
        self.metrics.bytes_received.fetch_add(response.len() as u64, Ordering::Relaxed);
        self.metrics.round_trips.fetch_add(1, Ordering::Relaxed);

        let cost = self.model.cost(frame.len() + response.len()) + injected;
        if let Some(limit) = deadline {
            if cost > limit {
                // The response exists — the cloud did the work — but it
                // arrived after the caller stopped listening.
                self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                self.charge(limit);
                return Err(NetError::Timeout);
            }
        }
        self.charge(cost);

        decode_response(response)
    }

    /// Advances the channel clock by `delta` without any traffic. Retry
    /// backoff pauses and test-driven cooldown waits go through here.
    pub fn advance(&self, delta: Duration) {
        self.charge(delta);
    }

    fn charge(&self, cost: Duration) {
        self.metrics.virtual_nanos.fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        if self.model.real_sleep && !cost.is_zero() {
            std::thread::sleep(cost);
        }
    }

    /// Traffic counters.
    pub fn metrics(&self) -> &ChannelMetrics {
        &self.metrics
    }

    /// The configured latency model.
    pub fn model(&self) -> LatencyModel {
        self.model
    }
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel").field("model", &self.model).field("round_trips", &self.metrics.round_trips()).finish()
    }
}

/// Encodes one request body: `route_len: u32 | route | payload_len: u32 |
/// payload` (big-endian lengths). This is the byte layout every transport
/// puts on its wire — the simulated [`Channel`] and the TCP frames of
/// [`crate::tcp`] carry identical request bytes, which is what makes the
/// differential transport suite's byte-for-byte comparison meaningful.
pub fn encode_request(route: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::from(Vec::with_capacity(8 + route.len() + payload.len()));
    w.str(route).bytes(payload);
    w.finish()
}

/// Decodes an [`encode_request`] body back into `(route, payload)`.
///
/// # Errors
///
/// [`NetError::MalformedFrame`] on truncation, trailing bytes or a
/// non-UTF-8 route.
pub fn decode_request(frame: &[u8]) -> Result<(String, Vec<u8>), NetError> {
    datablinder_codec::decode(frame, |r| Ok((r.str()?.to_string(), r.bytes()?.to_vec())))
}

/// Encodes one response body: `tag: u8 | len: u32 | bytes`, where tag 0 is
/// success (bytes = the payload) and tags 1–8 map onto [`NetError`]
/// variants (bytes = the error message, possibly empty). Shared by every
/// transport, like [`encode_request`].
pub fn encode_response(result: &Result<Vec<u8>, NetError>) -> Vec<u8> {
    let (head, bytes) = response_parts(result);
    let mut w = Writer::from(Vec::with_capacity(head.len() + bytes.len()));
    w.raw(&head).raw(bytes);
    w.finish()
}

/// `tag: u8 ‖ len: u32`, the part of a response body before its bytes.
const RESPONSE_HEAD_LEN: usize = 5;

/// [`encode_response`] in two parts, `tag ‖ len` and the bytes they
/// announce, for a transport that frames them without joining them first.
pub(crate) fn response_parts(result: &Result<Vec<u8>, NetError>) -> ([u8; RESPONSE_HEAD_LEN], &[u8]) {
    let (tag, bytes): (u8, &[u8]) = match result {
        Ok(payload) => (0, payload),
        Err(NetError::UnknownRoute(r)) => (1, r.as_bytes()),
        Err(NetError::Remote(m)) => (2, m.as_bytes()),
        Err(NetError::MalformedFrame) => (3, &[]),
        Err(NetError::Timeout) => (4, &[]),
        Err(NetError::CircuitOpen) => (5, &[]),
        Err(NetError::Unavailable(m)) => (6, m.as_bytes()),
        Err(NetError::Disconnected(m)) => (7, m.as_bytes()),
        Err(NetError::FrameTooLarge(m)) => (8, m.as_bytes()),
    };
    let mut head = [tag; RESPONSE_HEAD_LEN];
    head[1..].copy_from_slice(&(bytes.len() as u32).to_be_bytes());
    (head, bytes)
}

/// Decodes an [`encode_response`] body back into the handler result. Takes
/// the body by value: a success payload is what is left of it once the
/// five-byte head is dropped, not a copy.
///
/// # Errors
///
/// The decoded error itself, or [`NetError::MalformedFrame`] on
/// truncation, trailing bytes or an unknown tag.
pub fn decode_response(mut response: Vec<u8>) -> Result<Vec<u8>, NetError> {
    let (tag, body) = datablinder_codec::decode(&response, |r| Ok::<_, NetError>((r.u8()?, r.bytes()?)))?;
    let text = || String::from_utf8_lossy(body).into_owned();
    match tag {
        0 => {
            response.drain(..RESPONSE_HEAD_LEN);
            Ok(response)
        }
        1 => Err(NetError::UnknownRoute(text())),
        2 => Err(NetError::Remote(text())),
        3 => Err(NetError::MalformedFrame),
        4 => Err(NetError::Timeout),
        5 => Err(NetError::CircuitOpen),
        6 => Err(NetError::Unavailable(text())),
        7 => Err(NetError::Disconnected(text())),
        8 => Err(NetError::FrameTooLarge(text())),
        _ => Err(NetError::MalformedFrame),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_channel(model: LatencyModel) -> Channel {
        Channel::connect(
            |route: &str, payload: &[u8]| -> Result<Vec<u8>, NetError> {
                match route {
                    "echo" => Ok(payload.to_vec()),
                    "fail" => Err(NetError::Remote("boom".into())),
                    other => Err(NetError::UnknownRoute(other.to_string())),
                }
            },
            model,
        )
    }

    #[test]
    fn round_trip_and_metrics() {
        let ch = echo_channel(LatencyModel::instant());
        assert_eq!(ch.call("echo", b"hello").unwrap(), b"hello");
        assert_eq!(ch.metrics().round_trips(), 1);
        // request frame: 4 + 4 (route) + 4 + 5 = 17; response: 1 + 4 + 5 = 10
        assert_eq!(ch.metrics().bytes_sent(), 17);
        assert_eq!(ch.metrics().bytes_received(), 10);
        assert_eq!(ch.metrics().virtual_time(), Duration::ZERO);
    }

    #[test]
    fn remote_errors_propagate() {
        let ch = echo_channel(LatencyModel::instant());
        assert_eq!(ch.call("fail", b""), Err(NetError::Remote("boom".into())));
        assert_eq!(ch.call("nope", b""), Err(NetError::UnknownRoute("nope".into())));
        // Errors still count as round trips (they crossed the wire).
        assert_eq!(ch.metrics().round_trips(), 2);
    }

    #[test]
    fn latency_charged_to_virtual_clock() {
        let ch = echo_channel(LatencyModel::wan());
        ch.call("echo", &[0u8; 1000]).unwrap();
        let t = ch.metrics().virtual_time();
        assert!(t >= Duration::from_micros(10_000), "rtt charged: {t:?}");
        assert!(t >= Duration::from_micros(10_000) + Duration::from_nanos(8 * 1000), "bandwidth charged");
    }

    #[test]
    fn unicode_and_binary_safe() {
        let ch = echo_channel(LatencyModel::instant());
        let payload: Vec<u8> = (0..=255).collect();
        assert_eq!(ch.call("echo", &payload).unwrap(), payload);
    }

    #[test]
    fn frame_decode_rejects_garbage() {
        assert_eq!(decode_request(&[]), Err(NetError::MalformedFrame));
        assert_eq!(decode_request(&[0, 0, 0, 10, b'a']), Err(NetError::MalformedFrame));
        assert!(decode_response(vec![9, 0, 0, 0, 0]).is_err());
        assert_eq!(decode_response(vec![]), Err(NetError::MalformedFrame));
        // Bytes after the announced payload are as malformed as missing ones.
        let mut request = encode_request("echo", b"hi");
        request.push(0);
        assert_eq!(decode_request(&request), Err(NetError::MalformedFrame));
        let mut response = encode_response(&Ok(b"hi".to_vec()));
        response.push(0);
        assert_eq!(decode_response(response), Err(NetError::MalformedFrame));
    }

    #[test]
    fn model_cost_scales_with_bytes_and_rtt() {
        let metro = LatencyModel::metro();
        assert_eq!(metro.cost(0), Duration::from_micros(2_000));
        assert_eq!(metro.cost(1000), Duration::from_micros(2_000) + Duration::from_nanos(4_000));
        assert!(LatencyModel::wan().cost(0) > LatencyModel::metro().cost(0));
        assert!(LatencyModel::metro().cost(0) > LatencyModel::lan().cost(0));
        assert_eq!(LatencyModel::instant().cost(1 << 20), Duration::ZERO);
    }

    #[test]
    fn real_sleep_actually_sleeps() {
        let model = LatencyModel { rtt_micros: 2_000, per_byte_nanos: 0, real_sleep: true };
        let ch = echo_channel(model);
        let start = std::time::Instant::now();
        ch.call("echo", b"x").unwrap();
        assert!(start.elapsed() >= Duration::from_micros(2_000));
    }

    #[test]
    fn clone_shares_metrics() {
        let ch = echo_channel(LatencyModel::instant());
        let ch2 = ch.clone();
        ch.call("echo", b"x").unwrap();
        assert_eq!(ch2.metrics().round_trips(), 1);
    }

    #[test]
    fn missed_deadline_times_out_and_charges_only_the_deadline() {
        let ch = echo_channel(LatencyModel::wan()); // 10 ms RTT
        let deadline = Duration::from_millis(1);
        let err = ch.call_with_deadline("echo", b"hello", Some(deadline));
        assert_eq!(err, Err(NetError::Timeout));
        // The response crossed the wire (the cloud did the work)...
        assert_eq!(ch.metrics().round_trips(), 1);
        assert_eq!(ch.metrics().timeouts(), 1);
        // ...but the caller only waited out its deadline.
        assert_eq!(ch.metrics().virtual_time(), deadline);
    }

    #[test]
    fn generous_deadline_behaves_like_plain_call() {
        let ch = echo_channel(LatencyModel::wan());
        let ok = ch.call_with_deadline("echo", b"hello", Some(Duration::from_secs(1)));
        assert_eq!(ok.unwrap(), b"hello");
        assert_eq!(ch.metrics().timeouts(), 0);
        assert!(ch.metrics().virtual_time() >= Duration::from_micros(10_000));
    }

    #[test]
    fn service_timeout_is_a_lost_message() {
        let ch = Channel::connect(
            |_: &str, _: &[u8]| -> Result<Vec<u8>, NetError> { Err(NetError::Timeout) },
            LatencyModel::instant(),
        );
        let err = ch.call_with_deadline("echo", b"x", Some(Duration::from_millis(5)));
        assert_eq!(err, Err(NetError::Timeout));
        // A lost message never completes a round trip and returns no bytes.
        assert_eq!(ch.metrics().round_trips(), 0);
        assert_eq!(ch.metrics().bytes_received(), 0);
        assert_eq!(ch.metrics().timeouts(), 1);
        assert_eq!(ch.metrics().virtual_time(), Duration::from_millis(5));
    }

    #[test]
    fn advance_moves_the_clock_without_traffic() {
        let ch = echo_channel(LatencyModel::instant());
        ch.advance(Duration::from_micros(42));
        assert_eq!(ch.metrics().virtual_time(), Duration::from_micros(42));
        assert_eq!(ch.metrics().round_trips(), 0);
    }

    #[test]
    fn new_error_variants_cross_the_wire() {
        let timeout = encode_response(&Err(NetError::Timeout));
        assert_eq!(decode_response(timeout), Err(NetError::Timeout));
        let open = encode_response(&Err(NetError::CircuitOpen));
        assert_eq!(decode_response(open), Err(NetError::CircuitOpen));
        let unavail = encode_response(&Err(NetError::Unavailable("1/2 acks".into())));
        assert_eq!(decode_response(unavail), Err(NetError::Unavailable("1/2 acks".into())));
        let gone = encode_response(&Err(NetError::Disconnected("reset".into())));
        assert_eq!(decode_response(gone), Err(NetError::Disconnected("reset".into())));
        let big = encode_response(&Err(NetError::FrameTooLarge("9 > 8".into())));
        assert_eq!(decode_response(big), Err(NetError::FrameTooLarge("9 > 8".into())));
    }

    #[test]
    fn snapshot_round_trips_all_counters() {
        let ch = echo_channel(LatencyModel::lan());
        ch.call("echo", b"x").unwrap();
        let snap = ch.metrics().snapshot();
        assert_eq!(snap.round_trips, 1);
        assert_eq!(snap, ch.metrics().snapshot());
    }
}
