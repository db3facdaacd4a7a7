//! Real TCP wire transport: a length-prefixed, CRC-framed binary protocol
//! carrying the same route/payload request and tagged-response encodings the
//! in-process [`Channel`](crate::Channel) serializes — so the two transports
//! are byte-identical above the framing layer.
//!
//! # Frame layout
//!
//! Both directions use one frame shape:
//!
//! ```text
//! +-----------+------------------+--------------+-----------------+
//! | len: u32  | corr_id: u64     | body         | crc32: u32      |
//! | (8+|body|)| big-endian       | len-8 bytes  | over corr||body |
//! +-----------+------------------+--------------+-----------------+
//! ```
//!
//! * `len` counts the correlation id plus the body (not itself, not the
//!   CRC). A peer announcing `len` past the configured limit is cut off
//!   before any allocation of that size ([`FrameError::TooLarge`]).
//! * `corr_id` matches responses to requests: the client pipelines many
//!   requests per connection and the id says which reply is whose. The
//!   server echoes the request's id on its response. Id `0` is reserved
//!   for connection-level errors — on receiving it the client fails every
//!   in-flight call and drops the connection.
//! * request bodies are [`encode_request`](crate::encode_request) bytes
//!   (`route`/`payload` framing); response bodies are
//!   [`encode_response`](crate::encode_response) bytes (status tag + body),
//!   exactly as the simulated channel puts them on its wire.
//! * the frame is the one the durability WAL uses
//!   ([`datablinder_codec::encode_frame`], `covered` = `corr_id || body`);
//!   a CRC mismatch rejects the frame and kills the connection rather than
//!   delivering corrupt bytes upward.
//!
//! The client side is [`TcpChannel`] (an implementation of
//! [`Transport`](crate::transport::Transport) — wrap it in a
//! [`ResilientChannel`](crate::ResilientChannel) for retries, deadlines and
//! circuit breaking); the server side is [`CloudServer`], a worker-pool
//! accept loop feeding any [`CloudService`] — the `datablinder-cloudd`
//! binary wires it to a real cloud engine.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use datablinder_codec::{encode_frame, split_frame, Split};

use crate::transport::Transport;
use crate::{
    decode_request, decode_response, encode_request, encode_response, response_parts, ChannelMetrics, CloudService,
    NetError,
};

/// Correlation id reserved for connection-level error frames.
pub const CONN_ERROR_CORR: u64 = 0;

/// Default cap on one frame's `len` field: 8 MiB.
pub const DEFAULT_MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Route answered by the server itself (payload echo), bypassing the
/// service — a liveness probe that works against any deployment.
pub const PING_ROUTE: &str = "sys/ping";

// ----------------------------------------------------------- frame codec

/// Why a byte stream stopped decoding. Either way the connection is
/// unusable: framing state is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The announced length exceeds the configured cap; the peer is cut
    /// off before any oversized allocation.
    TooLarge {
        /// The announced `len` field.
        announced: u64,
        /// The configured cap.
        max: u64,
    },
    /// The announced length cannot hold a correlation id.
    Runt(u32),
    /// The CRC over `corr_id || body` does not match.
    BadCrc,
}

impl FrameError {
    /// The [`NetError`] this surfaces as on the calling side.
    pub fn into_net(self) -> NetError {
        match self {
            FrameError::TooLarge { announced, max } => {
                NetError::FrameTooLarge(format!("{announced} byte frame exceeds {max} byte limit"))
            }
            FrameError::Runt(_) | FrameError::BadCrc => NetError::MalformedFrame,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { announced, max } => write!(f, "frame of {announced} bytes exceeds limit {max}"),
            FrameError::Runt(len) => write!(f, "frame length {len} cannot hold a correlation id"),
            FrameError::BadCrc => write!(f, "frame crc mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlation id matching this frame to its request (or
    /// [`CONN_ERROR_CORR`] for connection-level errors).
    pub corr_id: u64,
    /// Opaque body: request or response encoding.
    pub body: Vec<u8>,
}

/// Encodes one wire frame: the shared CRC frame over `corr_id || body`.
pub fn encode_wire_frame(corr_id: u64, body: &[u8]) -> Vec<u8> {
    encode_frame(&[&corr_id.to_be_bytes(), body])
}

/// Smallest room [`FrameDecoder::read_from`] offers one `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame decoder, tolerant of arbitrary read boundaries: feed
/// it whatever `read()` returned and take complete frames out. Splitting
/// one valid byte stream at any boundaries yields the same frames as
/// decoding it in one piece (`tests/tcpframe_props.rs` pins this).
#[derive(Debug)]
pub struct FrameDecoder {
    /// Storage, initialised once when it grows: `buf[consumed..filled]` is
    /// the stream not yet returned as frames, `buf[filled..]` is room.
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    consumed: usize,
    /// Bytes of `buf` holding stream data.
    filled: usize,
    max_frame: u32,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame` as the `len` cap.
    pub fn new(max_frame: u32) -> Self {
        FrameDecoder { buf: Vec::new(), consumed: 0, filled: 0, max_frame }
    }

    /// Appends raw bytes from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.filled += bytes.len();
    }

    /// Does one `read` from `source` straight into the decoder's own
    /// buffer — all the room it has, at least 16 KiB — and returns what the
    /// `read` returned. A socket's bytes so land where frames are split
    /// from, with no buffer in between.
    ///
    /// # Errors
    ///
    /// Whatever `source.read` returns; the decoder is unchanged then.
    pub fn read_from(&mut self, source: &mut impl Read) -> std::io::Result<usize> {
        let n = source.read(self.room(READ_CHUNK))?;
        self.filled += n;
        Ok(n)
    }

    /// The unfilled end of the buffer, at least `min` bytes of it. The
    /// consumed prefix is reclaimed first, which keeps the buffer bounded
    /// by one frame plus one read; growth zeroes the new storage once, and
    /// it is then reused for as long as the connection lives.
    fn room(&mut self, min: usize) -> &mut [u8] {
        if self.consumed > 0 {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
        if self.buf.len() - self.filled < min {
            self.buf.resize(self.filled + min, 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Takes the next complete frame, or `Ok(None)` when more bytes are
    /// needed (every strict prefix of a valid frame lands here).
    ///
    /// # Errors
    ///
    /// [`FrameError`] on an oversized announcement, a runt length or a CRC
    /// mismatch. The stream is unusable afterwards; close the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match split_frame(&self.buf[self.consumed..self.filled], 8..=self.max_frame) {
            Split::NeedMore => Ok(None),
            Split::Frame { covered, total } => {
                let (corr_id, body) = covered.split_first_chunk::<8>().expect("split_frame enforces len >= 8");
                let frame = Frame { corr_id: u64::from_be_bytes(*corr_id), body: body.to_vec() };
                self.consumed += total;
                Ok(Some(frame))
            }
            Split::BadLength(len) if len > self.max_frame => {
                Err(FrameError::TooLarge { announced: len as u64, max: self.max_frame as u64 })
            }
            Split::BadLength(len) => Err(FrameError::Runt(len)),
            Split::BadCrc => Err(FrameError::BadCrc),
        }
    }

    /// Bytes buffered but not yet consumed by a returned frame.
    pub fn pending_bytes(&self) -> usize {
        self.filled - self.consumed
    }
}

// ---------------------------------------------------------------- client

/// Client-side knobs for [`TcpChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Frame `len` cap, both directions.
    pub max_frame: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig { max_frame: DEFAULT_MAX_FRAME }
    }
}

/// How long dialing the cloud may take before the call fails as
/// [`NetError::Disconnected`].
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

type ReplySender = mpsc::Sender<Result<Vec<u8>, NetError>>;

/// One live connection: a writer handle, the in-flight request table and
/// the reader thread draining responses into it.
struct Conn {
    writer: Mutex<TcpStream>,
    /// Clone of the stream kept for shutdown.
    stream: TcpStream,
    pending: Mutex<HashMap<u64, ReplySender>>,
    dead: AtomicBool,
}

impl Conn {
    /// Marks the connection dead and fails every in-flight call with `err`.
    fn fail_all(&self, err: &NetError) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let drained: Vec<ReplySender> =
            self.pending.lock().unwrap_or_else(PoisonError::into_inner).drain().map(|(_, tx)| tx).collect();
        for tx in drained {
            let _ = tx.send(Err(err.clone()));
        }
    }
}

/// A pipelining TCP client for the [`crate::tcp`] wire protocol: one
/// connection, many requests in flight at once, responses matched by
/// correlation id. Connects lazily and reconnects transparently after a
/// drop — in-flight calls on the dropped connection surface
/// [`NetError::Disconnected`] (transient; a
/// [`ResilientChannel`](crate::ResilientChannel) retry reconnects, and the
/// idempotency envelope keeps retried writes single-apply).
///
/// Implements [`Transport`], so the whole gateway stack — resilience,
/// tracing envelope, engines — runs over it unchanged.
pub struct TcpChannel {
    addr: SocketAddr,
    config: TcpConfig,
    metrics: Arc<ChannelMetrics>,
    conn: Mutex<Option<Arc<Conn>>>,
    corr: AtomicU64,
}

impl TcpChannel {
    /// A channel to `addr` (lazily connected on first call).
    ///
    /// # Errors
    ///
    /// Address resolution failure.
    pub fn connect<A: ToSocketAddrs>(addr: A, config: TcpConfig) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        Ok(TcpChannel {
            addr,
            config,
            metrics: Arc::new(ChannelMetrics::default()),
            conn: Mutex::new(None),
            corr: AtomicU64::new(1),
        })
    }

    /// The remote address this channel dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live (or freshly dialed) connection.
    fn ensure_conn(&self) -> Result<Arc<Conn>, NetError> {
        let mut slot = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(conn) = slot.as_ref() {
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
            .map_err(|e| NetError::Disconnected(format!("connect {}: {e}", self.addr)))?;
        // Request/response: Nagle only adds latency.
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone().map_err(|e| NetError::Disconnected(format!("clone stream: {e}")))?;
        let writer = stream.try_clone().map_err(|e| NetError::Disconnected(format!("clone stream: {e}")))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(writer),
            stream,
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
        });
        let thread_conn = Arc::clone(&conn);
        let thread_metrics = Arc::clone(&self.metrics);
        let max_frame = self.config.max_frame;
        std::thread::Builder::new()
            .name("tcpchannel-reader".into())
            .spawn(move || reader_loop(thread_conn, reader, thread_metrics, max_frame))
            .map_err(|e| NetError::Disconnected(format!("spawn reader: {e}")))?;
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Sends one request without waiting for its response — the pipelining
    /// primitive. Call [`PendingReply::wait`] to collect the reply; any
    /// number of submissions may be outstanding per connection.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] when the framed request would exceed the
    /// configured cap (nothing is sent); [`NetError::Disconnected`] when
    /// dialing or writing fails.
    pub fn submit(&self, route: &str, payload: &[u8]) -> Result<PendingReply, NetError> {
        let body = encode_request(route, payload);
        if body.len() as u64 + 8 > self.config.max_frame as u64 {
            return Err(NetError::FrameTooLarge(format!(
                "{} byte request exceeds {} byte frame limit",
                body.len() + 8,
                self.config.max_frame
            )));
        }
        let conn = self.ensure_conn()?;
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        conn.pending.lock().unwrap_or_else(PoisonError::into_inner).insert(corr, tx);
        let frame = encode_wire_frame(corr, &body);
        let write = {
            let mut w = conn.writer.lock().unwrap_or_else(PoisonError::into_inner);
            w.write_all(&frame).and_then(|()| w.flush())
        };
        if let Err(e) = write {
            conn.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&corr);
            let err = NetError::Disconnected(format!("write: {e}"));
            conn.fail_all(&err);
            return Err(err);
        }
        self.metrics.bytes_sent.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(PendingReply { corr, rx, conn, metrics: Arc::clone(&self.metrics), started: Instant::now() })
    }
}

impl std::fmt::Debug for TcpChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpChannel").field("addr", &self.addr).field("config", &self.config).finish()
    }
}

impl Transport for TcpChannel {
    fn call_with_deadline(&self, route: &str, payload: &[u8], deadline: Option<Duration>) -> Result<Vec<u8>, NetError> {
        self.submit(route, payload)?.wait(deadline)
    }

    fn advance(&self, delta: Duration) {
        // A real transport waits in real time; the clock metric still
        // advances so breaker cooldowns observe the pause.
        self.metrics.virtual_nanos.fetch_add(delta.as_nanos() as u64, Ordering::Relaxed);
        if !delta.is_zero() {
            std::thread::sleep(delta);
        }
    }

    fn metrics(&self) -> &ChannelMetrics {
        &self.metrics
    }
}

/// A response not yet collected (returned by [`TcpChannel::submit`]).
pub struct PendingReply {
    corr: u64,
    rx: mpsc::Receiver<Result<Vec<u8>, NetError>>,
    conn: Arc<Conn>,
    metrics: Arc<ChannelMetrics>,
    started: Instant,
}

impl PendingReply {
    /// The correlation id riding the wire for this request.
    pub fn corr_id(&self) -> u64 {
        self.corr
    }

    /// Blocks until the response arrives (or `deadline` elapses), then
    /// decodes it. Wall time spent waiting is charged to the channel's
    /// clock metric.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] past the deadline (the request may still
    /// execute remotely), [`NetError::Disconnected`] when the connection
    /// died first, plus whatever error the response itself carries.
    pub fn wait(self, deadline: Option<Duration>) -> Result<Vec<u8>, NetError> {
        let received = match deadline {
            Some(limit) => match self.rx.recv_timeout(limit) {
                Ok(r) => Some(r),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    Some(Err(NetError::Disconnected("connection lost".into())))
                }
            },
            None => match self.rx.recv() {
                Ok(r) => Some(r),
                Err(_) => Some(Err(NetError::Disconnected("connection lost".into()))),
            },
        };
        let result = match received {
            Some(Ok(body)) => {
                self.metrics.round_trips.fetch_add(1, Ordering::Relaxed);
                decode_response(body)
            }
            Some(Err(e)) => Err(e),
            None => {
                // Late responses to this id are dropped by the reader.
                self.conn.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&self.corr);
                self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                Err(NetError::Timeout)
            }
        };
        self.metrics.virtual_nanos.fetch_add(self.started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// Drains response frames into the pending table until the stream dies.
fn reader_loop(conn: Arc<Conn>, mut stream: TcpStream, metrics: Arc<ChannelMetrics>, max_frame: u32) {
    let mut decoder = FrameDecoder::new(max_frame);
    loop {
        let n = match decoder.read_from(&mut stream) {
            Ok(0) => return conn.fail_all(&NetError::Disconnected("connection closed by peer".into())),
            Ok(n) => n,
            Err(e) => return conn.fail_all(&NetError::Disconnected(format!("read: {e}"))),
        };
        metrics.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    if frame.corr_id == CONN_ERROR_CORR {
                        // Connection-level error: the server is telling us
                        // why it is about to hang up.
                        let err = match decode_response(frame.body) {
                            Err(e) => e,
                            Ok(_) => NetError::MalformedFrame,
                        };
                        return conn.fail_all(&err);
                    }
                    // An id we no longer track (timed-out caller) is dropped.
                    let tx = conn.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&frame.corr_id);
                    if let Some(tx) = tx {
                        let _ = tx.send(Ok(frame.body));
                    }
                }
                Ok(None) => break,
                Err(e) => return conn.fail_all(&e.into_net()),
            }
        }
    }
}

// ---------------------------------------------------------------- server

/// Server-side knobs for [`CloudServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads serving connections (each connection is owned by one
    /// worker at a time; its pipelined requests execute sequentially, so
    /// responses leave in request order).
    pub workers: usize,
    /// Frame `len` cap, both directions.
    pub max_frame: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, max_frame: DEFAULT_MAX_FRAME }
    }
}

/// A TCP server exposing a [`CloudService`] over the [`crate::tcp`] wire
/// protocol: an accept loop hands connections to a fixed worker pool; each
/// worker decodes frames, dispatches `route`/`payload` to the service and
/// writes the response frame under the request's correlation id. Requests
/// on one connection are served in arrival order (pipelined responses stay
/// ordered); different connections proceed in parallel across workers.
///
/// `sys/ping` ([`PING_ROUTE`]) is answered by the server itself with a
/// payload echo. Oversized or corrupt frames are answered with a
/// connection-level error frame (correlation id [`CONN_ERROR_CORR`]) and
/// the connection is closed — never an unbounded allocation.
pub struct CloudServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    kill_after: Arc<AtomicI64>,
    served: Arc<AtomicU64>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl CloudServer {
    /// Binds `addr` (use port 0 for an ephemeral pick, then read
    /// [`CloudServer::local_addr`]) and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Socket bind/configure failures.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<dyn CloudService>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let kill_after = Arc::new(AtomicI64::new(-1));
        let served = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let kill_after = Arc::clone(&kill_after);
            let served = Arc::clone(&served);
            let max_frame = config.max_frame;
            workers.push(std::thread::Builder::new().name(format!("cloudd-worker-{i}")).spawn(move || loop {
                let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                match next {
                    Ok(stream) => serve_conn(stream, &*service, &shutdown, &kill_after, &served, max_frame),
                    Err(_) => return,
                }
            })?);
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::Builder::new().name("cloudd-accept".into()).spawn(move || {
            while !accept_shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        if let Ok(clone) = stream.try_clone() {
                            accept_conns.lock().unwrap_or_else(PoisonError::into_inner).push(clone);
                        }
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            // Dropping `tx` here retires idle workers.
        })?;

        Ok(CloudServer { addr: local, shutdown, conns, kill_after, served, accept: Some(accept), workers })
    }

    /// The bound address (including the kernel-picked ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served (responses written or deliberately dropped).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Abruptly severs every live connection (the listener keeps
    /// accepting). From the client's side this is a server crash mid-
    /// conversation: in-flight calls fail with a transient
    /// [`NetError::Disconnected`] and the next call reconnects.
    pub fn kill_connections(&self) {
        let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        for stream in conns.drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Deterministic crash injection: after `n` more requests are applied,
    /// the serving connection closes *before* writing that request's
    /// response — the request executed, the ack is lost. `n = 0` kills on
    /// the next request. The classic retry-ambiguity the idempotency
    /// envelope exists for; disarmed after firing once.
    pub fn kill_after_applies(&self, n: u64) {
        self.kill_after.store(n as i64, Ordering::SeqCst);
    }

    /// Stops accepting, severs connections and joins the threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.kill_connections();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for CloudServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer").field("addr", &self.addr).field("served", &self.served()).finish()
    }
}

/// Serves one connection to completion: frames in, responses out, in
/// request order.
fn serve_conn(
    mut stream: TcpStream,
    service: &dyn CloudService,
    shutdown: &AtomicBool,
    kill_after: &AtomicI64,
    served: &AtomicU64,
    max_frame: u32,
) {
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets the worker observe shutdown even if the
    // peer holds the connection open silently.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut decoder = FrameDecoder::new(max_frame);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match decoder.read_from(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => return,
        }
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    if !respond(&mut stream, service, kill_after, served, max_frame, &frame) {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Tell the peer why, then hang up: a framing error
                    // poisons the stream.
                    let body = encode_response(&Err(e.into_net()));
                    let _ = stream.write_all(&encode_wire_frame(CONN_ERROR_CORR, &body));
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// Handles one request frame; `false` means the connection must close.
fn respond(
    stream: &mut TcpStream,
    service: &dyn CloudService,
    kill_after: &AtomicI64,
    served: &AtomicU64,
    max_frame: u32,
    frame: &Frame,
) -> bool {
    let mut result = match decode_request(&frame.body) {
        Ok((route, payload)) => {
            if route == PING_ROUTE {
                Ok(payload)
            } else {
                service.handle(&route, &payload)
            }
        }
        Err(e) => Err(e),
    };
    served.fetch_add(1, Ordering::Relaxed);

    // Armed crash point: the request above was applied; drop its ack.
    let fired = kill_after.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| (v >= 0).then(|| v - 1));
    if fired == Ok(0) {
        return false;
    }

    let (head, bytes) = response_parts(&result);
    let covered = 8 + head.len() + bytes.len();
    if covered as u64 > max_frame as u64 {
        // Clamp instead of shipping a frame the client must reject.
        result = Err(NetError::FrameTooLarge(format!("{covered} byte response exceeds {max_frame} byte frame limit")));
    }
    // Framed from its parts: the payload is copied once, into the frame.
    let (head, bytes) = response_parts(&result);
    stream.write_all(&encode_frame(&[&frame.corr_id.to_be_bytes(), &head, bytes])).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_frame_round_trips() {
        let frame = encode_wire_frame(42, b"hello");
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&frame);
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(got, Frame { corr_id: 42, body: b"hello".to_vec() });
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn read_from_splits_the_same_frames_at_any_read_boundary() {
        /// A source that hands out at most `step` bytes per `read`.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(self.1).min(buf.len());
                let (head, rest) = self.0.split_at(n);
                buf[..n].copy_from_slice(head);
                self.0 = rest;
                Ok(n)
            }
        }
        let big = vec![0xAB; 3 * READ_CHUNK + 5];
        let bodies: [&[u8]; 4] = [b"a", &big, b"", b"tail"];
        let stream: Vec<u8> = (1u64..).zip(bodies).flat_map(|(corr, body)| encode_wire_frame(corr, body)).collect();
        for step in [1, 7, 4096, READ_CHUNK, usize::MAX] {
            let mut source = Trickle(&stream, step);
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut got = Vec::new();
            while dec.read_from(&mut source).unwrap() > 0 {
                while let Some(frame) = dec.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            let want: Vec<Frame> =
                (1u64..).zip(bodies).map(|(corr_id, body)| Frame { corr_id, body: body.to_vec() }).collect();
            assert_eq!(got, want, "step {step}");
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn strict_prefixes_need_more_bytes() {
        let frame = encode_wire_frame(7, b"payload");
        for cut in 0..frame.len() {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            dec.extend(&frame[..cut]);
            assert_eq!(dec.next_frame().unwrap(), None, "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn corrupt_crc_rejected() {
        let mut frame = encode_wire_frame(7, b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&frame);
        assert_eq!(dec.next_frame(), Err(FrameError::BadCrc));
    }

    #[test]
    fn oversized_announcement_rejected_before_buffering() {
        let mut dec = FrameDecoder::new(64);
        dec.extend(&1_000_000u32.to_be_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::TooLarge { announced: 1_000_000, max: 64 }));
    }

    #[test]
    fn runt_length_rejected() {
        let mut dec = FrameDecoder::new(64);
        dec.extend(&3u32.to_be_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::Runt(3)));
    }
}
