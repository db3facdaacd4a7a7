//! Live-socket tests for the TCP transport: pipelining and correlation,
//! oversized-frame handling, connection kills and reconnects — everything
//! ISSUE 9 calls the "client/server protocol layer" rigor, run against a
//! real loopback [`CloudServer`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use datablinder_codec::crc32;
use datablinder_netsim::tcp::{encode_wire_frame, Frame, CONN_ERROR_CORR, PING_ROUTE};
use datablinder_netsim::{
    decode_response, encode_request, CloudServer, FrameDecoder, NetError, Refusal, ResilienceConfig, ResilientChannel,
    RetryPolicy, ServerConfig, TcpChannel, TcpConfig, Transport,
};

/// Echo service with a controllable failure route.
fn echo_service() -> Arc<dyn datablinder_netsim::CloudService> {
    Arc::new(|route: &str, payload: &[u8]| -> Result<Vec<u8>, NetError> {
        match route {
            "echo" => Ok(payload.to_vec()),
            "rev" => Ok(payload.iter().rev().copied().collect()),
            "fail" => Err(NetError::Remote(Refusal::Unsupported, "boom".into())),
            other => Err(NetError::UnknownRoute(other.to_string())),
        }
    })
}

fn server() -> CloudServer {
    CloudServer::bind("127.0.0.1:0", echo_service(), ServerConfig::default()).expect("bind loopback")
}

fn client(server: &CloudServer) -> TcpChannel {
    TcpChannel::connect(server.local_addr(), TcpConfig::default()).expect("resolve loopback")
}

/// Reads frames off a raw socket until `n` have arrived.
fn read_frames(stream: &mut TcpStream, n: usize) -> Vec<Frame> {
    let mut decoder = FrameDecoder::new(8 * 1024 * 1024);
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    while frames.len() < n {
        let got = stream.read(&mut buf).expect("read");
        assert_ne!(got, 0, "server closed early after {} frames", frames.len());
        decoder.extend(&buf[..got]);
        while let Some(frame) = decoder.next_frame().expect("well-formed response stream") {
            frames.push(frame);
        }
    }
    frames
}

#[test]
fn ping_round_trip() {
    let srv = server();
    let ch = client(&srv);
    assert_eq!(ch.call(PING_ROUTE, b"are you there").unwrap(), b"are you there");
    assert_eq!(ch.metrics().round_trips(), 1);
    assert!(ch.metrics().bytes_sent() > 0);
    assert!(ch.metrics().bytes_received() > 0);
}

#[test]
fn routes_and_errors_cross_the_wire_typed() {
    let srv = server();
    let ch = client(&srv);
    assert_eq!(ch.call("echo", b"x").unwrap(), b"x");
    assert_eq!(ch.call("rev", b"abc").unwrap(), b"cba");
    assert_eq!(ch.call("fail", b""), Err(NetError::Remote(Refusal::Unsupported, "boom".into())));
    assert_eq!(ch.call("nope", b""), Err(NetError::UnknownRoute("nope".into())));
}

#[test]
fn pipelined_requests_come_back_in_order_with_matching_corr_ids() {
    // Raw socket: write N request frames before reading a single byte of
    // response. The server must answer all of them, in request order, each
    // under its own correlation id.
    let srv = server();
    let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
    let n = 64u64;
    let mut blob = Vec::new();
    for i in 0..n {
        let body = encode_request("echo", format!("req-{i}").as_bytes());
        blob.extend_from_slice(&encode_wire_frame(i + 1, &body));
    }
    stream.write_all(&blob).unwrap();

    let frames = read_frames(&mut stream, n as usize);
    for (idx, frame) in frames.into_iter().enumerate() {
        assert_eq!(frame.corr_id, idx as u64 + 1, "responses arrive in request order");
        let body = decode_response(frame.body).expect("success response");
        assert_eq!(body, format!("req-{idx}").as_bytes());
    }
}

#[test]
fn tcp_channel_pipelines_and_correlates_out_of_order_waits() {
    let srv = server();
    let ch = client(&srv);
    // Submit everything before collecting anything.
    let pending: Vec<_> = (0..32u32).map(|i| ch.submit("echo", &i.to_be_bytes()).expect("submit")).collect();
    // Collect in reverse — correlation, not arrival order, must pair
    // replies with requests.
    for (i, reply) in pending.into_iter().enumerate().rev() {
        assert_eq!(reply.wait(Some(Duration::from_secs(5))).unwrap(), (i as u32).to_be_bytes());
    }
    assert_eq!(ch.metrics().round_trips(), 32);
}

#[test]
fn concurrent_callers_share_one_connection() {
    let srv = server();
    let ch = Arc::new(client(&srv));
    let mut handles = Vec::new();
    for t in 0..8u8 {
        let ch = Arc::clone(&ch);
        handles.push(std::thread::spawn(move || {
            for i in 0..50u8 {
                let payload = [t, i];
                assert_eq!(ch.call("echo", &payload).unwrap(), payload);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ch.metrics().round_trips(), 8 * 50);
}

#[test]
fn oversized_request_rejected_locally_without_sending() {
    let srv = server();
    let ch = TcpChannel::connect(srv.local_addr(), TcpConfig { max_frame: 256 }).unwrap();
    let err = ch.call("echo", &[0u8; 1024]);
    assert!(matches!(err, Err(NetError::FrameTooLarge(_))), "got {err:?}");
    assert_eq!(ch.metrics().bytes_sent(), 0, "nothing hit the wire");
    // The channel is still usable for well-sized requests.
    assert_eq!(ch.call("echo", b"small").unwrap(), b"small");
}

#[test]
fn oversized_frame_closes_connection_with_typed_error() {
    // A server with a small frame cap: announcing a huge frame draws a
    // corr-0 FrameTooLarge error frame, then the connection closes — no
    // unbounded allocation server-side.
    let srv =
        CloudServer::bind("127.0.0.1:0", echo_service(), ServerConfig { max_frame: 256, workers: 2 }).expect("bind");
    let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
    stream.write_all(&(1_000_000u32).to_be_bytes()).unwrap();

    let frames = read_frames(&mut stream, 1);
    assert_eq!(frames[0].corr_id, CONN_ERROR_CORR);
    let err = decode_response(frames[0].body.clone()).unwrap_err();
    assert!(matches!(err, NetError::FrameTooLarge(_)), "got {err:?}");
    // And the server hangs up.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes after the error frame");
}

#[test]
fn corrupt_crc_closes_connection_with_typed_error() {
    let srv = server();
    let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
    let mut frame = encode_wire_frame(1, &encode_request("echo", b"x"));
    let mid = frame.len() / 2;
    frame[mid] ^= 0x55;
    stream.write_all(&frame).unwrap();

    let frames = read_frames(&mut stream, 1);
    assert_eq!(frames[0].corr_id, CONN_ERROR_CORR);
    assert_eq!(decode_response(frames[0].body.clone()), Err(NetError::MalformedFrame));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}

#[test]
fn killed_connection_surfaces_disconnected_then_reconnects() {
    let srv = server();
    let ch = client(&srv);
    assert_eq!(ch.call("echo", b"before").unwrap(), b"before");

    srv.kill_connections();
    // The in-flight-free client notices on its next call: either the write
    // fails or the reader already marked the connection dead. Eventually a
    // fresh dial succeeds because the listener never stopped.
    let mut saw_disconnect = false;
    for _ in 0..10 {
        match ch.call("echo", b"after") {
            Ok(body) => {
                assert_eq!(body, b"after");
                assert!(saw_disconnect || ch.metrics().round_trips() >= 2, "reconnected");
                return;
            }
            Err(NetError::Disconnected(_)) => saw_disconnect = true,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    panic!("never reconnected after kill_connections");
}

#[test]
fn resilient_channel_retries_across_a_kill() {
    // The full stack: ResilientChannel::over(TcpChannel) absorbs the kill
    // with a retry, exactly as it absorbs netsim's injected drops.
    let srv = server();
    let tcp = Arc::new(client(&srv));
    let ch = ResilientChannel::over(
        tcp,
        ResilienceConfig {
            retry: RetryPolicy { max_attempts: 5, ..RetryPolicy::default() },
            ..ResilienceConfig::default()
        },
    );
    assert_eq!(ch.call("echo", b"warm").unwrap(), b"warm");
    srv.kill_connections();
    assert_eq!(ch.call("echo", b"healed").unwrap(), b"healed", "retry reconnects transparently");
    assert!(ch.metrics().attempts() >= 2 || ch.metrics().round_trips() >= 2);
}

#[test]
fn deadline_elapsing_yields_timeout() {
    // A service that stalls long enough for a 10ms deadline to pass.
    let slow: Arc<dyn datablinder_netsim::CloudService> = Arc::new(|_: &str, p: &[u8]| -> Result<Vec<u8>, NetError> {
        std::thread::sleep(Duration::from_millis(300));
        Ok(p.to_vec())
    });
    let srv = CloudServer::bind("127.0.0.1:0", slow, ServerConfig::default()).unwrap();
    let ch = client(&srv);
    let err = ch.call_with_deadline("slow", b"x", Some(Duration::from_millis(10)));
    assert_eq!(err, Err(NetError::Timeout));
    assert_eq!(ch.metrics().timeouts(), 1);
    // The late response is dropped, not misdelivered to the next call.
    assert_eq!(ch.call_with_deadline("slow", b"next", Some(Duration::from_secs(5))).unwrap(), b"next");
}

#[test]
fn server_counts_served_requests() {
    let srv = server();
    let ch = client(&srv);
    for i in 0..5u8 {
        ch.call("echo", &[i]).unwrap();
    }
    assert_eq!(srv.served(), 5);
}

#[test]
fn crc32_matches_wal_polynomial() {
    // Pin the polynomial so the wire and the WAL never drift apart.
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
