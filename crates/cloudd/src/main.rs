//! `datablinder-cloudd` — the cloud side of the middleware as a real
//! process: a [`CloudEngine`] served over the framed TCP wire protocol
//! (`datablinder_netsim::tcp`). Gateways connect with a `TcpChannel`
//! (usually wrapped in a `ResilientChannel`) and speak exactly the bytes
//! they would over the in-process simulated channel.
//!
//! ```text
//! datablinder-cloudd [--listen ADDR] [--workers N] [--durable DIR] [--max-frame BYTES]
//! datablinder-cloudd --smoke ADDR        # client mode: one sys/ping round trip
//! ```
//!
//! `--listen` defaults to `127.0.0.1:0` (kernel-picked ephemeral port; the
//! daemon prints `LISTENING <addr>` so scripts can parse the actual port —
//! the port-in-use-safe pattern `scripts/verify.sh` relies on). Before
//! that it prints `BACKEND <tier> crc32=<tier>`: which symmetric kernels
//! this host runs (`datablinder_primitives::backend()`) and which CRC-32
//! frames every request and response (`datablinder_codec::crc_backend()`).

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use datablinder_core::cloud::CloudEngine;
use datablinder_netsim::tcp::PING_ROUTE;
use datablinder_netsim::{CloudServer, CloudService, ServerConfig, TcpChannel, TcpConfig, Transport};

struct Options {
    listen: String,
    workers: usize,
    durable: Option<String>,
    max_frame: u32,
    smoke: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        listen: "127.0.0.1:0".to_string(),
        workers: 8,
        durable: None,
        max_frame: datablinder_netsim::tcp::DEFAULT_MAX_FRAME,
        smoke: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--workers" => {
                opts.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--durable" => opts.durable = Some(value("--durable")?),
            "--max-frame" => {
                opts.max_frame = value("--max-frame")?.parse().map_err(|e| format!("--max-frame: {e}"))?;
            }
            "--smoke" => opts.smoke = Some(value("--smoke")?),
            "--help" | "-h" => {
                println!(
                    "datablinder-cloudd [--listen ADDR] [--workers N] [--durable DIR] \
                     [--max-frame BYTES] | --smoke ADDR"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

/// One `sys/ping` round trip against a running daemon.
fn smoke(addr: &str) -> Result<(), String> {
    let ch = TcpChannel::connect(addr, TcpConfig::default()).map_err(|e| format!("resolve {addr}: {e}"))?;
    let payload = b"cloudd-smoke";
    let echoed = ch
        .call_with_deadline(PING_ROUTE, payload, Some(Duration::from_secs(5)))
        .map_err(|e| format!("ping {addr}: {e}"))?;
    if echoed != payload {
        return Err(format!("ping echoed {} bytes, wanted {}", echoed.len(), payload.len()));
    }
    println!("PONG {addr} ({} bytes round-tripped)", ch.metrics().bytes_received());
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;

    if let Some(addr) = &opts.smoke {
        return smoke(addr);
    }

    let engine = match &opts.durable {
        Some(dir) => CloudEngine::open_durable(std::path::Path::new(dir))
            .map_err(|e| format!("open durable store {dir}: {e}"))?,
        None => CloudEngine::new(),
    };
    let service: Arc<dyn CloudService> = Arc::new(engine);
    let config = ServerConfig { workers: opts.workers.max(1), max_frame: opts.max_frame };
    let server =
        CloudServer::bind(opts.listen.as_str(), service, config).map_err(|e| format!("bind {}: {e}", opts.listen))?;

    // Which tier this host's symmetric kernels (digests, here) and the
    // frame CRC run on.
    println!("BACKEND {} crc32={}", datablinder_primitives::backend(), datablinder_codec::crc_backend());
    // Parsed by scripts: the kernel-assigned port when --listen used :0.
    println!("LISTENING {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    loop {
        std::thread::park();
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("datablinder-cloudd: {e}");
        std::process::exit(1);
    }
}
