//! Timing harness for the kernel rungs: the minimum over a few rounds of
//! the mean time per call, each round long enough to swamp timer cost.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::sut::Kernel;

/// Time per call in the rung's own unit (`ns` or `us`).
pub fn measure(kernel: &Kernel, scratch: &Path, round: Duration, rounds: usize) -> f64 {
    let mut call = (kernel.prepare)(scratch);
    // Size a round from a pilot that doubles until it is long enough to trust.
    let mut iters = 1u64;
    let per_call_ns = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            call();
        }
        let elapsed = t0.elapsed();
        if elapsed >= round / 8 || iters >= 1 << 24 {
            break elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    };
    let iters = ((round.as_nanos() as f64 / per_call_ns.max(1.0)).ceil() as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            call();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    match kernel.unit {
        "us" => best / 1e3,
        _ => best,
    }
}
