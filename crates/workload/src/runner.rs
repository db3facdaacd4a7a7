//! The closed-loop load generator (the Locust substitute): N concurrent
//! workers issuing a balanced read / write / aggregate mix, measuring
//! per-operation latency and overall throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use datablinder_core::cloud::CloudEngine;
use datablinder_fhir::ObservationGenerator;
use datablinder_netsim::{Channel, LatencyModel};
use datablinder_obs::histogram::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clients::{BenchClient, HardcodedClient, MiddlewareClient, PlainClient};

/// The kinds of operation in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Insertion + secure indexing.
    Insert,
    /// Equality-search protocol (plus retrieval).
    Search,
    /// Aggregate (homomorphic average where applicable).
    Aggregate,
}

/// Relative operation weights. The paper's experiment balances read
/// (equality search), write (insertion + secure indexing) and aggregate
/// operations.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Weight of inserts.
    pub insert: u32,
    /// Weight of searches.
    pub search: u32,
    /// Weight of aggregates.
    pub aggregate: u32,
}

impl Default for OpMix {
    /// The paper's balanced mix: inserts dominate slightly (~50k docs and
    /// ~50k Paillier executions out of ~151k requests), searches and
    /// aggregates split the rest evenly.
    fn default() -> Self {
        OpMix { insert: 1, search: 1, aggregate: 1 }
    }
}

impl OpMix {
    fn pick<R: Rng>(&self, rng: &mut R) -> OpKind {
        let total = self.insert + self.search + self.aggregate;
        let roll = rng.gen_range(0..total);
        if roll < self.insert {
            OpKind::Insert
        } else if roll < self.insert + self.search {
            OpKind::Search
        } else {
            OpKind::Aggregate
        }
    }
}

/// Scenario sizing.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Concurrent workers (the paper used 1,000 Locust users).
    pub workers: usize,
    /// Total requests across all workers.
    pub requests: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Distinct patients (controls search-result sizes).
    pub patient_pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec { workers: 8, requests: 2_000, mix: OpMix::default(), patient_pool: 50, seed: 7 }
    }
}

/// Measured results for one scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Scenario label.
    pub label: &'static str,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Completed requests.
    pub completed: u64,
    /// Failed requests (should be zero).
    pub failed: u64,
    /// Per-operation latency histograms.
    pub insert: LatencyHistogram,
    /// Search latency.
    pub search: LatencyHistogram,
    /// Aggregate latency.
    pub aggregate: LatencyHistogram,
    /// All operations combined.
    pub overall: LatencyHistogram,
}

impl ScenarioReport {
    /// Overall throughput in requests per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The latency histogram of one operation class.
    pub fn histogram(&self, op: OpKind) -> &LatencyHistogram {
        match op {
            OpKind::Insert => &self.insert,
            OpKind::Search => &self.search,
            OpKind::Aggregate => &self.aggregate,
        }
    }

    /// Per-operation throughput (ops of that kind per second of run).
    pub fn op_throughput(&self, op: OpKind) -> f64 {
        self.histogram(op).count() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs one scenario: spawns `spec.workers` threads, each with its own
/// client from `factory`, and drives `spec.requests` operations total.
///
/// The factory receives the worker index; clients share the cloud through
/// their channels but hold independent gateway state (like independent
/// application instances behind one load balancer).
pub fn run_scenario<F>(label: &'static str, spec: ScenarioSpec, factory: F) -> ScenarioReport
where
    F: Fn(usize) -> Box<dyn BenchClient> + Sync,
{
    let per_worker = spec.requests / spec.workers.max(1);
    let failed = AtomicU64::new(0);
    // Client construction (key generation!) happens before the barrier so
    // setup cost is excluded from the measured window.
    let barrier = std::sync::Barrier::new(spec.workers + 1);

    let mut start = Instant::now();
    // Per worker: [insert, search, aggregate], indexed by `OpKind as usize`.
    let histograms: Vec<[LatencyHistogram; 3]> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.workers)
            .map(|w| {
                let (factory, failed, barrier) = (&factory, &failed, &barrier);
                scope.spawn(move || {
                    let mut client = factory(w);
                    barrier.wait();
                    let mut rng = StdRng::seed_from_u64(spec.seed ^ (w as u64).wrapping_mul(0x9E37_79B9));
                    let mut gen = ObservationGenerator::new(spec.patient_pool);
                    let mut histograms: [LatencyHistogram; 3] = Default::default();
                    for i in 0..per_worker {
                        // Prime each worker with a few documents so early
                        // searches/aggregates have data.
                        let op = if i < 4 { OpKind::Insert } else { spec.mix.pick(&mut rng) };
                        // Inputs are drawn outside the timed call.
                        let (t, ok) = match op {
                            OpKind::Insert => {
                                let doc = gen.generate(&mut rng);
                                let t = Instant::now();
                                (t, client.insert(&doc).is_ok())
                            }
                            OpKind::Search => {
                                let subject = gen.patient(rng.gen_range(0..spec.patient_pool));
                                let t = Instant::now();
                                (t, client.search_subject(&subject).is_ok())
                            }
                            OpKind::Aggregate => {
                                let t = Instant::now();
                                (t, client.average_value().is_ok())
                            }
                        };
                        let d = t.elapsed();
                        if ok {
                            histograms[op as usize].record(d);
                        } else {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    histograms
                })
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = start.elapsed();

    let mut merged: [LatencyHistogram; 3] = Default::default();
    let mut overall = LatencyHistogram::new();
    for worker in &histograms {
        for (class, h) in merged.iter_mut().zip(worker) {
            class.merge(h);
            overall.merge(h);
        }
    }
    let [insert, search, aggregate] = merged;

    ScenarioReport {
        label,
        elapsed,
        completed: overall.count(),
        failed: failed.load(Ordering::Relaxed),
        insert,
        search,
        aggregate,
        overall,
    }
}

/// Runs the three §5.2 scenarios — S_A plain, S_B hard-coded tactics, S_C
/// DataBlinder — one after the other, each against a fresh cloud engine
/// behind `model`, and returns `[S_A, S_B, S_C]`. Every worker gets its own
/// channel handle onto its scenario's one engine.
pub fn run_three_scenarios(spec: ScenarioSpec, model: LatencyModel) -> [ScenarioReport; 3] {
    let fresh = || Channel::connect(CloudEngine::new(), model);
    let (cloud_a, cloud_b, cloud_c) = (fresh(), fresh(), fresh());
    [
        run_scenario("S_A", spec, |w| Box::new(PlainClient::new(cloud_a.clone(), w as u64))),
        // 512-bit Paillier: the registry default S_C runs with.
        run_scenario("S_B", spec, |w| Box::new(HardcodedClient::new(cloud_b.clone(), w as u64, 512))),
        run_scenario("S_C", spec, |w| Box::new(MiddlewareClient::new(cloud_c.clone(), w as u64))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_completes_all_requests() {
        let spec = ScenarioSpec { workers: 4, requests: 200, ..ScenarioSpec::default() };
        let report = run_scenario("S_A", spec, |w| {
            Box::new(PlainClient::new(Channel::connect(CloudEngine::new(), LatencyModel::instant()), w as u64))
        });
        assert_eq!(report.failed, 0);
        assert_eq!(report.completed, 200);
        assert!(report.throughput() > 0.0);
        assert_eq!(report.insert.count() + report.search.count() + report.aggregate.count(), report.overall.count());
    }

    #[test]
    fn mix_respects_weights() {
        let mix = OpMix { insert: 1, search: 0, aggregate: 0 };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(mix.pick(&mut rng), OpKind::Insert);
        }
    }
}
