//! Workload generation and the paper's evaluation scenarios.
//!
//! The paper drove its benchmarks with the Locust load-testing framework
//! against the medical-document application of §5.1; this crate is the
//! substitute (DESIGN.md §5): a closed-loop multi-worker generator with
//! the same metric definitions (throughput = completed requests/second,
//! latency percentiles over all requests) and the three §5.2 scenarios:
//!
//! * `S_A` — no middleware, no tactics ([`clients::PlainClient`]),
//! * `S_B` — tactics hard-coded into the application
//!   ([`clients::HardcodedClient`]),
//! * `S_C` — tactics enforced through DataBlinder
//!   ([`clients::MiddlewareClient`]).
//!
//! # Examples
//!
//! ```
//! use datablinder_workload::clients::PlainClient;
//! use datablinder_workload::runner::{run_scenario, ScenarioSpec};
//! use datablinder_core::cloud::CloudEngine;
//! use datablinder_netsim::{Channel, LatencyModel};
//!
//! let spec = ScenarioSpec { workers: 2, requests: 50, ..ScenarioSpec::default() };
//! let report = run_scenario("S_A", spec, |w| {
//!     Box::new(PlainClient::new(Channel::connect(CloudEngine::new(), LatencyModel::instant()), w as u64))
//! });
//! assert_eq!(report.failed, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod clients;
pub mod report;
pub mod runner;
