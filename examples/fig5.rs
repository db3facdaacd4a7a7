//! Regenerates **Figure 5** and the **§5.2 latency table** from one run of
//! the three scenarios (S_A no protection, S_B hard-coded tactics, S_C
//! DataBlinder), plus the paper's two headline numbers (~44% tactic cost,
//! ~1.4% middleware overhead), overall and per operation class.
//!
//! ```sh
//! cargo run --release --example fig5
//! cargo run --release --example fig5 -- --requests 12000 --workers 8   # EXPERIMENTS.md
//! cargo run --release --example fig5 -- --full                         # paper scale
//! ```
//!
//! Flags: `--workers N`, `--requests N`, `--patients N`,
//! `--net instant|lan|metro|wan` (default `metro`: the paper's deployment
//! crossed a real network, so round trips sleep for real), `--full`.

use datablinder::netsim::LatencyModel;
use datablinder::workload::report::{render_figure5, render_latency_table};
use datablinder::workload::runner::{run_three_scenarios, ScenarioSpec};

const USAGE: &str = "usage: fig5 [--workers N] [--requests N] [--patients N] [--net instant|lan|metro|wan] [--full]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(ScenarioSpec, LatencyModel), String> {
    let mut spec = ScenarioSpec { workers: 8, requests: 4_000, patient_pool: 64, ..ScenarioSpec::default() };
    let mut model = LatencyModel::metro();
    while let Some(flag) = args.next() {
        let mut count = || -> Result<usize, String> {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            value.parse().ok().filter(|n| *n > 0).ok_or(format!("{flag}: not a positive number: {value}"))
        };
        match flag.as_str() {
            "--workers" => spec.workers = count()?,
            "--requests" => spec.requests = count()?,
            "--patients" => spec.patient_pool = count()?,
            "--net" => {
                model = match args.next().as_deref() {
                    Some("instant") => LatencyModel::instant(),
                    Some("lan") => LatencyModel::lan(),
                    Some("metro") => LatencyModel::metro(),
                    Some("wan") => LatencyModel::wan(),
                    other => return Err(format!("--net: expected instant|lan|metro|wan, got {other:?}")),
                }
            }
            // The paper's full scale: ~151k requests, 1000 users.
            "--full" => {
                spec = ScenarioSpec { workers: 64, requests: 151_000, patient_pool: 1000, ..spec };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // Round trips cost wall-clock time, like they did between the paper's
    // private OpenStack and its public cloud.
    model.real_sleep = true;
    Ok((spec, model))
}

fn main() {
    let (spec, model) = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("fig5: {err}\n{USAGE}");
        std::process::exit(2);
    });
    eprintln!("running S_A, S_B, S_C: {} requests / {} workers each", spec.requests, spec.workers);
    let reports = run_three_scenarios(spec, model);
    let [sa, sb, sc] = &reports;
    println!(
        "\nworkload: {} requests x 3 scenarios, {} workers, {} patients, mixed insert/search/aggregate\n",
        spec.requests, spec.workers, spec.patient_pool
    );
    println!("{}", render_figure5(&[sa, sb, sc]));
    println!("{}", render_latency_table(&[sa, sb, sc]));
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    if failed > 0 {
        eprintln!("fig5: {failed} failed requests");
        std::process::exit(1);
    }
}
