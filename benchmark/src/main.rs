//! `dbbench`: the DataBlinder benchmark. See README.md.
//!
//! * `dbbench --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints the result object as the last
//!   line of standard output (the driver's contract, `../BENCHMARK.json`).
//! * `dbbench [--workload W]… [--seed N] [--trace 0|1] [--quick]` runs the
//!   selected workloads, each in a process of its own, untraced then
//!   traced, and prints every metric with the host fingerprint.
//! * `dbbench --selfcheck` runs every workload twice on one seed (a third
//!   time if they disagree) and fails unless each end-to-end metric agrees
//!   within its bound.
//! * `dbbench --manifest` prints `BENCHMARK.json`.

mod corpus;
mod host;
mod kernels;
mod metrics;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{Values, END_TO_END, RUN_SECONDS};
use workloads::{RunArgs, Spec, SPECS};

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    selfcheck: bool,
    manifest: bool,
    out: PathBuf,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        selfcheck: false,
        manifest: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workloads.push(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => cli.trace = Some(value()? != "0"),
            "--out" => cli.out = PathBuf::from(value()?),
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for w in &cli.workloads {
        if !SPECS.iter().any(|s| s.name == w) {
            let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {w}; known: {}", known.join(", ")));
        }
    }
    Ok(cli)
}

fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("host: nproc={nproc}; cpu={cpu}; {rustc}; deps={}", sut::DEPS)
}

/// One workload, in this process.
fn run_one(spec: &Spec, cli: &Cli, traced: bool) -> ExitCode {
    if !host::confine_to_one_cpu() {
        eprintln!("dbbench: {}: could not confine the run to one CPU; timings will be less steady", spec.name);
    }
    let seconds = cli.seconds.unwrap_or(f64::from(RUN_SECONDS));
    let args = RunArgs { seed: cli.seed, seconds, traced, scale: if cli.quick { 20 } else { 1 }, out: &cli.out };
    if let Err(e) = std::fs::create_dir_all(&cli.out) {
        eprintln!("dbbench: cannot create {}: {e}", cli.out.display());
        return ExitCode::from(2);
    }
    match workloads::run(spec, &args) {
        Ok(o) => {
            if let Some(why) = &o.first_failure {
                eprintln!("dbbench: {}: first failed operation: {why}", spec.name);
            }
            println!("{}", metrics::result_line(o.correct, o.attempted, o.failed, traced, &o.values));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dbbench: {}: {e}", spec.name);
            ExitCode::from(2)
        }
    }
}

struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
}

/// Picks `"key": <number or bool>` out of the one-line result object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let rest = rest.trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Runs one workload in a child process (so `peak_rss_mb` is its own) and
/// reads the result line back.
fn spawn(spec: &Spec, cli: &Cli, seconds: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &cli.seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out);
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", spec.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    let mut values = Values::default();
    for (name, _, _) in metrics::reported(traced) {
        let object = &line[line.find(&format!("\"{name}\":")).ok_or_else(|| format!("result lacks {name}"))?..];
        let v = field(object, "value").and_then(|v| v.parse().ok()).ok_or_else(|| format!("bad value for {name}"))?;
        values.set(name, v);
    }
    Ok(Child {
        correct: field(line, "correct") == Some("true"),
        attempted: field(line, "attempted").and_then(|v| v.parse().ok()).unwrap_or(0),
        failed: field(line, "failed").and_then(|v| v.parse().ok()).unwrap_or(0),
        values,
    })
}

fn selected<'a>(cli: &Cli) -> Vec<&'a Spec> {
    SPECS.iter().filter(|s| cli.workloads.is_empty() || cli.workloads.iter().any(|w| w == s.name)).collect()
}

fn suite_seconds(cli: &Cli) -> f64 {
    cli.seconds.unwrap_or(f64::from(RUN_SECONDS) / if cli.quick { 20.0 } else { 1.0 })
}

/// Every selected workload, untraced then traced, every metric by name.
fn suite(cli: &Cli) -> ExitCode {
    println!("{}", fingerprint());
    let seconds = suite_seconds(cli);
    let mut ok = true;
    for spec in selected(cli) {
        println!(
            "\n== {} (seed {}, {seconds} s{})\n   {}",
            spec.name,
            cli.seed,
            if cli.quick { ", quick" } else { "" },
            spec.why
        );
        for traced in [false, true] {
            if cli.trace.is_some_and(|t| t != traced) {
                continue;
            }
            match spawn(spec, cli, seconds, traced) {
                Ok(child) => {
                    ok &= child.correct;
                    println!(
                        "-- {}: attempted {}, failed {}, correct {}",
                        if traced { "per layer (traced)" } else { "end to end (untraced)" },
                        child.attempted,
                        child.failed,
                        child.correct
                    );
                    for (name, unit, meaning) in metrics::reported(traced) {
                        let value = child.values.get(name).unwrap_or(0.0);
                        println!("   {name:<40} {value:>16.4} {unit:<6} {meaning}");
                    }
                }
                Err(e) => {
                    eprintln!("dbbench: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How far two values of a metric are apart, as a share of the better one.
fn apart(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b).max(f64::MIN_POSITIVE)
}

/// Two runs of each workload on one seed must agree within each metric's
/// bound. This host now and then slows a whole run by a third; when the two
/// runs disagree a third is made, and a metric passes if any two agree.
fn selfcheck(cli: &Cli) -> ExitCode {
    println!("{}", fingerprint());
    let seconds = suite_seconds(cli);
    let mut ok = true;
    for spec in selected(cli) {
        let mut runs: Vec<Child> = Vec::new();
        while runs.len() < 3 {
            match spawn(spec, cli, seconds, false) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("dbbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let value = |run: &Child, name| run.values.get(name).unwrap_or(0.0);
            if runs.len() == 2
                && END_TO_END.iter().all(|m| apart(value(&runs[0], m.name), value(&runs[1], m.name)) <= m.bound)
            {
                break;
            }
        }
        println!("\n== {} ({} runs)", spec.name, runs.len());
        for run in &runs {
            if !run.correct || run.failed > 0 {
                println!("   FAIL: {} of {} operations failed", run.failed, run.attempted);
                ok = false;
            }
        }
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.values.get(m.name).unwrap_or(0.0)).collect();
            let closest = (0..values.len())
                .flat_map(|i| (i + 1..values.len()).map(move |j| (i, j)))
                .map(|(i, j)| apart(values[i], values[j]))
                .fold(f64::INFINITY, f64::min);
            let agrees = closest <= m.bound;
            ok &= agrees;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:>14.4}")).collect();
            println!(
                "   {:<28} {} {:<6} closest pair differs {:>6.2}% (bound {:.0}%) {}",
                m.name,
                shown.join(" "),
                m.unit,
                100.0 * closest,
                100.0 * m.bound,
                if agrees { "ok" } else { "FAIL" }
            );
        }
    }
    println!("\nselfcheck {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dbbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if cli.selfcheck {
        return selfcheck(&cli);
    }
    // All of --workload, --seconds and --trace: the driver's single run.
    if let ([name], Some(_), Some(traced)) = (cli.workloads.as_slice(), cli.seconds, cli.trace) {
        let spec = SPECS.iter().find(|s| s.name == name).expect("validated by parse");
        return run_one(spec, &cli, traced);
    }
    suite(&cli)
}
