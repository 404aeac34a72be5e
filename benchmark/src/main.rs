//! The repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! starts a real `StagedServer` / `BaselineServer` in this process on
//! loopback, drives it over two keep-alive connections from streams
//! generated from `--seed`, checks every response, prints every metric
//! by name with its unit, and ends with one JSON line. See `README.md`
//! beside this package for the workloads, metrics and layers.

mod alloc;
mod client;
mod deploy;
mod layers;
mod load;
mod oracle;
mod procfs;
mod prom;
mod replay;
mod rng;
mod run;
mod spans;
mod stats;
mod trace;
mod workload;

use run::{Options, Report};
use std::process::{Command, ExitCode};
use workload::Spec;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The paper's conference date; the seed when none is given.
const DEFAULT_SEED: u64 = 20_090_629;
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: staged-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace [0|1]] [--selfcheck]\n       staged-benchmark --smoke [--seed N]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace 1`, `--trace 0`, or bare `--trace`.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Prints the metrics by name with their units, then the result line.
fn print_report(report: &Report) {
    for m in &report.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
}

fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--smoke`: every workload end to end and one traced run, at the tiny
/// scale with sub-second phases. Checks correctness (the oracle, the
/// freshness reads, status and framing of every response) and that
/// every code path of the benchmark still runs; its numbers mean
/// nothing and no bound applies.
fn smoke(seed: u64) -> ExitCode {
    let opts = Options {
        seed,
        seconds: 1.6,
        smoke: true,
    };
    let mut failed = 0;
    for spec in &workload::SPECS {
        let report = run::end_to_end(spec, &opts);
        println!(
            "smoke {}: {} attempted, {} failed",
            spec.name, report.tally.attempted, report.tally.failed
        );
        failed += report.tally.failed;
    }
    let spec = workload::spec("quick_pages").expect("a workload of the table");
    let report = trace::traced(spec, &opts);
    println!(
        "smoke {} traced: {} attempted, {} failed, {} per-layer metrics",
        spec.name,
        report.tally.attempted,
        report.tally.failed,
        report.metrics.len()
    );
    failed += report.tally.failed;
    println!(
        "{{\"smoke\": true, \"correct\": {}, \"failed\": {failed}}}",
        failed == 0
    );
    exit_code(failed)
}

/// `--selfcheck`: the A/A test. Runs the workload twice with the same
/// seed in fresh processes and fails if any end-to-end metric of the
/// two differs by more than its own bound in `BENCHMARK.json` (read
/// from the current directory, the checkout root).
fn selfcheck(spec: &Spec, args: &Args) -> ExitCode {
    let bounds = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(json) => prom::numbers_after(prom::array_after(&json, "end_to_end"), "bound"),
        Err(e) => {
            eprintln!("--selfcheck reads ./BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if bounds.len() != layers::END_TO_END.len() {
        eprintln!("BENCHMARK.json does not bound the benchmark's end-to-end metrics");
        return ExitCode::from(2);
    }
    let run_once = || -> Result<Vec<f64>, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = Command::new(exe)
            .args(["--workload", spec.name, "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = stdout.lines().last().unwrap_or_default();
        if !out.status.success() {
            return Err(format!("run failed: {result}"));
        }
        let values = prom::numbers_after(result, "value");
        if values.len() != layers::END_TO_END.len() {
            return Err(format!("unexpected result line: {result}"));
        }
        Ok(values)
    };
    let (a, b) = match (run_once(), run_once()) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut beyond = 0;
    for (i, (name, unit, _)) in layers::END_TO_END.iter().enumerate() {
        let differ = (a[i] - b[i]).abs() / ((a[i] + b[i]) / 2.0).abs().max(f64::MIN_POSITIVE);
        let verdict = if differ > bounds[i] {
            "BEYOND"
        } else {
            "within"
        };
        beyond += u64::from(differ > bounds[i]);
        println!(
            "{name:<16} {:>14.5} {:>14.5} {unit:<6} differ {:>6.2}% {verdict} bound {:.0}%",
            a[i],
            b[i],
            differ * 100.0,
            bounds[i] * 100.0
        );
    }
    println!(
        "{{\"selfcheck\": \"{}\", \"beyond_bound\": {beyond}}}",
        spec.name
    );
    exit_code(beyond)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(args.seed);
    }
    let Some(spec) = args.workload.as_deref().and_then(workload::spec) else {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        eprintln!("--workload must be one of {}\n{USAGE}", names.join(", "));
        return ExitCode::from(2);
    };
    if args.selfcheck {
        return selfcheck(spec, &args);
    }
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        smoke: false,
    };
    println!(
        "workload {} seed {} seconds {} trace {} parallelism {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let report = if args.trace {
        trace::traced(spec, &opts)
    } else {
        run::end_to_end(spec, &opts)
    };
    print_report(&report);
    exit_code(report.tally.failed)
}
