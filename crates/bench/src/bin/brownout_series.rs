//! Brownout experiment: one long-lived deployment of each server rides
//! through four database phases — healthy → brownout (partial errors +
//! added latency) → outage (every query fails) → recovered — without a
//! restart, so the circuit breaker's trip/half-open/close cycle and the
//! staged server's stale-render fallback are both exercised exactly as
//! they would be in production.
//!
//! The degradation ladder shows up in the numbers: during the outage
//! the staged server keeps serving cache-marked browsing pages stale
//! (counted in `degraded`) while the baseline's goodput collapses to
//! its static files; after healing, both recover fresh service and the
//! breaker closes.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p staged-bench --bin brownout_series -- \
//!     --ebs 120 --measure-secs 8 --json target/brownout.json
//! ```

use staged_bench::{json_row, Experiment, Model};
use staged_db::{BreakerConfig, FaultPlan};
use staged_metrics::Snapshot;
use staged_tpcw::run_workload;
use std::time::Duration;

/// One phase row for the `--json` artifact, rendered through the shared
/// [`Snapshot`] path so the artifact and the `/metrics` exporter agree
/// on value formatting.
struct PhaseRow {
    goodput_per_s: f64,
    p99_ms: f64,
    mean_ms: f64,
    degraded: u64,
    stale_misses: u64,
    breaker_opened: u64,
    panics: u64,
}

impl Snapshot for PhaseRow {
    fn fields(&self, emit: &mut dyn FnMut(&'static str, f64)) {
        emit("goodput_per_s", self.goodput_per_s);
        emit("p99_ms", self.p99_ms);
        emit("mean_ms", self.mean_ms);
        emit("degraded", self.degraded as f64);
        emit("stale_misses", self.stale_misses as f64);
        emit("breaker_opened", self.breaker_opened as f64);
        emit("panics", self.panics as f64);
    }
}

struct Phase {
    name: &'static str,
    plan: Option<FaultPlan>,
}

struct Args {
    exp: Experiment,
    json: Option<String>,
    brownout_error_rate: f64,
    brownout_latency: Duration,
}

fn parse_args() -> Args {
    let mut exp = Experiment {
        ebs: 120,
        ramp: Duration::from_secs(2),
        measure: Duration::from_secs(8),
        ..Experiment::default()
    };
    // The ladder needs a breaker; a sub-second cooldown lets recovery
    // complete within the measured phase.
    exp.server.breaker = Some(BreakerConfig {
        cooldown: Duration::from_millis(500),
        ..BreakerConfig::default()
    });
    let mut json = None;
    let mut brownout_error_rate = 0.3;
    let mut brownout_latency = Duration::from_millis(5);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--ebs" => exp.ebs = value(i).parse().expect("--ebs"),
            "--measure-secs" => {
                exp.measure = Duration::from_secs_f64(value(i).parse().expect("--measure-secs"));
            }
            "--ramp-secs" => {
                exp.ramp = Duration::from_secs_f64(value(i).parse().expect("--ramp-secs"));
            }
            "--brownout-error-rate" => {
                brownout_error_rate = value(i).parse().expect("--brownout-error-rate");
            }
            "--brownout-latency-ms" => {
                brownout_latency =
                    Duration::from_millis(value(i).parse().expect("--brownout-latency-ms"));
            }
            "--json" => json = Some(value(i).to_string()),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --ebs N --measure-secs S --ramp-secs S \
                     --brownout-error-rate P --brownout-latency-ms MS --json PATH"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag: {other} (try --help)"),
        }
        i += 2;
    }
    Args {
        exp,
        json,
        brownout_error_rate,
        brownout_latency,
    }
}

fn main() {
    let args = parse_args();
    let phases = [
        Phase {
            name: "healthy",
            plan: None,
        },
        Phase {
            name: "brownout",
            plan: Some(
                FaultPlan::seeded(0x0d5e_2009)
                    .error_rate(args.brownout_error_rate)
                    .extra_latency(args.brownout_latency),
            ),
        },
        Phase {
            name: "outage",
            plan: Some(FaultPlan::seeded(0x0d5e_2009).error_rate(1.0)),
        },
        Phase {
            name: "recovered",
            plan: None,
        },
    ];

    eprintln!(
        "brownout series: {} EBs, {:?} per phase, brownout = {:.0}% errors + {:?}",
        args.exp.ebs,
        args.exp.measure,
        args.brownout_error_rate * 100.0,
        args.brownout_latency,
    );
    println!(
        "{:<12} {:<10} {:>12} {:>10} {:>10} {:>9} {:>9} {:>8} {:>7}",
        "model",
        "phase",
        "goodput/s",
        "p99 (ms)",
        "mean (ms)",
        "degraded",
        "stale503",
        "opened",
        "panics"
    );
    println!("{}", "-".repeat(95));

    let mut json_rows = String::from("[");
    let mut first_row = true;
    for model in [Model::Unmodified, Model::Modified] {
        let db = args.exp.build_database();
        let server = args.exp.start_server(model, db);
        for phase in &phases {
            server.set_fault_plan(phase.plan);
            let count = |name| server.registry().value(name, &[]).unwrap_or(0.0) as u64;
            let degraded_before = count("degraded_total");
            let misses_before = count("stale_misses_total");
            let report = run_workload(server.addr(), &args.exp.workload(), || {});
            let degraded = count("degraded_total") - degraded_before;
            let stale_misses = count("stale_misses_total") - misses_before;
            let opened = server.breaker().map_or(0, |b| b.opened_total());
            let panics: u64 = server.pool_snapshots().iter().map(|p| p.panicked).sum();
            println!(
                "{:<12} {:<10} {:>12.1} {:>10.1} {:>10.2} {:>9} {:>9} {:>8} {:>7}",
                model.label(),
                phase.name,
                report.goodput_per_second(),
                report.overall_p99_ms,
                report.overall_mean_ms,
                degraded,
                stale_misses,
                opened,
                panics,
            );
            if !first_row {
                json_rows.push(',');
            }
            first_row = false;
            let row = PhaseRow {
                goodput_per_s: report.goodput_per_second(),
                p99_ms: report.overall_p99_ms,
                mean_ms: report.overall_mean_ms,
                degraded,
                stale_misses,
                breaker_opened: opened,
                panics,
            };
            json_rows.push_str(&json_row(
                &[("model", model.label()), ("phase", phase.name)],
                &row,
            ));
            assert_eq!(
                panics,
                0,
                "{}: a worker died during {}",
                model.label(),
                phase.name
            );
        }
        server.shutdown().expect("clean shutdown");
        println!("{}", "-".repeat(95));
    }
    json_rows.push(']');

    if let Some(path) = args.json {
        std::fs::write(&path, json_rows).expect("write --json output");
        eprintln!("wrote {path}");
    }
}
