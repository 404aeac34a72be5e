//! Overload sweep: runs the TPC-W browsing mix at 1×/2×/3× the
//! saturation load against both servers with **tight queue bounds**, and
//! reports goodput, shed rate, and tail latency per level — the
//! graceful-degradation experiment the paper's throughput tables imply
//! but never plot.
//!
//! The unmodified server's only defence is its single bounded worker
//! queue; the staged server sheds per stage, so static requests keep
//! completing while the dynamic stages saturate. Optional database
//! fault injection (`--error-rate`, `--latency-ticks`, `--death-period`)
//! turns the sweep into a robustness run: goodput must stay positive
//! and no worker may die.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p staged-bench --bin overload_series -- \
//!     --base-ebs 120 --measure-secs 10 --queue-factor 4 --deadline-ms 2000
//! ```

use staged_bench::{json_row, run_model, Experiment, Model};
use staged_core::ShedPoint;
use staged_db::FaultPlan;
use staged_metrics::Snapshot;
use std::time::Duration;

/// One sweep row for the `--json` artifact, rendered through the shared
/// [`Snapshot`] path so the artifact and the `/metrics` exporter agree
/// on value formatting.
struct LevelRow {
    load: usize,
    ebs: usize,
    goodput_per_s: f64,
    shed_rate: f64,
    p99_ms: f64,
    mean_ms: f64,
    sheds: u64,
    deadline_expired: u64,
    panics: u64,
}

impl Snapshot for LevelRow {
    fn fields(&self, emit: &mut dyn FnMut(&'static str, f64)) {
        emit("load", self.load as f64);
        emit("ebs", self.ebs as f64);
        emit("goodput_per_s", self.goodput_per_s);
        emit("shed_rate", self.shed_rate);
        emit("p99_ms", self.p99_ms);
        emit("mean_ms", self.mean_ms);
        emit("sheds", self.sheds as f64);
        emit("deadline_expired", self.deadline_expired as f64);
        emit("panics", self.panics as f64);
    }
}

struct Args {
    exp: Experiment,
    base_ebs: usize,
    levels: Vec<usize>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut exp = Experiment::default();
    // Tight bounds by default so the sweep actually sheds; the paper
    // reproduction binaries keep the generous default factor.
    exp.server.queue_factor = 4;
    exp.measure = Duration::from_secs(10);
    let mut base_ebs = 120;
    let mut levels = vec![1, 2, 3];
    let mut json = None;
    let mut error_rate = 0.0;
    let mut latency_ticks = 0u64;
    let mut death_period = 0u64;
    let mut fault_seed = 0x0d5e_2009u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--base-ebs" => base_ebs = value(i).parse().expect("--base-ebs"),
            "--levels" => {
                levels = value(i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--levels takes e.g. 1,2,3"))
                    .collect();
            }
            "--measure-secs" => {
                exp.measure = Duration::from_secs_f64(value(i).parse().expect("--measure-secs"));
            }
            "--ramp-secs" => {
                exp.ramp = Duration::from_secs_f64(value(i).parse().expect("--ramp-secs"));
            }
            "--queue-factor" => {
                exp.server.queue_factor = value(i).parse().expect("--queue-factor");
            }
            "--deadline-ms" => {
                exp.server.request_deadline = Some(Duration::from_millis(
                    value(i).parse().expect("--deadline-ms"),
                ));
            }
            "--error-rate" => error_rate = value(i).parse().expect("--error-rate"),
            "--latency-ticks" => latency_ticks = value(i).parse().expect("--latency-ticks"),
            "--death-period" => death_period = value(i).parse().expect("--death-period"),
            "--fault-seed" => fault_seed = value(i).parse().expect("--fault-seed"),
            "--json" => json = Some(value(i).to_string()),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --base-ebs N --levels 1,2,3 --measure-secs S --ramp-secs S \
                     --queue-factor N --deadline-ms MS \
                     --error-rate P --latency-ticks N --death-period N --fault-seed N \
                     --json PATH"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag: {other} (try --help)"),
        }
        i += 2;
    }

    if error_rate > 0.0 || latency_ticks > 0 || death_period > 0 {
        let mut plan = FaultPlan::seeded(fault_seed).error_rate(error_rate);
        if latency_ticks > 0 {
            plan = plan.extra_latency(Duration::from_millis(latency_ticks));
        }
        if death_period > 0 {
            plan = plan.death_period(death_period);
        }
        exp.server.fault_plan = Some(plan);
    }

    Args {
        exp,
        base_ebs,
        levels,
        json,
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "overload sweep: base {} EBs at levels {:?}, queue factor {}, deadline {:?}, faults {}",
        args.base_ebs,
        args.levels,
        args.exp.server.queue_factor,
        args.exp.server.request_deadline,
        if args.exp.server.fault_plan.is_some() {
            "on"
        } else {
            "off"
        },
    );

    println!(
        "{:<6} {:<12} {:>8} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "load",
        "model",
        "ebs",
        "goodput/s",
        "shed rate",
        "p99 (ms)",
        "mean (ms)",
        "sheds",
        "panics"
    );
    println!("{}", "-".repeat(95));

    let mut json_rows = String::from("[");
    let mut first_row = true;
    for &level in &args.levels {
        for model in [Model::Unmodified, Model::Modified] {
            let mut exp = args.exp.clone();
            exp.ebs = args.base_ebs * level;
            let outcome = run_model(&exp, model, &[]);
            let report = &outcome.report;
            let registry = outcome.server.registry();
            let shed_at = |point: ShedPoint| {
                let labels = [("point", point.label())];
                registry.value("sheds_total", &labels).unwrap_or(0.0) as u64
            };
            let sheds = registry.family_sum("sheds_total") as u64;
            let deadline_expired =
                registry.value("deadline_expired_total", &[]).unwrap_or(0.0) as u64;
            let snapshots = outcome.server.pool_snapshots();
            let panics: u64 = snapshots.iter().map(|p| p.panicked).sum();
            println!(
                "{:<6} {:<12} {:>8} {:>12.1} {:>9.1}% {:>10.1} {:>10.2} {:>9} {:>9}",
                format!("{level}x"),
                model.label(),
                exp.ebs,
                report.goodput_per_second(),
                report.shed_rate() * 100.0,
                report.overall_p99_ms,
                report.overall_mean_ms,
                sheds,
                panics,
            );
            // Per-stage shed breakdown (server side), only when any.
            if sheds > 0 {
                let detail: Vec<String> = ShedPoint::ALL
                    .iter()
                    .filter(|p| shed_at(**p) > 0)
                    .map(|p| format!("{p}={}", shed_at(*p)))
                    .collect();
                println!("       sheds by stage: {}", detail.join(", "));
            }
            if deadline_expired > 0 {
                println!("       deadline-expired: {deadline_expired}");
            }
            if !first_row {
                json_rows.push(',');
            }
            first_row = false;
            let row = LevelRow {
                load: level,
                ebs: exp.ebs,
                goodput_per_s: report.goodput_per_second(),
                shed_rate: report.shed_rate(),
                p99_ms: report.overall_p99_ms,
                mean_ms: report.overall_mean_ms,
                sheds,
                deadline_expired,
                panics,
            };
            json_rows.push_str(&json_row(&[("model", model.label())], &row));
            outcome.server.shutdown().expect("clean shutdown");
        }
    }
    json_rows.push(']');

    if let Some(path) = args.json {
        std::fs::write(&path, json_rows).expect("write --json output");
        eprintln!("wrote {path}");
    }
}
