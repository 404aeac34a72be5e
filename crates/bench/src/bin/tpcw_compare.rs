//! Regenerates the paper's §4.2 results from one TPC-W browsing-mix run
//! per server, as the paper does: **Table 3** (per-page average web
//! interaction response times), **Table 4** (completed web interactions
//! per page, plus the overall throughput change), **Figure 7**
//! (dynamic-request queue length on the unmodified server),
//! **Figures 8(a)/8(b)** (general / lengthy pool queue lengths on the
//! modified server), **Figure 9** (total throughput over time) and
//! **Figures 10(a)–(d)** (throughput by request class).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p staged-bench --bin tpcw_compare -- \
//!     --ebs 200 --measure-secs 30 --scale small
//! ```
//!
//! Response times are in milliseconds at the experiments' ×10 time
//! scaling (the paper reports seconds); the comparison *shape* — which
//! pages collapse by orders of magnitude, which stay flat, and the
//! overall throughput gain — is the reproduction target. In the queue
//! figures the unmodified server's single queue spikes as short
//! requests pile up behind lengthy ones; the modified server's general
//! queue stays near zero while the lengthy queue absorbs the backlog.

use staged_bench::{print_series, run_model, Experiment, Model, RunOutcome};
use staged_core::RequestKind;
use staged_metrics::SeriesPoint;
use staged_tpcw::WorkloadReport;
use std::collections::BTreeMap;

/// Bucket-wise sum of two series; the shorter one counts as zero.
fn merge(a: &[SeriesPoint], b: &[SeriesPoint]) -> Vec<SeriesPoint> {
    (0..a.len().max(b.len()))
        .map(|i| SeriesPoint {
            at_secs: a.get(i).or_else(|| b.get(i)).map_or(0.0, |p| p.at_secs),
            value: a.get(i).map_or(0.0, |p| p.value) + b.get(i).map_or(0.0, |p| p.value),
        })
        .collect()
}

/// Completions per bucket by request class, as [`RunOutcome`] holds them.
type Completions = BTreeMap<&'static str, Vec<SeriesPoint>>;

/// Completions of both dynamic classes per bucket.
fn dynamic(completions: &Completions) -> Vec<SeriesPoint> {
    merge(
        &completions[RequestKind::QuickDynamic.label()],
        &completions[RequestKind::LengthyDynamic.label()],
    )
}

/// One measured run, with its totals on stderr; the caller shuts its
/// server down before the next run starts.
fn run(exp: &Experiment, model: Model, trace_queues: &[&str]) -> RunOutcome {
    eprintln!("running {} server…", model.label());
    let outcome = run_model(exp, model, trace_queues);
    eprintln!(
        "  {} interactions, {} errors",
        outcome.report.total_interactions, outcome.report.total_errors
    );
    outcome
}

fn main() {
    let exp = Experiment::from_args();
    let d = &exp.deployment;
    eprintln!(
        "populating {} items / {} customers / {} orders; {} EBs, {:.0?} ramp + {:.0?} measure per run",
        d.scale.items, d.scale.customers, d.scale.orders, d.ebs, exp.ramp, exp.measure
    );
    let unmodified = run(&exp, Model::Unmodified, &["worker"]);
    unmodified.server.shutdown().expect("clean shutdown");
    let modified = run(&exp, Model::Modified, &["general", "lengthy"]);
    modified.server.shutdown().expect("clean shutdown");
    let runs = [
        (Model::Unmodified, &unmodified.completions),
        (Model::Modified, &modified.completions),
    ];

    println!("\nTables 3 & 4: per-page response times and completed interactions");
    println!(
        "{}",
        WorkloadReport::comparison_table(&unmodified.report, &modified.report)
    );

    print_series(
        "Figure 7: dynamic-request queue length, unmodified server",
        &unmodified.queue_traces["worker"],
    );
    print_series(
        "Figure 8(a): general-pool queue length, modified server",
        &modified.queue_traces["general"],
    );
    print_series(
        "Figure 8(b): lengthy-pool queue length, modified server",
        &modified.queue_traces["lengthy"],
    );
    let peak = |pts: &[SeriesPoint]| pts.iter().map(|p| p.value).fold(0.0f64, f64::max);
    println!(
        "peaks: unmodified worker queue {:.0}, modified general {:.0}, modified lengthy {:.0}\n",
        peak(&unmodified.queue_traces["worker"]),
        peak(&modified.queue_traces["general"]),
        peak(&modified.queue_traces["lengthy"]),
    );

    for (model, completions) in runs {
        print_series(
            &format!(
                "Figure 9: total throughput per bucket, {} server",
                model.label()
            ),
            &merge(
                &completions[RequestKind::Static.label()],
                &dynamic(completions),
            ),
        );
    }
    for (kind, figure) in [
        (Some(RequestKind::Static), "Figure 10(a): static requests"),
        (None, "Figure 10(b): all dynamic requests"),
        (
            Some(RequestKind::QuickDynamic),
            "Figure 10(c): quick dynamic requests",
        ),
        (
            Some(RequestKind::LengthyDynamic),
            "Figure 10(d): lengthy dynamic requests",
        ),
    ] {
        for (model, completions) in runs {
            let title = format!("{figure}, {} server", model.label());
            match kind {
                Some(k) => print_series(&title, &completions[k.label()]),
                None => print_series(&title, &dynamic(completions)),
            }
        }
    }
}
