//! Ablation study over the staged server's design choices:
//!
//! * **full** — the paper's design as shipped (capped controller,
//!   separate lengthy pool);
//! * **no-cap** — the paper's `t_reserve` rule taken literally, with
//!   no upper bound. Under sustained load the reserve ratchets past
//!   the general-pool size and lengthy requests are permanently locked
//!   out of the general pool (see `ReserveController::with_max`);
//! * **no-lengthy-pool** — one dynamic pool for everything (still
//!   header/static/render offload, but no quick/lengthy separation):
//!   isolates how much of the win comes from the SJF-like split versus
//!   from freeing connection threads of render/static work;
//! * **static-reserve** — the controller disabled (`min = max`): the
//!   adaptive part of the paper's policy removed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p staged-bench --bin ablations -- --measure-secs 15
//! ```

use staged_bench::{run_model, Experiment, Model};
use staged_core::ServerConfig;

struct Variant {
    name: &'static str,
    note: &'static str,
    tweak: fn(&mut ServerConfig),
}

const VARIANTS: &[Variant] = &[
    Variant {
        name: "full",
        note: "the paper's design (capped controller)",
        tweak: |_| {},
    },
    Variant {
        name: "no-cap",
        note: "uncapped t_reserve: the unstated ratchet failure mode",
        tweak: |server| {
            server.max_reserve = server.general_workers - 1;
        },
    },
    Variant {
        name: "no-lengthy-pool",
        note: "quick/lengthy split disabled (lengthy pool starved to 1, all dispatch general)",
        tweak: |server| {
            // With the reserve pinned to 0-ish, every lengthy request
            // passes the Table 1 overflow rule into the general pool.
            server.min_reserve = 1;
            server.max_reserve = 1;
            server.general_workers += server.lengthy_workers - 1;
            server.lengthy_workers = 1;
        },
    },
    Variant {
        name: "static-reserve",
        note: "controller disabled: fixed reserve at the configured minimum",
        tweak: |server| {
            server.max_reserve = server.min_reserve;
        },
    },
];

fn main() {
    let base = Experiment::from_args();

    eprintln!("baseline: unmodified thread-per-request server…");
    let unmodified = run_model(&base, Model::Unmodified, &[]);
    let unmod_total = unmodified.report.total_interactions;
    let unmod_quick = unmodified.report.mean_ms("home").unwrap_or(f64::NAN);
    let unmod_lengthy = unmodified
        .report
        .mean_ms("best_sellers")
        .unwrap_or(f64::NAN);
    unmodified.server.shutdown().expect("clean shutdown");

    println!(
        "\n{:<16} {:>12} {:>10} {:>14} {:>16}",
        "variant", "interactions", "vs unmod", "home mean(ms)", "best-sellers(ms)"
    );
    println!("{}", "-".repeat(74));
    println!(
        "{:<16} {:>12} {:>10} {:>14.2} {:>16.2}",
        "(unmodified)", unmod_total, "-", unmod_quick, unmod_lengthy
    );

    for variant in VARIANTS {
        let mut exp = base.clone();
        (variant.tweak)(&mut exp.deployment.server);
        eprintln!("variant {}: {} …", variant.name, variant.note);
        let outcome = run_model(&exp, Model::Modified, &[]);
        let report = &outcome.report;
        println!(
            "{:<16} {:>12} {:>+9.1}% {:>14.2} {:>16.2}",
            variant.name,
            report.total_interactions,
            (report.total_interactions as f64 / unmod_total.max(1) as f64 - 1.0) * 100.0,
            report.mean_ms("home").unwrap_or(f64::NAN),
            report.mean_ms("best_sellers").unwrap_or(f64::NAN),
        );
        outcome.server.shutdown().expect("clean shutdown");
    }
    println!("\n(home = representative quick page; best sellers = representative lengthy page)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_tweaks_the_paper_run_into_a_valid_config() {
        for variant in VARIANTS {
            let mut server = Experiment::default().deployment.server;
            (variant.tweak)(&mut server);
            server.validate();
        }
    }
}
