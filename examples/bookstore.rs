//! The TPC-W bookstore, head to head: runs the browsing-mix workload
//! against both request-processing models and prints the paper-style
//! comparison. A miniature of `staged-bench`'s `tpcw_compare` binary,
//! sized to finish in under a minute.
//!
//! Run with `cargo run --release --example bookstore`.

use staged_web::core::{BaselineServer, ServerConfig, StagedServer};
use staged_web::db::{CostModel, Database};
use staged_web::tpcw::{
    build_app, populate, run_workload, ScaleConfig, WorkloadConfig, WorkloadReport,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut scale = ScaleConfig::tiny();
    // ×100 time scale so the run is quick but the load is real.
    scale.think_min = Duration::from_millis(7);
    scale.think_max = Duration::from_millis(70);
    scale.images_per_page = 6;
    scale.render_weight_per_kb = Duration::from_millis(2);
    scale.static_weight = Duration::from_micros(700);

    let server_config = ServerConfig {
        header_workers: 4,
        static_workers: 8,
        general_workers: 8,
        lengthy_workers: 2,
        render_workers: 4,
        baseline_workers: 10,
        db_connections: 10,
        lengthy_cutoff: Duration::from_millis(5),
        min_reserve: 1,
        max_reserve: 2,
        ..ServerConfig::default()
    };

    let workload = WorkloadConfig {
        ebs: 80,
        ramp_up: Duration::from_secs(2),
        duration: Duration::from_secs(8),
        scale: scale.clone(),
        ..WorkloadConfig::default()
    };

    let mut reports = Vec::new();
    for staged in [false, true] {
        let label = if staged {
            "modified (staged)"
        } else {
            "unmodified (thread-per-request)"
        };
        eprintln!("running {label} …");
        let db = Arc::new(Database::new());
        populate(&db, &scale);
        db.set_cost_model(CostModel::new(30_000, 10_000));
        let app = build_app(&db, &scale);
        let server = if staged {
            StagedServer::start(server_config.clone(), app, db).expect("bind")
        } else {
            BaselineServer::start(server_config.clone(), app, db).expect("bind")
        };
        let report = run_workload(server.addr(), &workload, || {});
        eprintln!(
            "  {} interactions ({:.0}/min), {} errors",
            report.total_interactions,
            report.interactions_per_minute(),
            report.total_errors
        );
        server.shutdown().expect("clean shutdown");
        reports.push(report);
    }

    println!();
    println!(
        "{}",
        WorkloadReport::comparison_table(&reports[0], &reports[1])
    );
}
