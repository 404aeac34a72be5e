//! The TPC-W bookstore, head to head: runs the browsing-mix workload
//! against both request-processing models and prints the paper-style
//! comparison. A miniature of `staged-bench`'s `tpcw_compare` binary,
//! sized to finish in under a minute.
//!
//! Run with `cargo run --release --example bookstore`.

use staged_web::core::{BaselineServer, StagedServer};
use staged_web::db::Database;
use staged_web::tpcw::{
    build_app, populate, run_workload, Deployment, ScaleConfig, WorkloadReport,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // The paper run's server, costs and think times over the tiny
    // population, with fewer browsers and shorter runs.
    let deployment = Deployment {
        ebs: 80,
        ..Deployment::paper().with_population(ScaleConfig::tiny())
    };
    let (ramp, measure) = (Duration::from_secs(2), Duration::from_secs(8));

    let mut reports = Vec::new();
    for staged in [false, true] {
        let label = if staged {
            "modified (staged)"
        } else {
            "unmodified (thread-per-request)"
        };
        eprintln!("running {label} …");
        let db = Arc::new(Database::new());
        populate(&db, &deployment.scale);
        db.set_cost_model(deployment.cost);
        let app = build_app(&db, &deployment.scale);
        let config = deployment.server.clone();
        let server = if staged {
            StagedServer::start(config, app, db).expect("bind")
        } else {
            BaselineServer::start(config, app, db).expect("bind")
        };
        let report = run_workload(server.addr(), &deployment, ramp, measure, || {});
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
