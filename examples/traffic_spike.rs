//! Watches the `t_spare`/`t_reserve` feedback controller react to a
//! traffic spike of lengthy requests — a live rendition of the paper's
//! Table 2 dynamics — and, with the tight queue bounds set below, the
//! overload control that rides on top of it: once the lengthy queue
//! fills, excess spike requests are shed with `503 Retry-After`
//! instead of growing an unbounded backlog, while the quick background
//! traffic keeps being served.
//!
//! The run has three phases: calm (quick traffic only), spike (a burst
//! of lengthy requests floods in), and recovery. The controller raises
//! `t_reserve` as spare threads vanish and relaxes it afterwards; the
//! sheds column shows the bounded queue refusing what the lengthy pool
//! cannot absorb.
//!
//! Run with `cargo run --release --example traffic_spike`.

use staged_web::core::{App, BreakerConfig, PageOutcome, ServerConfig, StagedServer};
use staged_web::db::{CostModel, Database, DbValue};
use staged_web::http::{fetch, Method, Response};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE blob (id INT PRIMARY KEY, v INT)", &[])?;
    for i in 0..2_000 {
        db.execute(
            "INSERT INTO blob (id, v) VALUES (?, ?)",
            &[DbValue::Int(i), DbValue::Int(i * 7)],
        )?;
    }
    // 50µs per scanned row: the full-scan page costs ~100ms.
    db.set_cost_model(CostModel::new(50_000, 0));

    let app = App::builder()
        .route("/quick", "quick", |_r, db| {
            db.execute("SELECT v FROM blob WHERE id = ?", &[DbValue::Int(7)])?;
            Ok(PageOutcome::Body(Response::text("quick done")))
        })
        .route("/heavy", "heavy", |_r, db| {
            db.execute("SELECT COUNT(*) FROM blob WHERE v > 100", &[])?;
            Ok(PageOutcome::Body(Response::text("heavy done")))
        })
        .build();

    let config = ServerConfig {
        general_workers: 8,
        lengthy_workers: 2,
        db_connections: 10,
        baseline_workers: 10,
        min_reserve: 2,
        max_reserve: 4,
        lengthy_cutoff: Duration::from_millis(5),
        controller_tick: Duration::from_millis(50),
        // Overload control: the lengthy queue holds at most 6 waiting
        // requests — the spike below offers far more, and the excess is
        // shed with 503 instead of queuing without bound.
        lengthy_queue_cap: Some(6),
        // Guard the database with a circuit breaker so its health is
        // reported below (and in /healthz) alongside the pool stats.
        breaker: Some(BreakerConfig::default()),
        ..ServerConfig::default()
    };
    let server = StagedServer::start(config, app, db)?;
    let addr = server.addr();
    println!("staged server on {addr}; watching t_spare / t_reserve\n");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "t(ms)", "phase", "tspare", "treserve", "lengthy-q", "sheds"
    );

    // Background load: a steady trickle of quick requests.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = fetch(addr, Method::Get, "/quick", &[]);
                std::thread::sleep(Duration::from_millis(10));
            }
        }));
    }

    let gauge = |metric: &str, labels: &[(&str, &str)]| {
        server.registry().value(metric, labels).unwrap_or(0.0) as usize
    };
    let observe = |phase: &str, at: Duration| {
        println!(
            "{:>6} {:>8} {:>10} {:>10} {:>10} {:>8}",
            at.as_millis(),
            phase,
            gauge("scheduler_t_spare", &[]),
            gauge("scheduler_t_reserve", &[]),
            gauge("stage_queue_depth", &[("stage", "lengthy")]),
            server.stats().total_sheds(),
        );
    };

    let started = std::time::Instant::now();
    // Phase 1: calm.
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(100));
        observe("calm", started.elapsed());
    }
    // Prime the classifier so /heavy is known lengthy.
    fetch(addr, Method::Get, "/heavy", &[])?;

    // Phase 2: spike — 30 concurrent lengthy clients.
    let mut spike = Vec::new();
    for _ in 0..30 {
        spike.push(std::thread::spawn(move || {
            for _ in 0..4 {
                let _ = fetch(addr, Method::Get, "/heavy", &[]);
            }
        }));
    }
    for _ in 0..12 {
        std::thread::sleep(Duration::from_millis(100));
        observe("spike", started.elapsed());
    }
    for h in spike {
        let _ = h.join();
    }

    // Phase 3: recovery.
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(100));
        observe("recover", started.elapsed());
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for c in clients {
        let _ = c.join();
    }

    let final_reserve = gauge("scheduler_t_reserve", &[]);
    let sheds = server.stats().total_sheds();
    println!("\nfinal t_reserve: {final_reserve} (grew under the spike, relaxed after)");
    println!(
        "shed {sheds} lengthy requests with 503 + Retry-After \
         (bounded queue, cap 6) while quick traffic kept being served"
    );

    // Worker health: a panicked worker is replaced, but the count must
    // stay visible — a spike that kills threads is a bug, not noise.
    println!("\npool health after the spike:");
    for pool in server.pool_snapshots() {
        println!(
            "  {:<16} completed={:<6} rejected={:<5} panicked={}",
            pool.name, pool.completed, pool.rejected, pool.panicked
        );
    }
    if let Some(breaker) = server.breaker() {
        println!(
            "db breaker: state={} opened={} half-open={} fast-failures={}",
            breaker.state().label(),
            breaker.opened_total(),
            breaker.half_open_total(),
            breaker.fast_failures(),
        );
    }
    let health = fetch(addr, Method::Get, "/healthz", &[])?;
    println!("\n/healthz: {}", String::from_utf8_lossy(&health.body));
    server.shutdown().expect("clean shutdown");
    Ok(())
}
