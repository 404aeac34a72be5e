//! Overload-control and fault-injection tests driving both servers
//! over real TCP: shed `503`s must be well-formed, deadlines must be
//! enforced, and fault-mode runs must finish with live workers and
//! positive goodput.

use staged_core::{
    App, BaselineServer, PageOutcome, ServerConfig, ServerHandle, ShedPoint, StagedServer,
};
use staged_db::{Database, DbValue, FaultPlan};
use staged_http::{fetch, fetch_with_timeout, Method, Response, StaticFiles, StatusCode};
use staged_templates::TemplateStore;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn demo_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE book (id INT PRIMARY KEY, title TEXT, subject TEXT)",
        &[],
    )
    .unwrap();
    for (id, title) in [(1, "Dune"), (2, "Excession"), (3, "Salt")] {
        db.execute(
            "INSERT INTO book (id, title, subject) VALUES (?, ?, ?)",
            &[
                DbValue::Int(id),
                DbValue::from(title),
                DbValue::from("SCIFI"),
            ],
        )
        .unwrap();
    }
    db
}

/// An app whose `/block` handler parks until `release` flips, plus a
/// plain `/books` query route and one static file.
fn gated_app(started: Arc<AtomicUsize>, release: Arc<AtomicBool>) -> App {
    let mut statics = StaticFiles::in_memory();
    statics.insert("/img/pixel.gif", b"GIF89a-pixel".to_vec());
    App::builder()
        .templates(Arc::new(TemplateStore::new()))
        .static_files(statics)
        .route("/block", "block", move |_req, _db| {
            started.fetch_add(1, Ordering::SeqCst);
            let wait = Instant::now();
            while !release.load(Ordering::SeqCst) {
                assert!(
                    wait.elapsed() < Duration::from_secs(10),
                    "gate never released"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(PageOutcome::Body(Response::text("unblocked")))
        })
        .route("/books", "books", |_req, db| {
            let result = db.execute("SELECT title FROM book ORDER BY title", &[])?;
            Ok(PageOutcome::Body(Response::text(format!(
                "{} books",
                result.rows.len()
            ))))
        })
        .build()
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Saturates `server`'s dynamic path with `blockers` parked `/block`
/// requests, then fires `extra` more and returns their responses.
fn saturate_and_probe(
    server: &ServerHandle,
    started: &Arc<AtomicUsize>,
    release: &Arc<AtomicBool>,
    blockers: usize,
    extra: usize,
) -> Vec<staged_http::ClientResponse> {
    let addr = server.addr();
    // Park the workers one at a time: with a capacity-1 queue, firing
    // all the blockers at once would shed some of them before an idle
    // worker gets a chance to pop.
    let holders: Vec<_> = (0..blockers)
        .map(|i| {
            let h = std::thread::spawn(move || {
                fetch_with_timeout(addr, Method::Get, "/block", &[], Duration::from_secs(20))
            });
            wait_for("worker to park", || started.load(Ordering::SeqCst) > i);
            h
        })
        .collect();
    // One more request can sit in the single queue slot; give it time to
    // land there before probing.
    let filler = std::thread::spawn(move || {
        fetch_with_timeout(addr, Method::Get, "/block", &[], Duration::from_secs(20))
    });
    std::thread::sleep(Duration::from_millis(150));

    let probes: Vec<_> = (0..extra)
        .map(|_| {
            std::thread::spawn(move || {
                fetch_with_timeout(addr, Method::Get, "/block", &[], Duration::from_secs(20))
            })
        })
        .collect();
    let responses: Vec<_> = probes
        .into_iter()
        .map(|h| h.join().unwrap().expect("shed response must still parse"))
        .collect();

    release.store(true, Ordering::SeqCst);
    for h in holders {
        let resp = h.join().unwrap().expect("parked request must complete");
        assert_eq!(resp.status, StatusCode::OK);
    }
    let _ = filler.join().unwrap();
    responses
}

/// A server whose dynamic path is one worker behind a one-slot queue
/// (every queue holds `workers × queue_factor` jobs), with enough header
/// workers and header-queue room that a burst of four probes is never
/// shed before it reaches that queue.
fn one_slot_config() -> ServerConfig {
    ServerConfig {
        header_workers: 4,
        general_workers: 1,
        baseline_workers: 1,
        min_reserve: 0,
        max_reserve: 0,
        queue_factor: 1,
        ..ServerConfig::small()
    }
}

/// Requests shed at `point`.
fn sheds_at(server: &ServerHandle, point: ShedPoint) -> u64 {
    let labels = [("point", point.label())];
    server.registry().value("sheds_total", &labels).unwrap() as u64
}

fn assert_shed_response(resp: &staged_http::ClientResponse, which: &str) {
    assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE, "{which}");
    let retry: u64 = resp
        .headers
        .get("retry-after")
        .unwrap_or_else(|| panic!("{which}: shed 503 must carry Retry-After"))
        .parse()
        .expect("Retry-After must be integral seconds");
    assert!(retry >= 1, "{which}");
    assert_eq!(
        resp.headers.get("connection"),
        Some("close"),
        "{which}: shed 503 must close the connection"
    );
    // The body (if any) matched Content-Length exactly, or the close was
    // clean EOF — otherwise `fetch` would have errored.
}

#[test]
fn staged_sheds_parseable_503_when_dynamic_queue_fills() {
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let config = one_slot_config();
    let server = StagedServer::start(
        config.clone(),
        gated_app(started.clone(), release.clone()),
        demo_db(),
    )
    .unwrap();

    let responses = saturate_and_probe(&server, &started, &release, config.general_workers, 4);
    let sheds = responses
        .iter()
        .filter(|r| r.status == StatusCode::SERVICE_UNAVAILABLE)
        .count();
    assert!(sheds >= 3, "expected most probes shed, got {sheds}/4");
    for resp in responses
        .iter()
        .filter(|r| r.status == StatusCode::SERVICE_UNAVAILABLE)
    {
        assert_shed_response(resp, "staged");
    }

    // Static requests stay admitted while the dynamic stage is refusing
    // work — the whole point of per-stage queues.
    let general = sheds_at(&server, ShedPoint::General);
    assert!(general >= 3, "sheds recorded per stage");
    assert_eq!(
        server.registry().family_sum("sheds_total") as u64,
        general,
        "no stage but the general queue shed"
    );
    let snapshot = server
        .pool_snapshots()
        .into_iter()
        .find(|p| p.name == "general-dynamic")
        .expect("general pool snapshot");
    assert_eq!(snapshot.rejected, general);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn staged_static_path_survives_dynamic_saturation() {
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let config = one_slot_config();
    let server = StagedServer::start(
        config.clone(),
        gated_app(started.clone(), release.clone()),
        demo_db(),
    )
    .unwrap();
    let addr = server.addr();

    let holders: Vec<_> = (0..config.general_workers)
        .map(|i| {
            let h = std::thread::spawn(move || {
                fetch_with_timeout(addr, Method::Get, "/block", &[], Duration::from_secs(20))
            });
            wait_for("worker to park", || started.load(Ordering::SeqCst) > i);
            h
        })
        .collect();

    // Every dynamic worker is parked, yet statics are served promptly.
    for _ in 0..5 {
        let resp = fetch(addr, Method::Get, "/img/pixel.gif", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body, b"GIF89a-pixel");
    }
    assert_eq!(sheds_at(&server, ShedPoint::StaticStage), 0);

    release.store(true, Ordering::SeqCst);
    for h in holders {
        assert!(h.join().unwrap().unwrap().status.is_success());
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn baseline_sheds_parseable_503_when_worker_queue_fills() {
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let config = one_slot_config();
    let server = BaselineServer::start(
        config.clone(),
        gated_app(started.clone(), release.clone()),
        demo_db(),
    )
    .unwrap();

    let responses = saturate_and_probe(&server, &started, &release, config.baseline_workers, 4);
    let sheds = responses
        .iter()
        .filter(|r| r.status == StatusCode::SERVICE_UNAVAILABLE)
        .count();
    assert!(sheds >= 3, "expected most probes shed, got {sheds}/4");
    for resp in responses
        .iter()
        .filter(|r| r.status == StatusCode::SERVICE_UNAVAILABLE)
    {
        assert_shed_response(resp, "baseline");
    }
    // The baseline can only shed at its front door.
    let listener = sheds_at(&server, ShedPoint::Listener);
    assert!(listener >= 3);
    let snapshot = &server.pool_snapshots()[0];
    assert_eq!(snapshot.name, "baseline-worker");
    assert_eq!(snapshot.rejected, listener);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn expired_deadlines_answer_503_on_both_servers() {
    for which in ["baseline", "staged"] {
        let mut config = ServerConfig::small();
        config.request_deadline = Some(Duration::ZERO);
        let started = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(true));
        let app = gated_app(started, release);
        let server: ServerHandle = if which == "baseline" {
            BaselineServer::start(config, app, demo_db()).unwrap()
        } else {
            StagedServer::start(config, app, demo_db()).unwrap()
        };
        let resp = fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE, "{which}");
        assert!(resp.headers.get("retry-after").is_some(), "{which}");
        assert!(
            server.registry().value("deadline_expired_total", &[]) >= Some(1.0),
            "{which}: expiry must be counted"
        );
        server.shutdown().expect("clean shutdown");
    }
}

/// A full fault-mode run: query errors, added latency and periodic
/// connection death all at once. The run must
/// terminate (no hangs), no worker may die, and goodput must stay
/// positive on both servers.
#[test]
fn fault_mode_run_keeps_both_servers_alive() {
    for which in ["baseline", "staged"] {
        let mut config = ServerConfig::small();
        config.fault_plan = Some(
            FaultPlan::seeded(0x0d5e)
                .error_rate(0.05)
                .extra_latency(Duration::from_millis(1))
                .death_period(17),
        );
        let started = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(true));
        let app = gated_app(started, release);
        let server: ServerHandle = if which == "baseline" {
            BaselineServer::start(config, app, demo_db()).unwrap()
        } else {
            StagedServer::start(config, app, demo_db()).unwrap()
        };
        let addr = server.addr();

        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut ok = 0u64;
                    for n in 0..30 {
                        let path = if (i + n) % 3 == 0 {
                            "/img/pixel.gif"
                        } else {
                            "/books"
                        };
                        if let Ok(resp) =
                            fetch_with_timeout(addr, Method::Get, path, &[], Duration::from_secs(5))
                        {
                            if resp.status.is_success() {
                                ok += 1;
                            }
                        }
                    }
                    ok
                })
            })
            .collect();
        let ok: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(ok > 0, "{which}: goodput must stay positive under faults");

        for pool in server.pool_snapshots() {
            assert_eq!(
                pool.panicked, 0,
                "{which}: pool {} lost a worker",
                pool.name
            );
        }
        // The server is still answering after the storm (statics bypass
        // the fault plan).
        let alive = (0..20).any(|_| {
            fetch(addr, Method::Get, "/img/pixel.gif", &[]).is_ok_and(|r| r.status.is_success())
        });
        assert!(alive, "{which}: server dead after fault run");
        server.shutdown().expect("clean shutdown");
    }
}

/// Connection death alone: every query eventually rides a fresh
/// connection, so serial requests keep succeeding.
#[test]
fn connection_death_is_recovered_transparently() {
    for which in ["baseline", "staged"] {
        let mut config = ServerConfig::small();
        config.fault_plan = Some(FaultPlan::seeded(9).death_period(4));
        let started = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(true));
        let app = gated_app(started, release);
        let server: ServerHandle = if which == "baseline" {
            BaselineServer::start(config, app, demo_db()).unwrap()
        } else {
            StagedServer::start(config, app, demo_db()).unwrap()
        };
        let mut ok = 0;
        for _ in 0..30 {
            let resp = fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
            if resp.status.is_success() {
                ok += 1;
            }
        }
        assert!(
            ok >= 27,
            "{which}: dead connections must be replaced, got {ok}/30"
        );
        for pool in server.pool_snapshots() {
            assert_eq!(pool.panicked, 0, "{which}");
        }
        server.shutdown().expect("clean shutdown");
    }
}
