//! The degradation ladder under a real database outage, over real TCP:
//! fresh renders while healthy, stale copies (`Warning: 110`) while the
//! circuit breaker is open, `503` + `Retry-After` only when no stale
//! copy exists — and full recovery through the breaker's half-open
//! probes once the database heals.

use staged_core::{
    App, BaselineServer, BreakerConfig, BreakerState, PageOutcome, ServerConfig, ServerHandle,
    StagedServer,
};
use staged_db::{Database, DbValue, FaultPlan};
use staged_http::{fetch, Method, StatusCode};
use staged_templates::{Context, TemplateStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STALE_WARNING: &str = "110 - \"Response is Stale\"";

fn demo_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE book (id INT PRIMARY KEY, title TEXT)", &[])
        .unwrap();
    for (id, title) in [(1, "Dune"), (2, "Excession")] {
        db.execute(
            "INSERT INTO book (id, title) VALUES (?, ?)",
            &[DbValue::Int(id), DbValue::from(title)],
        )
        .unwrap();
    }
    db
}

/// A breaker tuned for test speed: trips after two observed failures,
/// probes again 200 ms later.
fn test_breaker() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        failure_threshold: 0.5,
        min_samples: 2,
        cooldown: Duration::from_millis(200),
        half_open_probes: 1,
    }
}

/// Two template-rendered query pages — `/books` marked stale-cacheable,
/// `/uncached` not — plus a cache-marked page that is never fetched
/// while healthy (`/never_warm`), to prove the 503 rung, and an
/// uncached page that always holds its dynamic worker for 400 ms
/// (`/slow`).
fn ladder_app(slow: Arc<AtomicBool>) -> App {
    let templates = Arc::new(TemplateStore::new());
    templates
        .insert("books.html", "<ul>{{ count }} books</ul>")
        .unwrap();
    let query = |slow: Option<Arc<AtomicBool>>| {
        move |_req: &staged_http::Request, db: &staged_db::PooledConnection| {
            if let Some(s) = &slow {
                if s.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(120));
                }
            }
            let result = db.execute("SELECT title FROM book ORDER BY title", &[])?;
            let mut ctx = Context::new();
            ctx.insert("count", result.rows.len().to_string());
            Ok(PageOutcome::template("books.html", ctx))
        }
    };
    App::builder()
        .templates(templates)
        .route("/books", "books", query(Some(Arc::clone(&slow))))
        .route("/uncached", "uncached", query(Some(slow)))
        .route("/never_warm", "never_warm", query(None))
        .route("/slow", "slow", |_req, _db| {
            std::thread::sleep(Duration::from_millis(400));
            Ok(PageOutcome::Body(staged_http::Response::html("slow")))
        })
        .stale_cacheable("/books")
        .stale_cacheable("/never_warm")
        .build()
}

fn outage() -> FaultPlan {
    FaultPlan::seeded(7).error_rate(1.0)
}

/// Polls `fetch` until `accept` passes or the deadline lapses.
fn fetch_until(
    server: &ServerHandle,
    path: &str,
    what: &str,
    accept: impl Fn(&staged_http::ClientResponse) -> bool,
) -> staged_http::ClientResponse {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(resp) = fetch(server.addr(), Method::Get, path, &[]) {
            if accept(&resp) {
                return resp;
            }
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn healthz_body(server: &ServerHandle) -> String {
    let resp = fetch(server.addr(), Method::Get, "/healthz", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    String::from_utf8(resp.body.clone()).unwrap()
}

/// One of the server's flat `*_total` counters.
fn counter(server: &ServerHandle, name: &str) -> f64 {
    server
        .registry()
        .value(name, &[])
        .expect("registered counter")
}

#[test]
fn staged_ladder_outage_brownout_recovery() {
    let mut config = ServerConfig::small();
    config.breaker = Some(test_breaker());
    let server = StagedServer::start(
        config,
        ladder_app(Arc::new(AtomicBool::new(false))),
        demo_db(),
    )
    .unwrap();

    // Rung 1 — healthy: a fresh render, no staleness markers, and the
    // response warms the response cache.
    let fresh = fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
    assert_eq!(fresh.status, StatusCode::OK);
    assert!(fresh.headers.get("warning").is_none());
    assert_eq!(fresh.body, b"<ul>2 books</ul>");

    // Rung 2 — outage: every query fails, the breaker trips, and the
    // cached page is served stale with the RFC 7234 markers.
    server.set_fault_plan(Some(outage()));
    let stale = fetch_until(&server, "/books", "a stale 200 during the outage", |r| {
        r.status == StatusCode::OK && r.headers.get("warning").is_some()
    });
    assert_eq!(stale.headers.get("warning"), Some(STALE_WARNING));
    assert!(stale.headers.get("age").is_some(), "stale 200 carries Age");
    assert_eq!(stale.body, b"<ul>2 books</ul>");
    assert!(counter(&server, "degraded_total") >= 1.0);

    let breaker = server.breaker().expect("breaker configured");
    assert!(breaker.opened_total() >= 1, "breaker must have opened");
    let health = healthz_body(&server);
    assert!(
        health.contains("\"state\":\"open\"") || health.contains("\"state\":\"half-open\""),
        "breaker state visible in /healthz: {health}"
    );
    assert!(health.contains("\"degraded\":"), "{health}");

    // Cache-marked but never warmed: falls to the bottom rung — a
    // well-formed 503 with Retry-After, counted as a stale miss.
    let miss = fetch_until(&server, "/never_warm", "a 503 for the unwarmed page", |r| {
        r.status == StatusCode::SERVICE_UNAVAILABLE
    });
    assert!(miss.headers.get("retry-after").is_some());
    assert!(counter(&server, "stale_misses_total") >= 1.0);

    // Rung 3 — recovery: the database heals, a half-open probe
    // succeeds, the breaker closes, and responses are fresh again.
    server.set_fault_plan(None);
    let recovered = fetch_until(&server, "/books", "a fresh 200 after healing", |r| {
        r.status == StatusCode::OK && r.headers.get("warning").is_none()
    });
    assert_eq!(recovered.body, b"<ul>2 books</ul>");
    let wait = Instant::now() + Duration::from_secs(5);
    while breaker.state() != BreakerState::Closed {
        assert!(Instant::now() < wait, "breaker never closed after healing");
        let _ = fetch(server.addr(), Method::Get, "/books", &[]);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        breaker.half_open_total() >= 1,
        "recovery went via half-open"
    );
    assert!(healthz_body(&server).contains("\"state\":\"closed\""));

    for pool in server.pool_snapshots() {
        assert_eq!(pool.panicked, 0, "pool {} lost a worker", pool.name);
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn baseline_breaker_fails_fast_and_recovers_without_stale() {
    let mut config = ServerConfig::small();
    config.breaker = Some(test_breaker());
    let server = BaselineServer::start(
        config,
        ladder_app(Arc::new(AtomicBool::new(false))),
        demo_db(),
    )
    .unwrap();

    let fresh = fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
    assert_eq!(fresh.status, StatusCode::OK);

    server.set_fault_plan(Some(outage()));
    let shed = fetch_until(&server, "/books", "a breaker-open 503", |r| {
        r.status == StatusCode::SERVICE_UNAVAILABLE
    });
    // No response cache on the baseline — the paper's comparison model
    // stays untouched; outage requests get the 503 rung directly.
    assert!(shed.headers.get("warning").is_none());
    assert!(shed.headers.get("retry-after").is_some());
    let breaker = server.breaker().expect("breaker configured");
    assert!(breaker.opened_total() >= 1);

    // Open-breaker requests fail fast instead of burning the checkout
    // backoff: a round trip is bounded well under a second.
    let t = Instant::now();
    let fast = fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
    assert_eq!(fast.status, StatusCode::SERVICE_UNAVAILABLE);
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "open breaker must fail fast, took {:?}",
        t.elapsed()
    );

    server.set_fault_plan(None);
    let recovered = fetch_until(&server, "/books", "a fresh 200 after healing", |r| {
        r.status == StatusCode::OK
    });
    assert!(recovered.headers.get("warning").is_none());
    for pool in server.pool_snapshots() {
        assert_eq!(pool.panicked, 0);
    }
    server.shutdown().expect("clean shutdown");
}

/// Deadline propagation into the render stage: a request whose budget
/// was spent generating data must not be rendered. With a stale copy on
/// hand the server downgrades to it (and closes the connection); the
/// expiry is counted either way.
#[test]
fn expired_render_jobs_downgrade_to_stale_not_fresh_render() {
    let slow = Arc::new(AtomicBool::new(false));
    let mut config = ServerConfig::small();
    config.request_deadline = Some(Duration::from_millis(60));
    let server = StagedServer::start(config, ladder_app(Arc::clone(&slow)), demo_db()).unwrap();

    // Warm the cache while fast.
    let fresh = fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
    assert_eq!(fresh.status, StatusCode::OK);

    // Now every `/books` data generation overshoots the whole budget,
    // so the job reaches the render queue already expired.
    slow.store(true, Ordering::SeqCst);
    let resp = fetch_until(&server, "/books", "a stale downgrade on expiry", |r| {
        r.status == StatusCode::OK && r.headers.get("warning").is_some()
    });
    assert_eq!(resp.headers.get("warning"), Some(STALE_WARNING));
    assert_eq!(
        resp.headers.get("connection"),
        Some("close"),
        "an expired request's client may be gone; do not keep it alive"
    );
    assert!(counter(&server, "deadline_expired_total") >= 1.0);
    assert!(counter(&server, "degraded_total") >= 1.0);

    // The same expiry without a stale copy is a plain 503 — never a
    // fresh render of a request nobody is waiting for.
    let resp = fetch_until(&server, "/uncached", "a 503 on uncached expiry", |r| {
        r.status != StatusCode::OK
    });
    assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
    server.shutdown().expect("clean shutdown");
}

/// Deadline propagation into the dynamic queues: with every general
/// dynamic worker parked on a slow uncached page, a warmed cache-marked
/// page spends its whole budget waiting in the general queue. It is
/// downgraded to its stale copy (and the connection closed), not
/// answered `503` while a valid copy exists.
#[test]
fn expired_dynamic_jobs_downgrade_to_stale() {
    let mut config = ServerConfig::small();
    config.request_deadline = Some(Duration::from_millis(100));
    let general_workers = config.general_workers;
    let server = StagedServer::start(
        config,
        ladder_app(Arc::new(AtomicBool::new(false))),
        demo_db(),
    )
    .unwrap();
    let addr = server.addr();
    let fresh = fetch(addr, Method::Get, "/books", &[]).unwrap();
    assert_eq!(fresh.status, StatusCode::OK);

    // An unmeasured page classifies quick, so every `/slow` goes to
    // the general pool: one per worker, plus one queued.
    let parked: Vec<_> = (0..=general_workers)
        .map(|_| std::thread::spawn(move || fetch(addr, Method::Get, "/slow", &[])))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server
        .pool_snapshots()
        .iter()
        .find(|p| p.name == "general-dynamic")
        .map_or(0, |p| p.busy)
        < general_workers
    {
        assert!(Instant::now() < deadline, "general pool never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    let resp = fetch(addr, Method::Get, "/books", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK, "expired in the general queue");
    assert_eq!(resp.headers.get("warning"), Some(STALE_WARNING));
    assert_eq!(resp.headers.get("connection"), Some("close"));
    assert_eq!(resp.body, b"<ul>2 books</ul>");
    assert!(counter(&server, "deadline_expired_total") >= 1.0);
    assert!(counter(&server, "degraded_total") >= 1.0);
    for p in parked {
        let _ = p.join().expect("a /slow client thread panicked");
    }
    server.shutdown().expect("clean shutdown");
}

/// Pre-rendered (`PageOutcome::Body`) pages bypass the render stage,
/// but cache-marked HTML 200s must still join the stale ladder.
#[test]
fn prerendered_body_pages_participate_in_stale_ladder() {
    let mut config = ServerConfig::small();
    config.breaker = Some(test_breaker());
    let app = App::builder()
        .route("/pre", "pre", |_req, db| {
            let r = db.execute("SELECT COUNT(*) FROM book", &[])?;
            Ok(PageOutcome::Body(staged_http::Response::html(format!(
                "<p>{} books</p>",
                r.single_int().unwrap_or(0)
            ))))
        })
        .stale_cacheable("/pre")
        .build();
    let server = StagedServer::start(config, app, demo_db()).unwrap();

    let fresh = fetch(server.addr(), Method::Get, "/pre", &[]).unwrap();
    assert_eq!(fresh.status, StatusCode::OK);
    assert!(fresh.headers.get("warning").is_none());

    server.set_fault_plan(Some(outage()));
    let stale = fetch_until(&server, "/pre", "a stale pre-rendered 200", |r| {
        r.status == StatusCode::OK && r.headers.get("warning").is_some()
    });
    assert_eq!(stale.headers.get("warning"), Some(STALE_WARNING));
    assert_eq!(stale.body, b"<p>2 books</p>");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn health_endpoints_report_state_on_both_servers() {
    for which in ["baseline", "staged"] {
        let mut config = ServerConfig::small();
        config.breaker = Some(test_breaker());
        let app = ladder_app(Arc::new(AtomicBool::new(false)));
        let server: ServerHandle = if which == "baseline" {
            BaselineServer::start(config, app, demo_db()).unwrap()
        } else {
            StagedServer::start(config, app, demo_db()).unwrap()
        };

        let health = fetch(server.addr(), Method::Get, "/healthz", &[]).unwrap();
        assert_eq!(health.status, StatusCode::OK, "{which}");
        assert_eq!(
            health.headers.get("content-type"),
            Some("application/json"),
            "{which}"
        );
        let body = String::from_utf8(health.body).unwrap();
        assert!(body.contains("\"phase\":\"ready\""), "{which}: {body}");
        assert!(body.contains("\"state\":\"closed\""), "{which}: {body}");
        assert!(body.contains("\"queues\":{"), "{which}: {body}");
        assert!(body.contains("\"pools\":["), "{which}: {body}");
        assert!(body.contains("\"panicked\":0"), "{which}: {body}");
        if which == "staged" {
            assert!(body.contains("\"t_reserve\":"), "{which}: {body}");
        } else {
            assert!(!body.contains("\"scheduler\""), "{which}: {body}");
        }

        let ready = fetch(server.addr(), Method::Get, "/readyz", &[]).unwrap();
        assert_eq!(ready.status, StatusCode::OK, "{which}");
        assert!(server.readiness().is_ready(), "{which}");

        // Health probes are not completions; the goodput series must
        // not be skewed by monitoring traffic.
        assert_eq!(
            server.registry().family_sum("requests_completed_total"),
            0.0,
            "{which}"
        );
        server.shutdown().expect("clean shutdown");
    }
}
