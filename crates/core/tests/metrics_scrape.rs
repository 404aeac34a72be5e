//! The scrape check: boots both servers, hits `GET /metrics`, and
//! validates the Prometheus exposition (format plus every promised
//! family, with the server-counter schema frozen), plus the
//! `GET /debug/traces` JSON ring. CI runs it with the rest of the
//! workspace's tests.

use staged_core::{App, BaselineServer, PageOutcome, ServerConfig, ServerHandle, StagedServer};
use staged_db::{Database, DbValue};
use staged_http::{fetch, Method, Response, StaticFiles, StatusCode};
use staged_metrics::validate_exposition;
use staged_templates::{Context, TemplateStore};
use std::sync::Arc;
use std::time::Duration;

fn demo_app() -> App {
    let templates = Arc::new(TemplateStore::new());
    templates
        .insert("page.html", "<html><body>{{ title }}</body></html>")
        .unwrap();
    let mut statics = StaticFiles::in_memory();
    statics.insert("/logo.png", b"PNG-bytes".to_vec());
    App::builder()
        .templates(templates)
        .static_files(statics)
        .route("/books", "books", |req, db| {
            let subject = req.param("subject").unwrap_or("SCIFI").to_string();
            db.execute(
                "SELECT title FROM book WHERE subject = ?",
                &[DbValue::from(subject.as_str())],
            )?;
            let mut ctx = Context::new();
            ctx.insert("title", subject);
            Ok(PageOutcome::template("page.html", ctx))
        })
        .route("/plain", "plain", |_req, _db| {
            Ok(PageOutcome::Body(Response::text("ok")))
        })
        .build()
}

fn demo_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE book (id INT PRIMARY KEY, title TEXT, subject TEXT)",
        &[],
    )
    .unwrap();
    db.execute(
        "INSERT INTO book (id, title, subject) VALUES (?, ?, ?)",
        &[
            DbValue::Int(1),
            DbValue::from("Dune"),
            DbValue::from("SCIFI"),
        ],
    )
    .unwrap();
    db
}

/// Completion counters move just after the response bytes are written;
/// wait for them so the scrape sees settled values.
fn settle(server: &ServerHandle, expected_total: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let completed = || server.registry().family_sum("requests_completed_total");
    while completed() < expected_total as f64 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn scrape(server: &ServerHandle) -> String {
    let resp = fetch(server.addr(), Method::Get, "/metrics", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(
        resp.headers.get("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    resp.text()
}

#[test]
fn staged_metrics_exposition_is_valid_and_complete() {
    let server = StagedServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    for _ in 0..3 {
        fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
    }
    fetch(server.addr(), Method::Get, "/logo.png", &[]).unwrap();
    fetch(server.addr(), Method::Get, "/plain", &[]).unwrap();
    settle(&server, 5);

    let text = scrape(&server);
    let samples = validate_exposition(&text).expect("exposition must parse");
    assert!(samples > 50, "suspiciously few samples: {samples}\n{text}");

    // Per-stage queue-wait and service-time histograms for every stage.
    for stage in ["header", "static", "general", "lengthy", "render"] {
        assert!(
            text.contains(&format!("stage_queue_depth{{stage=\"{stage}\"}}")),
            "missing queue depth for {stage}:\n{text}"
        );
        assert!(
            text.contains(&format!(
                "stage_queue_wait_seconds_bucket{{stage=\"{stage}\""
            )),
            "missing queue-wait histogram for {stage}"
        );
        assert!(
            text.contains(&format!("stage_service_seconds_bucket{{stage=\"{stage}\"")),
            "missing service-time histogram for {stage}"
        );
    }
    // Scheduler gauges.
    assert!(text.contains("scheduler_t_spare "));
    assert!(text.contains("scheduler_t_reserve "));
    // Shed/panic/reject counters for all five pools.
    for pool in [
        "header-parsing",
        "static",
        "general-dynamic",
        "lengthy-dynamic",
        "render",
    ] {
        for family in [
            "pool_completed_total",
            "pool_panics_total",
            "pool_rejected_total",
            "pool_busy_workers",
        ] {
            assert!(
                text.contains(&format!("{family}{{pool=\"{pool}\"}}")),
                "missing {family} for {pool}"
            );
        }
    }
    // Server counters and trace aggregates.
    assert!(text.contains("requests_completed_total{class=\"static\"} 1"));
    assert!(text.contains("sheds_total{point="));
    assert!(text.contains("errors_total "));
    assert!(text.contains("trace_outcomes_total{outcome=\"served\"}"));
    assert!(text.contains("request_duration_seconds_count"));
    // The per-page collector saw the routed pages.
    assert!(text.contains("page_service_seconds{page=\"books\"}"));

    // A second scrape also parses (the first scrape's own Probe trace
    // and histogram samples are now in the data).
    validate_exposition(&scrape(&server)).expect("second scrape must parse");
    server.shutdown().expect("clean shutdown");
}

/// The server-counter schema, frozen: every series of the server's own
/// counters is exported at `0` by a freshly started server of either
/// model (a `/metrics` scrape is a probe, not a completion). Dashboards
/// and the benchmark scrape these names, so they must not drift.
#[test]
fn server_counter_schema_is_frozen() {
    let mut expected: Vec<String> = ["static", "quick-dynamic", "lengthy-dynamic"]
        .iter()
        .map(|class| format!("requests_completed_total{{class=\"{class}\"}} 0"))
        .collect();
    expected.extend(
        [
            "listener",
            "static-stage",
            "general",
            "lengthy",
            "render",
            "keep-alive",
        ]
        .iter()
        .map(|point| format!("sheds_total{{point=\"{point}\"}} 0")),
    );
    expected.extend(
        [
            "errors",
            "dropped_connections",
            "handler_panics",
            "deadline_expired",
            "pool_starved",
            "chaos_killed",
            "chaos_stalled",
            "degraded",
            "stale_misses",
            "slowloris_kills",
        ]
        .iter()
        .map(|name| format!("{name}_total 0")),
    );
    assert_eq!(expected.len(), 19);
    for which in ["staged", "baseline"] {
        let server = if which == "staged" {
            StagedServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap()
        } else {
            BaselineServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap()
        };
        let text = scrape(&server);
        for series in &expected {
            assert!(
                text.lines().any(|line| line == series),
                "{which}: missing `{series}`\n{text}"
            );
        }
        server.shutdown().expect("clean shutdown");
    }
}

#[test]
fn staged_slow_trace_ring_serves_json() {
    let server = StagedServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    for _ in 0..4 {
        fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
    }
    settle(&server, 4);

    // Ring admission happens just after the completion counter moves;
    // poll briefly for the first served trace to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let body = loop {
        let resp = fetch(server.addr(), Method::Get, "/debug/traces", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("content-type"), Some("application/json"));
        let body = resp.text();
        assert!(
            body.starts_with("{\"traces\":["),
            "not a trace dump: {body}"
        );
        if body.starts_with("{\"traces\":[{") || std::time::Instant::now() > deadline {
            break body;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    // Served requests are ring-eligible; probes (/metrics, these
    // /debug/traces polls) are not.
    assert!(body.contains("\"page\":\"books\""), "{body}");
    assert!(body.contains("\"event\":\"enqueued\""), "{body}");
    assert!(body.contains("\"stage\":\"parse\""), "{body}");
    assert!(body.contains("\"total_us\":"), "{body}");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn baseline_metrics_exposition_is_valid() {
    let server = BaselineServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
    fetch(server.addr(), Method::Get, "/logo.png", &[]).unwrap();
    settle(&server, 2);

    let text = scrape(&server);
    validate_exposition(&text).expect("baseline exposition must parse");
    assert!(text.contains("stage_queue_depth{stage=\"worker\"}"));
    assert!(text.contains("stage_queue_wait_seconds_bucket{stage=\"worker\""));
    assert!(text.contains("stage_service_seconds_bucket{stage=\"worker\""));
    assert!(text.contains("pool_completed_total{pool=\"baseline-worker\"} 2"));
    // The thread-per-request model has no scheduler, but it traces
    // every request through the same pipeline.
    assert!(!text.contains("scheduler_t_spare"));
    assert!(!text.contains("scheduler_t_reserve"));
    assert!(text.contains("trace_outcomes_total{outcome=\"served\"} 2"));
    assert!(text.contains("request_duration_seconds_count 2"));

    let resp = fetch(server.addr(), Method::Get, "/debug/traces", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let body = resp.text();
    assert!(body.contains("\"page\":\"books\""), "{body}");
    server.shutdown().expect("clean shutdown");
}
