//! The paper's §3.3 suggested extension: quick/lengthy splitting of the
//! template-rendering stage, tracked per template.

use staged_core::{App, PageOutcome, ServerConfig, StagedServer};
use staged_db::Database;
use staged_http::{fetch, Method, StatusCode};
use staged_templates::{Context, TemplateStore, Value};
use std::sync::Arc;
use std::time::Duration;

fn app_with_two_templates() -> App {
    let templates = Arc::new(TemplateStore::new());
    templates.insert("tiny.html", "<p>{{ n }}</p>").unwrap();
    templates
        .insert(
            "huge.html",
            "<ul>{% for x in xs %}<li>{{ x }} and {{ x|add:1 }}</li>{% endfor %}</ul>",
        )
        .unwrap();
    App::builder()
        .templates(templates)
        // Render weight makes big pages measurably slow to render.
        .render_weight_per_kb(Duration::from_millis(2))
        .route("/tiny", "tiny", |_r, _db| {
            let mut ctx = Context::new();
            ctx.insert("n", 1);
            Ok(PageOutcome::template("tiny.html", ctx))
        })
        .route("/huge", "huge", |_r, _db| {
            let mut ctx = Context::new();
            ctx.insert("xs", Value::List((0..2_000).map(Value::Int).collect()));
            Ok(PageOutcome::template("huge.html", ctx))
        })
        .build()
}

fn config(split: bool) -> ServerConfig {
    ServerConfig {
        split_render: split,
        render_cutoff: Duration::from_millis(5),
        render_workers: 4,
        ..ServerConfig::small()
    }
}

#[test]
fn split_render_exposes_lengthy_gauge_and_serves_both_classes() {
    let server = StagedServer::start(
        config(true),
        app_with_two_templates(),
        Arc::new(Database::new()),
    )
    .unwrap();
    assert!(server
        .registry()
        .gauge_read("stage_queue_depth", &[("stage", "render-lengthy")])
        .is_some());
    let addr = server.addr();

    // Teach the render tracker that /huge renders slowly.
    let resp = fetch(addr, Method::Get, "/huge", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert!(resp.body.len() > 20_000);

    // Both template classes keep serving correctly afterwards.
    for _ in 0..3 {
        let tiny = fetch(addr, Method::Get, "/tiny", &[]).unwrap();
        assert_eq!(tiny.text(), "<p>1</p>");
        let huge = fetch(addr, Method::Get, "/huge", &[]).unwrap();
        assert_eq!(huge.status, StatusCode::OK);
    }
    // Completion counters are incremented just after the response is
    // written; wait for them to settle.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.stats().total_completed() < 7 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.stats().total_completed(), 7);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn split_render_protects_quick_renders_from_slow_ones() {
    let server = StagedServer::start(
        config(true),
        app_with_two_templates(),
        Arc::new(Database::new()),
    )
    .unwrap();
    let addr = server.addr();
    // Classify /huge as render-lengthy.
    fetch(addr, Method::Get, "/huge", &[]).unwrap();

    // Saturate rendering with slow pages…
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || fetch(addr, Method::Get, "/huge", &[]).unwrap()))
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    // …while a quick render completes before that batch is done.
    let tiny = fetch(addr, Method::Get, "/tiny", &[]).unwrap();
    assert_eq!(tiny.status, StatusCode::OK);
    let still_rendering = handles.iter().any(|h| !h.is_finished());
    assert!(
        still_rendering,
        "quick render should overtake the lengthy-render backlog"
    );
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn default_config_has_no_lengthy_render_pool() {
    let server = StagedServer::start(
        config(false),
        app_with_two_templates(),
        Arc::new(Database::new()),
    )
    .unwrap();
    assert!(server
        .registry()
        .gauge_read("stage_queue_depth", &[("stage", "render-lengthy")])
        .is_none());
    let resp = fetch(server.addr(), Method::Get, "/huge", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    server.shutdown().expect("clean shutdown");
}
