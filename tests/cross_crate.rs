//! Workspace-level integration tests spanning all crates through the
//! umbrella `staged_web` re-exports.

use staged_web::core::{App, BaselineServer, PageOutcome, RequestKind, ServerConfig, StagedServer};
use staged_web::db::{CostModel, Database, DbValue};
use staged_web::http::{fetch, fetch_with_timeout, Method, Response, StatusCode};
use staged_web::templates::{Context, TemplateStore, Value};
use staged_web::tpcw::{build_app, populate, ScaleConfig};
use std::sync::Arc;
use std::time::Duration;

/// The complete pipeline of the paper in one test: request → header
/// parse → classify → dynamic handler (SQL) → unrendered template →
/// render pool → Content-Length-exact response.
#[test]
fn full_pipeline_request_to_rendered_response() {
    let db = Arc::new(Database::new());
    let scale = ScaleConfig::tiny();
    populate(&db, &scale);
    let app = build_app(&db, &scale);
    let server = StagedServer::start(ServerConfig::small(), app, db).unwrap();

    let resp = fetch(server.addr(), Method::Get, "/home?c_id=3", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let text = resp.text();
    assert!(text.contains("Promotional items"));
    // Content-Length exactness (§3.2 of the paper).
    let declared: usize = resp.headers.get("content-length").unwrap().parse().unwrap();
    assert_eq!(declared, resp.body.len());
    server.shutdown().expect("clean shutdown");
}

/// The quick/lengthy classifier drives pool selection end to end:
/// after a lengthy page is observed, requests for it flow through the
/// lengthy pool while quick traffic keeps the general pool clear.
#[test]
fn classifier_routes_lengthy_pages_to_lengthy_pool() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    for i in 0..500 {
        db.execute(
            "INSERT INTO t (id, v) VALUES (?, ?)",
            &[DbValue::Int(i), DbValue::Int(i)],
        )
        .unwrap();
    }
    // Full scans cost ~500ms; point lookups are free. The scans must
    // dwarf the 30ms probe window below even on a machine that stalls,
    // and even when Table 1 spills part of the batch onto the general
    // pool's spare threads.
    db.set_cost_model(CostModel::new(1_000_000, 0));
    let app = App::builder()
        .route("/scan", "scan", |_r, db| {
            db.execute("SELECT COUNT(*) FROM t WHERE v >= 0", &[])?;
            Ok(PageOutcome::Body(Response::text("scanned")))
        })
        .route("/point", "point", |_r, db| {
            db.execute("SELECT v FROM t WHERE id = 1", &[])?;
            Ok(PageOutcome::Body(Response::text("point")))
        })
        .build();
    let mut config = ServerConfig::small();
    config.lengthy_cutoff = Duration::from_millis(5);
    let server = StagedServer::start(config, app, db).unwrap();
    let addr = server.addr();

    // Teach the classifier, then hit the lengthy page concurrently: the
    // two header workers dispatch the burst at once, and Table 1 must
    // still leave the reserved general thread to quick traffic.
    fetch(addr, Method::Get, "/scan", &[]).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || fetch(addr, Method::Get, "/scan", &[]).unwrap()))
        .collect();
    // Quick requests overtake the scans: the point lookup must finish
    // while lengthy work is still in flight (an ordering assertion,
    // robust to absolute timing noise on a loaded machine).
    std::thread::sleep(Duration::from_millis(30));
    let resp = fetch(addr, Method::Get, "/point", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    // A worker counts its completion before it takes its next job, so
    // a point lookup that waited behind a scan always sees it counted.
    let completed = |kind: RequestKind| {
        let labels = [("class", kind.label())];
        server
            .registry()
            .value("requests_completed_total", &labels)
            .unwrap()
    };
    assert_eq!(
        completed(RequestKind::LengthyDynamic),
        0.0,
        "the quick request must not wait for a lengthy scan"
    );
    let still_scanning = handles.iter().any(|h| !h.is_finished());
    assert!(
        still_scanning,
        "quick request should complete before the batch of lengthy scans"
    );
    for h in handles {
        h.join().unwrap();
    }
    // Completion counters move just after the response bytes are
    // written, so the client can observe its response a beat before
    // the worker increments; poll briefly for the counters to settle.
    // The `stats_completion_follows_send` model test (crates/check,
    // DESIGN.md §15) proves the send→increment ordering on every
    // explored interleaving — the counter always catches up, so this
    // poll converges and its direction is the only sound one.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while completed(RequestKind::LengthyDynamic) < 4.0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(completed(RequestKind::LengthyDynamic) >= 4.0);
    assert!(completed(RequestKind::QuickDynamic) >= 1.0);
    server.shutdown().expect("clean shutdown");
}

/// Both servers produce byte-identical page bodies for the same request
/// over the same data — the request-processing model must not change
/// application semantics.
#[test]
fn both_servers_render_identical_pages() {
    let scale = ScaleConfig::tiny();
    let targets = [
        "/home?c_id=7",
        "/product_detail?i_id=11&c_id=7",
        "/new_products?subject=HISTORY&c_id=7",
        "/best_sellers?subject=ARTS&c_id=7",
        "/execute_search?type=title&search=Star&c_id=7",
        "/order_display?c_id=7",
        "/search_request?c_id=7",
    ];
    let mut bodies: Vec<Vec<String>> = Vec::new();
    for staged in [false, true] {
        let db = Arc::new(Database::new());
        populate(&db, &scale);
        let app = build_app(&db, &scale);
        let server = if staged {
            StagedServer::start(ServerConfig::small(), app, db).unwrap()
        } else {
            BaselineServer::start(ServerConfig::small(), app, db).unwrap()
        };
        bodies.push(
            targets
                .iter()
                .map(|t| fetch(server.addr(), Method::Get, t, &[]).unwrap().text())
                .collect(),
        );
        server.shutdown().expect("clean shutdown");
    }
    for (i, target) in targets.iter().enumerate() {
        assert_eq!(
            bodies[0][i], bodies[1][i],
            "baseline and staged responses differ for {target}"
        );
    }
}

/// Both servers expose `GET /debug/explain`: after a page is served,
/// its route appears in the registry and `?route=<page>` renders every
/// statement it ran with its query-plan tree.
#[test]
fn both_servers_serve_explain_plans() {
    let scale = ScaleConfig::tiny();
    for staged in [false, true] {
        let db = Arc::new(Database::new());
        populate(&db, &scale);
        let app = build_app(&db, &scale);
        let server = if staged {
            StagedServer::start(ServerConfig::small(), app, db).unwrap()
        } else {
            BaselineServer::start(ServerConfig::small(), app, db).unwrap()
        };
        let addr = server.addr();

        // Unknown routes 404 until the page has been served once.
        let resp = fetch(addr, Method::Get, "/debug/explain?route=best_sellers", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND, "staged={staged}");

        fetch(addr, Method::Get, "/best_sellers?subject=ARTS&c_id=7", &[]).unwrap();

        let listing = fetch(addr, Method::Get, "/debug/explain", &[]).unwrap();
        assert_eq!(listing.status, StatusCode::OK);
        assert!(listing.text().contains("best_sellers"), "staged={staged}");

        let resp = fetch(addr, Method::Get, "/debug/explain?route=best_sellers", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "staged={staged}");
        let body = resp.text();
        assert!(body.contains("\"route\":\"best_sellers\""), "{body}");
        assert!(body.contains("\"sql\":"), "{body}");
        assert!(body.contains("\"node\":"), "{body}");
        // The best-sellers page runs `MAX(o_id)` (index-endpoint
        // shortcut) and a three-way join; both should be visible.
        assert!(body.contains("index_endpoint"), "staged={staged}: {body}");
        assert!(body.contains("join"), "staged={staged}: {body}");

        // The plan-node timing family is registered and populated
        // (Registry::value reads a histogram's sample count).
        let samples: f64 = staged_web::db::PLAN_NODE_KINDS
            .iter()
            .filter_map(|kind| {
                server
                    .registry()
                    .value("db_plan_node_seconds", &[("node", kind)])
            })
            .sum();
        assert!(samples > 0.0, "staged={staged}: no plan-node samples");

        server.shutdown().expect("clean shutdown");
    }
}

/// The template engine, database, and HTTP stack compose for custom
/// applications, not just the bundled TPC-W one.
#[test]
fn custom_app_composes_all_crates() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE note (id INT PRIMARY KEY, body TEXT)", &[])
        .unwrap();
    let templates = Arc::new(TemplateStore::new());
    templates
        .insert(
            "notes.html",
            "<ul>{% for n in notes %}<li>{{ n }}</li>{% empty %}<li>none</li>{% endfor %}</ul>",
        )
        .unwrap();
    let app = App::builder()
        .templates(templates)
        .route("/add", "add", |req, db| {
            let id = req.param_u64("id").unwrap_or(0) as i64;
            let body = req.param("body").unwrap_or("").to_string();
            db.execute(
                "INSERT INTO note (id, body) VALUES (?, ?)",
                &[DbValue::Int(id), DbValue::from(body.as_str())],
            )?;
            Ok(PageOutcome::Body(Response::text("added")))
        })
        .route("/notes", "notes", |_r, db| {
            let rows = db.execute("SELECT body FROM note ORDER BY id", &[])?;
            let mut ctx = Context::new();
            ctx.insert(
                "notes",
                Value::List(
                    rows.rows
                        .iter()
                        .map(|r| Value::from(r[0].to_string()))
                        .collect(),
                ),
            );
            Ok(PageOutcome::template("notes.html", ctx))
        })
        .build();
    let server = StagedServer::start(ServerConfig::small(), app, db).unwrap();
    let addr = server.addr();

    let empty = fetch(addr, Method::Get, "/notes", &[]).unwrap();
    assert!(empty.text().contains("<li>none</li>"));
    fetch(addr, Method::Get, "/add?id=1&body=hello+world", &[]).unwrap();
    fetch(
        addr,
        Method::Get,
        "/add?id=2&body=%3Cb%3Ebold%3C%2Fb%3E",
        &[],
    )
    .unwrap();
    let notes = fetch(addr, Method::Get, "/notes", &[]).unwrap().text();
    assert!(notes.contains("<li>hello world</li>"));
    // HTML injection from the database is escaped by the template layer.
    assert!(notes.contains("&lt;b&gt;bold&lt;/b&gt;"));
    assert!(!notes.contains("<b>bold</b>"));
    server.shutdown().expect("clean shutdown");
}

/// Connection-pool accounting holds across a busy multi-client run.
#[test]
fn connection_budget_is_respected_under_load() {
    let db = Arc::new(Database::new());
    let scale = ScaleConfig::tiny();
    populate(&db, &scale);
    let app = build_app(&db, &scale);
    let config = ServerConfig::small();
    let budget = config.db_connections;
    let server = StagedServer::start(config, app, db).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                for k in 0..6 {
                    let target = format!("/product_detail?i_id={}&c_id=1", i * 6 + k + 1);
                    let resp = fetch_with_timeout(
                        addr,
                        Method::Get,
                        &target,
                        &[],
                        Duration::from_secs(30),
                    )
                    .unwrap();
                    assert!(resp.status.is_success());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // All dynamic workers (= all connections) are idle again.
    for stage in ["general", "lengthy"] {
        let depth = server
            .registry()
            .value("stage_queue_depth", &[("stage", stage)]);
        assert_eq!(depth, Some(0.0), "{stage}");
    }
    assert!(budget >= 5);
    server.shutdown().expect("clean shutdown");
}

/// Failure injection: slow-loris partial requests, oversized requests,
/// and garbage do not wedge the staged server.
#[test]
fn hostile_clients_do_not_wedge_the_server() {
    use std::io::Write;
    let db = Arc::new(Database::new());
    let scale = ScaleConfig::tiny();
    populate(&db, &scale);
    let app = build_app(&db, &scale);
    let server = StagedServer::start(ServerConfig::small(), app, db).unwrap();
    let addr = server.addr();

    // Slow loris: send half a request line and hang (drop after).
    let mut loris = std::net::TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /home?c_").unwrap();

    // Garbage bytes.
    let mut garbage = std::net::TcpStream::connect(addr).unwrap();
    garbage
        .write_all(b"\x00\x01\x02\x03 nonsense\r\n\r\n")
        .unwrap();

    // An over-long URL.
    let long = format!("/home?junk={}", "x".repeat(64 * 1024));
    let _ = fetch(addr, Method::Get, &long, &[]);

    // Normal traffic still flows.
    for _ in 0..5 {
        let resp = fetch(addr, Method::Get, "/home?c_id=1", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }
    drop(loris);
    drop(garbage);
    server.shutdown().expect("clean shutdown");
}
