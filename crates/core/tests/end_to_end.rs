//! End-to-end tests driving every server model over real TCP.

use staged_core::{
    App, BaselineServer, PageOutcome, RequestKind, ServerConfig, ServerHandle, ShedPoint,
    StagedServer,
};
use staged_db::{Database, DbValue};
use staged_http::{fetch, Method, Response, StaticFiles, StatusCode};
use staged_templates::{Context, TemplateStore, Value};
use std::sync::Arc;
use std::time::Duration;

fn demo_app() -> App {
    let templates = Arc::new(TemplateStore::new());
    templates
        .insert(
            "page.html",
            "<html><head><title>{{ title }}</title></head>\
             <body><ul>{% for b in books %}<li>{{ b }}</li>{% endfor %}</ul></body></html>",
        )
        .unwrap();
    let mut statics = StaticFiles::in_memory();
    statics.insert("/img/flowers.gif", b"GIF89a-flowers".to_vec());
    App::builder()
        .templates(templates)
        .static_files(statics)
        .route("/books", "books", |req, db| {
            let subject = req.param("subject").unwrap_or("SCIFI").to_string();
            let result = db.execute(
                "SELECT title FROM book WHERE subject = ? ORDER BY title",
                &[DbValue::from(subject.as_str())],
            )?;
            let mut ctx = Context::new();
            ctx.insert("title", subject);
            ctx.insert(
                "books",
                Value::from(
                    result
                        .rows
                        .iter()
                        .map(|r| Value::from(r[0].to_string()))
                        .collect::<Vec<_>>(),
                ),
            );
            Ok(PageOutcome::template("page.html", ctx))
        })
        .route("/prerendered", "prerendered", |_req, _db| {
            Ok(PageOutcome::Body(Response::html("<p>old-style page</p>")))
        })
        .route("/explode", "explode", |_req, _db| {
            panic!("handler bug");
        })
        .route_pattern("/book/:id", "book", |req, _db| {
            Ok(PageOutcome::Body(Response::text(format!(
                "book={}",
                req.param("id").unwrap_or("?")
            ))))
        })
        .route("/slow", "slow", |_req, db| {
            // A full scan, lengthy by construction.
            db.execute("SELECT COUNT(*) FROM book WHERE title LIKE '%a%'", &[])?;
            std::thread::sleep(Duration::from_millis(5));
            Ok(PageOutcome::Body(Response::text("slow done")))
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
    db.execute("CREATE INDEX ON book (subject)", &[]).unwrap();
    for (id, title, subject) in [
        (1, "Dune", "SCIFI"),
        (2, "Excession", "SCIFI"),
        (3, "Salt", "COOKING"),
    ] {
        db.execute(
            "INSERT INTO book (id, title, subject) VALUES (?, ?, ?)",
            &[
                DbValue::Int(id),
                DbValue::from(title),
                DbValue::from(subject),
            ],
        )
        .unwrap();
    }
    db
}

/// Completion counters are incremented just after the response bytes are
/// written, so a client can observe its response marginally before the
/// counter moves; wait for the counters to settle.
fn settle(server: &ServerHandle, expected_total: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let completed = || server.registry().family_sum("requests_completed_total");
    while completed() < expected_total as f64 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Every series of the server's own counters, read from the registry as
/// `(family{label=value}, count)`.
fn server_counters(server: &ServerHandle) -> Vec<(String, f64)> {
    let registry = server.registry();
    let mut out: Vec<(String, f64)> = RequestKind::ALL
        .iter()
        .map(|kind| ("requests_completed_total", "class", kind.label()))
        .chain(
            ShedPoint::ALL
                .iter()
                .map(|point| ("sheds_total", "point", point.label())),
        )
        .map(|(family, key, value)| {
            let count = registry.value(family, &[(key, value)]).unwrap();
            (format!("{family}{{{key}={value}}}"), count)
        })
        .collect();
    for family in [
        "errors_total",
        "dropped_connections_total",
        "handler_panics_total",
        "deadline_expired_total",
        "pool_starved_total",
        "slowloris_kills_total",
    ] {
        out.push((family.to_string(), registry.value(family, &[]).unwrap()));
    }
    out
}

/// Runs `test` against each stage→pool map: thread-per-request and the
/// paper's five pools.
fn each_server(test: impl Fn(&ServerHandle, &str)) {
    let baseline = BaselineServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    test(&baseline, "baseline");
    baseline.shutdown().expect("clean shutdown");

    let staged = StagedServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    test(&staged, "staged");
    staged.shutdown().expect("clean shutdown");
}

/// Sends raw request bytes on a fresh connection and reads until the
/// server closes it; returns the status line and the body.
fn raw_exchange(addr: std::net::SocketAddr, request: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// The models differ only in which thread runs which stage, so one
/// scripted sequence must produce the same responses and the same
/// server counters under every map.
#[test]
fn every_map_answers_the_same_script_identically() {
    const SCRIPT: [(&str, &str); 8] = [
        ("static hit", "GET /img/flowers.gif HTTP/1.1"),
        ("static 404", "GET /no-such.png HTTP/1.1"),
        ("routed page", "GET /books?subject=COOKING HTTP/1.1"),
        ("unrouted path", "GET /no-such-page HTTP/1.1"),
        ("HEAD", "HEAD /prerendered HTTP/1.1"),
        ("pattern capture", "GET /book/42 HTTP/1.1"),
        ("malformed request line", "NONSENSE REQUEST LINE"),
        ("probe", "GET /healthz HTTP/1.1"),
    ];
    /// One map's run: its name, each step's (status line, body), and
    /// the server counters afterwards.
    type Run = (String, Vec<(String, String)>, Vec<(String, f64)>);
    let runs: std::cell::RefCell<Vec<Run>> = Default::default();
    each_server(|server, which| {
        let answers = SCRIPT
            .iter()
            .map(|(step, line)| {
                let (status, body) = raw_exchange(
                    server.addr(),
                    &format!("{line}\r\nConnection: close\r\n\r\n"),
                );
                // The health payload names the model's own queues and
                // pools; only its status line is comparable.
                let body = if *step == "probe" {
                    String::new()
                } else {
                    body
                };
                (status, body)
            })
            .collect();
        // Every connection was read to its close, which follows the
        // counter updates: the counters are settled.
        runs.borrow_mut()
            .push((which.to_string(), answers, server_counters(server)));
    });
    let runs = runs.into_inner();
    let (_, expected_answers, expected_stats) = &runs[0];
    let statuses: Vec<&str> = expected_answers.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(
        statuses,
        [
            "HTTP/1.1 200 OK",
            "HTTP/1.1 404 Not Found",
            "HTTP/1.1 200 OK",
            "HTTP/1.1 404 Not Found",
            "HTTP/1.1 200 OK",
            "HTTP/1.1 200 OK",
            "HTTP/1.1 400 Bad Request",
            "HTTP/1.1 200 OK",
        ]
    );
    assert_eq!(expected_answers[4].1, "", "HEAD carries no body");
    assert_eq!(expected_answers[5].1, "book=42");
    let count = |series: &str| {
        expected_stats
            .iter()
            .find(|(name, _)| name == series)
            .unwrap_or_else(|| panic!("no counter {series}"))
            .1
    };
    assert_eq!(count("requests_completed_total{class=static}"), 2.0);
    assert_eq!(count("requests_completed_total{class=quick-dynamic}"), 4.0);
    assert_eq!(count("errors_total"), 3.0, "two 404s and the 400");
    assert_eq!(count("dropped_connections_total"), 0.0);
    for (which, answers, stats) in &runs[1..] {
        for (((step, _), got), want) in SCRIPT.iter().zip(answers).zip(expected_answers) {
            assert_eq!(got, want, "{which} differs from {} on {step}", runs[0].0);
        }
        assert_eq!(stats, expected_stats, "{which} counters differ");
    }
}

/// Stage service time is recorded per request, not per pool job: a
/// thread-per-request worker holding one keep-alive connection reports
/// each request as it completes, while only the connection ever queued.
#[test]
fn thread_per_request_reports_service_time_per_request() {
    use std::io::Write;
    let server = BaselineServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    for _ in 0..20 {
        stream
            .write_all(b"GET /books HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let resp = staged_http::read_response(&mut stream).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }
    let samples = |family: &str| server.registry().value(family, &[("stage", "worker")]);
    // The sample lands just after the response bytes are written.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while samples("stage_service_seconds") < Some(20.0) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(samples("stage_service_seconds"), Some(20.0));
    assert_eq!(samples("stage_queue_wait_seconds"), Some(1.0));
    drop(stream);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn serves_dynamic_template_pages() {
    each_server(|server, which| {
        let resp = fetch(server.addr(), Method::Get, "/books?subject=SCIFI", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{which}");
        let text = resp.text();
        assert!(text.contains("<title>SCIFI</title>"), "{which}: {text}");
        assert!(text.contains("<li>Dune</li>"), "{which}");
        assert!(text.contains("<li>Excession</li>"), "{which}");
        assert!(!text.contains("Salt"), "{which}");
        // Content-Length is exact (the paper's §3.2 point).
        let len: usize = resp.headers.get("content-length").unwrap().parse().unwrap();
        assert_eq!(len, resp.body.len(), "{which}");
    });
}

#[test]
fn serves_static_files() {
    each_server(|server, which| {
        let resp = fetch(server.addr(), Method::Get, "/img/flowers.gif", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{which}");
        assert_eq!(
            resp.headers.get("content-type"),
            Some("image/gif"),
            "{which}"
        );
        assert_eq!(resp.body, b"GIF89a-flowers", "{which}");
    });
}

/// Sends one raw request with extra headers and parses the response —
/// `fetch` has no custom-header support, conditional GETs need it.
fn fetch_with_headers(
    addr: std::net::SocketAddr,
    target: &str,
    headers: &[(&str, &str)],
) -> staged_http::ClientResponse {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut req = format!("GET {target} HTTP/1.1\r\nConnection: close\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("\r\n");
    stream.write_all(req.as_bytes()).unwrap();
    staged_http::read_response(&mut stream).unwrap()
}

#[test]
fn conditional_static_requests_get_304() {
    each_server(|server, which| {
        let first = fetch(server.addr(), Method::Get, "/img/flowers.gif", &[]).unwrap();
        assert_eq!(first.status, StatusCode::OK, "{which}");
        let etag = first.headers.get("etag").expect("static 200 carries ETag");
        let last_modified = first
            .headers
            .get("last-modified")
            .expect("static 200 carries Last-Modified");

        // Revalidation by ETag: 304, no body, validators echoed.
        let revalidated = fetch_with_headers(
            server.addr(),
            "/img/flowers.gif",
            &[("If-None-Match", etag)],
        );
        assert_eq!(revalidated.status, StatusCode::NOT_MODIFIED, "{which}");
        assert!(
            revalidated.body.is_empty(),
            "{which}: 304 must have no body"
        );
        assert_eq!(revalidated.headers.get("etag"), Some(etag), "{which}");

        // Revalidation by date.
        let by_date = fetch_with_headers(
            server.addr(),
            "/img/flowers.gif",
            &[("If-Modified-Since", last_modified)],
        );
        assert_eq!(by_date.status, StatusCode::NOT_MODIFIED, "{which}");

        // A mismatched validator still gets the full entity.
        let changed = fetch_with_headers(
            server.addr(),
            "/img/flowers.gif",
            &[("If-None-Match", "\"different\"")],
        );
        assert_eq!(changed.status, StatusCode::OK, "{which}");
        assert_eq!(changed.body, b"GIF89a-flowers", "{which}");
    });
}

#[test]
fn backward_compatible_prerendered_pages() {
    each_server(|server, which| {
        let resp = fetch(server.addr(), Method::Get, "/prerendered", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{which}");
        assert_eq!(resp.text(), "<p>old-style page</p>", "{which}");
    });
}

#[test]
fn missing_routes_and_files_404() {
    each_server(|server, which| {
        let resp = fetch(server.addr(), Method::Get, "/no-such-page", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND, "{which}");
        let resp = fetch(server.addr(), Method::Get, "/no-such.png", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND, "{which}");
    });
}

#[test]
fn handler_panics_become_500s_and_server_survives() {
    each_server(|server, which| {
        let resp = fetch(server.addr(), Method::Get, "/explode", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::INTERNAL_SERVER_ERROR, "{which}");
        // The worker (and its DB connection) survived; a normal request
        // still works.
        let resp = fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{which}");
        assert_eq!(
            server.registry().value("handler_panics_total", &[]),
            Some(1.0),
            "{which}"
        );
    });
}

#[test]
fn malformed_requests_get_400() {
    use std::io::{Read, Write};
    each_server(|server, which| {
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE REQUEST LINE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{which}: {text}");
    });
}

#[test]
fn completions_recorded_by_class() {
    each_server(|server, which| {
        for _ in 0..3 {
            fetch(server.addr(), Method::Get, "/books", &[]).unwrap();
        }
        fetch(server.addr(), Method::Get, "/img/flowers.gif", &[]).unwrap();
        // Prime the tracker so /slow is classified lengthy, then hit it.
        fetch(server.addr(), Method::Get, "/slow", &[]).unwrap();
        fetch(server.addr(), Method::Get, "/slow", &[]).unwrap();
        settle(server, 6);
        let registry = server.registry();
        let completed = |kind: RequestKind| {
            let labels = [("class", kind.label())];
            registry.value("requests_completed_total", &labels).unwrap()
        };
        assert_eq!(completed(RequestKind::Static), 1.0, "{which}");
        assert!(completed(RequestKind::QuickDynamic) >= 3.0, "{which}");
        assert!(
            completed(RequestKind::LengthyDynamic) >= 1.0,
            "{which}: second /slow should be classified lengthy"
        );
        assert_eq!(
            registry.family_sum("requests_completed_total"),
            6.0,
            "{which}"
        );
    });
}

#[test]
fn concurrent_clients_are_all_served() {
    each_server(|server, which| {
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let path = if i % 2 == 0 {
                            "/books"
                        } else {
                            "/img/flowers.gif"
                        };
                        let resp = fetch(addr, Method::Get, path, &[]).unwrap();
                        assert!(resp.status.is_success());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        settle(server, 40);
        assert_eq!(
            server.registry().family_sum("requests_completed_total"),
            40.0,
            "{which}"
        );
    });
}

#[test]
fn staged_gauges_exposed() {
    let staged = StagedServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    let registry = staged.registry();
    assert_eq!(
        registry.label_values("stage_queue_depth", "stage"),
        ["header", "static", "general", "lengthy", "render"]
    );
    assert_eq!(
        registry.value("scheduler_t_reserve", &[]),
        Some(ServerConfig::small().min_reserve as f64)
    );
    let t_spare = registry.value("scheduler_t_spare", &[]).unwrap();
    assert!(t_spare <= ServerConfig::small().general_workers as f64);
    let f = registry
        .gauge_read("stage_queue_depth", &[("stage", "general")])
        .unwrap();
    assert_eq!(f(), 0.0);
    staged.shutdown().expect("clean shutdown");
}

#[test]
fn baseline_gauge_exposed() {
    let baseline = BaselineServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    let registry = baseline.registry();
    assert_eq!(
        registry.label_values("stage_queue_depth", "stage"),
        ["worker"]
    );
    assert_eq!(
        registry.value("stage_queue_depth", &[("stage", "worker")]),
        Some(0.0)
    );
    baseline.shutdown().expect("clean shutdown");
}

#[test]
fn shutdown_is_clean_and_idempotent_via_drop() {
    let server = StagedServer::start(ServerConfig::small(), demo_app(), demo_db()).unwrap();
    let addr = server.addr();
    fetch(addr, Method::Get, "/books", &[]).unwrap();
    drop(server); // drop path also shuts down
                  // The listener is gone: connecting may succeed (OS backlog) but a
                  // request must not be answered.
    let result = fetch(addr, Method::Get, "/books", &[]);
    assert!(result.is_err(), "server still answering after shutdown");
}
