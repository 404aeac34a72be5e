//! Scrapes `/metrics` and `/debug/traces` while the full TPC-W
//! application is serving: the exposition must stay parseable with the
//! real route set (page labels like `buy_confirm` flow through the
//! `page_service_seconds` collector), and the slow-trace ring must name
//! actual TPC-W pages.

use staged_core::{ServerConfig, StagedServer};
use staged_db::Database;
use staged_http::{fetch, Method, StatusCode};
use staged_metrics::validate_exposition;
use staged_tpcw::{build_app, populate, ScaleConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn tpcw_metrics_scrape_is_valid_prometheus() {
    let db = Arc::new(Database::new());
    let scale = ScaleConfig::tiny();
    populate(&db, &scale);
    let app = build_app(&db, &scale);
    let server = StagedServer::start(ServerConfig::small(), app, db).unwrap();
    let addr = server.addr();

    for target in [
        "/home?c_id=1",
        "/product_detail?i_id=5&c_id=1",
        "/search_request?c_id=1",
        "/best_sellers?subject=HISTORY&c_id=1",
    ] {
        let resp = fetch(addr, Method::Get, target, &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{target}");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let completed = || server.registry().family_sum("requests_completed_total");
    while completed() < 4.0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    let resp = fetch(addr, Method::Get, "/metrics", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let text = resp.text();
    let samples = validate_exposition(&text).expect("TPC-W exposition must parse");
    assert!(samples > 50, "too few samples: {samples}");
    assert!(
        text.contains("page_service_seconds{page=\"home\"}"),
        "{text}"
    );
    assert!(text.contains("requests_completed_total{class="));
    assert!(text.contains("stage_service_seconds_bucket{stage=\"general\""));

    // The slow ring names real TPC-W pages once requests are served.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let resp = fetch(addr, Method::Get, "/debug/traces", &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let body = resp.text();
        if body.contains("\"page\":\"") || std::time::Instant::now() > deadline {
            assert!(body.contains("\"page\":\""), "ring never filled: {body}");
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown().expect("clean shutdown");
}
