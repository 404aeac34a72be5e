//! Drives the full TPC-W application through both servers over TCP.

use staged_core::{BaselineServer, ServerConfig, StagedServer};
use staged_db::Database;
use staged_http::{fetch, Method, StatusCode};
use staged_tpcw::{build_app, populate, run_workload, ScaleConfig, WorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

fn setup() -> (Arc<Database>, ScaleConfig) {
    let db = Arc::new(Database::new());
    let scale = ScaleConfig::tiny();
    populate(&db, &scale);
    (db, scale)
}

#[test]
fn every_page_renders_on_the_staged_server() {
    let (db, scale) = setup();
    let app = build_app(&db, &scale);
    let server = StagedServer::start(ServerConfig::small(), app, db).unwrap();
    let addr = server.addr();
    let pages = [
        ("/home?c_id=1", "Welcome back"),
        (
            "/new_products?subject=HISTORY&c_id=1",
            "New releases in History",
        ),
        (
            "/best_sellers?subject=HISTORY&c_id=1",
            "Best sellers in History",
        ),
        ("/product_detail?i_id=5&c_id=1", "Our price"),
        ("/search_request?c_id=1", "Search the store"),
        (
            "/execute_search?type=title&search=Winter&c_id=1",
            "Results for title",
        ),
        (
            "/shopping_cart?c_id=1&sc_id=0&i_id=5&qty=2",
            "Your shopping cart",
        ),
        ("/customer_registration?c_id=1&sc_id=0", "Welcome back"),
        ("/buy_request?c_id=1&sc_id=0", "Confirm your order"),
        ("/buy_confirm?c_id=1&sc_id=0", "Thank you for your order"),
        ("/order_inquiry?c_id=1", "Order inquiry"),
        ("/order_display?c_id=1", "Order"),
        ("/admin_request?i_id=5&c_id=1", "Edit item"),
        ("/admin_confirm?i_id=5&cost=12.50&c_id=1", "Item updated"),
    ];
    for (target, marker) in pages {
        let resp = fetch(addr, Method::Get, target, &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{target}");
        let text = resp.text();
        assert!(
            text.contains(marker),
            "{target}: missing {marker:?} in {text}"
        );
        assert!(text.contains("</html>"), "{target}: truncated page");
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn shopping_flow_carries_cart_state() {
    let (db, scale) = setup();
    let app = build_app(&db, &scale);
    let server = StagedServer::start(ServerConfig::small(), app, Arc::clone(&db)).unwrap();
    let addr = server.addr();

    // Add an item; learn the cart id from the page.
    let resp = fetch(
        addr,
        Method::Get,
        "/shopping_cart?c_id=1&sc_id=0&i_id=7&qty=2",
        &[],
    )
    .unwrap();
    let body = resp.text();
    let pos = body
        .find("name=\"sc_id\" value=\"")
        .expect("cart id in page");
    let rest = &body[pos + 20..];
    let sc_id: u64 = rest[..rest.find('"').unwrap()].parse().unwrap();
    assert!(sc_id > 0);

    // Add the same item again: the quantity accumulates.
    let target = format!("/shopping_cart?c_id=1&sc_id={sc_id}&i_id=7&qty=3");
    let resp = fetch(addr, Method::Get, &target, &[]).unwrap();
    assert!(resp.text().contains("<td>5</td>"), "qty should be 5");

    // Buy it: the order exists afterwards and the cart is empty.
    let target = format!("/buy_confirm?c_id=1&sc_id={sc_id}");
    let resp = fetch(addr, Method::Get, &target, &[]).unwrap();
    assert!(resp.text().contains("Thank you"));
    let lines = db
        .execute(
            "SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = ?",
            &[staged_db::DbValue::from(sc_id)],
        )
        .unwrap();
    assert_eq!(lines.single_int(), Some(0));
    let resp = fetch(addr, Method::Get, "/order_display?c_id=1", &[]).unwrap();
    assert!(resp.text().contains("Order #"));
    server.shutdown().expect("clean shutdown");
}

#[test]
fn workload_runs_against_both_servers() {
    let (db, scale) = setup();
    let mut wl = WorkloadConfig {
        ebs: 8,
        ramp_up: Duration::from_millis(100),
        duration: Duration::from_millis(900),
        ..WorkloadConfig::default()
    };
    wl.scale = scale.clone();

    for staged in [false, true] {
        let app = build_app(&db, &scale);
        let cfg = ServerConfig::small();
        let server = if staged {
            StagedServer::start(cfg, app, Arc::clone(&db)).unwrap()
        } else {
            BaselineServer::start(cfg, app, Arc::clone(&db)).unwrap()
        };
        let report = run_workload(server.addr(), &wl, || {});
        assert!(
            report.total_interactions > 20,
            "staged={staged}: only {} interactions",
            report.total_interactions
        );
        assert_eq!(
            report.total_errors,
            0,
            "staged={staged}: errors {:?}",
            report
                .pages
                .iter()
                .filter(|p| p.errors > 0)
                .collect::<Vec<_>>()
        );
        // The mix must actually exercise the common pages.
        assert!(report.page("home").unwrap().count > 0, "staged={staged}");
        assert!(
            report.page("product_detail").unwrap().count > 0,
            "staged={staged}"
        );
        // Server-side counters saw both static and dynamic traffic.
        let registry = server.registry();
        let labels = [("class", staged_core::RequestKind::Static.label())];
        assert!(registry.value("requests_completed_total", &labels) > Some(0.0));
        let completed = registry.family_sum("requests_completed_total");
        assert!(completed > report.total_interactions as f64);
        server.shutdown().expect("clean shutdown");
    }
}

#[test]
fn report_shapes_are_consistent() {
    let (db, scale) = setup();
    let app = build_app(&db, &scale);
    let server = StagedServer::start(ServerConfig::small(), app, db).unwrap();
    let mut wl = WorkloadConfig {
        ebs: 4,
        ramp_up: Duration::from_millis(50),
        duration: Duration::from_millis(400),
        ..WorkloadConfig::default()
    };
    wl.scale = scale;
    let report = run_workload(server.addr(), &wl, || {});
    assert_eq!(report.pages.len(), 14);
    let total: u64 = report.pages.iter().map(|p| p.count).sum();
    assert_eq!(total, report.total_interactions);
    assert!(report.duration_secs >= 0.4);
    assert_eq!(report.ebs, 4);
    // Pages with completions have positive means.
    for p in &report.pages {
        if p.count > 0 {
            assert!(p.mean_ms > 0.0, "{}", p.route);
        }
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn populated_database_snapshot_round_trips() {
    let (db, scale) = setup();
    let mut buf = Vec::new();
    db.dump(&mut buf).unwrap();
    let restored = Database::restore(buf.as_slice()).unwrap();
    assert_eq!(restored.table_names(), db.table_names());
    for table in db.table_names() {
        assert_eq!(
            restored.table_len(&table).unwrap(),
            db.table_len(&table).unwrap(),
            "{table}"
        );
    }
    // The restored database serves the application identically.
    let app = build_app(&restored, &scale);
    let server = StagedServer::start(ServerConfig::small(), app, Arc::new(restored)).unwrap();
    let resp = fetch(server.addr(), Method::Get, "/home?c_id=1", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    server.shutdown().expect("clean shutdown");
}
