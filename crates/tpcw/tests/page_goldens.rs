//! Frozen page goldens: every TPC-W handler, served in a fixed order
//! against one tiny-scale database, must render exactly the bytes
//! recorded under `tests/goldens/<nn>_<route>.html`.
//!
//! The target list covers all 14 handlers plus the empty-result branch
//! variants, and includes the mutating pages (cart, buy-confirm,
//! admin-confirm), so later pages see the writes of earlier ones.
//! Population is seeded, so the byte stream is deterministic.
//!
//! The golden files were recorded while a second, straight-line SELECT
//! executor and an AST tree-walking template renderer still existed,
//! and each page was checked to be byte-identical under both (since
//! deleted); the files now stand in for them. Re-recording is a
//! deliberate edit of the golden files; nothing in this test writes
//! them.
//!
//! The same file holds the planner's deterministic scan-count gates on
//! the two heaviest read pages (best-sellers and the subject search).

use staged_core::{App, PageOutcome};
use staged_db::{ConnectionPool, Database, DbValue, PooledConnection};
use staged_http::{HeaderMap, RequestLine};
use staged_tpcw::{build_app, populate, ScaleConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

const TARGETS: &[&str] = &[
    "/home?c_id=3",
    "/new_products?subject=HISTORY&c_id=3",
    "/best_sellers?subject=ARTS&c_id=3",
    "/product_detail?i_id=5&c_id=3",
    "/search_request?c_id=3",
    "/execute_search?type=title&search=Book&c_id=3",
    "/execute_search?type=author&search=a&c_id=3",
    "/execute_search?type=subject&search=ARTS&c_id=3",
    "/shopping_cart?i_id=4&qty=2&c_id=3",
    "/customer_registration?c_id=3",
    "/buy_request?c_id=3",
    "/buy_confirm?c_id=3&sc_id=1",
    "/order_inquiry?c_id=3",
    "/order_display?c_id=3",
    "/admin_request?i_id=2",
    "/admin_confirm?i_id=2&cost=9.5",
    // Branch variants: anonymous visitor, empty result sets, misses.
    "/home?c_id=0",
    "/new_products?subject=NOSUCH",
    "/execute_search?type=title&search=zzzznothing",
    "/order_display?c_id=9999",
];

/// One served page: route name, template name and rendered bytes.
struct Page {
    route: String,
    template: String,
    body: Vec<u8>,
}

/// Runs one target's handler and renders its template through the app's
/// store.
fn serve(app: &App, conn: &PooledConnection, target: &str) -> Page {
    let line = RequestLine::parse(&format!("GET {target} HTTP/1.1")).unwrap();
    let path = line.target.path().to_string();
    let request = staged_http::Request::new(line, HeaderMap::new(), Vec::new());
    let (route, _) = app
        .route(&path)
        .unwrap_or_else(|| panic!("{target}: no route"));
    let outcome = (route.handler)(&request, conn)
        .unwrap_or_else(|e| panic!("{target}: handler failed: {e:?}"));
    let PageOutcome::Template { name, context } = outcome else {
        panic!("{target}: expected an unrendered template outcome");
    };
    let body = app
        .templates()
        .render(&name, &context)
        .unwrap_or_else(|e| panic!("{target}: {name} render failed: {e}"));
    Page {
        route: route.name.clone(),
        template: name,
        body: body.into_bytes(),
    }
}

fn golden_path(index: usize, route: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{index:02}_{route}.html"))
}

/// Offset of the first byte where `a` and `b` differ (the shorter
/// length when one is a prefix of the other).
fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

/// Serves every target in order on a fresh tiny-scale database, checks
/// each body against its golden file, and returns the served pages
/// together with the app that served them.
fn serve_goldens() -> (App, Vec<Page>) {
    let scale = ScaleConfig::tiny();
    let db = Arc::new(Database::new());
    populate(&db, &scale);
    let app = build_app(&db, &scale);
    let pool = ConnectionPool::new(Arc::clone(&db), 2);
    let conn = pool.get();

    let mut pages = Vec::with_capacity(TARGETS.len());
    for (index, target) in TARGETS.iter().enumerate() {
        let page = serve(&app, &conn, target);
        let path = golden_path(index, &page.route);
        let golden = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{target}: cannot read {}: {e}", path.display()));
        if page.body != golden {
            panic!(
                "{target}: rendered bytes differ from {} at byte offset {} \
                 (rendered {} bytes, golden {})",
                path.display(),
                first_difference(&page.body, &golden),
                page.body.len(),
                golden.len()
            );
        }
        assert!(!page.body.is_empty(), "{target}: rendered nothing");
        pages.push(page);
    }
    (app, pages)
}

/// The SELECT side: every handler's queries feed its page, so all 14
/// handlers must be among the golden targets.
#[test]
fn every_handler_renders_its_golden_bytes() {
    let (_, pages) = serve_goldens();
    let routes: HashSet<&str> = pages.iter().map(|p| p.route.as_str()).collect();
    assert!(
        routes.len() >= 14,
        "only {} distinct handlers exercised: {routes:?}",
        routes.len()
    );
}

/// The renderer side: every page template in the store must be among
/// the golden pages (the three partials render via `{% include %}`
/// inside each page).
#[test]
fn every_page_template_renders_its_golden_bytes() {
    let (app, pages) = serve_goldens();
    let templates: HashSet<String> = pages.into_iter().map(|p| p.template).collect();
    let partials = ["header.html", "footer.html", "item_row.html"];
    let pages: HashSet<String> = app
        .templates()
        .names()
        .into_iter()
        .filter(|name| !partials.contains(&name.as_str()))
        .collect();
    assert_eq!(
        templates, pages,
        "page template set drifted; extend TARGETS"
    );
}

/// The best-sellers window anchor and aggregate, verbatim from
/// `staged_tpcw::pages::best_sellers`.
const MAX_ORDERS_SQL: &str = "SELECT MAX(o_id) FROM orders";
const BEST_SELLERS_SQL: &str =
    "SELECT i.i_id, i.i_title, i.i_cost, i.i_thumbnail, a.a_fname, a.a_lname, \
     SUM(ol.ol_qty) AS total \
     FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id \
     JOIN author a ON i.i_a_id = a.a_id \
     WHERE ol.ol_o_id > ? AND i.i_subject = ? \
     GROUP BY i.i_id, i.i_title, i.i_cost, i.i_thumbnail, a.a_fname, a.a_lname \
     ORDER BY total DESC LIMIT 50";

/// The subject-search statement, verbatim from
/// `staged_tpcw::pages::execute_search` (`type=subject`).
const SEARCH_SUBJECT_SQL: &str =
    "SELECT i.i_id, i.i_title, i.i_cost, i.i_thumbnail, a.a_fname, a.a_lname \
     FROM item i JOIN author a ON i.i_a_id = a.a_id \
     WHERE i.i_subject = ? ORDER BY i.i_title LIMIT 50";

// Rows the deleted straight-line SELECT executor scanned on the same
// population (it had no range access and no MIN/MAX endpoint
// shortcut), measured before it was deleted: the yardstick the
// planner must halve.
/// Best-sellers page (anchor + aggregate), straight-line executor.
const LEGACY_BEST_SELLERS_SCANNED: u64 = 1_325;
/// Subject search, straight-line executor (`i_subject` unindexed).
const LEGACY_SEARCH_SUBJECT_SCANNED: u64 = 106;

/// Rows scanned by the best-sellers page's two statements.
fn best_sellers(db: &Database, window: i64) -> u64 {
    let max = db.execute(MAX_ORDERS_SQL, &[]).unwrap();
    let max_o = max.single_int().unwrap_or(0);
    let params = [DbValue::Int(max_o - window), DbValue::from("ARTS")];
    let r = db.execute(BEST_SELLERS_SQL, &params).unwrap();
    max.rows_scanned + r.rows_scanned
}

/// Rows scanned and result rows of the subject search.
fn search_subject(db: &Database) -> (u64, Vec<Vec<DbValue>>) {
    let r = db
        .execute(SEARCH_SUBJECT_SQL, &[DbValue::from("ARTS")])
        .unwrap();
    (r.rows_scanned, r.rows)
}

/// Rows scanned is the quantity the synthetic cost model charges, and it
/// is deterministic for a seeded population: the planner's access paths
/// on the two heaviest read pages are pinned exactly, and each must stay
/// at most half of what the straight-line executor scanned.
#[test]
fn planner_scan_counts_on_the_heavy_pages() {
    let scale = ScaleConfig::tiny();
    let db = Database::new();
    populate(&db, &scale);
    let window = (scale.orders / 777).max(1) as i64;

    // MAX endpoint + `ol_o_id` range scan + PK index-loop joins.
    let scanned = best_sellers(&db, window);
    assert_eq!(scanned, 12);
    assert!(scanned * 2 <= LEGACY_BEST_SELLERS_SCANNED);

    // No `i_subject` index in the shipped schema: a full scan of `item`.
    let (scanned, no_index_rows) = search_subject(&db);
    assert_eq!(scanned, 106);
    // The index a deployment would add for its search mix.
    db.execute("CREATE INDEX ON item (i_subject)", &[]).unwrap();
    let (scanned, index_rows) = search_subject(&db);
    assert_eq!(scanned, 12);
    assert!(scanned * 2 <= LEGACY_SEARCH_SUBJECT_SCANNED);
    assert_eq!(index_rows, no_index_rows);
}
