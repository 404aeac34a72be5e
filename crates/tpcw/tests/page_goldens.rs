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
//! the two heaviest read pages (best-sellers and the subject search),
//! and the workload census: the plan-node kinds, block tags and filters
//! the bookstore builds, against what the engines carry.

use staged_core::{App, PageOutcome};
use staged_db::{ConnectionPool, Database, DbValue, PooledConnection, PLAN_NODE_KINDS};
use staged_http::{HeaderMap, RequestLine};
use staged_templates::{FILTERS, TAGS};
use staged_tpcw::{build_app, populate, ScaleConfig};
use std::collections::{BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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

/// The plan-node kinds the bookstore builds: its start-up statements
/// (`populate`, `build_app`), populate's row-count checks, and the golden
/// targets, at tiny and default scale.
const CENSUS_PLAN_NODES: [&str; 9] = [
    "seq_scan",
    "index_scan",
    "index_range",
    "index_endpoint",
    "filter",
    "index_loop_join",
    "aggregate",
    "sort",
    "limit",
];

/// Kinds the engine keeps though no route builds them: the nested loop
/// is the one way to run a join whose inner column has no index, which
/// only ad-hoc statements issue.
const AD_HOC_PLAN_NODES: [&str; 1] = ["nested_loop_join"];

/// The block tags and filters the 17 bookstore templates compile to.
const CENSUS_TAGS: [&str; 5] = ["if", "else", "for", "empty", "include"];
const CENSUS_FILTERS: [&str; 7] = [
    "default",
    "floatformat",
    "length",
    "pluralize",
    "slice",
    "title",
    "urlencode",
];

/// The workload census. Fails when a route builds a plan-node kind
/// outside the recorded set, or when the database or the template
/// engine carries a kind, tag or filter that nothing here uses and that
/// the ad-hoc list does not name.
#[test]
fn workload_census_matches_what_the_engines_carry() {
    let (mut built, mut tags, mut filters) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for scale in [ScaleConfig::tiny(), ScaleConfig::default()] {
        let db = Arc::new(Database::new());
        let seen = Arc::new(Mutex::new(BTreeSet::new()));
        let sink = Arc::clone(&seen);
        db.set_plan_observer(move |kind, _| {
            sink.lock().unwrap().insert(kind);
        });
        let summary = populate(&db, &scale);
        // populate's self-check: each table holds the rows it reports.
        for (table, rows) in [
            ("item", scale.items),
            ("stock", scale.items),
            ("customer", scale.customers),
            ("address", scale.customers),
            ("orders", scale.orders),
            ("cc_xacts", scale.orders),
            ("order_line", summary.order_lines),
        ] {
            let sql = format!("SELECT COUNT(*) FROM {table}");
            let count = db.execute(&sql, &[]).unwrap().single_int();
            assert_eq!(count, Some(rows as i64), "{table}");
        }
        let app = build_app(&db, &scale);
        let pool = ConnectionPool::new(Arc::clone(&db), 2);
        let conn = pool.get();
        for target in TARGETS {
            serve(&app, &conn, target);
        }
        built.extend(seen.lock().unwrap().iter().copied());
        let names = app.templates().names();
        assert_eq!(names.len(), 17);
        for name in names {
            let template = app.templates().get(&name).unwrap();
            tags.extend(template.tags());
            filters.extend(template.filters());
        }
    }
    assert_eq!(
        built,
        BTreeSet::from(CENSUS_PLAN_NODES),
        "the plan-node kinds the bookstore builds changed"
    );
    let carried: BTreeSet<&str> = PLAN_NODE_KINDS.into_iter().collect();
    let kept: BTreeSet<&str> = CENSUS_PLAN_NODES
        .into_iter()
        .chain(AD_HOC_PLAN_NODES)
        .collect();
    assert_eq!(
        carried, kept,
        "a plan-node kind nothing builds, or one not carried"
    );
    assert!(AD_HOC_PLAN_NODES.iter().all(|k| !built.contains(k)));

    assert_eq!(tags, BTreeSet::from(CENSUS_TAGS), "the pages' tags changed");
    assert_eq!(
        filters,
        BTreeSet::from(CENSUS_FILTERS),
        "the pages' filters changed"
    );
    assert_eq!(
        TAGS, CENSUS_TAGS,
        "the engine's tag table is not the census"
    );
    assert_eq!(
        FILTERS, CENSUS_FILTERS,
        "the engine's filter table is not the census"
    );
}
