//! The TPC-W browsing-mix workload generator: closed-loop emulated
//! browsers measuring web-interaction response times at the client.

use crate::deployment::Deployment;
use crate::report::{to_ms, PageReport, WorkloadReport};
use crate::schema::SUBJECTS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use staged_http::{fetch_with_timeout, Method};
use staged_metrics::{Histogram, Summary};
use staged_sync::{OrderedMutex, Rank};
use std::collections::HashMap;

/// Collector lock ranks (DESIGN.md §10). `record` nests pages →
/// metrics → counts, so the page map comes first and the count maps
/// after it — all below the metrics locks' 400 band except `counts`,
/// which is only ever taken with `pages` (130 < 131) or alone.
const PAGES_RANK: Rank = Rank::new(130);
const COUNTS_RANK: Rank = Rank::new(131);
const ERRORS_RANK: Rank = Rank::new(132);
use staged_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Route key → paper display name for the 14 interactions, in the
/// paper's table order.
pub const PAGES: &[(&str, &str)] = &[
    ("admin_request", "TPC-W admin request"),
    ("admin_response", "TPC-W admin response"),
    ("best_sellers", "TPC-W best sellers"),
    ("buy_confirm", "TPC-W buy confirm"),
    ("buy_request", "TPC-W buy request"),
    ("customer_registration", "TPC-W customer registration"),
    ("execute_search", "TPC-W execute search"),
    ("home", "TPC-W home interaction"),
    ("new_products", "TPC-W new products"),
    ("order_display", "TPC-W order display"),
    ("order_inquiry", "TPC-W order inquiry"),
    ("product_detail", "TPC-W product detail"),
    ("search_request", "TPC-W search request"),
    ("shopping_cart", "TPC-W shopping cart interaction"),
];

/// The standard browsing-mix page weights, in hundredths of a percent
/// (they sum to 10 000). TPC-W's WIPSb mix: 95 % browse, 5 % order.
const MIX: &[(&str, u32)] = &[
    ("home", 2900),
    ("product_detail", 2100),
    ("search_request", 1200),
    ("new_products", 1100),
    ("best_sellers", 1100),
    ("execute_search", 1100),
    ("shopping_cart", 200),
    ("customer_registration", 82),
    ("buy_request", 75),
    ("buy_confirm", 69),
    ("order_inquiry", 30),
    ("order_display", 25),
    ("admin_request", 10),
    ("admin_response", 9),
];

/// Per-request client timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// The browsers' RNG seed, combined with each browser's index.
const EB_SEED: u64 = 0x0d5e_2009;

struct Collector {
    pages: OrderedMutex<HashMap<&'static str, (Summary, Histogram)>>,
    /// Latency across every successful interaction, regardless of page
    /// (the overload benchmarks report overall p99).
    overall: (Summary, Histogram),
    counts: OrderedMutex<HashMap<&'static str, u64>>,
    errors: OrderedMutex<HashMap<&'static str, u64>>,
    total_errors: AtomicU64,
    /// Interactions the server answered `503` (shed under overload);
    /// also counted in `total_errors`.
    total_sheds: AtomicU64,
}

impl Collector {
    fn new() -> Self {
        Collector {
            pages: OrderedMutex::new(PAGES_RANK, "tpcw.workload.pages", HashMap::new()),
            overall: (Summary::new(), Histogram::new()),
            counts: OrderedMutex::new(COUNTS_RANK, "tpcw.workload.counts", HashMap::new()),
            errors: OrderedMutex::new(ERRORS_RANK, "tpcw.workload.errors", HashMap::new()),
            total_errors: AtomicU64::new(0),
            total_sheds: AtomicU64::new(0),
        }
    }

    fn record(&self, route: &'static str, elapsed: Duration, ok: bool, shed: bool) {
        if ok {
            let mut pages = self.pages.lock();
            let (summary, histogram) = pages
                .entry(route)
                .or_insert_with(|| (Summary::new(), Histogram::new()));
            summary.record(elapsed);
            histogram.record(elapsed);
            self.overall.0.record(elapsed);
            self.overall.1.record(elapsed);
            *self.counts.lock().entry(route).or_insert(0) += 1;
        } else {
            *self.errors.lock().entry(route).or_insert(0) += 1;
            self.total_errors.fetch_add(1, Ordering::Relaxed);
            if shed {
                self.total_sheds.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

struct Browser {
    addr: SocketAddr,
    rng: StdRng,
    c_id: i64,
    sc_id: u64,
    deployment: Arc<Deployment>,
}

impl Browser {
    /// Picks the next page per the browsing mix.
    fn next_page(&mut self) -> &'static str {
        let roll = self.rng.gen_range(0..10_000u32);
        let mut acc = 0;
        for (route, weight) in MIX {
            acc += weight;
            if roll < acc {
                return route;
            }
        }
        "home"
    }

    fn subject(&mut self) -> String {
        let s = SUBJECTS[self.rng.gen_range(0..SUBJECTS.len())];
        staged_http::percent_encode(s)
    }

    fn item(&mut self) -> u64 {
        self.rng.gen_range(1..=self.deployment.scale.items as u64)
    }

    /// Builds the request target for a page, using session state.
    fn target_for(&mut self, route: &str) -> String {
        let c = self.c_id;
        match route {
            "home" => format!("/home?c_id={c}"),
            "new_products" => format!("/new_products?subject={}&c_id={c}", self.subject()),
            "best_sellers" => format!("/best_sellers?subject={}&c_id={c}", self.subject()),
            "product_detail" => format!("/product_detail?i_id={}&c_id={c}", self.item()),
            "search_request" => format!("/search_request?c_id={c}"),
            "execute_search" => {
                let kind = ["title", "author", "subject"][self.rng.gen_range(0..3)];
                let query = match kind {
                    "subject" => SUBJECTS[self.rng.gen_range(0..SUBJECTS.len())].to_string(),
                    "author" => {
                        ["Hop", "Tur", "Lov", "Knu", "Dij"][self.rng.gen_range(0..5)].to_string()
                    }
                    _ => ["Winter", "Secret", "Star", "River", "Golden"][self.rng.gen_range(0..5)]
                        .to_string(),
                };
                format!(
                    "/execute_search?type={kind}&search={}&c_id={c}",
                    staged_http::percent_encode(&query)
                )
            }
            "shopping_cart" => {
                let sc = self.sc_id;
                let item = self.item();
                let qty = self.rng.gen_range(1..=3);
                format!("/shopping_cart?c_id={c}&sc_id={sc}&i_id={item}&qty={qty}")
            }
            "customer_registration" => {
                format!("/customer_registration?c_id={c}&sc_id={}", self.sc_id)
            }
            "buy_request" => format!("/buy_request?c_id={c}&sc_id={}", self.sc_id),
            "buy_confirm" => format!("/buy_confirm?c_id={c}&sc_id={}", self.sc_id),
            "order_inquiry" => format!("/order_inquiry?c_id={c}"),
            "order_display" => format!("/order_display?c_id={c}"),
            "admin_request" => format!("/admin_request?i_id={}&c_id={c}", self.item()),
            "admin_response" => format!(
                "/admin_confirm?i_id={}&cost={:.2}&c_id={c}",
                self.item(),
                self.rng.gen_range(5.0..100.0)
            ),
            other => panic!("unknown route {other}"),
        }
    }

    /// Extracts the server-assigned cart id from a rendered page.
    fn learn_cart_id(&mut self, body: &str) {
        if let Some(pos) = body.find("name=\"sc_id\" value=\"") {
            let rest = &body[pos + 20..];
            if let Some(end) = rest.find('"') {
                if let Ok(id) = rest[..end].parse::<u64>() {
                    if id > 0 {
                        self.sc_id = id;
                    }
                }
            }
        }
    }

    fn think(&mut self) {
        let min = self.deployment.think_min.as_nanos() as u64;
        let max = self.deployment.think_max.as_nanos() as u64;
        let ns = if max > min {
            self.rng.gen_range(min..=max)
        } else {
            min
        };
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// Runs the closed-loop browsing-mix workload against a server and
/// reports per-page response times and completion counts: the
/// deployment's EBs, think range and images per page, for `ramp_up`
/// unmeasured and then `duration` measured.
///
/// `on_measurement_start` fires when ramp-up ends (the paper drops its
/// first five minutes); use it to start server-side sampling so client
/// and server windows align.
pub fn run_workload(
    addr: SocketAddr,
    deployment: &Deployment,
    ramp_up: Duration,
    duration: Duration,
    on_measurement_start: impl FnOnce(),
) -> WorkloadReport {
    let deployment = Arc::new(deployment.clone());
    let collector = Arc::new(Collector::new());
    let recording = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::with_capacity(deployment.ebs);
    for eb in 0..deployment.ebs {
        let collector = Arc::clone(&collector);
        let recording = Arc::clone(&recording);
        let stop = Arc::clone(&stop);
        let deployment = Arc::clone(&deployment);
        let seed = EB_SEED ^ (eb as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let handle = std::thread::Builder::new()
            .name(format!("eb-{eb}"))
            .spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let c_id = rng.gen_range(1..=deployment.scale.customers as i64);
                let mut browser = Browser {
                    addr,
                    rng,
                    c_id,
                    sc_id: 0,
                    deployment,
                };
                while !stop.load(Ordering::Acquire) {
                    let route = browser.next_page();
                    let target = browser.target_for(route);
                    // TPC-W's web interaction response time runs "from
                    // the first byte of a web interaction request ...
                    // to the last byte of the web interaction response"
                    // — which includes the page's embedded images.
                    let started = Instant::now();
                    let result =
                        fetch_with_timeout(browser.addr, Method::Get, &target, &[], CLIENT_TIMEOUT);
                    let (ok, shed) = match &result {
                        Ok(resp) => (
                            resp.status.is_success(),
                            resp.status == staged_http::StatusCode::SERVICE_UNAVAILABLE,
                        ),
                        Err(_) => (false, false),
                    };
                    if let Ok(resp) = &result {
                        if route == "shopping_cart" {
                            browser.learn_cart_id(&resp.text());
                        }
                        if route == "buy_confirm" {
                            browser.sc_id = 0; // cart emptied server-side
                        }
                    }
                    // Embedded static images for this page view.
                    let images = browser.deployment.images_per_page;
                    let total_images = browser.deployment.scale.images as u64;
                    for _ in 0..images {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let n = browser.rng.gen_range(0..total_images);
                        let _ = fetch_with_timeout(
                            browser.addr,
                            Method::Get,
                            &format!("/img/thumb_{n}.gif"),
                            &[],
                            CLIENT_TIMEOUT,
                        );
                    }
                    let elapsed = started.elapsed();
                    if recording.load(Ordering::Acquire) {
                        collector.record(route, elapsed, ok, shed);
                    }
                    browser.think();
                }
            })
            .expect("failed to spawn emulated browser");
        handles.push(handle);
    }

    std::thread::sleep(ramp_up);
    on_measurement_start();
    recording.store(true, Ordering::Release);
    let measure_start = Instant::now();
    std::thread::sleep(duration);
    recording.store(false, Ordering::Release);
    let measured = measure_start.elapsed();
    stop.store(true, Ordering::Release);
    for h in handles {
        let _ = h.join();
    }

    let summaries = collector.pages.lock();
    let counts = collector.counts.lock();
    let errors = collector.errors.lock();
    let mut pages = Vec::with_capacity(PAGES.len());
    let mut total = 0;
    for (route, name) in PAGES {
        let count = counts.get(route).copied().unwrap_or(0);
        total += count;
        let mean_ms = summaries
            .get(route)
            .map(|(s, _)| to_ms(s.snapshot().mean()))
            .unwrap_or(0.0);
        let p95_ms = summaries
            .get(route)
            .map(|(_, h)| to_ms(h.quantile(0.95)))
            .unwrap_or(0.0);
        pages.push(PageReport {
            route: route.to_string(),
            name: name.to_string(),
            count,
            mean_ms,
            p95_ms,
            errors: errors.get(route).copied().unwrap_or(0),
        });
    }
    WorkloadReport {
        pages,
        duration_secs: measured.as_secs_f64(),
        ebs: deployment.ebs,
        total_interactions: total,
        total_errors: collector.total_errors.load(Ordering::Relaxed), // lint: allow(relaxed)
        total_sheds: collector.total_sheds.load(Ordering::Relaxed),   // lint: allow(relaxed)
        overall_mean_ms: to_ms(collector.overall.0.snapshot().mean()),
        overall_p50_ms: to_ms(collector.overall.1.quantile(0.50)),
        overall_p99_ms: to_ms(collector.overall.1.quantile(0.99)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sums_to_ten_thousand() {
        let sum: u32 = MIX.iter().map(|(_, w)| w).sum();
        assert_eq!(sum, 10_000);
    }

    #[test]
    fn mix_routes_all_exist_in_pages() {
        for (route, _) in MIX {
            assert!(
                PAGES.iter().any(|(r, _)| r == route),
                "mix route {route} missing from PAGES"
            );
        }
        assert_eq!(PAGES.len(), 14);
        assert_eq!(MIX.len(), 14);
    }

    #[test]
    fn browser_page_distribution_roughly_matches_mix() {
        let mut browser = Browser {
            addr: "127.0.0.1:1".parse().unwrap(),
            rng: StdRng::seed_from_u64(7),
            c_id: 1,
            sc_id: 0,
            deployment: Arc::new(Deployment::paper()),
        };
        let mut counts: HashMap<&str, u32> = HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(browser.next_page()).or_insert(0) += 1;
        }
        let home = f64::from(counts["home"]) / 20_000.0;
        assert!((home - 0.29).abs() < 0.02, "home frequency {home}");
        let admin = f64::from(*counts.get("admin_response").unwrap_or(&0)) / 20_000.0;
        assert!(admin < 0.01, "admin_response frequency {admin}");
    }

    #[test]
    fn targets_are_valid_http_targets() {
        let mut browser = Browser {
            addr: "127.0.0.1:1".parse().unwrap(),
            rng: StdRng::seed_from_u64(3),
            c_id: 5,
            sc_id: 9,
            deployment: Arc::new(Deployment::paper()),
        };
        for (route, _) in PAGES {
            let t = browser.target_for(route);
            assert!(t.starts_with('/'), "{route}: {t}");
            assert!(!t.contains(' '), "{route}: {t}");
            staged_http::RequestTarget::parse(&t).unwrap();
        }
    }

    #[test]
    fn learns_cart_id_from_page() {
        let mut browser = Browser {
            addr: "127.0.0.1:1".parse().unwrap(),
            rng: StdRng::seed_from_u64(3),
            c_id: 5,
            sc_id: 0,
            deployment: Arc::new(Deployment::paper()),
        };
        browser.learn_cart_id(r#"<input type="hidden" name="sc_id" value="271">"#);
        assert_eq!(browser.sc_id, 271);
        browser.learn_cart_id("no cart id here");
        assert_eq!(browser.sc_id, 271);
    }
}
