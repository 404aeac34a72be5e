//! The traced run: the per-layer metrics.
//!
//! Two sources. *Live*: the closed phase again on a server started with
//! its trace ring on, with `GET /metrics` and `GET /debug/explain`
//! scraped before and after and diffed — preceded by an untraced closed
//! phase so the cost of tracing is itself a number. *Replay*: the same
//! request stream walked single-threaded through the layers' public
//! functions ([`crate::replay`]), with its spans written to
//! `benchmark/out/trace_<workload>.json`.

use crate::alloc;
use crate::deploy::{self, Deployment};
use crate::layers;
use crate::load::{self, Session};
use crate::procfs;
use crate::prom::{numbers_after, string_array, strings_after, Delta, Scrape};
use crate::replay;
use crate::run::{self, metric, Metric, Options, Report, OPEN_GRACE, SEGMENTS};
use crate::spans;
use crate::stats;
use crate::workload::{Page, Plan, Spec};
use std::time::{Duration, Instant};

/// The trace ring of the traced server (the repo's own default).
const TRACE_RING: usize = 32;

const STAGES: [&str; 6] = ["header", "static", "general", "lengthy", "render", "worker"];
const PLAN_NODES: [&str; 7] = [
    "seq_scan",
    "index_scan",
    "index_range",
    "index_loop_join",
    "hash_join",
    "sort",
    "aggregate",
];
const SCANNING_ROUTES: [Page; 3] = [Page::NewProducts, Page::BestSellers, Page::ExecuteSearch];
const MEDIAN_PAGES: [Page; 8] = [
    Page::Home,
    Page::ProductDetail,
    Page::SearchRequest,
    Page::NewProducts,
    Page::BestSellers,
    Page::ExecuteSearch,
    Page::ShoppingCart,
    Page::BuyConfirm,
];

/// What the server says about itself at one instant.
struct Observation {
    metrics: Scrape,
    /// Rows the plans of each scanning route have produced so far.
    rows: Vec<f64>,
    scrape: Duration,
}

/// Reads the server's surfaces between phases. Every load connection
/// is closed and reopened first: the thread-per-request server records
/// a worker's service time only when its connection ends, so time spent
/// so far becomes visible to the scrape. The scrape then rides on a
/// load connection — the header pool is as wide as the connection
/// count, so a third connection would wait for one of them to close.
fn observe(sessions: &mut [Session]) -> Observation {
    for session in sessions.iter_mut() {
        session.reconnect();
    }
    // The workers of the closed connections notice the close on their
    // own threads; give them a moment to record it.
    std::thread::sleep(Duration::from_millis(20));
    let session = &mut sessions[0];
    let started = Instant::now();
    let text = session.get("/metrics").unwrap_or_default();
    let scrape = started.elapsed();
    let rows = SCANNING_ROUTES
        .iter()
        .map(|page| {
            // 404 until the route has run once: nothing scanned yet.
            session
                .get(&format!("/debug/explain?route={}", page.name()))
                .map_or(0.0, |json| numbers_after(&json, "rows_total").iter().sum())
        })
        .collect();
    Observation {
        metrics: Scrape::parse(&text),
        rows,
        scrape,
    }
}

/// Statements `/debug/explain` reports as planned by the legacy
/// executor, over every route the server has seen.
fn legacy_selects(session: &mut Session) -> f64 {
    let listing = session.get("/debug/explain").unwrap_or_default();
    string_array(&listing, "routes")
        .into_iter()
        .filter_map(|route| session.get(&format!("/debug/explain?route={route}")))
        .map(|json| {
            strings_after(&json, "node")
                .into_iter()
                .filter(|node| *node == "legacy_select")
                .count() as f64
        })
        .sum()
}

/// The traced run: every per-layer metric.
pub fn traced(spec: &Spec, opts: &Options) -> Report {
    let scale = opts.scale();
    // Of `--seconds`: a sixth untraced closed, a third traced closed, a
    // quarter open.
    let (reference_segment, traced_segment) = (opts.segment() / 4, opts.segment() / 2);
    let open_seconds = opts.seconds / 4.0;
    let plan = Plan::generate(spec, opts.seed, deploy::population(&scale), open_seconds);

    // Untraced reference on a server with its trace ring off.
    let (reference, _, checks) = run::set_up(spec, opts, &plan, 2);
    let (mut sessions, mut tally) = run::verify_and_warm(&reference, &plan, &checks, opts);
    let untraced = load::closed(&mut sessions, SEGMENTS, reference_segment, false);
    tally.add(untraced.tally);
    drop(sessions);
    reference.stop();

    // The traced server: trace ring on, process-wide allocation
    // counting on, per-page client latencies kept.
    let (traced_server, _) = Deployment::start(spec, &scale, TRACE_RING, &plan.prefill);
    let (mut sessions, warm) = run::verify_and_warm(&traced_server, &plan, &checks, opts);
    tally.add(warm);
    let before = observe(&mut sessions);
    let switches_before = procfs::context_switches();
    let allocs_before = alloc::process_allocs();
    alloc::count_process(true);
    let live = load::closed(&mut sessions, SEGMENTS, traced_segment, true);
    alloc::count_process(false);
    let allocs = alloc::process_allocs() - allocs_before;
    let switches = procfs::context_switches() - switches_before;
    let after = observe(&mut sessions);
    let legacy = legacy_selects(&mut sessions[0]);
    tally.add(live.tally);
    // A short open phase: one window, so the percentiles are pooled.
    let slo = Duration::from_secs_f64(spec.slo_ms / 1e3);
    let open = load::open(&mut sessions, &plan.schedules, slo, OPEN_GRACE, 1);
    tally.add(open.tally);
    drop(sessions);
    let (db, app) = traced_server.stop();

    let delta = Delta {
        before: &before.metrics,
        after: &after.metrics,
    };
    let ok = live.ok.max(1) as f64;
    let writes = live.writes.max(1) as f64;
    let mut measured: Vec<Metric> = Vec::new();
    let mut service_us_per_req = 0.0;
    for stage in STAGES {
        let labels = format!("stage=\"{stage}\"");
        measured.push(metric(
            format!("core.stage_service_us.{stage}"),
            delta.mean("stage_service_seconds", &labels) * 1e6,
            "us",
        ));
        service_us_per_req += delta.sum("stage_service_seconds", &labels) * 1e6 / ok;
        if stage != "worker" {
            measured.push(metric(
                format!("pool.queue_wait_us.{stage}"),
                delta.mean("stage_queue_wait_seconds", &labels) * 1e6,
                "us",
            ));
        }
    }
    let client_us = live.latency_sum.as_secs_f64() * 1e6 / ok;
    measured.push(metric(
        "core.unaccounted_us",
        client_us - service_us_per_req,
        "us",
    ));
    let hits = delta.of("doc_cache_hits_total");
    let misses = delta.of("doc_cache_misses_total");
    measured.push(metric(
        "core.doccache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    ));
    measured.push(metric(
        "core.doccache_invalidations_per_write",
        delta.of("doc_cache_invalidations_total") / writes,
        "count",
    ));
    measured.push(metric(
        "core.doccache_stale_discards",
        delta.of("doc_cache_stale_discards_total"),
        "count",
    ));
    let completed =
        |class: &str| delta.of(&format!("requests_completed_total{{class=\"{class}\"}}"));
    measured.push(metric(
        "core.lengthy_share",
        completed("lengthy-dynamic")
            / (completed("lengthy-dynamic") + completed("quick-dynamic")).max(1.0),
        "ratio",
    ));
    for node in PLAN_NODES {
        measured.push(metric(
            format!("db.plan_node_us.{node}"),
            delta.sum("db_plan_node_seconds", &format!("node=\"{node}\"")) * 1e6 / ok,
            "us",
        ));
    }
    let served = |page: Page| {
        live.page_latencies
            .iter()
            .find(|(p, _)| *p == page)
            .map_or(&[][..], |(_, l)| l.as_slice())
    };
    for (i, page) in SCANNING_ROUTES.into_iter().enumerate() {
        measured.push(metric(
            format!("db.rows_scanned_per_req.{}", page.name()),
            (after.rows[i] - before.rows[i]) / served(page).len().max(1) as f64,
            "count",
        ));
    }
    measured.push(metric("db.legacy_select_count", legacy, "count"));
    measured.push(metric(
        "db.wal_bytes_per_write",
        delta.of("wal_bytes_total") / writes,
        "B",
    ));
    measured.push(metric(
        "db.wal_appends_per_write",
        delta.of("wal_appends_total") / writes,
        "count",
    ));
    for page in MEDIAN_PAGES {
        let latencies = served(page);
        let p50 = if latencies.is_empty() {
            0.0
        } else {
            f64::from(stats::percentile(latencies, 50.0)) / 1e3
        };
        measured.push(metric(
            format!("tpcw.page_p50_us.{}", page.name()),
            p50,
            "us",
        ));
    }
    measured.push(metric(
        "proc.ctx_switches_per_req",
        switches as f64 / ok,
        "count",
    ));
    measured.push(metric("proc.allocs_per_req", allocs as f64 / ok, "count"));
    measured.push(metric(
        "metrics.scrape_ms",
        (before.scrape + after.scrape).as_secs_f64() * 1e3 / 2.0,
        "ms",
    ));
    let untraced_rps = stats::median(&untraced.req_per_s);
    let traced_rps = stats::median(&live.req_per_s);
    measured.push(metric(
        "metrics.trace_overhead_pct",
        (untraced_rps - traced_rps) / untraced_rps.max(1.0) * 100.0,
        "%",
    ));
    measured.push(metric("open_p50_ms", open.percentile_ms(50.0), "ms"));
    measured.push(metric("open_p99_ms", open.percentile_ms(99.0), "ms"));
    measured.push(metric("gen.late_p99_ms", open.late_p99_ms(), "ms"));
    measured.push(metric("gen.backlog_max", open.backlog_max as f64, "count"));

    // Replay on the stopped server's database and app.
    let replayed = replay::replay(spec, &plan.streams[0], &db, &app);
    measured.extend(replayed.metrics);
    measured.push(metric("replay.request_us", replayed.request_us, "us"));
    // Against the untraced phase: the replay is untraced too.
    let untraced_us = untraced.latency_sum.as_secs_f64() * 1e6 / untraced.ok.max(1) as f64;
    measured.push(metric(
        "replay.accounted_share",
        replayed.request_us / untraced_us.max(1e-9),
        "ratio",
    ));
    let path = deploy::out_dir().join(format!("trace_{}.json", spec.name));
    match spans::write_json(&path, spec.name, opts.seed, &replayed.spans) {
        Ok(()) => println!(
            "{} spans written to {}",
            replayed.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "live: untraced {untraced_rps:.1} req/s ({untraced_us:.1} us/request at the client), \
         traced {traced_rps:.1} req/s ({client_us:.1} us/request, of which the stages report \
         {service_us_per_req:.1} us of service); replay: {:.1} us/request",
        replayed.request_us
    );
    Report {
        tally,
        metrics: layers::in_table_order(&layers::PER_LAYER, &measured),
    }
}
