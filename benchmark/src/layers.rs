//! The metric tables: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names in the same
//! order (a unit test compares them), and a traced run reports every
//! per-layer name on every workload — zero where the workload does not
//! reach the layer — so a metric never appears or disappears with the
//! workload.

use crate::run::{metric, Metric};

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

pub const END_TO_END: [Def; 5] = [
    ("setup_s", "s", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("slo_ok_ratio", "ratio", "higher"),
    ("cpu_ms_per_req", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

pub const PER_LAYER: [Def; 79] = [
    // http — replay
    ("http.parse_us", "us", "lower"),
    ("http.parse_allocs", "count", "lower"),
    ("http.send_us", "us", "lower"),
    ("http.send_allocs", "count", "lower"),
    ("http.bytes_out_per_req", "B", "lower"),
    ("http.static_lookup_us", "us", "lower"),
    // pool — replay (hand-off) and live (queue waits)
    ("pool.handoff_us", "us", "lower"),
    ("pool.queue_wait_us.header", "us", "lower"),
    ("pool.queue_wait_us.static", "us", "lower"),
    ("pool.queue_wait_us.general", "us", "lower"),
    ("pool.queue_wait_us.lengthy", "us", "lower"),
    ("pool.queue_wait_us.render", "us", "lower"),
    // core — live
    ("core.stage_service_us.header", "us", "lower"),
    ("core.stage_service_us.static", "us", "lower"),
    ("core.stage_service_us.general", "us", "lower"),
    ("core.stage_service_us.lengthy", "us", "lower"),
    ("core.stage_service_us.render", "us", "lower"),
    ("core.stage_service_us.worker", "us", "lower"),
    ("core.unaccounted_us", "us", "lower"),
    ("core.doccache_hit_ratio", "ratio", "higher"),
    ("core.doccache_invalidations_per_write", "count", "lower"),
    ("core.doccache_stale_discards", "count", "lower"),
    ("core.lengthy_share", "ratio", "lower"),
    // core — replay
    ("core.route_us", "us", "lower"),
    ("core.cache_key_us", "us", "lower"),
    ("core.doccache_lookup_us", "us", "lower"),
    ("core.doccache_publish_us", "us", "lower"),
    // db — replay
    ("db.checkout_us", "us", "lower"),
    ("db.exec_us.home", "us", "lower"),
    ("db.exec_us.product_detail", "us", "lower"),
    ("db.exec_us.new_products", "us", "lower"),
    ("db.exec_us.best_sellers", "us", "lower"),
    ("db.exec_us.execute_search", "us", "lower"),
    ("db.exec_us.buy_confirm", "us", "lower"),
    ("db.write_us", "us", "lower"),
    // db — live
    ("db.plan_node_us.seq_scan", "us", "lower"),
    ("db.plan_node_us.index_scan", "us", "lower"),
    ("db.plan_node_us.index_range", "us", "lower"),
    ("db.plan_node_us.index_loop_join", "us", "lower"),
    ("db.plan_node_us.hash_join", "us", "lower"),
    ("db.plan_node_us.sort", "us", "lower"),
    ("db.plan_node_us.aggregate", "us", "lower"),
    ("db.rows_scanned_per_req.new_products", "count", "lower"),
    ("db.rows_scanned_per_req.best_sellers", "count", "lower"),
    ("db.rows_scanned_per_req.execute_search", "count", "lower"),
    ("db.legacy_select_count", "count", "lower"),
    ("db.wal_bytes_per_write", "B", "lower"),
    ("db.wal_appends_per_write", "count", "lower"),
    // templates — replay
    ("templates.render_us.home", "us", "lower"),
    ("templates.render_us.product_detail", "us", "lower"),
    ("templates.render_us.new_products", "us", "lower"),
    ("templates.render_us.execute_search", "us", "lower"),
    ("templates.render_allocs", "count", "lower"),
    ("templates.bytes_per_us", "B/us", "higher"),
    // tpcw — replay (handlers) and live (client-side page medians)
    ("tpcw.handler_us.home", "us", "lower"),
    ("tpcw.handler_us.product_detail", "us", "lower"),
    ("tpcw.handler_us.new_products", "us", "lower"),
    ("tpcw.handler_us.best_sellers", "us", "lower"),
    ("tpcw.handler_us.execute_search", "us", "lower"),
    ("tpcw.handler_us.buy_confirm", "us", "lower"),
    ("tpcw.page_p50_us.home", "us", "lower"),
    ("tpcw.page_p50_us.product_detail", "us", "lower"),
    ("tpcw.page_p50_us.search_request", "us", "lower"),
    ("tpcw.page_p50_us.new_products", "us", "lower"),
    ("tpcw.page_p50_us.best_sellers", "us", "lower"),
    ("tpcw.page_p50_us.execute_search", "us", "lower"),
    ("tpcw.page_p50_us.shopping_cart", "us", "lower"),
    ("tpcw.page_p50_us.buy_confirm", "us", "lower"),
    // the process and the measuring apparatus — live
    ("proc.ctx_switches_per_req", "count", "lower"),
    ("proc.allocs_per_req", "count", "lower"),
    ("metrics.scrape_ms", "ms", "lower"),
    ("metrics.trace_overhead_pct", "%", "lower"),
    // open-phase latency: too unsteady on a shared machine to carry a
    // bound (see README, Noise), so it is reported here
    ("open_p50_ms", "ms", "lower"),
    ("open_p99_ms", "ms", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("gen.backlog_max", "count", "lower"),
    // the replay as a whole
    ("replay.request_us", "us", "lower"),
    ("replay.db_exec_share", "ratio", "lower"),
    ("replay.accounted_share", "ratio", "higher"),
];

/// Lays measured values out in table order: every name of `table`
/// exactly once, zero where nothing was measured.
///
/// # Panics
///
/// Panics if a measured name is not in the table — a metric must be
/// added to the table (and `BENCHMARK.json`) before it is reported.
pub fn in_table_order(table: &[Def], measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        assert!(
            table
                .iter()
                .any(|(name, unit, _)| *name == m.name && *unit == m.unit),
            "{} [{}] is not in the metric table",
            m.name,
            m.unit
        );
    }
    table
        .iter()
        .map(|&(name, unit, _)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::{array_after as section, numbers_after, strings_after};
    use crate::workload::SPECS;

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = |key| strings_after(section(&json, key), "name");
        let workloads: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names("workloads"), workloads);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let sec = section(&json, key);
            let expect = |f: fn(&Def) -> &'static str| table.iter().map(f).collect::<Vec<_>>();
            assert_eq!(strings_after(sec, "name"), expect(|d| d.0), "{key} names");
            assert_eq!(strings_after(sec, "unit"), expect(|d| d.1), "{key} units");
            assert_eq!(
                strings_after(sec, "better"),
                expect(|d| d.2),
                "{key} directions"
            );
        }
        let bounds = numbers_after(section(&json, "end_to_end"), "bound");
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        assert!(all.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn table_order_fills_gaps_with_zero() {
        let got = in_table_order(&END_TO_END, &[metric("req_per_s", 5.0, "1/s")]);
        assert_eq!(got.len(), 5);
        assert_eq!((got[1].name.as_str(), got[1].value), ("req_per_s", 5.0));
        assert_eq!(got[0].value, 0.0);
    }
}
