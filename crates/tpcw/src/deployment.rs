//! The deployment an experiment runs: population, server, cost model
//! and emulated browsers in one value, with the paper run's constants
//! in [`Deployment::paper`] and nowhere else.

use crate::scale::ScaleConfig;
use staged_core::ServerConfig;
use staged_db::CostModel;
use std::time::Duration;

/// Everything one run of the TPC-W experiment deploys: the populated
/// database, both servers' configuration, the synthetic query cost and
/// the emulated browsers (EBs) that drive it
/// ([`run_workload`](crate::run_workload)).
///
/// # Examples
///
/// ```
/// use staged_tpcw::{Deployment, ScaleConfig};
///
/// let d = Deployment::paper().with_population(ScaleConfig::tiny());
/// assert_eq!(d.scale.items, 100);
/// assert_eq!(d.ebs, Deployment::paper().ebs);
/// ```
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Population sizes, plus the emulated render and static weights
    /// the app reads (see [`ScaleConfig::render_weight_per_kb`]).
    pub scale: ScaleConfig,
    /// Pool sizes, connections and scheduler parameters; both servers
    /// start from this one value.
    pub server: ServerConfig,
    /// Synthetic per-row query latency (DESIGN.md §3).
    pub cost: CostModel,
    /// Number of emulated browsers.
    pub ebs: usize,
    /// Shortest think time between an EB's interactions.
    pub think_min: Duration,
    /// Longest think time; each think is uniform in
    /// `think_min..=think_max`.
    pub think_max: Duration,
    /// Static sub-requests (embedded images) an EB fetches per page
    /// view; they count toward the page's response time.
    pub images_per_page: usize,
}

impl Deployment {
    /// The paper run (DESIGN.md §3), shrunk coherently to a single
    /// host: times are the paper's divided by 10 (×10), the web
    /// tier has a quarter of the paper's connections, and query costs
    /// are sleeps, so a thread blocked on the database burns no CPU,
    /// as the paper's threads waiting on a remote database host did.
    ///
    /// | constant | value | paper | scale |
    /// |---|---|---|---|
    /// | population ([`ScaleConfig::small`]) | 1 000 items, 2 880 customers, 2 590 orders | 1 M, 2.88 M, 2.59 M | ×1/1000 in size, TPC-W's ratios kept |
    /// | `ebs` | 250 | 400 | web tier shrunk with the connections |
    /// | `think_min..=think_max` | 70–700 ms | 0.7–7 s | ×10 |
    /// | `images_per_page` | 10 | static ≈ 10 × dynamic requests (Figure 10a) | none |
    /// | `render_weight_per_kb` | 3 ms per KB rendered | CPython/Django rendering, not stated | emulated |
    /// | `static_weight` | 1 ms per static response | CherryPy static serving, not stated | emulated |
    /// | `cost.scan_ns_per_row` | 30 µs (a full `small` item scan ≈ 30 ms) | MySQL on the 1 M-item database, not stated per row | emulated |
    /// | `cost.write_ns_per_row` | 10 µs | not stated | emulated |
    /// | `header`/`static`/`general`/`lengthy`/`render` workers | 4 / 8 / 8 / 2 / 4 | general = 4 × lengthy (§3.3) | ratio kept |
    /// | `baseline_workers`, `db_connections` | 10, 10 | ~40 | a quarter |
    /// | `lengthy_cutoff` | 10 ms | 2 s | **off scale**: ×10 would be 200 ms |
    /// | `controller_tick` | 100 ms | 1 s | ×10 |
    /// | `min_reserve`, `max_reserve` | 1, 2 | 20 (Table 2's example), no cap | scaled to the general pool |
    ///
    /// Library defaults inherited from [`ServerConfig::default`], not
    /// set here:
    ///
    /// | constant | value | paper | scale |
    /// |---|---|---|---|
    /// | `queue_factor` | 64 jobs per worker | unbounded queues | none; a full queue answers `503` |
    /// | `read_timeout`, `write_timeout` | 10 s | not stated | none |
    /// | `db_acquire_timeout` | 500 ms | not stated | none |
    /// | `request_deadline` | none | none | none |
    /// | `limits` | [`ParseLimits::default`](staged_http::ParseLimits) | not stated | none |
    /// | `trace_ring` | 32 | none | none |
    /// | `doc_cache`, `breaker`, `governor`, `durability`, `fault_plan` | off | none of them | none |
    ///
    /// The EB driver's client timeout (120 s) and seed are constants of
    /// [`run_workload`](crate::run_workload).
    pub fn paper() -> Self {
        Deployment {
            scale: ScaleConfig {
                render_weight_per_kb: Duration::from_millis(3),
                static_weight: Duration::from_millis(1),
                ..ScaleConfig::small()
            },
            server: ServerConfig {
                header_workers: 4,
                static_workers: 8,
                general_workers: 8,
                lengthy_workers: 2,
                render_workers: 4,
                baseline_workers: 10,
                db_connections: 10,
                lengthy_cutoff: Duration::from_millis(10),
                controller_tick: Duration::from_millis(100),
                min_reserve: 1,
                max_reserve: 2,
                ..ServerConfig::default()
            },
            cost: CostModel::new(30_000, 10_000),
            ebs: 250,
            think_min: Duration::from_millis(70),
            think_max: Duration::from_millis(700),
            images_per_page: 10,
        }
    }

    /// This deployment over another population. The emulated render and
    /// static weights stay this deployment's.
    pub fn with_population(self, population: ScaleConfig) -> Self {
        let scale = ScaleConfig {
            render_weight_per_kb: self.scale.render_weight_per_kb,
            static_weight: self.scale.static_weight,
            ..population
        };
        Deployment { scale, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_is_consistent() {
        let d = Deployment::paper();
        d.server.validate();
        d.scale.validate();
        assert!(d.think_min <= d.think_max, "inverted think range");
        assert!(d.ebs > 0);
    }
}
