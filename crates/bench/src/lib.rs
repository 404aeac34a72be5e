//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one of the paper's tables or
//! figures (see `DESIGN.md` §4 for the index); this library holds the
//! common machinery: building a populated TPC-W deployment, running the
//! browsing-mix workload against either server, and collecting
//! server-side traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use staged_core::{BaselineServer, RequestKind, ServerConfig, ServerHandle, StagedServer};
use staged_db::{CostModel, Database};
use staged_metrics::{Registry, SeriesPoint, Snapshot, TimeSeries};
use staged_pool::{QueueSampler, SamplerHandle};
use staged_tpcw::{build_app, populate, run_workload, ScaleConfig, WorkloadConfig, WorkloadReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use staged_sync::atomic::{AtomicU64, Ordering};
use staged_sync::{OrderedMutex, Rank};
use std::collections::HashMap;

pub mod hostile;

/// Populated-database snapshots keyed by scale identity, so an
/// experiment that builds several fresh deployments (both servers,
/// ablation variants) pays the deterministic population cost once.
/// Rank 50 (DESIGN.md §10): outermost of everything — population runs
/// whole database statements under this guard.
type SnapshotCache = HashMap<(usize, u64), Arc<Vec<u8>>>;
static SNAPSHOTS: OrderedMutex<Option<SnapshotCache>> =
    OrderedMutex::new(Rank::new(50), "bench.snapshots", None);

/// Which request-processing model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Thread-per-request (the paper's "unmodified web server").
    Unmodified,
    /// The five-pool staged server (the paper's "modified web server").
    Modified,
}

impl Model {
    /// The paper's label for this model.
    pub fn label(&self) -> &'static str {
        match self {
            Model::Unmodified => "unmodified",
            Model::Modified => "modified",
        }
    }
}

/// Everything an experiment run needs.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Database/population scale.
    pub scale: ScaleConfig,
    /// Server pool sizes and scheduler parameters.
    pub server: ServerConfig,
    /// Synthetic per-row query latency (see `DESIGN.md` §3).
    pub cost: CostModel,
    /// Concurrent costed-query slots on the emulated database host;
    /// 0 (the default) = unbounded, leaving the bounded connection
    /// pool as the concurrency limit, as in the paper's testbed.
    pub db_capacity: usize,
    /// Number of emulated browsers.
    pub ebs: usize,
    /// Warm-up excluded from measurement.
    pub ramp: Duration,
    /// Measurement interval.
    pub measure: Duration,
}

impl Default for Experiment {
    fn default() -> Self {
        // The testbed here is a single-core container, so the paper's
        // deployment is shrunk coherently: a ×10 time scale (think
        // 70–700 ms), a 10-connection web tier, and sleep-based query
        // costs (a blocked thread models the paper's web threads
        // waiting on the remote database host without burning the one
        // local CPU).
        let server = ServerConfig {
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
        };
        Experiment {
            scale: ScaleConfig::small(),
            server,
            // 30 µs per scanned row: Best Sellers' ~11k-row aggregate
            // costs ~330 ms (the paper's ~3 s at ×10), item scans
            // (New Products, searches) ~30 ms, point lookups µs.
            cost: CostModel::new(30_000, 10_000),
            db_capacity: 0,
            ebs: 250,
            ramp: Duration::from_secs(5),
            measure: Duration::from_secs(20),
        }
    }
}

impl Experiment {
    /// Parses command-line flags over the defaults:
    /// `--ebs N`, `--measure-secs S`, `--ramp-secs S`,
    /// `--scale tiny|small|default`, `--scan-ns N`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or bad values.
    pub fn from_args() -> Self {
        let mut exp = Experiment::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| -> &str {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
            };
            match args[i].as_str() {
                "--ebs" => exp.ebs = value(i).parse().expect("--ebs takes a number"),
                "--measure-secs" => {
                    exp.measure = Duration::from_secs_f64(value(i).parse().expect("--measure-secs"))
                }
                "--ramp-secs" => {
                    exp.ramp = Duration::from_secs_f64(value(i).parse().expect("--ramp-secs"))
                }
                "--scale" => {
                    exp.scale = match value(i) {
                        "tiny" => ScaleConfig::tiny(),
                        "small" => ScaleConfig::small(),
                        "default" | "full" => ScaleConfig::default(),
                        other => panic!("unknown scale: {other}"),
                    }
                }
                "--scan-ns" => {
                    exp.cost.scan_ns_per_row = value(i).parse().expect("--scan-ns");
                }
                "--db-cap" => {
                    exp.db_capacity = value(i).parse().expect("--db-cap");
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --ebs N --measure-secs S --ramp-secs S \
                         --scale tiny|small|default --scan-ns N --db-cap N"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag: {other} (try --help)"),
            }
            i += 2;
        }
        exp
    }

    /// Builds a freshly populated database with this experiment's cost
    /// model installed. Population runs once per scale; later builds
    /// restore from an in-memory snapshot (`staged_db::Database::dump`).
    pub fn build_database(&self) -> Arc<Database> {
        let key = (self.scale.items, self.scale.seed);
        let cached = SNAPSHOTS
            .lock()
            .get_or_insert_with(HashMap::new)
            .get(&key)
            .cloned();
        let db = match cached {
            Some(snapshot) => {
                Arc::new(Database::restore(snapshot.as_slice()).expect("own snapshot restores"))
            }
            None => {
                let db = Arc::new(Database::new());
                populate(&db, &self.scale);
                let mut buf = Vec::new();
                db.dump(&mut buf).expect("dump to memory");
                SNAPSHOTS
                    .lock()
                    .get_or_insert_with(HashMap::new)
                    .insert(key, Arc::new(buf));
                db
            }
        };
        db.set_cost_model(self.cost);
        db.set_capacity(self.db_capacity);
        db
    }

    /// Starts the chosen server over a fresh deployment.
    pub fn start_server(&self, model: Model, db: Arc<Database>) -> ServerHandle {
        let app = build_app(&db, &self.scale);
        match model {
            Model::Unmodified => {
                BaselineServer::start(self.server.clone(), app, db).expect("bind server")
            }
            Model::Modified => {
                StagedServer::start(self.server.clone(), app, db).expect("bind server")
            }
        }
    }

    /// Width of the sampled series' buckets (queue lengths, and the
    /// completions behind Figures 9 and 10): a twentieth of the
    /// measurement interval, so a run of any length plots at the same
    /// resolution — 1 s at the default 20 s (the paper: per-minute
    /// buckets over a 50-minute window).
    pub fn sample_interval(&self) -> Duration {
        (self.measure / 20).max(Duration::from_millis(1))
    }

    /// The workload configuration for this experiment.
    pub fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            ebs: self.ebs,
            ramp_up: self.ramp,
            duration: self.measure,
            timeout: Duration::from_secs(120),
            seed: 0x0d5e_2009,
            scale: self.scale.clone(),
        }
    }
}

/// The outcome of one measured run.
pub struct RunOutcome {
    /// Client-side per-page measurements (Tables 3 & 4).
    pub report: WorkloadReport,
    /// The server, still running, for registry reads.
    pub server: ServerHandle,
    /// Sampled queue-length traces by gauge name (Figures 7 & 8).
    pub queue_traces: BTreeMap<String, Vec<SeriesPoint>>,
    /// Completions per bucket of the measurement interval, by
    /// [`RequestKind::label`] (Figures 9 & 10).
    pub completions: BTreeMap<&'static str, Vec<SeriesPoint>>,
}

/// Runs one model once: fresh database, fresh server, full workload.
/// Queue gauges named in `trace_queues` are sampled from the start of
/// ramp-up, completions from the start of measurement, both every
/// [`Experiment::sample_interval`].
pub fn run_model(exp: &Experiment, model: Model, trace_queues: &[&str]) -> RunOutcome {
    run_model_with(exp, model, trace_queues, || {})
}

/// [`run_model`] with an extra hook invoked at the exact start of the
/// measurement interval (after ramp-up), just after completion sampling
/// starts. The throughput benchmark uses it to snapshot the global
/// allocation counter so ramp-up allocations are excluded.
pub fn run_model_with(
    exp: &Experiment,
    model: Model,
    trace_queues: &[&str],
    on_measure_start: impl FnOnce(),
) -> RunOutcome {
    let db = exp.build_database();
    let server = exp.start_server(model, db);
    let interval = exp.sample_interval();
    let mut sampler = QueueSampler::new(interval);
    let mut series = Vec::new();
    for name in trace_queues {
        let depth = server
            .registry()
            .gauge_read("stage_queue_depth", &[("stage", name)])
            .unwrap_or_else(|| panic!("server has no stage queue named {name}"));
        let gauge = move || depth().max(0.0) as usize;
        series.push((name.to_string(), sampler.track(*name, gauge)));
    }
    let sampler_handle = sampler.start();
    let mut completions = None;
    let report = run_workload(server.addr(), &exp.workload(), || {
        completions = Some(sample_completions(server.registry(), interval));
        on_measure_start();
    });
    let (completion_handle, completions) = completions.expect("measurement started");
    completion_handle.stop();
    sampler_handle.stop();
    let queue_traces = series
        .into_iter()
        .map(|(name, ts)| (name, ts.bucket_means()))
        .collect();
    let completions = completions
        .into_iter()
        .map(|(class, ts)| (class, ts.counts_per_bucket()))
        .collect();
    RunOutcome {
        report,
        server,
        queue_traces,
        completions,
    }
}

/// Starts sampling the `requests_completed_total{class}` counters in
/// `registry` every `interval`: each bucket of a class's series holds
/// the completions since the previous sample, counted from this call
/// on. The sampler samples once more when stopped, so the buckets sum
/// to the counters' movement between this call and the stop.
fn sample_completions(
    registry: &Registry,
    interval: Duration,
) -> (SamplerHandle, Vec<(&'static str, Arc<TimeSeries>)>) {
    let mut sampler = QueueSampler::new(interval);
    let series = RequestKind::ALL
        .iter()
        .map(|kind| {
            let counter = registry.counter("requests_completed_total", &[("class", kind.label())]);
            let seen = AtomicU64::new(counter.value());
            let since_last = move || {
                let now = counter.value();
                (now - seen.swap(now, Ordering::AcqRel)) as usize
            };
            (kind.label(), sampler.track(kind.label(), since_last))
        })
        .collect();
    (sampler.start(), series)
}

/// Builds one row of a `--json` artifact: string tags first (model,
/// phase, …), then the numeric fields of `snap` rendered through the
/// shared [`Snapshot`] encoding — the same field enumeration and value
/// formatter the `/metrics` exporter uses, so bench artifacts cannot
/// drift from the exposition field-by-field.
pub fn json_row(tags: &[(&str, &str)], snap: &dyn Snapshot) -> String {
    let mut body = String::new();
    snap.encode_json(&mut body).expect("string write");
    let mut row = String::from("{");
    for (key, value) in tags {
        let _ = write!(row, "\"{key}\":\"{value}\",");
    }
    // Splice the snapshot's own object body after the tags.
    row.push_str(body.trim_start_matches('{'));
    row
}

/// Prints a `(time, value)` series as aligned text, one row per bucket —
/// the data behind one curve of a paper figure.
pub fn print_series(title: &str, points: &[SeriesPoint]) {
    println!("# {title}");
    println!("{:>10} {:>12}", "t(s)", "value");
    for p in points {
        println!("{:>10.1} {:>12.1}", p.at_secs, p.value);
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let exp = Experiment::default();
        exp.server.validate();
        exp.scale.validate();
        assert!(exp.ebs > 0);
    }

    #[test]
    fn tiny_run_produces_data_for_both_models() {
        let exp = Experiment {
            scale: ScaleConfig::tiny(),
            server: ServerConfig::small(),
            cost: CostModel::free(),
            db_capacity: 0,
            ebs: 4,
            ramp: Duration::from_millis(50),
            measure: Duration::from_millis(400),
        };
        for model in [Model::Unmodified, Model::Modified] {
            let outcome = run_model(&exp, model, &[]);
            assert!(
                outcome.report.total_interactions > 0,
                "{}: no interactions",
                model.label()
            );
            outcome.server.shutdown().expect("clean shutdown");
        }
    }

    #[test]
    fn completion_series_cover_exactly_the_measurement_window() {
        // Exact accounting on a bare registry: completions before the
        // start are excluded, and the buckets sum to the counters'
        // movement up to the stop, the last partial bucket included.
        let registry = Registry::new();
        let quick = registry.counter("requests_completed_total", &[("class", "quick-dynamic")]);
        quick.add(5); // ramp-up
        let (handle, series) = sample_completions(&registry, Duration::from_millis(5));
        quick.add(3);
        std::thread::sleep(Duration::from_millis(20));
        quick.add(2);
        handle.stop();
        let totals: Vec<(&str, f64)> = series.iter().map(|(c, ts)| (*c, ts.total())).collect();
        assert_eq!(
            totals,
            [
                ("static", 0.0),
                ("quick-dynamic", 5.0),
                ("lengthy-dynamic", 0.0)
            ]
        );
        assert!(
            series[1].1.counts_per_bucket().len() > 1,
            "one bucket per sample"
        );

        // Wired to a live run: every class has a series, and the ramp-up
        // completions the counters hold are not in it.
        let exp = Experiment {
            scale: ScaleConfig::tiny(),
            server: ServerConfig::small(),
            cost: CostModel::free(),
            db_capacity: 0,
            ebs: 4,
            ramp: Duration::from_millis(200),
            measure: Duration::from_millis(400),
        };
        let outcome = run_model(&exp, Model::Modified, &[]);
        let registry = outcome.server.registry();
        for kind in RequestKind::ALL {
            assert!(!outcome.completions[kind.label()].is_empty(), "{kind}");
        }
        let window: f64 = outcome
            .completions
            .values()
            .flatten()
            .map(|p| p.value)
            .sum();
        let total = registry.family_sum("requests_completed_total");
        assert!(window > 0.0, "no completions measured");
        assert!(window < total, "ramp-up completions must be excluded");
        outcome.server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn queue_traces_are_collected() {
        let exp = Experiment {
            scale: ScaleConfig::tiny(),
            server: ServerConfig::small(),
            cost: CostModel::free(),
            db_capacity: 0,
            ebs: 4,
            ramp: Duration::from_millis(50),
            measure: Duration::from_millis(300),
        };
        let outcome = run_model(&exp, Model::Modified, &["general", "lengthy"]);
        assert!(outcome.queue_traces.contains_key("general"));
        assert!(outcome.queue_traces.contains_key("lengthy"));
        assert!(!outcome.queue_traces["general"].is_empty());
        outcome.server.shutdown().expect("clean shutdown");
    }
}
