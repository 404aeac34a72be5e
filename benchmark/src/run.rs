//! One workload, start to finish: set-up, verification, warm-up, the
//! closed phase, the open phase — and what they measured.

use crate::deploy::{self, Deployment};
use crate::layers;
use crate::load::{self, Session, Tally};
use crate::oracle::{self, Check};
use crate::procfs;
use crate::stats;
use crate::workload::{Plan, Spec};
use staged_tpcw::ScaleConfig;
use std::time::Duration;

/// The closed phase is cut into this many segments; `req_per_s` and
/// `cpu_ms_per_req` are medians over them, which shrugs off the
/// segments in which the machine did something else.
pub const SEGMENTS: usize = 10;

/// The open phase's latency percentiles are likewise medians over this
/// many windows.
pub const OPEN_WINDOWS: usize = 3;

/// How long the unsent tail of an open phase may lag before its
/// requests are written off as failed.
pub const OPEN_GRACE: Duration = Duration::from_secs(5);

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Measured time: two thirds closed phase, one third open phase.
    pub seconds: f64,
    /// Tiny population, short warm-up, two set-ups: checks correctness,
    /// its numbers mean nothing.
    pub smoke: bool,
}

impl Options {
    pub fn scale(&self) -> ScaleConfig {
        deploy::scale(self.smoke)
    }

    pub fn closed_seconds(&self) -> f64 {
        self.seconds * 2.0 / 3.0
    }

    pub fn open_seconds(&self) -> f64 {
        self.seconds - self.closed_seconds()
    }

    pub fn segment(&self) -> Duration {
        Duration::from_secs_f64(self.closed_seconds() / SEGMENTS as f64)
    }

    /// Discarded closed-loop time before anything is measured.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.2 } else { 2.0 })
    }

    /// Timed set-ups of an end-to-end run; `setup_s` is their median.
    fn setups(&self) -> usize {
        if self.smoke {
            2
        } else {
            3
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run hands back: the operation counts for the failure-share
/// check and its metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// Sets the workload up `setups` times (at least twice: the oracle
/// needs a database of its own), keeping the last deployment live. Returns it with every set-up's duration and
/// the verification prologue, rendered on the first one's database
/// while it was still pristine.
pub fn set_up(
    spec: &Spec,
    opts: &Options,
    plan: &Plan,
    setups: usize,
) -> (Deployment, Vec<f64>, Vec<Check>) {
    assert!(
        setups >= 2,
        "the oracle renders on an earlier set-up's database"
    );
    let scale = opts.scale();
    let mut times = Vec::new();
    let mut checks = None;
    loop {
        let (deployment, took) = Deployment::start(spec, &scale, 0, &plan.prefill);
        times.push(took.as_secs_f64());
        if times.len() == setups {
            let checks = checks.expect("an earlier set-up rendered the oracle's bodies");
            return (deployment, times, checks);
        }
        let (db, app) = deployment.stop();
        checks.get_or_insert_with(|| oracle::prologue(&plan.streams, &app, &db));
    }
}

/// Verification and warm-up on a fresh deployment: the oracle's
/// prologue (which also serves every page of the workload often enough
/// for the quick/lengthy classifier to settle), then discarded
/// closed-loop time on the connections the measured phases will use.
pub fn verify_and_warm<'a>(
    deployment: &Deployment,
    plan: &'a Plan,
    checks: &[Check],
    opts: &Options,
) -> (Vec<Session<'a>>, Tally) {
    let mut tally = load::verify(deployment.addr(), &plan.streams, checks);
    let mut sessions: Vec<Session> = plan
        .streams
        .iter()
        .map(|s| Session::connect(deployment.addr(), s))
        .collect();
    tally.add(load::closed(&mut sessions, 1, opts.warmup(), false).tally);
    (sessions, tally)
}

/// The untraced run: the end-to-end metrics.
pub fn end_to_end(spec: &Spec, opts: &Options) -> Report {
    let plan = Plan::generate(
        spec,
        opts.seed,
        deploy::population(&opts.scale()),
        opts.open_seconds(),
    );
    let (deployment, setup_times, checks) = set_up(spec, opts, &plan, opts.setups());
    let (mut sessions, mut tally) = verify_and_warm(&deployment, &plan, &checks, opts);

    // Closed phase straight after the closed-loop warm-up: the kernel
    // has by then settled where it runs each generator thread and the
    // server threads it wakes. After an open phase it takes seconds to
    // settle again, and throughput is bimodal meanwhile.
    let closed = load::closed(&mut sessions, SEGMENTS, opts.segment(), false);
    tally.add(closed.tally);
    let slo = Duration::from_secs_f64(spec.slo_ms / 1e3);
    let open = load::open(
        &mut sessions,
        &plan.schedules,
        slo,
        OPEN_GRACE,
        OPEN_WINDOWS,
    );
    tally.add(open.tally);
    drop(sessions);
    let peak_rss_mb = procfs::peak_rss_mb();
    deployment.stop();

    let (rq1, rq2, rq3) = stats::quartiles(&closed.req_per_s);
    let (cq1, cq2, cq3) = stats::quartiles(&closed.cpu_ms_per_req);
    let sent = open.tally.attempted.max(1) as f64;
    let samples = open.samples();
    println!(
        "setup_s runs {:?}; req_per_s segments q1 {rq1:.1} median {rq2:.1} q3 {rq3:.1}; \
         cpu_ms_per_req segments q1 {cq1:.4} median {cq2:.4} q3 {cq3:.4}",
        setup_times
    );
    println!(
        "open phase: {} sent at {} req/s on {} connections, {samples} latency samples in {} \
         windows (a window supports p{}; medians over the windows: p50 {:.3} ms, p99 {:.3} ms), \
         limit {} ms, generator late p99 {:.3} ms, backlog max {}",
        open.tally.attempted,
        spec.rate_rps,
        plan.schedules.len(),
        open.windows.len(),
        stats::highest_supported_percentile(samples / open.windows.len().max(1)),
        open.percentile_ms(50.0),
        open.percentile_ms(99.0),
        spec.slo_ms,
        open.late_p99_ms(),
        open.backlog_max,
    );
    let measured = [
        metric("setup_s", stats::median(&setup_times), "s"),
        metric("req_per_s", rq2, "1/s"),
        metric("slo_ok_ratio", open.within_slo as f64 / sent, "ratio"),
        metric("cpu_ms_per_req", cq2, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Report {
        tally,
        metrics: layers::in_table_order(&layers::END_TO_END, &measured),
    }
}
