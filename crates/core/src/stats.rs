//! Server-side statistics: per-class completion counters and time
//! series (the data behind the paper's Figures 9 and 10).

use staged_metrics::{Counter, Registry, Snapshot, TimeSeries};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The completion class of a request, as the paper's Figure 10 breaks
/// throughput down: static, quick dynamic, lengthy dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A static file request.
    Static,
    /// A dynamic request classified quick at dispatch time.
    QuickDynamic,
    /// A dynamic request classified lengthy at dispatch time.
    LengthyDynamic,
}

impl RequestKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [RequestKind; 3] = [
        RequestKind::Static,
        RequestKind::QuickDynamic,
        RequestKind::LengthyDynamic,
    ];

    /// Short label for table output.
    pub fn label(&self) -> &'static str {
        match self {
            RequestKind::Static => "static",
            RequestKind::QuickDynamic => "quick-dynamic",
            RequestKind::LengthyDynamic => "lengthy-dynamic",
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where in the pipeline an overloaded request was shed with a `503`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedPoint {
    /// The listener found the header queue full.
    Listener,
    /// A header worker found the static queue full.
    StaticStage,
    /// A header worker found the general dynamic queue full.
    General,
    /// A header worker found the lengthy dynamic queue full.
    Lengthy,
    /// A dynamic worker found the render queue full.
    Render,
    /// A finished keep-alive connection could not re-enter the full
    /// header queue (the connection is dropped, not answered).
    KeepAlive,
}

impl ShedPoint {
    /// All shed points, for iteration in reports.
    pub const ALL: [ShedPoint; 6] = [
        ShedPoint::Listener,
        ShedPoint::StaticStage,
        ShedPoint::General,
        ShedPoint::Lengthy,
        ShedPoint::Render,
        ShedPoint::KeepAlive,
    ];

    /// Short label for table output.
    pub fn label(&self) -> &'static str {
        match self {
            ShedPoint::Listener => "listener",
            ShedPoint::StaticStage => "static-stage",
            ShedPoint::General => "general",
            ShedPoint::Lengthy => "lengthy",
            ShedPoint::Render => "render",
            ShedPoint::KeepAlive => "keep-alive",
        }
    }
}

impl fmt::Display for ShedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared observable server statistics.
#[derive(Debug)]
pub struct ServerStats {
    /// Completed requests by class.
    completed: [Counter; 3],
    /// Time-bucketed completions by class (Figure 10 series).
    series: [TimeSeries; 3],
    /// Time-bucketed completions overall (Figure 9 series).
    total_series: TimeSeries,
    /// Requests shed with `503`, by pipeline point.
    sheds: [Counter; 6],
    /// Responses that ended in an error status (4xx/5xx generated by
    /// the server machinery).
    pub errors: Counter,
    /// Connections dropped due to parse failures or I/O errors.
    pub dropped_connections: Counter,
    /// Handler panics converted to 500s.
    pub handler_panics: Counter,
    /// Requests answered `503` because their deadline had already
    /// passed when a stage dequeued them.
    pub deadline_expired: Counter,
    /// Requests answered `503` because no database connection could be
    /// re-acquired after the worker's own died.
    pub pool_starved: Counter,
    /// Accepted sockets dropped by the chaos knob.
    pub chaos_killed: Counter,
    /// Accepted sockets whose enqueue the chaos knob stalled.
    pub chaos_stalled: Counter,
    /// Requests answered from the stale-render cache (`2xx` with
    /// `Warning: 110`) because fresh generation was unavailable — the
    /// middle rung of the degradation ladder.
    pub degraded: Counter,
    /// Degradation attempts that found no usable stale copy and fell
    /// through to a `503`.
    pub stale_misses: Counter,
    /// Connections killed by a lifecycle budget — the peer failed to
    /// deliver a complete header block before the wall-clock deadline,
    /// or trickled a body below the minimum throughput (answered `408`
    /// with `Connection: close`).
    pub slowloris_kills: Counter,
}

impl ServerStats {
    /// Creates stats with the given time-series bucket width.
    pub fn new(bucket: Duration) -> Self {
        ServerStats {
            completed: [Counter::new(), Counter::new(), Counter::new()],
            series: [
                TimeSeries::new(bucket),
                TimeSeries::new(bucket),
                TimeSeries::new(bucket),
            ],
            total_series: TimeSeries::new(bucket),
            sheds: std::array::from_fn(|_| Counter::new()),
            errors: Counter::new(),
            dropped_connections: Counter::new(),
            handler_panics: Counter::new(),
            deadline_expired: Counter::new(),
            pool_starved: Counter::new(),
            chaos_killed: Counter::new(),
            chaos_stalled: Counter::new(),
            degraded: Counter::new(),
            stale_misses: Counter::new(),
            slowloris_kills: Counter::new(),
        }
    }

    fn idx(kind: RequestKind) -> usize {
        match kind {
            RequestKind::Static => 0,
            RequestKind::QuickDynamic => 1,
            RequestKind::LengthyDynamic => 2,
        }
    }

    fn shed_idx(point: ShedPoint) -> usize {
        match point {
            ShedPoint::Listener => 0,
            ShedPoint::StaticStage => 1,
            ShedPoint::General => 2,
            ShedPoint::Lengthy => 3,
            ShedPoint::Render => 4,
            ShedPoint::KeepAlive => 5,
        }
    }

    /// Records one request shed with a `503` at `point`. Sheds are
    /// deliberately **not** completions: goodput counts only requests
    /// the server actually served.
    pub fn record_shed(&self, point: ShedPoint) {
        self.sheds[Self::shed_idx(point)].increment();
    }

    /// Shed count at one pipeline point.
    pub fn shed(&self, point: ShedPoint) -> u64 {
        self.sheds[Self::shed_idx(point)].value()
    }

    /// Total requests shed across all pipeline points.
    pub fn total_sheds(&self) -> u64 {
        ShedPoint::ALL.iter().map(|p| self.shed(*p)).sum()
    }

    /// Records one completed request.
    pub fn record_completion(&self, kind: RequestKind) {
        let i = Self::idx(kind);
        self.completed[i].increment();
        self.series[i].increment();
        self.total_series.increment();
    }

    /// Completed count for a class.
    pub fn completed(&self, kind: RequestKind) -> u64 {
        self.completed[Self::idx(kind)].value()
    }

    /// Total completed requests.
    pub fn total_completed(&self) -> u64 {
        RequestKind::ALL.iter().map(|k| self.completed(*k)).sum()
    }

    /// The per-class throughput series (Figure 10).
    pub fn series(&self, kind: RequestKind) -> &TimeSeries {
        &self.series[Self::idx(kind)]
    }

    /// The overall throughput series (Figure 9).
    pub fn total_series(&self) -> &TimeSeries {
        &self.total_series
    }

    /// Rebases all time series to *now* (end of warm-up), without
    /// resetting the counters.
    pub fn restart_series(&self) {
        for s in &self.series {
            s.restart();
        }
        self.total_series.restart();
    }

    /// Registers every counter into `registry` under the names the
    /// health payload and `/metrics` exporter read:
    /// `requests_completed_total{class=…}`, `sheds_total{point=…}`, and
    /// the flat `*_total` error/degradation counters. Both servers call
    /// this once at start.
    pub fn register_into(self: &Arc<Self>, registry: &Registry) {
        for kind in RequestKind::ALL {
            let stats = Arc::clone(self);
            registry.counter_fn("requests_completed_total", &[("class", kind.label())], {
                move || stats.completed(kind)
            });
        }
        for point in ShedPoint::ALL {
            let stats = Arc::clone(self);
            registry.counter_fn("sheds_total", &[("point", point.label())], {
                move || stats.shed(point)
            });
        }
        type CounterGetter = fn(&ServerStats) -> &Counter;
        let unlabelled: [(&'static str, CounterGetter); 10] = [
            ("errors_total", |s| &s.errors),
            ("dropped_connections_total", |s| &s.dropped_connections),
            ("handler_panics_total", |s| &s.handler_panics),
            ("deadline_expired_total", |s| &s.deadline_expired),
            ("pool_starved_total", |s| &s.pool_starved),
            ("chaos_killed_total", |s| &s.chaos_killed),
            ("chaos_stalled_total", |s| &s.chaos_stalled),
            ("degraded_total", |s| &s.degraded),
            ("stale_misses_total", |s| &s.stale_misses),
            ("slowloris_kills_total", |s| &s.slowloris_kills),
        ];
        for (name, get) in unlabelled {
            let stats = Arc::clone(self);
            registry.counter_fn(name, &[], move || get(&stats).value());
        }
    }

    /// An owned point-in-time view of every counter, implementing
    /// [`Snapshot`] for the shared text/JSON encodings the bench bins
    /// emit.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            completed_static: self.completed(RequestKind::Static),
            completed_quick_dynamic: self.completed(RequestKind::QuickDynamic),
            completed_lengthy_dynamic: self.completed(RequestKind::LengthyDynamic),
            total_sheds: self.total_sheds(),
            errors: self.errors.value(),
            dropped_connections: self.dropped_connections.value(),
            handler_panics: self.handler_panics.value(),
            deadline_expired: self.deadline_expired.value(),
            pool_starved: self.pool_starved.value(),
            degraded: self.degraded.value(),
            stale_misses: self.stale_misses.value(),
            slowloris_kills: self.slowloris_kills.value(),
        }
    }
}

/// An owned snapshot of [`ServerStats`]' counters (time series are
/// reported separately; they are not point-in-time scalars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Completed static requests.
    pub completed_static: u64,
    /// Completed quick-dynamic requests.
    pub completed_quick_dynamic: u64,
    /// Completed lengthy-dynamic requests.
    pub completed_lengthy_dynamic: u64,
    /// Requests shed with `503` at any pipeline point.
    pub total_sheds: u64,
    /// Responses with server-generated error statuses.
    pub errors: u64,
    /// Connections dropped on parse/I-O failure.
    pub dropped_connections: u64,
    /// Handler panics converted to 500s.
    pub handler_panics: u64,
    /// Requests `503`ed because their deadline had passed.
    pub deadline_expired: u64,
    /// Requests `503`ed waiting for a replacement DB connection.
    pub pool_starved: u64,
    /// Requests served stale (degradation ladder middle rung).
    pub degraded: u64,
    /// Degradation attempts with no usable stale copy.
    pub stale_misses: u64,
    /// Connections killed by a lifecycle budget (header deadline or
    /// minimum body throughput).
    pub slowloris_kills: u64,
}

impl Snapshot for StatsSnapshot {
    fn fields(&self, emit: &mut dyn FnMut(&'static str, f64)) {
        emit("completed_static", self.completed_static as f64);
        emit(
            "completed_quick_dynamic",
            self.completed_quick_dynamic as f64,
        );
        emit(
            "completed_lengthy_dynamic",
            self.completed_lengthy_dynamic as f64,
        );
        emit("total_sheds", self.total_sheds as f64);
        emit("errors", self.errors as f64);
        emit("dropped_connections", self.dropped_connections as f64);
        emit("handler_panics", self.handler_panics as f64);
        emit("deadline_expired", self.deadline_expired as f64);
        emit("pool_starved", self.pool_starved as f64);
        emit("degraded", self.degraded as f64);
        emit("stale_misses", self.stale_misses as f64);
        emit("slowloris_kills", self.slowloris_kills as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_kind() {
        let s = ServerStats::new(Duration::from_secs(60));
        s.record_completion(RequestKind::Static);
        s.record_completion(RequestKind::Static);
        s.record_completion(RequestKind::QuickDynamic);
        assert_eq!(s.completed(RequestKind::Static), 2);
        assert_eq!(s.completed(RequestKind::QuickDynamic), 1);
        assert_eq!(s.completed(RequestKind::LengthyDynamic), 0);
        assert_eq!(s.total_completed(), 3);
        assert_eq!(s.total_series().total(), 3.0);
        assert_eq!(s.series(RequestKind::Static).total(), 2.0);
    }

    #[test]
    fn restart_clears_series_not_counters() {
        let s = ServerStats::new(Duration::from_secs(60));
        s.record_completion(RequestKind::Static);
        s.restart_series();
        assert_eq!(s.total_series().total(), 0.0);
        assert_eq!(s.completed(RequestKind::Static), 1);
    }

    #[test]
    fn labels() {
        assert_eq!(RequestKind::Static.to_string(), "static");
        assert_eq!(RequestKind::ALL.len(), 3);
        assert_eq!(ShedPoint::Listener.to_string(), "listener");
        assert_eq!(ShedPoint::ALL.len(), 6);
    }

    #[test]
    fn register_into_exposes_every_counter() {
        let s = Arc::new(ServerStats::new(Duration::from_secs(60)));
        let r = Registry::new();
        s.register_into(&r);
        s.record_completion(RequestKind::Static);
        s.record_shed(ShedPoint::General);
        s.degraded.increment();
        assert_eq!(
            r.value("requests_completed_total", &[("class", "static")]),
            Some(1.0)
        );
        assert_eq!(r.value("sheds_total", &[("point", "general")]), Some(1.0));
        assert_eq!(r.value("sheds_total", &[("point", "render")]), Some(0.0));
        assert_eq!(r.value("degraded_total", &[]), Some(1.0));
        assert_eq!(r.value("errors_total", &[]), Some(0.0));
    }

    #[test]
    fn snapshot_encodes_via_shared_trait() {
        let s = ServerStats::new(Duration::from_secs(60));
        s.record_completion(RequestKind::QuickDynamic);
        s.errors.increment();
        let snap = s.snapshot();
        let mut json = String::new();
        snap.encode_json(&mut json).unwrap();
        assert!(json.contains("\"completed_quick_dynamic\":1"), "{json}");
        assert!(json.contains("\"errors\":1"), "{json}");
        let mut text = String::new();
        snap.encode(&mut text).unwrap();
        assert!(text.contains("errors 1\n"), "{text}");
    }

    #[test]
    fn sheds_tracked_per_point_and_not_counted_as_completions() {
        let s = ServerStats::new(Duration::from_secs(60));
        s.record_shed(ShedPoint::Listener);
        s.record_shed(ShedPoint::Listener);
        s.record_shed(ShedPoint::General);
        assert_eq!(s.shed(ShedPoint::Listener), 2);
        assert_eq!(s.shed(ShedPoint::General), 1);
        assert_eq!(s.shed(ShedPoint::Render), 0);
        assert_eq!(s.total_sheds(), 3);
        assert_eq!(s.total_completed(), 0);
        assert_eq!(s.total_series().total(), 0.0);
    }
}
