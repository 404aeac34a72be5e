//! The server's own counters: completions by class (the data behind the
//! paper's Figures 9 and 10), sheds by pipeline point, and the
//! error/degradation totals. They are cells of the metrics registry:
//! the pipeline holds handles taken once at start, so an increment is
//! one atomic add, and `/metrics`, `/healthz` and the bench bins all
//! read the same cells.

use staged_metrics::{Counter, Registry};
use std::fmt;
use std::sync::Arc;

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

/// Handles to the server's counters in its registry.
pub(crate) struct Counters {
    /// `requests_completed_total{class}`, in [`RequestKind::ALL`] order.
    completed: [Arc<Counter>; 3],
    /// `sheds_total{point}`, in [`ShedPoint::ALL`] order.
    sheds: [Arc<Counter>; 6],
    /// Responses with an error status generated by the server machinery.
    pub errors: Arc<Counter>,
    /// Connections dropped due to parse failures or I/O errors.
    pub dropped_connections: Arc<Counter>,
    /// Handler panics converted to 500s.
    pub handler_panics: Arc<Counter>,
    /// Requests answered `503` because their deadline had already
    /// passed when a stage dequeued them.
    pub deadline_expired: Arc<Counter>,
    /// Requests answered `503` because no database connection could be
    /// re-acquired after the worker's own died.
    pub pool_starved: Arc<Counter>,
    /// Connections killed by a lifecycle budget — the peer failed to
    /// deliver a complete header block before the wall-clock deadline,
    /// or trickled a body below the minimum throughput (answered `408`
    /// with `Connection: close`).
    pub slowloris_kills: Arc<Counter>,
}

impl Counters {
    /// Registers every counter in `registry` under the names `/metrics`
    /// exports and the health payload reads:
    /// `requests_completed_total{class=…}`, `sheds_total{point=…}`, and
    /// the flat `*_total` error/degradation counters.
    pub(crate) fn register_into(registry: &Registry) -> Self {
        let flat = |name| registry.counter(name, &[]);
        Counters {
            completed: RequestKind::ALL.map(|kind| {
                registry.counter("requests_completed_total", &[("class", kind.label())])
            }),
            sheds: ShedPoint::ALL
                .map(|point| registry.counter("sheds_total", &[("point", point.label())])),
            errors: flat("errors_total"),
            dropped_connections: flat("dropped_connections_total"),
            handler_panics: flat("handler_panics_total"),
            deadline_expired: flat("deadline_expired_total"),
            pool_starved: flat("pool_starved_total"),
            slowloris_kills: flat("slowloris_kills_total"),
        }
    }

    /// Completions of class `kind` — bumped only once the response is
    /// written.
    pub(crate) fn completed(&self, kind: RequestKind) -> &Counter {
        // Declaration order is `ALL` order.
        &self.completed[kind as usize]
    }

    /// Requests shed with a `503` at `point`. Sheds are deliberately
    /// **not** completions: goodput counts only requests the server
    /// actually served.
    pub(crate) fn shed(&self, point: ShedPoint) -> &Counter {
        &self.sheds[point as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_kind() {
        let r = Registry::new();
        let c = Counters::register_into(&r);
        c.completed(RequestKind::Static).increment();
        c.completed(RequestKind::Static).increment();
        c.completed(RequestKind::QuickDynamic).increment();
        let class =
            |kind: RequestKind| r.value("requests_completed_total", &[("class", kind.label())]);
        assert_eq!(class(RequestKind::Static), Some(2.0));
        assert_eq!(class(RequestKind::QuickDynamic), Some(1.0));
        assert_eq!(class(RequestKind::LengthyDynamic), Some(0.0));
        assert_eq!(r.family_sum("requests_completed_total"), 3.0);
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
        let r = Registry::new();
        let c = Counters::register_into(&r);
        c.deadline_expired.increment();
        c.slowloris_kills.increment();
        assert_eq!(r.value("deadline_expired_total", &[]), Some(1.0));
        assert_eq!(r.value("slowloris_kills_total", &[]), Some(1.0));
        assert_eq!(r.value("errors_total", &[]), Some(0.0));
        // Every class and shed point is its own labelled cell.
        for (i, kind) in RequestKind::ALL.into_iter().enumerate() {
            c.completed(kind).add(i as u64 + 1);
        }
        for (i, point) in ShedPoint::ALL.into_iter().enumerate() {
            c.shed(point).add(10 * (i as u64 + 1));
        }
        for (i, kind) in RequestKind::ALL.into_iter().enumerate() {
            let labels = [("class", kind.label())];
            let want = Some(i as f64 + 1.0);
            assert_eq!(r.value("requests_completed_total", &labels), want);
        }
        for (i, point) in ShedPoint::ALL.into_iter().enumerate() {
            let labels = [("point", point.label())];
            let want = Some(10.0 * (i as f64 + 1.0));
            assert_eq!(r.value("sheds_total", &labels), want);
        }
    }

    #[test]
    fn sheds_tracked_per_point_and_not_counted_as_completions() {
        let r = Registry::new();
        let c = Counters::register_into(&r);
        c.shed(ShedPoint::Listener).increment();
        c.shed(ShedPoint::Listener).increment();
        c.shed(ShedPoint::General).increment();
        assert_eq!(c.shed(ShedPoint::Listener).value(), 2);
        assert_eq!(c.shed(ShedPoint::General).value(), 1);
        assert_eq!(c.shed(ShedPoint::Render).value(), 0);
        assert_eq!(r.family_sum("sheds_total"), 3.0);
        assert_eq!(r.family_sum("requests_completed_total"), 0.0);
    }
}
