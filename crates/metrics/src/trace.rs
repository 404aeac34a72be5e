//! Per-request, per-stage tracing with pooled allocation.
//!
//! Every request admitted by the staged server carries a [`Trace`]: a
//! fixed-capacity event log (enqueue/dequeue/stage-done timestamps,
//! the classifier's decision, shed and unavailable events) backed by a
//! `Box` recycled through a freelist, so steady-state tracing does not
//! allocate on the hot path. When the request reaches a terminal state
//! the trace is *finished* — explicitly on send/shed/expiry, or by
//! `Drop` if the job was discarded (queue closed, worker panicked) —
//! which guarantees exactly one terminal event per trace, the invariant
//! the shedding property test pins.
//!
//! Finished traces fold into a [`TraceHub`]: outcome counters and a
//! request-duration histogram registered in the [`Registry`], plus a
//! bounded ring of the N slowest served traces for tail-latency
//! forensics, dumpable as JSON via `GET /debug/traces`.
//!
//! # Examples
//!
//! ```
//! use staged_metrics::{Registry, Stage, TraceHub, TraceOutcome};
//!
//! let registry = Registry::new();
//! let hub = TraceHub::new(&registry, 4);
//! let mut trace = hub.start();
//! trace.enqueued(Stage::Parse);
//! trace.dequeued();
//! trace.stage_done();
//! trace.finish(TraceOutcome::Served, Some("home"));
//! assert_eq!(hub.outstanding(), 0);
//! assert_eq!(registry.value("trace_outcomes_total", &[("outcome", "served")]), Some(1.0));
//! ```

use crate::counter::Counter;
use crate::histogram::Histogram;
use crate::registry::Registry;
use staged_sync::atomic::{AtomicUsize, Ordering};
use staged_sync::{OrderedMutex, Rank};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Rank of the trace freelist (DESIGN.md §10): metrics band, below the
/// histogram rank; never held while taking any other lock.
const TRACE_POOL_RANK: Rank = Rank::new(412);

/// Rank of the slowest-trace ring: metrics band, distinct from the
/// freelist so hold-one-take-other is still ascending if ever needed.
const TRACE_RING_RANK: Rank = Rank::new(414);

/// Fixed per-trace event capacity. A request crosses at most four pools
/// (parse → classify → dynamic → render), each contributing enqueue /
/// dequeue / done, plus a handful of annotations; 24 slots leave slack
/// for keep-alive restarts. Overflow drops events silently rather than
/// allocating.
const MAX_EVENTS: usize = 24;

/// Upper bound on recycled trace boxes kept in the freelist. Bounds
/// memory if a burst creates many concurrent traces that then all
/// finish.
const FREELIST_CAP: usize = 1024;

/// The pipeline stage a trace event is attributed to (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Header-parsing pool.
    Parse,
    /// Static-content pool.
    Static,
    /// General (quick) dynamic pool.
    General,
    /// Lengthy dynamic pool.
    Lengthy,
    /// Render pool.
    Render,
}

impl Stage {
    /// Stable label used in JSON dumps and metric label values.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Static => "static",
            Stage::General => "general",
            Stage::Lengthy => "lengthy",
            Stage::Render => "render",
        }
    }
}

/// One kind of event on a trace's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Pushed onto a stage's queue.
    Enqueued,
    /// Popped off the queue by a worker.
    Dequeued,
    /// Stage handler finished (the gap to the next `Enqueued` is
    /// hand-off cost; the gap from the last `StageDone` to the terminal
    /// outcome is response-write time).
    StageDone,
    /// Classifier routed the page to the general (quick) pool.
    ClassifiedQuick,
    /// Classifier routed the page to the lengthy pool.
    ClassifiedLengthy,
    /// Rejected at a full queue or by overload control.
    Shed,
    /// Generation was unavailable (breaker open, dead connection,
    /// starved pool): answered `503`.
    Unavailable,
    /// The per-request clock (re)started — emitted by
    /// [`Trace::mark_start`] once the request line arrives, so
    /// keep-alive think time never counts against the request.
    Started,
}

impl TraceEvent {
    /// Stable label used in JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            TraceEvent::Enqueued => "enqueued",
            TraceEvent::Dequeued => "dequeued",
            TraceEvent::StageDone => "stage_done",
            TraceEvent::ClassifiedQuick => "classified_quick",
            TraceEvent::ClassifiedLengthy => "classified_lengthy",
            TraceEvent::Shed => "shed",
            TraceEvent::Unavailable => "unavailable",
            TraceEvent::Started => "started",
        }
    }
}

/// The terminal state of a trace. Every trace reaches exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// A response was written (including cache hits and error pages).
    Served,
    /// Rejected by overload control (503 + Retry-After).
    Shed,
    /// Deadline expired before completion.
    Expired,
    /// The job was discarded without an explicit finish — queue closed,
    /// worker panicked, or connection died. Applied by `Drop`.
    Dropped,
    /// A health/metrics probe; counted separately and never ring-eligible.
    Probe,
}

impl TraceOutcome {
    const ALL: [TraceOutcome; 5] = [
        TraceOutcome::Served,
        TraceOutcome::Shed,
        TraceOutcome::Expired,
        TraceOutcome::Dropped,
        TraceOutcome::Probe,
    ];

    /// Stable label used for the `outcome` metric label and JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            TraceOutcome::Served => "served",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Expired => "expired",
            TraceOutcome::Dropped => "dropped",
            TraceOutcome::Probe => "probe",
        }
    }

    fn index(self) -> usize {
        match self {
            TraceOutcome::Served => 0,
            TraceOutcome::Shed => 1,
            TraceOutcome::Expired => 2,
            TraceOutcome::Dropped => 3,
            TraceOutcome::Probe => 4,
        }
    }
}

#[derive(Clone, Copy)]
struct Event {
    kind: TraceEvent,
    stage: Option<Stage>,
    at_micros: u64,
}

struct TraceData {
    started: Instant,
    events: [Event; MAX_EVENTS],
    len: usize,
    /// Current stage, set by `enqueued`; later events inherit it.
    stage: Option<Stage>,
    /// Page name; empty means unknown. Reused `String` so recycled
    /// traces only reallocate when a longer name arrives.
    page: String,
}

impl TraceData {
    fn fresh() -> Box<TraceData> {
        Box::new(TraceData {
            started: Instant::now(),
            events: [Event {
                kind: TraceEvent::Started,
                stage: None,
                at_micros: 0,
            }; MAX_EVENTS],
            len: 0,
            stage: None,
            page: String::new(),
        })
    }

    fn reset(&mut self) {
        self.started = Instant::now();
        self.len = 0;
        self.stage = None;
        self.page.clear();
    }

    fn push(&mut self, kind: TraceEvent) {
        if self.len < MAX_EVENTS {
            self.events[self.len] = Event {
                kind,
                stage: self.stage,
                at_micros: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            };
            self.len += 1;
        }
    }
}

/// A finished trace admitted to the slow ring; owns its event copy.
struct CompletedTrace {
    total_micros: u64,
    page: Option<String>,
    events: Vec<Event>,
}

struct HubInner {
    // The boxes ARE the pooled allocations: a recycled `Box<TraceData>`
    // moves between the freelist and a live `Trace` by pointer, where
    // an unboxed freelist would copy the fixed event array on every
    // checkout.
    #[allow(clippy::vec_box)]
    freelist: OrderedMutex<Vec<Box<TraceData>>>,
    ring: OrderedMutex<Vec<CompletedTrace>>,
    ring_capacity: usize,
    outstanding: AtomicUsize,
    outcomes: [Arc<Counter>; 5],
    duration: Arc<Histogram>,
}

/// The aggregation point for finished [`Trace`]s; see the `trace`
/// module docs. Cheap to clone (one `Arc`).
#[derive(Clone)]
pub struct TraceHub {
    inner: Arc<HubInner>,
}

impl std::fmt::Debug for TraceHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHub")
            .field("outstanding", &self.outstanding())
            .field("ring_capacity", &self.inner.ring_capacity)
            .finish()
    }
}

impl TraceHub {
    /// Creates a hub keeping the `ring_capacity` slowest served traces,
    /// registering `trace_outcomes_total{outcome=…}` counters and the
    /// `request_duration_seconds` histogram in `registry`.
    pub fn new(registry: &Registry, ring_capacity: usize) -> TraceHub {
        let outcomes = TraceOutcome::ALL.map(|outcome| {
            registry.counter("trace_outcomes_total", &[("outcome", outcome.label())])
        });
        let duration = registry.histogram("request_duration_seconds", &[]);
        TraceHub {
            inner: Arc::new(HubInner {
                freelist: OrderedMutex::new(TRACE_POOL_RANK, "metrics.trace_pool", Vec::new()),
                ring: OrderedMutex::new(TRACE_RING_RANK, "metrics.trace_ring", Vec::new()),
                ring_capacity,
                outstanding: AtomicUsize::new(0),
                outcomes,
                duration,
            }),
        }
    }

    /// Begins a trace for a newly accepted request, reusing a recycled
    /// allocation when one is available.
    pub fn start(&self) -> Trace {
        let data = self.inner.freelist.lock().pop();
        let data = match data {
            Some(mut d) => {
                d.reset();
                d
            }
            None => TraceData::fresh(),
        };
        self.inner.outstanding.fetch_add(1, Ordering::Relaxed);
        Trace {
            hub: Arc::clone(&self.inner),
            data: Some(data),
        }
    }

    /// Number of traces started but not yet finished. Zero when the
    /// server is idle — the leak detector the shedding property test
    /// asserts on.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Number of traces currently held in the slow ring.
    pub fn ring_len(&self) -> usize {
        self.inner.ring.lock().len()
    }

    /// Dumps the slow ring as JSON, slowest first:
    /// `{"traces":[{"total_us":…,"page":…,"events":[…]},…]}`.
    pub fn traces_json(&self) -> String {
        let mut completed: Vec<(u64, Option<String>, Vec<Event>)> = {
            let ring = self.inner.ring.lock();
            ring.iter()
                .map(|t| (t.total_micros, t.page.clone(), t.events.clone()))
                .collect()
        };
        completed.sort_by_key(|t| std::cmp::Reverse(t.0));
        let mut out = String::from("{\"traces\":[");
        for (i, (total, page, events)) in completed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"total_us\":{total},\"page\":");
            match page {
                Some(p) => {
                    let _ = write!(out, "\"{}\"", escape_json(p));
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"events\":[");
            for (j, e) in events.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"event\":\"{}\",\"stage\":", e.kind.label());
                match e.stage {
                    Some(s) => {
                        let _ = write!(out, "\"{}\"", s.label());
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"at_us\":{}}}", e.at_micros);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl HubInner {
    /// Folds a trace's terminal outcome into the counters, the duration
    /// histogram and the slow ring.
    fn account(&self, data: &TraceData, outcome: TraceOutcome) {
        let total = data.started.elapsed();
        self.outcomes[outcome.index()].increment();
        if outcome == TraceOutcome::Served {
            self.duration.record(total);
            self.offer_to_ring(data, total);
        }
    }

    fn finish(&self, mut data: Box<TraceData>, outcome: TraceOutcome) {
        self.account(&data, outcome);
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        let mut freelist = self.freelist.lock();
        if freelist.len() < FREELIST_CAP {
            data.reset();
            freelist.push(data);
        }
    }

    /// Admits `data` to the slow ring if it beats the current fastest
    /// resident (or the ring is not yet full). Only admitted candidates
    /// allocate — the common fast request copies nothing.
    fn offer_to_ring(&self, data: &TraceData, total: std::time::Duration) {
        if self.ring_capacity == 0 {
            return;
        }
        let total_micros = u64::try_from(total.as_micros()).unwrap_or(u64::MAX);
        {
            let ring = self.ring.lock();
            if ring.len() >= self.ring_capacity
                && ring.iter().all(|t| t.total_micros >= total_micros)
            {
                return;
            }
        }
        // Build the owned copy outside the lock; cheap relative to the
        // slow request that earned it.
        let completed = CompletedTrace {
            total_micros,
            page: if data.page.is_empty() {
                None
            } else {
                Some(data.page.clone())
            },
            events: data.events[..data.len].to_vec(),
        };
        let mut ring = self.ring.lock();
        if ring.len() < self.ring_capacity {
            ring.push(completed);
        } else if let Some(min_idx) = (0..ring.len()).min_by_key(|&i| ring[i].total_micros) {
            if ring[min_idx].total_micros < total_micros {
                ring[min_idx] = completed;
            }
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A per-request event log; created by [`TraceHub::start`], finished
/// exactly once — explicitly via [`Trace::finish`] or implicitly (as
/// [`TraceOutcome::Dropped`]) when dropped unfinished.
///
/// All recording methods are allocation-free: events land in a fixed
/// array inside a pooled `Box`.
pub struct Trace {
    hub: Arc<HubInner>,
    data: Option<Box<TraceData>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.data.as_ref().map_or(0, |d| d.len);
        f.debug_struct("Trace").field("events", &len).finish()
    }
}

impl Trace {
    fn push(&mut self, kind: TraceEvent) {
        if let Some(data) = self.data.as_mut() {
            data.push(kind);
        }
    }

    /// Records entry into `stage`'s queue; subsequent events are
    /// attributed to that stage.
    pub fn enqueued(&mut self, stage: Stage) {
        if let Some(data) = self.data.as_mut() {
            data.stage = Some(stage);
            data.push(TraceEvent::Enqueued);
        }
    }

    /// Records a worker picking the request up from the current stage's
    /// queue; the gap since [`Trace::enqueued`] is that stage's queue
    /// wait.
    pub fn dequeued(&mut self) {
        self.push(TraceEvent::Dequeued);
    }

    /// Records the current stage's handler finishing.
    pub fn stage_done(&mut self) {
        self.push(TraceEvent::StageDone);
    }

    /// Records the classifier's routing decision.
    pub fn classified(&mut self, lengthy: bool) {
        self.push(if lengthy {
            TraceEvent::ClassifiedLengthy
        } else {
            TraceEvent::ClassifiedQuick
        });
    }

    /// Records a free-form annotation ([`TraceEvent::Shed`],
    /// [`TraceEvent::Unavailable`], …) against the current stage.
    pub fn note(&mut self, event: TraceEvent) {
        self.push(event);
    }

    /// Restarts the per-request clock and rebases prior events to zero.
    ///
    /// The staged server calls this once the request line has arrived,
    /// mirroring the deadline semantics: on a keep-alive connection the
    /// trace object exists while the client *thinks*, and that idle time
    /// must not count as request latency or pollute the slow ring.
    pub fn mark_start(&mut self) {
        if let Some(data) = self.data.as_mut() {
            data.started = Instant::now();
            for e in &mut data.events[..data.len] {
                e.at_micros = 0;
            }
            data.push(TraceEvent::Started);
        }
    }

    /// Finishes the trace with `outcome`, attributing it to `page` when
    /// known. Consumes the trace; the backing allocation returns to the
    /// hub's freelist.
    pub fn finish(mut self, outcome: TraceOutcome, page: Option<&str>) {
        if let Some(mut data) = self.data.take() {
            if let Some(p) = page {
                data.page.clear();
                data.page.push_str(p);
            }
            self.hub.finish(data, outcome);
        }
    }

    /// Finishes the trace exactly as [`Trace::finish`] does, then begins
    /// the next request's trace in the same allocation. This is the
    /// keep-alive path: the connection's next request would otherwise
    /// return the box to the freelist only to take it straight back,
    /// two trips through a lock every worker thread shares.
    pub fn finish_and_restart(&mut self, outcome: TraceOutcome, page: Option<&str>) {
        if let Some(data) = self.data.as_mut() {
            if let Some(p) = page {
                data.page.push_str(p);
            }
            self.hub.account(data, outcome);
            data.reset();
        }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            self.hub.finish(data, TraceOutcome::Dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn hub() -> (Registry, TraceHub) {
        let registry = Registry::new();
        let hub = TraceHub::new(&registry, 3);
        (registry, hub)
    }

    fn outcome_count(registry: &Registry, outcome: &str) -> f64 {
        registry
            .value("trace_outcomes_total", &[("outcome", outcome)])
            .unwrap_or(-1.0)
    }

    #[test]
    fn explicit_finish_counts_outcome_and_duration() {
        let (registry, hub) = hub();
        let mut t = hub.start();
        t.enqueued(Stage::Parse);
        t.dequeued();
        t.stage_done();
        t.finish(TraceOutcome::Served, Some("home"));
        assert_eq!(outcome_count(&registry, "served"), 1.0);
        assert_eq!(registry.value("request_duration_seconds", &[]), Some(1.0));
        assert_eq!(hub.outstanding(), 0);
        assert_eq!(hub.ring_len(), 1);
    }

    #[test]
    fn drop_without_finish_is_a_terminal_dropped_event() {
        let (registry, hub) = hub();
        {
            let mut t = hub.start();
            t.enqueued(Stage::Static);
        }
        assert_eq!(outcome_count(&registry, "dropped"), 1.0);
        assert_eq!(hub.outstanding(), 0);
        assert_eq!(hub.ring_len(), 0, "dropped traces never enter the ring");
    }

    #[test]
    fn shed_and_probe_outcomes_skip_ring_and_duration() {
        let (registry, hub) = hub();
        let mut t = hub.start();
        t.enqueued(Stage::Parse);
        t.note(TraceEvent::Shed);
        t.finish(TraceOutcome::Shed, None);
        hub.start().finish(TraceOutcome::Probe, None);
        assert_eq!(outcome_count(&registry, "shed"), 1.0);
        assert_eq!(outcome_count(&registry, "probe"), 1.0);
        assert_eq!(registry.value("request_duration_seconds", &[]), Some(0.0));
        assert_eq!(hub.ring_len(), 0);
    }

    #[test]
    fn ring_keeps_the_slowest_n() {
        let (_registry, hub) = hub();
        for sleep_us in [4000u64, 1000, 3000, 2000, 5000] {
            let mut t = hub.start();
            t.enqueued(Stage::Parse);
            std::thread::sleep(Duration::from_micros(sleep_us));
            t.finish(TraceOutcome::Served, Some("p"));
        }
        assert_eq!(hub.ring_len(), 3);
        let json = hub.traces_json();
        // Slowest-first ordering, and the two fastest were evicted.
        let totals: Vec<u64> = json
            .split("\"total_us\":")
            .skip(1)
            .map(|s| s.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(totals.len(), 3);
        assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");
        assert!(totals[2] >= 2500, "kept the slow ones: {totals:?}");
    }

    #[test]
    fn traces_json_shape() {
        let (_registry, hub) = hub();
        let mut t = hub.start();
        t.enqueued(Stage::Parse);
        t.dequeued();
        t.classified(true);
        t.finish(TraceOutcome::Served, Some("search"));
        let json = hub.traces_json();
        assert!(json.starts_with("{\"traces\":["), "{json}");
        assert!(json.contains("\"page\":\"search\""), "{json}");
        assert!(
            json.contains("{\"event\":\"enqueued\",\"stage\":\"parse\",\"at_us\":"),
            "{json}"
        );
        assert!(json.contains("\"event\":\"classified_lengthy\""), "{json}");
    }

    #[test]
    fn freelist_recycles_allocations() {
        let (_registry, hub) = hub();
        let t = hub.start();
        t.finish(TraceOutcome::Probe, None);
        // Second start must reuse the recycled box (freelist non-empty).
        let t2 = hub.start();
        assert_eq!(hub.inner.freelist.lock().len(), 0);
        t2.finish(TraceOutcome::Probe, None);
        assert_eq!(hub.inner.freelist.lock().len(), 1);
    }

    #[test]
    fn finish_and_restart_counts_each_request_once() {
        let (registry, hub) = hub();
        let mut t = hub.start();
        t.enqueued(Stage::Parse);
        t.finish_and_restart(TraceOutcome::Served, Some("home"));
        assert_eq!(outcome_count(&registry, "served"), 1.0);
        assert_eq!(hub.outstanding(), 1, "the next request is under way");
        assert_eq!(t.data.as_ref().unwrap().len, 0, "restarted empty");
        assert!(t.data.as_ref().unwrap().page.is_empty());
        assert_eq!(hub.inner.freelist.lock().len(), 0, "no freelist trip");
        drop(t);
        assert_eq!(outcome_count(&registry, "dropped"), 1.0);
        assert_eq!(hub.outstanding(), 0);
    }

    #[test]
    fn mark_start_rebases_prior_events() {
        let (_registry, hub) = hub();
        let mut t = hub.start();
        t.enqueued(Stage::Parse);
        std::thread::sleep(Duration::from_millis(2));
        t.mark_start();
        let data = t.data.as_ref().unwrap();
        let (started, prior) = data.events[..data.len].split_last().unwrap();
        assert!(prior.iter().all(|e| e.at_micros == 0));
        // `Started` is stamped just after the new start; a preempted
        // thread may take a few microseconds, never the 2 ms slept.
        assert!(started.at_micros < 2_000, "{}", started.at_micros);
        t.finish(TraceOutcome::Served, None);
    }

    #[test]
    fn event_overflow_is_silent() {
        let (_registry, hub) = hub();
        let mut t = hub.start();
        for _ in 0..(MAX_EVENTS * 2) {
            t.dequeued();
        }
        assert_eq!(t.data.as_ref().unwrap().len, MAX_EVENTS);
        t.finish(TraceOutcome::Served, None);
    }

    #[test]
    fn empty_ring_dumps_empty_array() {
        let (_registry, hub) = hub();
        assert_eq!(hub.traces_json(), "{\"traces\":[]}");
    }
}
