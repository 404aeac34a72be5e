//! The one request pipeline: the jobs that travel between stages, and
//! the driver that places each job where the model's stage→pool map
//! says. The stage functions themselves are in `stages.rs`.
//!
//! A request moves parse → static | dynamic → render → respond, and a
//! kept-alive connection then re-enters parse for its next request.
//! Each stage function *returns* the next [`Job`] instead of pushing it
//! anywhere; [`Core::drive`] either keeps running it on the current
//! thread ([`Place::Inline`]) or hands it to the pool the map names
//! with a non-blocking `try_push` ([`Place::Pool`]). When that pool's
//! bounded queue is full the request is shed with a well-formed `503` +
//! `Retry-After` instead of queuing unboundedly (or, worse, blocking
//! the accept loop). Which threads exist, and which of them own a
//! database connection, is the model's business (`server.rs`); nothing
//! in this file knows whether it runs on one pool or six.
//!
//! Every request carries a pooled [`Trace`] from accept to terminal
//! outcome, recording enqueue/dequeue/stage-done timestamps, the
//! classifier decision, and shed/unavailable events (an inline stage
//! simply shows no queue wait). Aggregates land in the server's
//! [`Registry`] (exported on `GET /metrics`); the slowest served traces
//! are kept in a bounded ring (`GET /debug/traces`).

use crate::app::App;
use crate::doccache::DocCache;
use crate::governor::{ConnectionGovernor, GovernedStream};
use crate::health::Readiness;
use crate::overload::{drain_before_close, overload_response, DbSlot, RetryEstimator};
use crate::scheduler::{DynamicPoolChoice, RequestClass, ReserveController, ServiceTimeTracker};
use crate::stats::{Counters, RequestKind, ShedPoint};
use staged_db::{CircuitBreaker, Database, ReadSet};
use staged_http::{Connection, HttpError, Method, Request, RequestLine, Response};
use staged_metrics::{Histogram, Registry, Stage, Trace, TraceEvent, TraceHub, TraceOutcome};
use staged_pool::{PoolStats, PushError, SyncQueue};
use staged_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use staged_templates::Context;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) type Conn = Connection<GovernedStream>;

/// Where a model's map runs a stage.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Place {
    /// On the thread that produced the job: no queue, no hand-off.
    Inline,
    /// On the pool at this index of the model's pool table.
    Pool(usize),
}

/// A model's stage→pool map. The listener always feeds pool 0 of the
/// table; everything after that first hand-off is placed by this map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageMap {
    /// Parsing the *next* request of a kept-alive connection.
    pub keep_alive: Place,
    /// Static files (the stage parses its own headers, paper §3.2).
    pub statics: Place,
    /// Data generation for requests the scheduler sends to the general
    /// dynamic pool.
    pub general: Place,
    /// Data generation for requests it sends to the lengthy pool.
    pub lengthy: Place,
    /// Template rendering.
    pub render: Place,
}

impl StageMap {
    fn of(&self, stage: Stage) -> Place {
        match stage {
            Stage::Parse => self.keep_alive,
            Stage::Static => self.statics,
            Stage::General => self.general,
            Stage::Lengthy => self.lengthy,
            Stage::Render => self.render,
        }
    }
}

/// One pool as the pipeline sees it: where to push, whom to charge a
/// rejection to, and where a stage execution's service time goes.
pub(crate) struct PoolPort {
    pub queue: Arc<SyncQueue<Job>>,
    pub stats: Arc<PoolStats>,
    /// `stage_service_seconds{stage=…}`: one sample per request per
    /// visit to this pool, recorded by [`Core::drive`].
    pub service: Arc<Histogram>,
}

/// The paper's Table 1 dispatcher; present only when the map gives the
/// general and lengthy stages pools of their own.
pub(crate) struct Scheduler {
    pub controller: Arc<ReserveController>,
    /// The general dynamic pool's threads, whose unclaimed count is
    /// `t_spare`.
    pub general: Arc<SpareThreads>,
}

/// The general dynamic pool's threads as Table 1 counts them: `t_spare`
/// is the pool size minus the jobs dispatched to it and not yet done.
///
/// Reading `t_spare` and claiming a thread are one compare-and-swap, so
/// header workers dispatching a burst at once each see the claims of
/// the others: the burst cannot all read the same `t_spare` and spill
/// onto every general thread, starving the quick traffic the reserve
/// exists to protect.
pub(crate) struct SpareThreads {
    workers: usize,
    /// Jobs dispatched to the pool and not yet done: a count that
    /// publishes no other data, so no ordering pairs with it.
    claimed: AtomicUsize,
}

/// One general-pool thread claimed by a dispatched job. Dropping it —
/// when the job's dynamic stage returns, or the job is shed or expires
/// on the way — returns the thread to `t_spare`.
pub(crate) struct Claim(Arc<SpareThreads>);

impl SpareThreads {
    pub(crate) fn new(workers: usize) -> Self {
        SpareThreads {
            workers,
            claimed: AtomicUsize::new(0),
        }
    }

    /// The live `t_spare`.
    pub(crate) fn spare(&self) -> usize {
        self.workers
            .saturating_sub(self.claimed.load(Ordering::Acquire))
    }

    /// Applies Table 1 to one request: a claim on a general thread, or
    /// `None` when the request belongs in the lengthy pool.
    pub(crate) fn dispatch(
        self: &Arc<Self>,
        controller: &ReserveController,
        class: RequestClass,
    ) -> Option<Claim> {
        staged_sync::mutant!("dispatch_split_claim" => {
            // broken: decide on one read of t_spare and count the claim
            // separately — concurrent dispatchers read the same t_spare
            if controller.dispatch(class, self.spare()) == DynamicPoolChoice::Lengthy {
                return None;
            }
            self.claimed.fetch_add(1, Ordering::AcqRel);
            Some(Claim(Arc::clone(self)))
        } else {
            let mut claimed = self.claimed.load(Ordering::Acquire);
            loop {
                let spare = self.workers.saturating_sub(claimed);
                if controller.dispatch(class, spare) == DynamicPoolChoice::Lengthy {
                    return None;
                }
                match self.claimed.compare_exchange(
                    claimed,
                    claimed + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(Claim(Arc::clone(self))),
                    Err(now) => claimed = now,
                }
            }
        })
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.0.claimed.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A connection between stages, with whatever the next stage needs.
pub(crate) struct Job {
    pub conn: Conn,
    pub trace: Trace,
    /// Absolute deadline, set when `request_deadline` is configured and
    /// checked when a pool dequeues the job. For [`Work::Parse`] it
    /// bounds the queue wait only; the per-request clock starts when
    /// the request line arrives.
    pub deadline: Option<Instant>,
    pub work: Work,
}

/// What the next stage is to do with the job's connection.
pub(crate) enum Work {
    /// Read and route the connection's next request.
    Parse,
    /// Serve a static file: only the request line is parsed so far ("we
    /// let the threads which actually serve those static requests parse
    /// their headers", §3.2).
    Static(RequestLine),
    /// Run the page handler for a fully parsed dynamic request.
    Dynamic(DynWork),
    /// Render an unrendered template — the payload of the paper's
    /// modified `return ("tmpl.html", data)`.
    Render(RenderWork),
}

impl Work {
    fn stage(&self) -> Stage {
        match self {
            Work::Parse => Stage::Parse,
            Work::Static(_) => Stage::Static,
            Work::Dynamic(d) if d.lengthy => Stage::Lengthy,
            Work::Dynamic(_) => Stage::General,
            Work::Render(_) => Stage::Render,
        }
    }

    /// The method a refusal must honour (`HEAD` gets no body); a
    /// connection with no parsed request is answered as a `GET`.
    fn method(&self) -> Method {
        match self {
            Work::Parse => Method::Get,
            Work::Static(line) => line.method,
            Work::Dynamic(d) => d.request.method(),
            Work::Render(r) => r.method,
        }
    }
}

/// The normalized cache key of a `GET` of a cache-marked route, with
/// the cache epoch snapshot taken at the miss, *before* the first query
/// — [`DocCache::publish_with_cost`] uses it to reject renders that
/// raced a write. A request without one must never be served from the
/// cache.
pub(crate) struct CacheSlot {
    pub key: String,
    pub snapshot: u64,
    /// Service time the miss has spent regenerating the page so far
    /// (handler, then render; queue waits excluded): the entry's cost.
    pub cost: Duration,
}

pub(crate) struct DynWork {
    pub request: Request,
    /// The page key (route name) for service-time tracking; `None` for
    /// unrouted paths (404).
    pub page: Option<String>,
    pub kind: RequestKind,
    /// The Table 1 dispatch decision.
    pub lengthy: bool,
    /// The general-pool thread a request dispatched there holds until
    /// its dynamic stage returns.
    pub claim: Option<Claim>,
    pub cache: Option<CacheSlot>,
}

pub(crate) struct RenderWork {
    pub keep_alive: bool,
    pub method: Method,
    pub name: String,
    /// The route name, carried so the trace's terminal outcome is
    /// labelled with the page, not the template.
    pub page: String,
    pub context: Context,
    pub kind: RequestKind,
    /// Carried through so the render stage can publish its render.
    pub cache: Option<CacheSlot>,
    /// The tables/keys the handler's queries read, collected by the
    /// dynamic stage; tags the published render for invalidation.
    pub reads: Option<Arc<ReadSet>>,
}

/// Everything the stages share. One per server, whatever the model.
pub(crate) struct Core {
    pub app: App,
    /// The server's counters, cells of `registry`.
    pub counters: Counters,
    pub tracker: Arc<ServiceTimeTracker>,
    pub map: StageMap,
    /// The model's pool table, upstream first; the listener feeds
    /// `pools[0]`.
    pub pools: Vec<PoolPort>,
    pub scheduler: Option<Scheduler>,
    /// Per-request time budget (`None` disables deadline checking).
    pub budget: Option<Duration>,
    /// Adaptive `Retry-After` advice for shed responses.
    pub retry: RetryEstimator,
    /// The one response cache: successful renders of cache-marked
    /// pages, tagged with what they read, answered from the parse stage
    /// without touching the dynamic or render stages. `Arc`-shared with
    /// the database write observer, which evicts entries a write
    /// touched. `Some` only on a staged model with
    /// [`crate::ServerConfig::doc_cache`] on.
    pub cache: Option<Arc<DocCache>>,
    /// Lifecycle phase, served by `/readyz`.
    pub readiness: Arc<Readiness>,
    /// The database circuit breaker (shared with the connection pool),
    /// surfaced in the health payloads.
    pub breaker: Option<Arc<CircuitBreaker>>,
    /// The one metrics surface: `/metrics`, `/healthz`, and the handle
    /// all read from here.
    pub registry: Arc<Registry>,
    /// Trace pool + slow ring; every request's trace starts here.
    pub trace_hub: TraceHub,
    /// Connection-admission caps (global/per-IP concurrency, keep-alive
    /// quotas, idle harvesting).
    pub governor: ConnectionGovernor,
    /// The database, kept for `/debug/explain` and the health payload's
    /// durability section (`durability_status()` answers `None` on
    /// in-memory databases, which keeps the section out of the payload).
    pub db: Arc<Database>,
    /// Set when shutdown begins: keep-alive connections are closed
    /// after their in-flight response, so the stages run dry.
    pub draining: AtomicBool,
}

impl Core {
    /// Runs `job`, just popped from pool `here`'s queue, and then every
    /// following step the map keeps on this thread. A step placed on a
    /// pool ends the visit.
    ///
    /// `stage_service_seconds` gets one sample per request per visit:
    /// on a map that queues every stage that is one sample per pool
    /// job; on the inline map it is one per request, however many
    /// requests the connection carries.
    pub(crate) fn drive(&self, here: usize, slot: &mut Option<DbSlot>, mut job: Job) {
        let service = &self.pools[here].service;
        let mut started = Instant::now();
        job.trace.dequeued();
        if job.deadline.is_some_and(|d| started > d) {
            // The budget was spent waiting in the queue: answer 503
            // before doing any work nobody may be listening for.
            self.expire(job);
        } else {
            while let Some(mut next) = self.run(job, slot) {
                let stage = next.work.stage();
                let next_request = stage == Stage::Parse;
                if !next_request {
                    next.trace.stage_done();
                }
                match self.map.of(stage) {
                    Place::Inline => {
                        next.trace.enqueued(stage);
                        next.trace.dequeued();
                        if next_request {
                            let now = Instant::now();
                            service.record(now - started);
                            started = now;
                        }
                        job = next;
                    }
                    Place::Pool(pool) => {
                        self.submit(pool, next, shed_point(stage));
                        break;
                    }
                }
            }
        }
        service.record(started.elapsed());
    }

    /// Hands `job` to pool `pool` without blocking; a full queue sheds
    /// it at `point`, charging the rejection to the receiving pool.
    /// Returns `false` once the queue is closed (the server is stopping
    /// and the job is dropped).
    pub(crate) fn submit(&self, pool: usize, mut job: Job, point: ShedPoint) -> bool {
        job.trace.enqueued(job.work.stage());
        match self.pools[pool].queue.try_push(job) {
            Ok(()) => true,
            Err(PushError::Full(job)) => {
                self.pools[pool].stats.rejected.increment();
                self.shed(job, point);
                true
            }
            Err(PushError::Closed(_)) => false,
        }
    }

    /// A freshly accepted connection waiting for its first request.
    pub(crate) fn parse_job(&self, conn: Conn) -> Job {
        Job {
            conn,
            trace: self.trace_hub.start(),
            deadline: self.deadline(),
            work: Work::Parse,
        }
    }

    /// The deadline of a request (or queue wait) beginning now.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.budget.map(|b| Instant::now() + b)
    }

    fn run(&self, job: Job, slot: &mut Option<DbSlot>) -> Option<Job> {
        let Job {
            conn,
            trace,
            deadline,
            work,
        } = job;
        match work {
            Work::Parse => self.parse(conn, trace),
            Work::Static(line) => self.serve_static(conn, trace, &line),
            Work::Dynamic(work) => {
                let slot = slot
                    .as_mut()
                    .expect("the map runs dynamic stages on workers that own a DbSlot");
                self.generate(conn, trace, deadline, work, slot)
            }
            Work::Render(work) => self.render(conn, trace, work),
        }
    }

    /// Writes the well-formed `503` + `Retry-After` to a connection
    /// that is about to be closed.
    pub(crate) fn refuse(&self, conn: &mut Conn, method: Method) {
        let response = overload_response(self.retry.advise());
        if conn.send_for_method(method, &response).is_err() {
            self.counters.dropped_connections.increment();
        } else {
            // The request may be partly (or wholly) unread; drain it so
            // closing doesn't RST the 503 away.
            drain_before_close(conn.stream_mut().tcp());
        }
    }

    /// Sheds a job whose next pool is full and closes the connection.
    /// Sheds are not completions: goodput counts only requests actually
    /// served.
    fn shed(&self, mut job: Job, point: ShedPoint) {
        self.counters.shed(point).increment();
        job.trace.note(TraceEvent::Shed);
        // An idle keep-alive connection is owed no response; dropping
        // it is cheaper than any request it might send later.
        if point != ShedPoint::KeepAlive {
            self.refuse(&mut job.conn, job.work.method());
        }
        job.trace.finish(TraceOutcome::Shed, None);
    }

    /// Answers a job whose deadline passed in a queue and closes the
    /// connection (the client has almost certainly given up; serving it
    /// would waste a saturated stage's time).
    fn expire(&self, mut job: Job) {
        self.counters.deadline_expired.increment();
        self.refuse(&mut job.conn, job.work.method());
        job.trace.finish(TraceOutcome::Expired, None);
    }

    /// Sends a response (honouring `HEAD`) and returns the connection's
    /// next parse job, or `None` when it closes. The trace reaches its
    /// terminal outcome here: `Served` (or `Probe` when `kind` is
    /// `None` — monitoring traffic is not a completion and must not
    /// skew the goodput series) on a delivered response, `Dropped` when
    /// the client went away mid-write.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn respond(
        &self,
        mut conn: Conn,
        mut trace: Trace,
        method: Method,
        response: &Response,
        keep_alive: bool,
        kind: Option<RequestKind>,
        page: Option<&str>,
    ) -> Option<Job> {
        trace.stage_done();
        if conn.send_for_method(method, response).is_err() {
            self.counters.dropped_connections.increment();
            trace.finish(TraceOutcome::Dropped, page);
            return None;
        }
        let (outcome, page) = match kind {
            Some(kind) => {
                self.counters.completed(kind).increment();
                (TraceOutcome::Served, page)
            }
            None => (TraceOutcome::Probe, None),
        };
        // Responses the server marked `Connection: close` (503s) end
        // the connection even if the client asked for keep-alive — as
        // does a draining server, so shutdown isn't held open by idle
        // keep-alive connections. So do the keep-alive lifecycle caps:
        // a connection that has served its request quota — or any idle
        // connection while open connections sit at the governor's
        // harvest watermark — is closed, freeing its admission slot for
        // a new peer.
        if !keep_alive
            || !response.headers().keep_alive()
            || self.draining.load(Ordering::Acquire)
            || self
                .governor
                .keepalive_exhausted(conn.stream_mut().count_served())
            || self.governor.harvest_idle()
        {
            trace.finish(outcome, page);
            return None;
        }
        // The next request's trace reuses this one's allocation; if the
        // connection then closes cleanly without sending a request, it
        // finishes as `Dropped` (no response was owed).
        trace.finish_and_restart(outcome, page);
        Some(Job {
            conn,
            trace,
            deadline: self.deadline(),
            work: Work::Parse,
        })
    }

    /// Answers a failed parse with the status the error maps to — `400`
    /// for malformed requests, `431`/`413` for oversized headers/bodies,
    /// `408` for an expired lifecycle budget — always with `Connection:
    /// close`, so hostile or broken clients learn *why* instead of
    /// seeing a silent drop. Errors with no response mapping (I/O
    /// failures, unclean closes) drop the connection.
    pub(crate) fn fail_parse(&self, mut conn: Conn, trace: Trace, e: &HttpError) -> Option<Job> {
        match e.response_status() {
            Some(status) => {
                if e.is_lifecycle_timeout() {
                    self.counters.slowloris_kills.increment();
                }
                let mut resp = Response::error(status);
                resp.set_close();
                let _ = conn.send(&resp);
                self.counters.errors.increment();
            }
            None => self.counters.dropped_connections.increment(),
        }
        trace.finish(TraceOutcome::Dropped, None);
        None
    }
}

/// Where a job bound for `stage`'s pool is shed when that pool is full.
/// (The listener's own hand-off is [`ShedPoint::Listener`].)
fn shed_point(stage: Stage) -> ShedPoint {
    match stage {
        Stage::Parse => ShedPoint::KeepAlive,
        Stage::Static => ShedPoint::StaticStage,
        Stage::General => ShedPoint::General,
        Stage::Lengthy => ShedPoint::Lengthy,
        Stage::Render => ShedPoint::Render,
    }
}
