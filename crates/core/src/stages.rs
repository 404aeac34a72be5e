//! The pipeline's stage functions: parse (with the probe endpoints and
//! the cache hit path), static, dynamic and render. Each takes
//! the job's connection and trace, does its work on the calling thread,
//! and returns the next [`Job`] — or the result of [`Core::respond`] —
//! for [`Core::drive`] to place.

use crate::app::{PageOutcome, Route};
use crate::doccache::{write_key, Lookup};
use crate::error::AppError;
use crate::health::{self, HealthView};
use crate::overload::{overload_response, DbSlot};
use crate::pipeline::{CacheSlot, Conn, Core, DynWork, Job, RenderWork, Work};
use crate::scheduler::RequestClass;
use crate::stats::{Counters, RequestKind};
use staged_db::{PooledConnection, ReadSet};
use staged_http::{
    HeaderMap, HttpError, Method, Request, RequestLine, Response, RouteParams, StatusCode,
};
use staged_metrics::{Trace, TraceEvent};
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread scratch for normalized cache keys. Reused across
    /// requests so key derivation on the cache-hit path stops
    /// allocating once the buffer has grown to steady state.
    static KEY_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

impl Core {
    /// The parse stage: reads the request line; static requests leave
    /// at once, dynamic requests get their remaining headers, query
    /// string, and body parsed *here* — "we do not want a thread with
    /// an open database connection to waste time doing anything other
    /// than generating data" (§3.2) — then are classified quick/lengthy
    /// and dispatched per Table 1.
    pub(crate) fn parse(&self, mut conn: Conn, mut trace: Trace) -> Option<Job> {
        let line = match conn.read_request_line() {
            Ok(l) => l,
            // A clean close before any request line (a keep-alive
            // connection idling out) drops the trace: no response was
            // owed.
            Err(HttpError::ConnectionClosed { clean: true }) => return None,
            Err(e) => return self.fail_parse(conn, trace, &e),
        };
        // The per-request clock starts *after* the request line arrives,
        // so keep-alive think time (a connection idling between
        // requests) does not count against the budget — or pollute the
        // trace's timeline.
        trace.mark_start();
        let deadline = self.deadline();
        let path = line.target.path();
        if health::is_health_path(path) || health::is_observability_path(path) {
            return self.probe(conn, trace, &line);
        }
        if line.is_static() {
            let work = Work::Static(line);
            return Some(Job {
                conn,
                trace,
                deadline,
                work,
            });
        }
        let request = match read_rest(&mut conn, line) {
            Ok(r) => r,
            Err(e) => return self.fail_parse(conn, trace, &e),
        };
        let (page, cacheable) = match self.app.route(request.path()) {
            Some((r, _)) => (Some(r.name.clone()), r.cacheable),
            None => (None, false),
        };
        // Only GETs of cache-marked routes may ever be served from the
        // cache, and only when the server keeps one. The key is built in
        // the thread's reusable buffer; a fresh hit is answered right
        // here — no DB checkout, no render, no allocation — and only a
        // miss pays for the owned key the job carries downstream.
        let cache = match &self.cache {
            Some(dc) if cacheable && request.method() == Method::Get => {
                enum KeyOutcome {
                    Hit(Arc<Response>),
                    Miss(String),
                }
                let mut snapshot = 0u64;
                let outcome = KEY_BUF.with(|buf| {
                    let mut buf = buf.borrow_mut();
                    // lint: hot_path — cache-hit serve: key derivation reuses
                    // the per-thread buffer; a hit costs one map probe and an
                    // Arc bump before the vectored write in `respond`.
                    write_key(
                        &mut buf,
                        page.as_deref().unwrap_or_default(),
                        &request.params,
                    );
                    match dc.lookup(&buf) {
                        Lookup::Hit(response) => return KeyOutcome::Hit(response),
                        Lookup::Miss(taken) => snapshot = taken,
                    }
                    // lint: end_hot_path
                    KeyOutcome::Miss(buf.clone())
                });
                match outcome {
                    KeyOutcome::Hit(response) => {
                        return self.respond(
                            conn,
                            trace,
                            request.method(),
                            &response,
                            request.keep_alive(),
                            Some(RequestKind::QuickDynamic),
                            page.as_deref(),
                        );
                    }
                    KeyOutcome::Miss(key) => Some(CacheSlot {
                        key,
                        snapshot,
                        cost: Duration::ZERO,
                    }),
                }
            }
            _ => None,
        };

        // Classification and Table 1 dispatch. Without a scheduler the
        // class only labels the completion (the Figure 10 breakdown).
        let class = match &page {
            Some(name) => self.tracker.classify(name),
            None => RequestClass::Quick,
        };
        let kind = match class {
            RequestClass::Quick => RequestKind::QuickDynamic,
            RequestClass::Lengthy => RequestKind::LengthyDynamic,
        };
        trace.classified(class == RequestClass::Lengthy);
        let (lengthy, claim) = match &self.scheduler {
            Some(s) => {
                let claim = s.general.dispatch(&s.controller, class);
                (claim.is_none(), claim)
            }
            None => (class == RequestClass::Lengthy, None),
        };
        let work = Work::Dynamic(DynWork {
            request,
            page,
            kind,
            lengthy,
            claim,
            cache,
        });
        Some(Job {
            conn,
            trace,
            deadline,
            work,
        })
    }

    /// Serves `/healthz`, `/readyz`, `/metrics` (Prometheus text
    /// exposition), `/debug/traces` (the slow-trace ring as JSON), or
    /// `/debug/explain` (query-plan trees per route) from the parse
    /// stage — ahead of routing and without touching a database
    /// connection, so they stay truthful during the very outages they
    /// report.
    fn probe(&self, mut conn: Conn, trace: Trace, line: &RequestLine) -> Option<Job> {
        let headers = match conn.read_remaining_headers() {
            Ok(h) => h,
            Err(e) => return self.fail_parse(conn, trace, &e),
        };
        let response = match line.target.path() {
            "/metrics" => Response::metrics_text(self.registry.encode_prometheus()),
            "/debug/traces" => {
                Response::with_content_type("application/json", self.trace_hub.traces_json())
            }
            "/debug/explain" => {
                let route = line
                    .target
                    .query_pairs()
                    .into_iter()
                    .find(|(k, _)| k == "route");
                health::explain_response(&self.db, route.as_ref().map(|(_, v)| v.as_str()))
            }
            // Built from the metrics registry (the same families
            // `/metrics` exports, so the two surfaces cannot disagree).
            path => {
                let view = HealthView {
                    phase: self.readiness.phase(),
                    breaker: self.breaker.as_deref(),
                    registry: &self.registry,
                    durability: self.db.durability_status(),
                };
                if path == "/readyz" {
                    view.readyz(self.retry.advise())
                } else {
                    view.healthz()
                }
            }
        };
        let keep_alive = keep_alive_for(line, &headers);
        self.respond(conn, trace, line.method, &response, keep_alive, None, None)
    }

    /// The static stage (parses its own headers).
    pub(crate) fn serve_static(
        &self,
        mut conn: Conn,
        trace: Trace,
        line: &RequestLine,
    ) -> Option<Job> {
        let headers = match conn.read_remaining_headers() {
            Ok(h) => h,
            Err(e) => return self.fail_parse(conn, trace, &e),
        };
        let path = line.target.path();
        let response = self.app.statics().response_for_request(path, &headers);
        self.app.charge_static();
        if response.status() == StatusCode::NOT_FOUND {
            self.counters.errors.increment();
        }
        self.respond(
            conn,
            trace,
            line.method,
            &response,
            keep_alive_for(line, &headers),
            Some(RequestKind::Static),
            Some(path),
        )
    }

    /// The dynamic stage: runs the page handler on the worker's
    /// database connection slot (the connection itself can die under
    /// fault injection and be replaced; see [`DbSlot`]) and measures
    /// data-generation time. An unrendered template goes on to the
    /// render stage; a pre-rendered body is sent from here (backward
    /// compatibility, §3.1).
    pub(crate) fn generate(
        &self,
        conn: Conn,
        mut trace: Trace,
        deadline: Option<Instant>,
        work: DynWork,
        slot: &mut DbSlot,
    ) -> Option<Job> {
        // The general-pool claim is held until this stage returns.
        let DynWork {
            request,
            page,
            kind,
            mut cache,
            claim: _claim,
            ..
        } = work;
        let keep_alive = request.keep_alive();
        let method = request.method();
        let (Some(page), Some((route, captures))) = (page, self.app.route(request.path())) else {
            self.counters.errors.increment();
            let response = Response::error(StatusCode::NOT_FOUND);
            return self.respond(conn, trace, method, &response, keep_alive, Some(kind), None);
        };
        // The paper's measurement window: from request acquisition until
        // the unrendered template leaves for rendering (which it
        // excludes).
        let started = Instant::now();
        let merged;
        let request = if captures.is_empty() {
            &request
        } else {
            merged = merge_captures(&request, &captures);
            &merged
        };
        // Collect the handler's read set when the cache will tag an
        // entry with it. The slot re-arms tracking across connection
        // replacement, and a lost set (starved re-checkout) just means
        // the render is not cached — never served stale.
        if cache.is_some() {
            slot.begin_read_tracking();
        }
        let outcome = run_handler_with_slot(route, request, slot, &self.counters);
        let reads = if cache.is_some() {
            slot.take_read_set().map(Arc::new)
        } else {
            None
        };
        let generated = started.elapsed();
        self.tracker.record(&page, generated);
        if let Some(slot) = &mut cache {
            slot.cost = generated;
        }
        let response = match outcome {
            Ok(PageOutcome::Template { name, context }) => {
                let work = Work::Render(RenderWork {
                    keep_alive,
                    method,
                    name,
                    page,
                    context,
                    kind,
                    cache,
                    reads,
                });
                return Some(Job {
                    conn,
                    trace,
                    deadline,
                    work,
                });
            }
            Ok(PageOutcome::Body(response)) => {
                // Cache-marked pre-rendered pages are cached too — but
                // only 200s.
                if let Some(slot) = &cache {
                    if response.status() == StatusCode::OK {
                        self.publish(slot, &response, &reads, Duration::ZERO);
                    }
                }
                response
            }
            Err(e) if e.is_unavailable() => {
                // Transient resource failure (open breaker, dead
                // connection, starved pool) — retryable, not the 500 a
                // handler bug gets.
                trace.note(TraceEvent::Unavailable);
                self.counters.errors.increment();
                overload_response(self.retry.advise())
            }
            Err(_) => {
                self.counters.errors.increment();
                Response::error(StatusCode::INTERNAL_SERVER_ERROR)
            }
        };
        self.respond(
            conn,
            trace,
            method,
            &response,
            keep_alive,
            Some(kind),
            Some(&page),
        )
    }

    /// The render stage: renders the template, sets `Content-Length`
    /// exactly, and transmits the response.
    pub(crate) fn render(&self, conn: Conn, trace: Trace, work: RenderWork) -> Option<Job> {
        let started = Instant::now();
        // The zero-copy hot path: render into a pooled buffer, freeze
        // it into a shared body, and hand that same allocation to the
        // cache and the connection writer.
        let mut buf = staged_http::BufferPool::global().get();
        let templates = self.app.templates();
        let response = match templates.render_into(&work.name, &work.context, &mut buf) {
            Ok(()) => {
                self.app.charge_render(buf.len());
                let response = Response::html(buf.freeze());
                if let Some(slot) = &work.cache {
                    self.publish(slot, &response, &work.reads, started.elapsed());
                }
                response
            }
            Err(_) => {
                self.counters.errors.increment();
                Response::error(StatusCode::INTERNAL_SERVER_ERROR)
            }
        };
        self.respond(
            conn,
            trace,
            work.method,
            &response,
            work.keep_alive,
            Some(work.kind),
            Some(&work.page),
        )
    }

    /// Publishes a finished page to the cache, tagged with what it
    /// read and what it cost: the slot's service time so far plus
    /// `rendered`, this stage's share. The cache discards it if a write
    /// to a dependent table landed after this request's snapshot; a
    /// render without a read set is not cached at all.
    fn publish(
        &self,
        slot: &CacheSlot,
        response: &Response,
        reads: &Option<Arc<ReadSet>>,
        rendered: Duration,
    ) {
        if let (Some(dc), Some(reads)) = (&self.cache, reads) {
            dc.publish_with_cost(
                &slot.key,
                Arc::new(response.clone()),
                Arc::clone(reads),
                slot.snapshot,
                slot.cost + rendered,
            );
        }
    }
}

/// Reads the rest of a dynamic request whose line is already parsed.
fn read_rest(conn: &mut Conn, line: RequestLine) -> Result<Request, HttpError> {
    let headers = conn.read_remaining_headers()?;
    let body = match headers.content_length() {
        Some(len) if len > 0 => conn.read_body(len)?,
        _ => Vec::new(),
    };
    Ok(Request::new(line, headers, body))
}

/// Keep-alive decision from the request line and headers (HTTP/1.0
/// defaults off, HTTP/1.1 defaults on).
fn keep_alive_for(line: &RequestLine, headers: &HeaderMap) -> bool {
    if line.version == "HTTP/1.0" {
        headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    } else {
        headers.keep_alive()
    }
}

/// Merges pattern captures into the request's parameter list (captures
/// are appended, so query parameters of the same name win).
fn merge_captures(request: &Request, captures: &RouteParams) -> Request {
    let mut merged = request.clone();
    merged
        .params
        .extend(captures.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    merged
}

/// Runs a route handler, converting panics into errors so the worker
/// thread (and its database connection) survives.
fn run_handler(
    route: &Route,
    request: &Request,
    db_conn: &PooledConnection,
    counters: &Counters,
) -> Result<PageOutcome, AppError> {
    // Tag the connection with the page it is serving so every statement
    // the handler runs is attributed to it on `/debug/explain`.
    db_conn.set_route(Some(&route.name));
    let result = match panic::catch_unwind(AssertUnwindSafe(|| (route.handler)(request, db_conn))) {
        Ok(result) => result,
        Err(_) => {
            counters.handler_panics.increment();
            Err(AppError::handler("handler panicked"))
        }
    };
    db_conn.set_route(None);
    result
}

/// Runs a route handler through the worker's [`DbSlot`]: a request that
/// fails because the slot's connection died is retried **once** on a
/// freshly checked-out connection; pool starvation (and a second loss)
/// surfaces as [`AppError::Unavailable`] for a `503`.
fn run_handler_with_slot(
    route: &Route,
    request: &Request,
    slot: &mut DbSlot,
    counters: &Counters,
) -> Result<PageOutcome, AppError> {
    for attempt in 0..2 {
        let Some(db_conn) = slot.conn() else {
            counters.pool_starved.increment();
            return Err(AppError::Unavailable("database pool starved".into()));
        };
        let result = run_handler(route, request, db_conn, counters);
        match &result {
            Err(e) if e.is_unavailable() && attempt == 0 => {
                // The connection died mid-request; discard it and retry
                // on a fresh one.
                slot.invalidate();
            }
            _ => return result,
        }
    }
    unreachable!("the second attempt always returns");
}
