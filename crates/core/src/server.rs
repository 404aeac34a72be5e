//! The two server models and the one `start` that runs either.
//!
//! Following Voras & Žagar's classification, a server model is nothing
//! but *which thread runs which phase*: a [`Model`] is a pool table, a
//! stage→pool map over it ([`StageMap`]), and a flag per pool saying
//! whether its workers own a database connection. The pipeline itself
//! (`pipeline.rs`) is the same code under every model.

use crate::app::App;
use crate::config::ServerConfig;
use crate::doccache::{self, DocCache};
use crate::governor::{ConnectionGovernor, GovernedStream};
use crate::handle::{FaultFn, ServerHandle, ShutdownError, ShutdownFn};
use crate::health::Readiness;
use crate::overload::{ChaosAction, DbSlot, RetryEstimator};
use crate::pipeline::{Core, Job, Place, PoolPort, Scheduler, SpareThreads, StageMap};
use crate::scheduler::{ReserveController, ServiceTimeTracker};
use crate::stats::{Counters, ShedPoint};
use staged_db::{ConnectionPool, Database};
use staged_http::{Connection, Method};
use staged_metrics::{Registry, TraceHub};
use staged_pool::{PoolConfig, PoolStats, SyncQueue, WorkerPool};
use staged_sync::atomic::{AtomicBool, Ordering};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Average render time above which a template is *lengthy* when the
/// render split is on (the same 5 ms as the default `lengthy_cutoff`).
const RENDER_CUTOFF: Duration = Duration::from_millis(5);

/// Graceful-shutdown budget: how long
/// [`ServerHandle::shutdown`](crate::ServerHandle::shutdown) waits for
/// queued and in-flight requests to finish before force-joining the
/// pools.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// One row of a model's pool table.
struct PoolSpec {
    /// Pool name: thread-name prefix and the `pool` metric label.
    pool: &'static str,
    /// The `stage` metric label of the pool's queue and service time.
    stage: &'static str,
    /// Worker threads; the pool's queue holds `workers × queue_factor`
    /// jobs.
    workers: usize,
    /// Whether each worker owns a [`DbSlot`] for its lifetime. The map
    /// must place the dynamic stages only on such pools.
    owns_db: bool,
}

/// A request-processing model: the pools that exist (upstream first;
/// the listener feeds the first), which of them runs each stage, and
/// whether the model keeps a response cache at all.
struct Model {
    pools: Vec<PoolSpec>,
    map: StageMap,
    cached: bool,
}

impl Model {
    /// The paper's modified server (Figure 5): header parsing, static,
    /// general dynamic, lengthy dynamic and render pools, database
    /// connections pinned to the two dynamic ones. With `split_render`
    /// (the §3.3 extension) a quarter of the render workers (at least
    /// one) form a sixth pool for lengthy templates.
    fn five_pool(c: &ServerConfig) -> Model {
        let lengthy_render = if c.split_render {
            (c.render_workers / 4).max(1)
        } else {
            0
        };
        let render = (c.render_workers - lengthy_render).max(1);
        let spec = |pool, stage, workers, owns_db| PoolSpec {
            pool,
            stage,
            workers,
            owns_db,
        };
        let mut pools = vec![
            spec("header-parsing", "header", c.header_workers, false),
            spec("static", "static", c.static_workers, false),
            spec("general-dynamic", "general", c.general_workers, true),
            spec("lengthy-dynamic", "lengthy", c.lengthy_workers, true),
            spec("render", "render", render, false),
        ];
        if c.split_render {
            pools.push(spec(
                "render-lengthy",
                "render-lengthy",
                lengthy_render,
                false,
            ));
        }
        let map = StageMap {
            keep_alive: Place::Pool(0),
            statics: Place::Pool(1),
            general: Place::Pool(2),
            lengthy: Place::Pool(3),
            render: Place::Pool(4),
            render_lengthy: Place::Pool(pools.len() - 1),
        };
        Model {
            pools,
            map,
            cached: true,
        }
    }

    /// The conventional thread-per-request server (Figure 4): one pool
    /// whose workers each own a database connection; the worker that
    /// dequeues a connection runs every stage of every request on it.
    /// It caches nothing, as the paper's servers do not.
    fn thread_per_request(c: &ServerConfig) -> Model {
        Model {
            pools: vec![PoolSpec {
                pool: "baseline-worker",
                stage: "worker",
                workers: c.baseline_workers,
                owns_db: true,
            }],
            map: StageMap {
                keep_alive: Place::Inline,
                statics: Place::Inline,
                general: Place::Inline,
                lengthy: Place::Inline,
                render: Place::Inline,
                render_lengthy: Place::Inline,
            },
            cached: false,
        }
    }
}

/// The modified multi-thread-pool web server (the paper's contribution).
///
/// Request lifecycle:
///
/// 1. the **listener** accepts a connection and queues it for header
///    parsing (shedding with `503` when the header queue is full);
/// 2. a **header-parsing** worker reads the request line; static
///    requests go to the static pool immediately, dynamic requests get
///    their remaining headers, query string, and body parsed *here* —
///    "we do not want a thread with an open database connection to
///    waste time doing anything other than generating data" (§3.2) —
///    then are classified quick/lengthy and dispatched per Table 1;
/// 3. a **dynamic** worker (each owning a database connection) runs the
///    page handler and measures data-generation time; an unrendered
///    template outcome is queued for rendering, a pre-rendered body is
///    sent directly (backward compatibility);
/// 4. a **render** worker renders the template, sets `Content-Length`
///    exactly, and transmits the response.
///
/// Every hand-off is a non-blocking push onto a bounded queue: when a
/// downstream pool saturates, the request is shed with a well-formed
/// `503` + `Retry-After`, and static requests keep flowing while the
/// dynamic stages saturate — graceful degradation rather than meltdown.
///
/// A 1 Hz-equivalent controller thread updates `t_reserve` from the
/// general pool's measured `t_spare` ([`ReserveController`]).
#[derive(Debug)]
pub struct StagedServer;

impl StagedServer {
    /// Binds, spawns the five pools and the controller, and starts the
    /// listener.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listen address.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see
    /// [`ServerConfig::validate`]).
    pub fn start(config: ServerConfig, app: App, db: Arc<Database>) -> io::Result<ServerHandle> {
        config.validate();
        let model = Model::five_pool(&config);
        start(config, model, app, db)
    }
}

/// The unmodified request-processing model: a single listener thread
/// feeds accepted connections to one pool of worker threads; each
/// worker owns a database connection for its lifetime and carries each
/// request through header parsing, data generation, **and** template
/// rendering, then reads the connection's next request itself.
///
/// This is the paper's comparison baseline. Its pathology under heavy
/// load is structural: the pool size is coupled to the connection count,
/// so threads rendering templates or serving static files hold
/// connections idle, and short requests queue behind lengthy ones in
/// the single queue (the Figure 7 spikes).
///
/// It is the same pipeline as [`StagedServer`] under a different
/// stage→pool map, so overload semantics, endpoints and metrics match:
/// the worker queue is bounded, the listener sheds with `503` +
/// `Retry-After` instead of blocking the accept loop, and connections
/// whose queue wait exceeds `request_deadline` are answered `503` at
/// dequeue. To keep the comparison the paper's, it runs no reserve
/// controller and no response cache — no stale ladder, and
/// `doc_cache` is ignored.
#[derive(Debug)]
pub struct BaselineServer;

impl BaselineServer {
    /// Binds, spawns the worker pool (each worker checking a database
    /// connection out for its lifetime), and starts the listener.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listen address.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see
    /// [`ServerConfig::validate`]).
    pub fn start(config: ServerConfig, app: App, db: Arc<Database>) -> io::Result<ServerHandle> {
        config.validate();
        let model = Model::thread_per_request(&config);
        start(config, model, app, db)
    }
}

/// Starts a server of the given model: registry, cache, the model's
/// pools, the reserve controller (when the map gives the scheduler
/// something to choose between), the listener, and the drain-aware
/// shutdown closure.
fn start(
    config: ServerConfig,
    model: Model,
    app: App,
    db: Arc<Database>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let tracker = Arc::new(ServiceTimeTracker::new(config.lengthy_cutoff));
    let registry = Arc::new(Registry::new());
    let trace_hub = TraceHub::new(&registry, config.trace_ring);
    let governor = ConnectionGovernor::new(config.governor);
    governor.register_into(&registry);
    setup_durability(&config, &registry, &db)?;
    let connections = ConnectionPool::new(Arc::clone(&db), config.db_connections);
    connections.set_fault_plan(config.fault_plan);
    connections.set_breaker(config.breaker);
    let breaker = connections.breaker();
    let fault_pool = connections.clone();
    let set_fault: FaultFn = Arc::new(move |plan| fault_pool.set_fault_plan(plan));
    let readiness = Arc::new(Readiness::new());

    // One cache for the ladder and, with `doc_cache`, fresh hits; the
    // hit-serving bound is the larger one.
    let serve_hits = model.cached && config.doc_cache;
    let cache = model.cached.then(|| {
        let capacity = if serve_hits {
            doccache::HIT_CAPACITY
        } else {
            doccache::LADDER_CAPACITY
        };
        Arc::new(DocCache::new(doccache::TTL, capacity))
    });
    // The invalidation engine: every committed mutation evicts
    // dependent entries. The observer deliberately captures only the
    // cache — capturing the shared server context would create an Arc
    // cycle through the database.
    if let Some(cache) = &cache {
        let cache = Arc::clone(cache);
        db.set_write_observer(move |event| cache.invalidate(event));
    }

    // Each pool's queue and stats block exist before the pool itself so
    // the pipeline can push to it and charge hand-off rejections to it.
    // This loop, the server counters and the collectors below are the whole
    // `/metrics` surface.
    let pools: Vec<PoolPort> = model
        .pools
        .iter()
        .map(|spec| {
            let port = PoolPort {
                queue: Arc::new(SyncQueue::bounded(config.queue_bound(spec.workers))),
                stats: Arc::new(PoolStats::default()),
                service: registry.histogram("stage_service_seconds", &[("stage", spec.stage)]),
            };
            register_stage(&registry, spec.stage, &port.queue);
            register_pool(&registry, spec.pool, &port.stats);
            port
        })
        .collect();
    let counters = Counters::register_into(&registry);
    register_page_tracker(&registry, &tracker);
    register_plan_observer(&registry, &db);
    // The `doc_cache_*` families describe the hit path; a ladder-only
    // cache exports none.
    if let Some(cache) = cache.as_ref().filter(|_| serve_hits) {
        register_doc_cache(&registry, cache);
    }

    // Table 1 needs two dynamic pools to choose between; a map that
    // runs both dynamic stages in one place has no scheduler.
    let scheduler = match (model.map.general, model.map.lengthy) {
        (Place::Pool(general), Place::Pool(lengthy)) if general != lengthy => {
            let s = Scheduler {
                controller: Arc::new(ReserveController::with_max(
                    config.min_reserve,
                    config.max_reserve,
                )),
                general: Arc::new(SpareThreads::new(model.pools[general].workers)),
            };
            let general = Arc::clone(&s.general);
            registry.gauge_fn("scheduler_t_spare", &[], move || general.spare() as f64);
            let c = Arc::clone(&s.controller);
            registry.gauge_fn("scheduler_t_reserve", &[], move || c.reserve() as f64);
            Some(s)
        }
        _ => None,
    };

    // Adaptive Retry-After: backlog across every stage divided by the
    // measured completion rate.
    let retry = {
        let queues: Vec<_> = pools.iter().map(|p| Arc::clone(&p.queue)).collect();
        let registry = Arc::clone(&registry);
        RetryEstimator::new(
            Box::new(move || queues.iter().map(|q| q.len()).sum()),
            Box::new(move || registry.family_sum("requests_completed_total") as u64),
        )
    };

    let core = Arc::new(Core {
        app,
        counters,
        tracker: Arc::clone(&tracker),
        render_tracker: ServiceTimeTracker::new(RENDER_CUTOFF),
        map: model.map,
        pools,
        scheduler,
        budget: config.request_deadline,
        retry,
        cache,
        serve_hits,
        readiness: Arc::clone(&readiness),
        breaker: breaker.clone(),
        registry: Arc::clone(&registry),
        trace_hub,
        governor,
        db,
        draining: AtomicBool::new(false),
    });

    let workers: Vec<WorkerPool<Job>> = model
        .pools
        .iter()
        .zip(&core.pools)
        .enumerate()
        .map(|(index, (spec, port))| {
            let core = Arc::clone(&core);
            WorkerPool::with_parts(
                Arc::clone(&port.queue),
                Arc::clone(&port.stats),
                PoolConfig::new(spec.pool, spec.workers),
                |_| {
                    spec.owns_db
                        .then(|| DbSlot::new(&connections, config.db_acquire_timeout))
                },
                move |slot: &mut Option<DbSlot>, job: Job| core.drive(index, slot, job),
            )
        })
        .collect();

    // Controller thread: the paper checks and modifies t_reserve once
    // per second; `controller_tick` is that period (scaled).
    let stop = Arc::new(AtomicBool::new(false));
    let controller_thread = core.scheduler.as_ref().map(|s| {
        let stop = Arc::clone(&stop);
        let controller = Arc::clone(&s.controller);
        let general = Arc::clone(&s.general);
        let tick = config.controller_tick;
        std::thread::Builder::new()
            .name("reserve-controller".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(tick);
                    controller.update(general.spare());
                }
            })
            .expect("failed to spawn controller thread")
    });

    let listener_thread = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("listener".to_string())
            .spawn(move || accept_loop(&core, &listener, &stop, &config))
            .expect("failed to spawn listener thread")
    };

    // The listener is live: accepted connections will be served.
    readiness.set_ready();

    let shutdown: ShutdownFn = Box::new(move || {
        // Drain-aware shutdown: advertise not-ready, stop keeping
        // connections alive, stop accepting — then let every
        // already-accepted request finish before closing any stage.
        core.readiness.set_draining();
        core.draining.store(true, Ordering::Release);
        stop.store(true, Ordering::Release);
        // Poke the blocking accept() so the listener notices.
        let _ = TcpStream::connect(addr);
        let _ = listener_thread.join();
        if let Some(thread) = controller_thread {
            let _ = thread.join();
        }
        // Wait (bounded by `DRAIN_DEADLINE`) until every stage is idle:
        // no queued jobs and no busy workers. Closing the queues
        // upstream-first below also drains their backlogs, but only
        // this wait covers jobs *between* stages (popped from one
        // queue, not yet pushed to the next).
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let active = || {
            core.pools
                .iter()
                .any(|p| !p.queue.is_empty() || p.stats.busy.value() > 0)
        };
        while active() && Instant::now() <= deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drain stage by stage, upstream first.
        for pool in workers {
            pool.shutdown();
        }
        // Last: with every worker joined, checkpoint the database so a
        // graceful stop never replays on the next open. Surfacing the
        // error is the point (a swallowed checkpoint failure turns
        // "cleanly stopped" into replay-on-next-open at best, data loss
        // at worst).
        match core.db.durability_status() {
            Some(status) if status.checkpoint_on_shutdown => core
                .db
                .checkpoint()
                .map_err(|e| ShutdownError::new(format!("final checkpoint failed: {e}"))),
            _ => Ok(()),
        }
    });

    Ok(ServerHandle::new(
        addr, tracker, registry, readiness, set_fault, breaker, shutdown,
    ))
}

/// The listener thread. The enqueue is a non-blocking `try_push`: when
/// the first pool's queue is full the listener sheds the connection
/// with a `503` instead of stalling the accept loop (which would just
/// move the backlog into the kernel).
fn accept_loop(core: &Core, listener: &TcpListener, stop: &AtomicBool, config: &ServerConfig) {
    let mut conn_seq: u64 = 0;
    for incoming in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = incoming else {
            core.counters.dropped_connections.increment();
            continue;
        };
        let seq = conn_seq;
        conn_seq += 1;
        match config.chaos.map_or(ChaosAction::Pass, |c| c.decide(seq)) {
            ChaosAction::Pass => {}
            ChaosAction::Kill => {
                core.counters.chaos_killed.increment();
                continue;
            }
            ChaosAction::Stall => {
                core.counters.chaos_stalled.increment();
                std::thread::sleep(config.chaos.expect("stall implies chaos").stall);
            }
        }
        let _ = stream.set_read_timeout(config.read_timeout);
        let _ = stream.set_write_timeout(config.write_timeout);
        // Admission control: over-cap connections are turned away with
        // the well-formed 503 + Retry-After, not silently reset.
        let peer_ip = stream.peer_addr().ok().map(|a| a.ip());
        let permit = core.governor.admit(peer_ip).ok();
        let admitted = permit.is_some();
        let mut conn = Connection::with_limits(GovernedStream::new(stream, permit), config.limits);
        if !admitted {
            core.refuse(&mut conn, Method::Get);
        } else if !core.submit(0, core.parse_job(conn), ShedPoint::Listener) {
            break;
        }
    }
}

/// Registers a stage queue's observability: its depth gauge
/// (`stage_queue_depth{stage=…}`) and its wait histogram
/// (`stage_queue_wait_seconds{stage=…}`, recorded by the queue itself
/// on every pop).
fn register_stage(registry: &Registry, stage: &'static str, q: &Arc<SyncQueue<Job>>) {
    let depth = Arc::clone(q);
    registry.gauge_fn("stage_queue_depth", &[("stage", stage)], move || {
        depth.len() as f64
    });
    q.set_wait_histogram(registry.histogram("stage_queue_wait_seconds", &[("stage", stage)]));
}

/// Registers a worker pool's counters
/// (`pool_{completed,panics,rejected}_total{pool=…}`) and its busy
/// gauge (`pool_busy_workers{pool=…}`).
fn register_pool(registry: &Registry, pool: &'static str, stats: &Arc<PoolStats>) {
    let s = Arc::clone(stats);
    registry.counter_fn("pool_completed_total", &[("pool", pool)], move || {
        s.completed.value()
    });
    let s = Arc::clone(stats);
    registry.counter_fn("pool_panics_total", &[("pool", pool)], move || {
        s.panicked.value()
    });
    let s = Arc::clone(stats);
    registry.counter_fn("pool_rejected_total", &[("pool", pool)], move || {
        s.rejected.value()
    });
    let s = Arc::clone(stats);
    registry.gauge_fn("pool_busy_workers", &[("pool", pool)], move || {
        s.busy.value().max(0) as f64
    });
}

/// Attaches durability to `db` when the configuration asks for it (and
/// the database isn't already durable, as one opened via
/// [`Database::open`] is), then registers the WAL metric families:
/// `wal_appends_total`, `wal_bytes_total`, `checkpoints_total`,
/// `recovery_replayed_records`, and the `wal_fsync_seconds` histogram
/// fed by the group-commit leader.
fn setup_durability(
    config: &ServerConfig,
    registry: &Registry,
    db: &Arc<Database>,
) -> io::Result<()> {
    let Some(durability) = &config.durability else {
        return Ok(());
    };
    if db.durability_status().is_none() {
        db.enable_durability(durability.clone())
            .map_err(io::Error::other)?;
    }
    let stat = |db: &Arc<Database>, f: fn(staged_db::WalStats) -> u64| {
        let db = Arc::clone(db);
        move || db.wal_stats().map_or(0, f)
    };
    registry.counter_fn("wal_appends_total", &[], stat(db, |w| w.appends));
    registry.counter_fn("wal_bytes_total", &[], stat(db, |w| w.bytes));
    let d = Arc::clone(db);
    registry.counter_fn("checkpoints_total", &[], move || {
        d.durability_status().map_or(0, |s| s.checkpoints)
    });
    let d = Arc::clone(db);
    registry.gauge_fn("recovery_replayed_records", &[], move || {
        d.durability_status().map_or(0.0, |s| s.replay_count as f64)
    });
    let fsync = registry.histogram("wal_fsync_seconds", &[]);
    db.set_fsync_observer(move |elapsed| fsync.record(elapsed));
    Ok(())
}

/// Registers the document-cache metric families:
/// `doc_cache_{hits,misses,publishes,invalidations,stale_discards,
/// bytes_served}_total` and the `doc_cache_entries` gauge. `/healthz`'s
/// cache section reads the same families, so the surfaces agree.
fn register_doc_cache(registry: &Registry, cache: &Arc<DocCache>) {
    type CounterRead = fn(&DocCache) -> u64;
    let families: [(&'static str, CounterRead); 7] = [
        ("doc_cache_hits_total", DocCache::hits),
        ("doc_cache_misses_total", DocCache::misses),
        ("doc_cache_publishes_total", DocCache::publishes),
        ("doc_cache_invalidations_total", DocCache::invalidations),
        ("doc_cache_stale_discards_total", DocCache::stale_discards),
        ("doc_cache_bytes_served_total", DocCache::bytes_served),
        ("doc_cache_row_level_deps_total", DocCache::row_level_deps),
    ];
    for (name, read) in families {
        let c = Arc::clone(cache);
        registry.counter_fn(name, &[], move || read(&c));
    }
    let c = Arc::clone(cache);
    registry.gauge_fn("doc_cache_entries", &[], move || c.len() as f64);
}

/// Pre-creates the `db_plan_node_seconds{node=…}` histogram family for
/// every plan-node kind and installs the planner's per-node timing
/// observer feeding it. Pre-creation keeps the whole family visible in
/// `/metrics` from the first scrape; the observer itself only does a
/// slice scan and a histogram record (it runs after the database has
/// released every lock, but still on the query's thread).
fn register_plan_observer(registry: &Registry, db: &Arc<Database>) {
    let hists: Vec<(&'static str, Arc<staged_metrics::Histogram>)> = staged_db::PLAN_NODE_KINDS
        .iter()
        .map(|kind| {
            (
                *kind,
                registry.histogram("db_plan_node_seconds", &[("node", kind)]),
            )
        })
        .collect();
    db.set_plan_observer(move |node, elapsed| {
        if let Some((_, h)) = hists.iter().find(|(k, _)| *k == node) {
            h.record(elapsed);
        }
    });
}

/// Registers the per-page data-generation collector
/// (`page_service_seconds{page=…}`, the scheduler's classification
/// input as a running average).
fn register_page_tracker(registry: &Registry, tracker: &Arc<ServiceTimeTracker>) {
    let t = Arc::clone(tracker);
    registry.gauge_collector("page_service_seconds", "page", move || {
        t.snapshot()
            .into_iter()
            .map(|(page, avg, _count)| (page, avg.as_secs_f64()))
            .collect()
    });
}
