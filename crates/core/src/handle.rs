//! The handle returned by `start`, whatever the model.

use crate::health::Readiness;
use staged_db::{CircuitBreaker, FaultPlan};
use staged_metrics::{Registry, Snapshot};
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

/// A closure that swaps the server's database fault plan at runtime.
pub(crate) type FaultFn = Arc<dyn Fn(Option<FaultPlan>) + Send + Sync>;

/// The shutdown closure `start` installs. It may fail: the
/// final durability checkpoint is part of graceful shutdown, and
/// swallowing its error would turn "cleanly stopped" into silent data
/// loss.
pub(crate) type ShutdownFn = Box<dyn FnOnce() -> Result<(), ShutdownError> + Send>;

/// A failure during graceful shutdown. The pools are already joined
/// when this is returned — the server *is* stopped — but some part of
/// the stop protocol (today: the final durability checkpoint) did not
/// complete, so the next open will replay the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownError {
    message: String,
}

impl ShutdownError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ShutdownError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shutdown incomplete: {}", self.message)
    }
}

impl std::error::Error for ShutdownError {}

/// A point-in-time view of one worker pool's health, for overload and
/// fault-injection reporting. Derived from the registry's
/// `pool_*{pool=…}` families by [`ServerHandle::pool_snapshots`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Pool name (matches the pool's thread-name prefix).
    pub name: String,
    /// Jobs fully processed.
    pub completed: u64,
    /// Handler panics survived (the worker kept serving).
    pub panicked: u64,
    /// Jobs refused at submission because the bounded queue was full.
    pub rejected: u64,
    /// Workers currently processing a job.
    pub busy: usize,
}

impl Snapshot for PoolSnapshot {
    fn fields(&self, emit: &mut dyn FnMut(&'static str, f64)) {
        emit("completed", self.completed as f64);
        emit("panicked", self.panicked as f64);
        emit("rejected", self.rejected as f64);
        emit("busy", self.busy as f64);
    }
}

/// A running server: its address, metrics registry, and shutdown
/// control.
///
/// All introspection flows through one [`Registry`]
/// ([`ServerHandle::registry`]): queue depths, scheduler gauges, pool
/// and request counters, latency histograms. `/healthz`, `/metrics`,
/// and the bench bins read the same surface — e.g. a queue depth is
/// `registry().value("stage_queue_depth", &[("stage", "general")])`,
/// and all completions are
/// `registry().family_sum("requests_completed_total")`.
/// [`ServerHandle::pool_snapshots`] is a typed view over the registry's
/// `pool_*` families.
///
/// Dropping the handle also shuts the server down (without blocking on
/// worker joins; call [`ServerHandle::shutdown`] for a fully joined
/// stop).
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    readiness: Arc<Readiness>,
    set_fault: FaultFn,
    breaker: Option<Arc<CircuitBreaker>>,
    shutdown: Option<ShutdownFn>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    pub(crate) fn new(
        addr: SocketAddr,
        registry: Arc<Registry>,
        readiness: Arc<Readiness>,
        set_fault: FaultFn,
        breaker: Option<Arc<CircuitBreaker>>,
        shutdown: ShutdownFn,
    ) -> Self {
        ServerHandle {
            addr,
            registry,
            readiness,
            set_fault,
            breaker,
            shutdown: Some(shutdown),
        }
    }

    /// The server's metrics registry — queue depths, scheduler gauges,
    /// per-pool counters, and latency histograms under one roof. This
    /// is what `GET /metrics` encodes.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The server's lifecycle phase, as `/readyz` reports it. Flips to
    /// [`crate::Phase::Draining`] the moment [`ServerHandle::shutdown`]
    /// begins.
    pub fn readiness(&self) -> &Arc<Readiness> {
        &self.readiness
    }

    /// Replaces the database fault plan on the **running** server —
    /// `None` heals the database. This is how chaos tests and the
    /// brownout benchmark switch between healthy, brownout, and outage
    /// phases without restarting (a restart would also reset the
    /// circuit breaker, hiding exactly the recovery being measured).
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        (self.set_fault)(plan);
    }

    /// The database circuit breaker, when one was configured
    /// ([`crate::ServerConfig::breaker`]).
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time health of every worker pool: completions, panics
    /// survived, and capacity rejections (sheds). The baseline server
    /// reports one pool; the staged server reports all five.
    ///
    /// Derived from the registry's `pool_*{pool=…}` families.
    pub fn pool_snapshots(&self) -> Vec<PoolSnapshot> {
        self.registry
            .label_values("pool_completed_total", "pool")
            .into_iter()
            .map(|name| {
                let labels = [("pool", name.as_str())];
                let read =
                    |metric: &str| self.registry.value(metric, &labels).unwrap_or(0.0).max(0.0);
                PoolSnapshot {
                    completed: read("pool_completed_total") as u64,
                    panicked: read("pool_panics_total") as u64,
                    rejected: read("pool_rejected_total") as u64,
                    busy: read("pool_busy_workers") as usize,
                    name,
                }
            })
            .collect()
    }

    /// Stops accepting connections, drains all pools, joins every
    /// worker thread, and — when durability is configured with
    /// checkpoint-on-shutdown — writes the final checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ShutdownError`] when part of the stop protocol failed
    /// (today: the final durability flush/checkpoint). The server is
    /// stopped either way; on error the next open replays the WAL
    /// instead of starting from a fresh checkpoint.
    pub fn shutdown(mut self) -> Result<(), ShutdownError> {
        match self.shutdown.take() {
            Some(f) => f(),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(f) = self.shutdown.take() {
            // Nobody is left to observe the error on the drop path; the
            // explicit `shutdown()` is the fallible API.
            let _ = f();
        }
    }
}
