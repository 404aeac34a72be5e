//! Multi-thread-pool request scheduling for template-based web servers.
//!
//! This crate is the reproduction of the DSN 2009 paper *Efficient
//! Resource Management on Template-based Web Servers* (Courtwright, Yue,
//! Wang). It provides **one request pipeline** — parse → static |
//! dynamic → render → respond — and **two server models** over it. A
//! model is only a stage→pool map plus which pools' workers own a
//! database connection, so experiments change nothing but which thread
//! runs which stage:
//!
//! * [`BaselineServer`] — the conventional **thread-per-request** model
//!   (paper Figure 4): one listener, one worker pool, every worker owns
//!   a database connection for its lifetime and runs every stage of
//!   every request on the connections it dequeues.
//! * [`StagedServer`] — the paper's modified server (Figure 5): one
//!   listener and **five pools** (header parsing, static requests,
//!   general dynamic, lengthy dynamic, template rendering), each stage
//!   handing the request to the next pool's bounded queue. Database
//!   connections belong only to the two dynamic pools, so they never sit
//!   idle during template rendering or static service. Dynamic requests
//!   are classified *quick*/*lengthy* from a per-page running average of
//!   data-generation time and dispatched per the paper's Table 1 rules,
//!   governed by the `t_spare`/`t_reserve` feedback controller
//!   ([`ReserveController`], which reproduces the paper's Table 2
//!   exactly — see its tests).
//!
//! Applications are built with [`App`]: handlers return
//! [`PageOutcome::Template`] — the paper's one-line
//! `return ("tmpl.html", data)` modification — or a pre-rendered
//! [`PageOutcome::Body`] for backward compatibility, which the dynamic
//! stage detects and serves directly (paper §3.2).
//!
//! # Examples
//!
//! ```no_run
//! use staged_core::{App, PageOutcome, ServerConfig, StagedServer};
//! use staged_db::Database;
//! use staged_templates::{Context, TemplateStore};
//! use std::sync::Arc;
//!
//! let templates = Arc::new(TemplateStore::new());
//! templates.insert("hello.html", "<h1>Hello {{ name }}</h1>").unwrap();
//! let app = App::builder()
//!     .templates(templates)
//!     .route("/hello", "hello", |req, _db| {
//!         let mut ctx = Context::new();
//!         ctx.insert("name", req.param("name").unwrap_or("world"));
//!         Ok(PageOutcome::template("hello.html", ctx))
//!     })
//!     .build();
//! let db = Arc::new(Database::new());
//! let server = StagedServer::start(ServerConfig::default(), app, db).unwrap();
//! println!("listening on {}", server.addr());
//! server.shutdown().expect("clean shutdown");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aged;
mod app;
mod config;
mod doccache;
mod error;
mod governor;
mod handle;
mod health;
mod overload;
mod pipeline;
mod scheduler;
mod server;
mod stages;
mod stale;
mod stats;

pub use app::{App, AppBuilder, Handler, PageOutcome, Route};
pub use config::ServerConfig;
pub use doccache::{DocCache, Lookup};
pub use error::AppError;
pub use governor::GovernorConfig;
pub use handle::{PoolSnapshot, ServerHandle, ShutdownError};
pub use health::{Phase, Readiness};
pub use overload::{ChaosAction, ListenerChaos};
pub use scheduler::{DynamicPoolChoice, RequestClass, ReserveController, ServiceTimeTracker};
pub use server::{BaselineServer, StagedServer};
pub use stale::write_key;
pub use stats::{RequestKind, ServerStats, ShedPoint, StatsSnapshot};

/// Crate-private protocol objects wrapped for the model checker.
///
/// The concurrency model suite (`crates/check`) drives the connection
/// governor, the stale cache, and the cache-invalidation helper directly
/// under the cooperative scheduler. Those types are deliberately
/// `pub(crate)` in release builds, so this module — which exists only
/// under `--cfg model` — exposes thin wrappers instead of widening the
/// production API.
#[cfg(model)]
pub mod model_fixtures {
    use crate::governor::{ConnPermit, ConnectionGovernor};
    use crate::stale::StaleCache;
    use staged_db::{ReadSet, WriteEvent};
    use std::net::IpAddr;
    use std::sync::Arc;
    use std::time::Duration;

    /// Wraps [`ConnectionGovernor`] for model tests.
    pub struct Governor(ConnectionGovernor);

    /// An admitted connection's slot; releases both counts on drop.
    pub struct Permit(#[allow(dead_code)] ConnPermit);

    impl Governor {
        /// A governor with the given caps (see [`crate::GovernorConfig`]).
        pub fn new(cfg: crate::GovernorConfig) -> Self {
            Governor(ConnectionGovernor::new(cfg))
        }

        /// Admits or turns away one connection; `Err` carries the
        /// turnaway reason as text.
        pub fn admit(&self, ip: Option<IpAddr>) -> Result<Permit, String> {
            self.0.admit(ip).map(Permit).map_err(|t| format!("{t:?}"))
        }

        /// Connections currently admitted.
        pub fn open(&self) -> usize {
            self.0.open()
        }
    }

    /// Wraps the crate-private [`StaleCache`] for model tests.
    pub struct Stale(StaleCache);

    impl Stale {
        /// A cache usable for `ttl` holding at most `capacity` entries.
        pub fn new(ttl: Duration, capacity: usize) -> Self {
            Stale(StaleCache::new(ttl, capacity))
        }

        /// Stores one rendered body tagged with its read dependencies.
        pub fn put_tagged(&self, key: &str, body: &str, reads: Option<Arc<ReadSet>>) {
            self.0.put_tagged(key, body, reads);
        }

        /// Evicts entries that depend on the written rows.
        pub fn invalidate(&self, event: &WriteEvent) {
            self.0.invalidate(event);
        }

        /// The cached body, if present and fresh enough to serve.
        pub fn get(&self, key: &str) -> Option<Vec<u8>> {
            self.0.get(key).map(|hit| hit.body.as_slice().to_vec())
        }

        /// Number of live entries.
        pub fn len(&self) -> usize {
            self.0.len()
        }

        /// `true` when the cache holds no entries.
        pub fn is_empty(&self) -> bool {
            self.0.len() == 0
        }
    }

    /// Invalidates the document cache and the stale cache for one write,
    /// in the production order (doc cache first). This is the helper the
    /// server's write observer calls; the
    /// `core_invalidate_nesting_flip` mutant reverses the order.
    pub fn invalidate_caches(dc: Option<&crate::DocCache>, sc: &Stale, event: &WriteEvent) {
        crate::server::invalidate_caches(dc, &sc.0, event);
    }
}

// Re-exported so callers can consume `ServerHandle::registry` and the
// shared snapshot encoding without a direct `staged_metrics` dependency.
pub use staged_metrics::{Registry, Snapshot};

// Re-exported so server configuration (`ServerConfig::breaker`,
// `ServerConfig::durability`) and health reporting can be used without
// a direct `staged_db` dependency.
pub use staged_db::{
    BreakerConfig, BreakerState, CircuitBreaker, DurabilityConfig, DurabilityStatus, FsyncPolicy,
};
