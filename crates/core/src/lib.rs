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
mod stats;

pub use app::{App, AppBuilder, Handler, PageOutcome, Route};
pub use config::ServerConfig;
pub use doccache::{write_key, DocCache, Lookup};
pub use error::AppError;
pub use governor::GovernorConfig;
pub use handle::{PoolSnapshot, ServerHandle, ShutdownError};
pub use health::{Phase, Readiness};
pub use overload::{ChaosAction, ListenerChaos};
pub use scheduler::{DynamicPoolChoice, RequestClass, ReserveController, ServiceTimeTracker};
pub use server::{BaselineServer, StagedServer};
pub use stats::{RequestKind, ShedPoint};

/// Crate-private protocol objects wrapped for the model checker.
///
/// The concurrency model suite (`crates/check`) drives the connection
/// governor, the cache's write invalidation and the Table 1 dispatch
/// claim directly under the cooperative scheduler. Those are
/// deliberately `pub(crate)` in release builds, so this module — which
/// exists only under `--cfg model` — exposes thin wrappers instead of
/// widening the production API.
#[cfg(model)]
pub mod model_fixtures {
    use crate::governor::{ConnPermit, ConnectionGovernor};
    use crate::pipeline;
    use crate::{DocCache, RequestClass, ReserveController};
    use staged_db::WriteEvent;
    use std::net::IpAddr;
    use std::sync::Arc;

    /// Applies one committed write to `cache`, as the server's database
    /// write observer does.
    pub fn invalidate(cache: &DocCache, event: &WriteEvent) {
        cache.invalidate(event);
    }

    /// Wraps the general dynamic pool's Table 1 thread count.
    pub struct SpareThreads(Arc<pipeline::SpareThreads>);

    /// A claimed general-pool thread; released on drop.
    pub struct Claim(#[allow(dead_code)] pipeline::Claim);

    impl SpareThreads {
        /// A general pool of `workers` threads, none claimed.
        pub fn new(workers: usize) -> Self {
            SpareThreads(Arc::new(pipeline::SpareThreads::new(workers)))
        }

        /// Dispatches one request: a claim on a general thread, or
        /// `None` for the lengthy pool.
        pub fn dispatch(
            &self,
            controller: &ReserveController,
            class: RequestClass,
        ) -> Option<Claim> {
            self.0.dispatch(controller, class).map(Claim)
        }

        /// The live `t_spare`.
        pub fn spare(&self) -> usize {
            self.0.spare()
        }
    }

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
