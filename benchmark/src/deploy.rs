//! The fixed deployment: one populated database, the TPC-W app, and a
//! real server on loopback, identical for every workload except for the
//! switches its [`Spec`] names.

use crate::client::Client;
use crate::workload::{Model, Population, Spec, Stream};
use staged_core::{
    App, BaselineServer, DurabilityConfig, FsyncPolicy, ServerConfig, ServerHandle, StagedServer,
};
use staged_db::Database;
use staged_tpcw::{build_app, populate, ScaleConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's scratch directory (`benchmark/out`, git-ignored):
/// trace files and the ordering workload's write-ahead logs.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The population and its emulated costs. Every emulated delay is zero:
/// a sleep measures nothing of this code. (The scale's think times only
/// drive `staged_tpcw::run_workload`, which the benchmark does not use;
/// its own generator never thinks.)
pub fn scale(smoke: bool) -> ScaleConfig {
    let base = if smoke {
        ScaleConfig::tiny()
    } else {
        ScaleConfig::default()
    };
    ScaleConfig {
        render_weight_per_kb: Duration::ZERO,
        static_weight: Duration::ZERO,
        ..base
    }
}

pub fn population(scale: &ScaleConfig) -> Population {
    Population {
        items: scale.items as u64,
        customers: scale.customers as u64,
        images: scale.images as u64,
    }
}

/// A running server with the database and app behind it.
pub struct Deployment {
    handle: ServerHandle,
    db: Arc<Database>,
    app: App,
    wal_dir: Option<PathBuf>,
}

impl Deployment {
    /// Populates, builds the app, starts the server and sends the
    /// workload's cache pre-fill; returns how long all of that took
    /// (`setup_s`).
    pub fn start(
        spec: &Spec,
        scale: &ScaleConfig,
        trace_ring: usize,
        prefill: &Stream,
    ) -> (Deployment, Duration) {
        static WAL_DIRS: AtomicU32 = AtomicU32::new(0);
        let started = Instant::now();
        let db = Arc::new(Database::new());
        populate(&db, scale);
        let app = build_app(&db, scale);
        let wal_dir = spec.durable.then(|| {
            // Relaxed: the counter only makes directory names unique.
            let n = WAL_DIRS.fetch_add(1, Ordering::Relaxed);
            out_dir().join(format!("wal_{}_{}_{n}", spec.name, std::process::id()))
        });
        let config = ServerConfig {
            header_workers: 2,
            static_workers: 2,
            general_workers: 4,
            lengthy_workers: 1,
            render_workers: 2,
            baseline_workers: 5,
            db_connections: 5,
            min_reserve: 1,
            max_reserve: 2,
            trace_ring,
            doc_cache: spec.doc_cache,
            durability: wal_dir.as_ref().map(|dir| {
                DurabilityConfig::new(dir)
                    .fsync(FsyncPolicy::Off)
                    .checkpoint_on_shutdown(false)
            }),
            ..ServerConfig::default()
        };
        let handle = match spec.model {
            Model::Staged => StagedServer::start(config, app.clone(), Arc::clone(&db)),
            Model::Baseline => BaselineServer::start(config, app.clone(), Arc::clone(&db)),
        }
        .expect("the server binds an ephemeral loopback port");
        if !prefill.ops.is_empty() {
            let mut client = Client::connect(handle.addr()).expect("the server accepts");
            for op in &prefill.ops {
                client
                    .exchange(prefill.request(op))
                    .expect("pre-fill requests are plain cacheable reads");
            }
        }
        let deployment = Deployment {
            handle,
            db,
            app,
            wal_dir,
        };
        (deployment, started.elapsed())
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stops the server (joining every thread it started), removes the
    /// write-ahead log directory, and hands back the database and app
    /// for in-process use.
    pub fn stop(self) -> (Arc<Database>, App) {
        self.handle
            .shutdown()
            .expect("the server drains and stops cleanly");
        if let Some(dir) = &self.wal_dir {
            // The log lives under the git-ignored scratch directory; a
            // leftover is untidy, not wrong.
            let _ = std::fs::remove_dir_all(dir);
        }
        (self.db, self.app)
    }
}
