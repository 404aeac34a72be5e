//! An embedded relational database with a SQL subset.
//!
//! The paper's testbed pairs its web server with MySQL 5.0; the
//! contended resources its scheduling method manages are:
//!
//! 1. a **bounded set of database connections** — rebuilt here as
//!    [`ConnectionPool`], whose checkout discipline is exactly what the
//!    paper's thread pools compete over;
//! 2. queries with a **bimodal cost distribution** — indexed point
//!    lookups stay microsecond-fast while scans/aggregations over big
//!    tables are orders of magnitude slower, which is what splits pages
//!    into *quick* and *lengthy*;
//! 3. **table-level write locks** — the TPC-W admin-confirm page's
//!    `UPDATE` must wait for readers of a hot table, the lock-contention
//!    effect the paper analyses (§4.2.1).
//!
//! Supported SQL (see `sql::parser` for the grammar):
//! `CREATE TABLE`, `CREATE INDEX`, `INSERT`, `SELECT` (projections,
//! aggregates `COUNT/SUM/AVG/MIN/MAX`, `INNER JOIN … ON`, `WHERE` with
//! `= != < > <= >= LIKE IS [NOT] NULL AND OR NOT` and arithmetic,
//! `GROUP BY`, `ORDER BY … ASC|DESC`, `LIMIT/OFFSET`), `UPDATE`,
//! `DELETE`. Parameters are positional `?`.
//!
//! # Query planning
//!
//! SELECTs execute through an explicit **plan tree** (seq/index/range
//! scans, filter, index-loop/nested-loop joins, aggregate, sort,
//! limit) that the planner derives from the WHERE predicates and the
//! tables' indexes. It is the only SELECT executor. Plans are
//! cached per statement text and invalidated by DDL. A statement that
//! cannot be planned (unknown table, unresolvable join column) fails
//! with that error; the failure is not cached, so a later `CREATE
//! TABLE` lets it plan.
//!
//! The planning surface:
//!
//! - [`Database::plan`] compiles SQL into a reusable [`Plan`] handle;
//!   [`Plan::run`] / [`Plan::run_tracked`] execute it. Plain
//!   [`Database::execute`] is a thin wrapper over the same cache.
//! - [`Database::explain`] / [`Plan::explain_json`] render the plan
//!   tree as JSON — node kind, chosen index, estimated vs measured
//!   rows, cumulative per-node time. Both servers expose this at
//!   `GET /debug/explain?route=<page>`.
//! - [`Database::set_plan_observer`] streams per-node timings (the
//!   servers feed the `db_plan_node_seconds` histogram family).
//!
//! # Examples
//!
//! ```
//! use staged_db::{Database, DbValue};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE book (id INT PRIMARY KEY, title TEXT)", &[]).unwrap();
//! db.execute("INSERT INTO book (id, title) VALUES (?, ?)",
//!            &[DbValue::Int(1), DbValue::from("Dune")]).unwrap();
//! let result = db.execute("SELECT title FROM book WHERE id = ?",
//!                         &[DbValue::Int(1)]).unwrap();
//! assert_eq!(result.rows[0][0], DbValue::from("Dune"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod checkpoint;
mod cost;
mod database;
mod error;
mod exec;
mod fault;
mod plan;
mod planner;
mod pool;
mod readset;
mod schema;
mod snapshot;
mod sql;
mod table;
mod value;
mod wal;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cost::CostModel;
pub use database::{Database, Plan, QueryResult};
pub use error::DbError;
pub use fault::{splitmix64, FaultPlan};
pub use plan::PLAN_NODE_KINDS;
pub use pool::{ConnectionPool, PooledConnection};
pub use readset::{ReadSet, RowFilter, RowImage, RowKey, TableRead, WriteEvent, WriteObserver};
pub use schema::{Column, DataType, Schema};
pub use value::DbValue;
pub use wal::{
    CheckpointPhase, CrashPlan, DurabilityConfig, DurabilityStatus, FsyncPolicy, WalStats,
};

/// Crate-private WAL internals wrapped for the model checker.
///
/// The group-commit protocol (leader election on the `syncing` flag,
/// followers parked on the `synced` condvar, poison broadcast) lives in
/// the crate-private [`wal::Wal`]; this module — compiled only under
/// `--cfg model` — exposes just enough of it for `crates/check` to
/// drive leaders, followers, and poisoning as separate model threads.
#[cfg(model)]
pub mod model_fixtures {
    use crate::error::DbError;
    use crate::wal::{CrashPlan, FsyncPolicy, Wal};
    use std::path::PathBuf;
    use std::sync::Arc;

    /// Wraps the crate-private [`Wal`] for model tests.
    pub struct ModelWal(Arc<Wal>);

    impl ModelWal {
        /// A fresh log at `path` using the given fsync policy.
        pub fn create(path: PathBuf, policy: FsyncPolicy) -> Result<Self, DbError> {
            Wal::create(path, policy, None, 0).map(ModelWal)
        }

        /// Like [`ModelWal::create`] but with crash injection, so model
        /// tests can fail a group-commit leader's fsync on demand.
        pub fn create_with_crash(
            path: PathBuf,
            policy: FsyncPolicy,
            crash: CrashPlan,
        ) -> Result<Self, DbError> {
            Wal::create(path, policy, Some(crash), 0).map(ModelWal)
        }

        /// Appends one record, returning its sequence number.
        pub fn append(&self, sql: &str) -> Result<u64, DbError> {
            self.0.append(sql, &[])
        }

        /// Blocks (under `always`) until `seq` is durable — the group
        /// commit path: leader when no sync is in flight, follower on
        /// the `synced` condvar otherwise.
        pub fn commit(&self, seq: u64) -> Result<(), DbError> {
            self.0.commit(seq)
        }

        /// Marks the WAL dead, as the interval flusher does on an
        /// fsync failure; waiting followers must be woken to observe it.
        pub fn poison(&self, why: &str) {
            self.0.poison_external(why);
        }
    }
}
