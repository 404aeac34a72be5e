//! The database: tables, locks, statement cache, execution entry point,
//! and the durability attachment (WAL + checkpoints, DESIGN.md §13).

use crate::checkpoint;
use crate::cost::CostModel;
use crate::error::DbError;
use crate::exec::{self, BoundTable, ExecStats};
use crate::plan::{self, json_str, ScanPath, SelectPlan};
use crate::planner;
use crate::readset::{Changes, ReadSet, WriteEvent, WriteObserver};
use crate::schema::Schema;
use crate::sql::ast::{SelectStmt, Statement};
use crate::sql::parser;
use crate::table::TableData;
use crate::value::DbValue;
use crate::wal::{CheckpointPhase, DurabilityConfig, DurabilityStatus, Wal, WalStats};
use staged_sync::atomic::{AtomicU64, Ordering};
use staged_sync::{OrderedMutex, OrderedRwLock, Rank};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock ranks for the database internals (DESIGN.md §10). The
/// durability attachment comes first (it only decides *whether* the
/// commit gate and WAL participate), then the commit gate, then the
/// catalog, then the side tables, then the statement cache, and the
/// per-table data locks after those — a statement may hold the catalog
/// lock while creating a table entry. The WAL state lock (rank 280,
/// `wal.rs`) is innermost of all: appends happen while the mutated
/// table's data lock is held so log order equals apply order.
/// The per-plan-node timing observer slot: read briefly (guard dropped
/// immediately) before a planned SELECT takes any table lock; the
/// observer itself is invoked after every guard drops.
const PLAN_OBSERVER_RANK: Rank = Rank::new(212);
/// The route → statement registry behind the EXPLAIN debug endpoint.
/// Touched only at the edges of execution (never while a table lock is
/// held) and by the explain renderer, which plans *after* releasing it.
const ROUTES_RANK: Rank = Rank::new(214);
const DURABLE_RANK: Rank = Rank::new(222);
/// Mutations hold this shared; a checkpoint takes it exclusively so the
/// snapshot watermark is *sharp* — logical SQL replay is not idempotent
/// against a fuzzy base state. SELECTs never touch the gate.
const COMMIT_GATE_RANK: Rank = Rank::new(225);
const TABLES_RANK: Rank = Rank::new(230);
const COST_RANK: Rank = Rank::new(250);
const STMT_CACHE_RANK: Rank = Rank::new(260);
/// Multi-table SELECTs take several table locks at this rank; the
/// sorted-name acquisition order (see [`Database`]) is the canonical
/// tie-break, so same-rank nesting is allowed.
const TABLE_DATA_RANK: Rank = Rank::new(270).allow_same_rank();
/// The write-observer slot: read briefly (guard dropped immediately)
/// at the start of a mutation; the observer itself is invoked with zero
/// database locks held, so it may take core-band locks freely.
const WRITE_OBSERVER_RANK: Rank = Rank::new(290);

/// Snapshot-writer view of one table: `(name, type, is_pk, _)` per
/// column, the secondarily indexed column names, and all live rows.
pub(crate) type TableContents = (
    Vec<(String, String, bool, ())>,
    std::collections::HashSet<String>,
    Vec<Vec<DbValue>>,
);

/// The result of executing a statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Vec<DbValue>>,
    /// Rows inserted/updated/deleted (writes only).
    pub rows_affected: usize,
    /// Rows visited while executing — the cost-model input, also handy
    /// for plan assertions in tests.
    pub rows_scanned: u64,
}

impl QueryResult {
    /// The first row, if any.
    pub fn first(&self) -> Option<&Vec<DbValue>> {
        self.rows.first()
    }

    /// The single integer of a one-row, one-column result (e.g.
    /// `SELECT COUNT(*) …`).
    pub fn single_int(&self) -> Option<i64> {
        match self.rows.as_slice() {
            [row] => match row.as_slice() {
                [v] => v.as_int(),
                _ => None,
            },
            _ => None,
        }
    }

    /// Index of a named output column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Value at `(row, column-name)`.
    pub fn value(&self, row: usize, column: &str) -> Option<&DbValue> {
        let col = self.column_index(column)?;
        self.rows.get(row)?.get(col)
    }
}

/// The durability attachment of an open database: the WAL plus
/// checkpoint bookkeeping. Shared out of the rank-222 lock by `Arc` so
/// the commit path holds the lock only for one clone.
struct Durable {
    wal: Arc<Wal>,
    config: DurabilityConfig,
    /// Base instant for the lock-free checkpoint-age clock.
    epoch: Instant,
    /// Milliseconds after `epoch` of the last completed checkpoint.
    last_checkpoint_ms: AtomicU64,
    checkpoints: AtomicU64,
    /// Records replayed from the WAL when this database was opened.
    replayed: u64,
}

impl Durable {
    fn status(&self) -> DurabilityStatus {
        let age_base = self.last_checkpoint_ms.load(Ordering::Relaxed); // lint: allow(relaxed)
        DurabilityStatus {
            mode: self.wal.policy().label(),
            last_checkpoint_age: self
                .epoch
                .elapsed()
                .saturating_sub(Duration::from_millis(age_base)),
            replay_count: self.replayed,
            checkpoints: self.checkpoints.load(Ordering::Relaxed), // lint: allow(relaxed)
            wal: self.wal.stats(),
            checkpoint_on_shutdown: self.config.checkpoint_on_shutdown,
            poisoned: self.wal.poison_message(),
        }
    }

    fn mark_checkpointed(&self) {
        self.last_checkpoint_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed); // lint: allow(relaxed)
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }
}

struct TableEntry {
    lock: OrderedRwLock<TableData>,
}

/// A statement-cache entry: the parsed AST plus, for SELECTs, the
/// compiled plan (built lazily on first execution, dropped on DDL; a
/// failed planning attempt leaves it `None`).
struct Prepared {
    stmt: Arc<Statement>,
    plan: Option<Arc<SelectPlan>>,
}

/// Per-plan-node timing subscriber: `(node kind, time spent)` per node
/// per planned SELECT — the servers hook the `db_plan_node_seconds`
/// histogram family in here. Invoked with zero database locks held.
type PlanObserver = Arc<dyn Fn(&'static str, Duration) + Send + Sync>;

impl TableEntry {
    fn new(data: TableData) -> Self {
        TableEntry {
            lock: OrderedRwLock::new(TABLE_DATA_RANK, "db.table.data", data),
        }
    }
}

/// An embedded relational database.
///
/// Concurrency model (deliberately MySQL-MyISAM-like, as the paper's
/// analysis depends on it):
///
/// * every statement takes **table-level** locks — shared for SELECT,
///   exclusive for INSERT/UPDATE/DELETE;
/// * locks for multi-table statements are acquired in sorted name order,
///   so concurrent statements cannot deadlock;
/// * synthetic per-row latency from the [`CostModel`] is charged
///   *after* the statement's locks are released (it occupies the
///   connection, not the table).
///
/// `Database` is `Send + Sync`; share it behind an `Arc` (usually via
/// [`ConnectionPool`](crate::ConnectionPool)).
///
/// # Examples
///
/// ```
/// use staged_db::{Database, DbValue};
///
/// let db = Database::new();
/// db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[]).unwrap();
/// db.execute("INSERT INTO t (id, v) VALUES (1, 'a')", &[]).unwrap();
/// let n = db.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
/// assert_eq!(n.single_int(), Some(1));
/// ```
pub struct Database {
    tables: OrderedRwLock<BTreeMap<String, Arc<TableEntry>>>,
    cost: OrderedRwLock<CostModel>,
    stmt_cache: OrderedMutex<HashMap<String, Prepared>>,
    /// `Some` once durability is attached ([`Database::open`] /
    /// [`Database::enable_durability`]).
    durable: OrderedRwLock<Option<Arc<Durable>>>,
    /// Shared by mutations, exclusive for checkpoints. Only touched
    /// when `durable` is attached.
    commit_gate: OrderedRwLock<()>,
    /// Committed-mutation subscriber ([`Database::set_write_observer`]);
    /// feeds cache invalidation. `None` skips key collection entirely.
    write_observer: OrderedRwLock<Option<WriteObserver>>,
    /// Per-plan-node timing subscriber ([`Database::set_plan_observer`]).
    plan_observer: OrderedRwLock<Option<PlanObserver>>,
    /// Route name → SQL texts executed under it, recorded by
    /// [`PooledConnection`](crate::PooledConnection) route tagging and
    /// rendered by [`Database::explain_route`]. Bounded.
    routes: OrderedMutex<HashMap<String, Vec<String>>>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("cost", &*self.cost.read())
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates an empty database with a free cost model.
    pub fn new() -> Self {
        Database {
            tables: OrderedRwLock::new(TABLES_RANK, "db.tables", BTreeMap::new()),
            cost: OrderedRwLock::new(COST_RANK, "db.cost", CostModel::free()),
            stmt_cache: OrderedMutex::new(STMT_CACHE_RANK, "db.stmt_cache", HashMap::new()),
            durable: OrderedRwLock::new(DURABLE_RANK, "db.durable", None),
            commit_gate: OrderedRwLock::new(COMMIT_GATE_RANK, "db.commit_gate", ()),
            write_observer: OrderedRwLock::new(WRITE_OBSERVER_RANK, "db.write_observer", None),
            plan_observer: OrderedRwLock::new(PLAN_OBSERVER_RANK, "db.plan_observer", None),
            routes: OrderedMutex::new(ROUTES_RANK, "db.routes", HashMap::new()),
        }
    }

    /// Installs the committed-mutation observer (replacing any previous
    /// one). The observer is called once per committed
    /// INSERT/UPDATE/DELETE that affected at least one row — after the
    /// WAL commit when durability is attached, always before the
    /// writer's `execute` returns, and with **zero database locks
    /// held**. DDL does not notify: `CREATE TABLE` starts empty and
    /// `CREATE INDEX` changes no row content, so neither can stale a
    /// cached page.
    pub fn set_write_observer(&self, f: impl Fn(&WriteEvent) + Send + Sync + 'static) {
        *self.write_observer.write() = Some(Arc::new(f));
    }

    /// Installs a cost model (applies to subsequent statements).
    pub fn set_cost_model(&self, model: CostModel) {
        *self.cost.write() = model;
    }

    /// The current cost model.
    pub fn cost_model(&self) -> CostModel {
        *self.cost.read()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of live rows in a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn table_len(&self, name: &str) -> Result<usize, DbError> {
        let entry = self.entry(name)?;
        let len = entry.lock.read().len();
        Ok(len)
    }

    /// Parses and executes one SQL statement with positional parameters.
    ///
    /// # Errors
    ///
    /// Syntax errors, unknown tables/columns (a SELECT that cannot be
    /// planned fails with the planning error), duplicate keys, and
    /// parameter-count mismatches.
    pub fn execute(&self, sql: &str, params: &[DbValue]) -> Result<QueryResult, DbError> {
        self.execute_tracked(sql, params, None)
    }

    /// Like [`Database::execute`], but additionally records what a
    /// SELECT depended on into `reads` — the tables it touched, refined
    /// to exact primary keys for PK point probes (DESIGN.md §14).
    /// Mutations and DDL record nothing.
    ///
    /// # Errors
    ///
    /// As for [`Database::execute`].
    pub fn execute_tracked(
        &self,
        sql: &str,
        params: &[DbValue],
        reads: Option<&mut ReadSet>,
    ) -> Result<QueryResult, DbError> {
        let (stmt, plan) = self.prepare_cached(sql)?;
        self.execute_statement(
            &stmt,
            plan.as_deref(),
            sql,
            params,
            reads,
            ScanPath::Prefiltered,
        )
    }

    /// Compiles `sql` into a reusable [`Plan`] handle: parse once, plan
    /// once (for SELECTs), then [`Plan::run`] any number of times with
    /// different parameters. Both steps are cached per statement text,
    /// so `plan` + `run` and plain [`Database::execute`] share all
    /// state; the handle just skips the cache lookups.
    ///
    /// # Errors
    ///
    /// Syntax errors, and for a SELECT the planning errors: an unknown
    /// table ([`DbError::NoSuchTable`]) or an unresolvable join column
    /// ([`DbError::NoSuchColumn`]). Other unresolvable columns fail
    /// only when a row is evaluated against them, on [`Plan::run`].
    pub fn plan(&self, sql: &str) -> Result<Plan<'_>, DbError> {
        let (stmt, plan) = self.prepare_cached(sql)?;
        Ok(Plan {
            db: self,
            sql: sql.to_string(),
            stmt,
            plan,
        })
    }

    /// Renders the plan tree for one SELECT as JSON (the `EXPLAIN`
    /// surface), including cumulative measured rows/time if the cached
    /// plan has executed before.
    ///
    /// # Errors
    ///
    /// As for [`Database::plan`].
    pub fn explain(&self, sql: &str) -> Result<String, DbError> {
        Ok(self.plan(sql)?.explain_json())
    }

    /// Installs the per-plan-node timing observer (replacing any
    /// previous one): called with `(node kind, time spent)` for every
    /// node of every planned SELECT, after all database locks are
    /// released — the servers hook the `db_plan_node_seconds` histogram
    /// family in here.
    pub fn set_plan_observer(&self, f: impl Fn(&'static str, Duration) + Send + Sync + 'static) {
        *self.plan_observer.write() = Some(Arc::new(f));
    }

    /// Records that `route` (a server page) executed `sql`, feeding the
    /// `/debug/explain?route=…` surface. Deduplicated and bounded.
    pub fn note_route_statement(&self, route: &str, sql: &str) {
        const MAX_ROUTES: usize = 128;
        const MAX_STMTS_PER_ROUTE: usize = 64;
        let mut routes = self.routes.lock();
        match routes.get_mut(route) {
            Some(list) => {
                if list.len() < MAX_STMTS_PER_ROUTE && !list.iter().any(|s| s == sql) {
                    list.push(sql.to_string());
                }
            }
            None => {
                if routes.len() < MAX_ROUTES {
                    routes.insert(route.to_string(), vec![sql.to_string()]);
                }
            }
        }
    }

    /// Routes with recorded statements, sorted.
    pub fn known_routes(&self) -> Vec<String> {
        let mut names: Vec<String> = self.routes.lock().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Renders every statement a route has executed with its plan tree
    /// as JSON, or `None` for an unknown route. A statement that no
    /// longer plans renders as an `error` node carrying the message.
    pub fn explain_route(&self, route: &str) -> Option<String> {
        let stmts = self.routes.lock().get(route).cloned()?;
        let mut out = String::from("{\"route\":");
        out.push_str(&json_str(route));
        out.push_str(",\"statements\":[");
        for (i, sql) in stmts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"sql\":");
            out.push_str(&json_str(sql));
            out.push_str(",\"plan\":");
            match self.explain(sql) {
                Ok(plan) => out.push_str(&plan),
                Err(e) => out.push_str(&format!(
                    "{{\"node\":\"error\",\"detail\":{}}}",
                    json_str(&e.to_string())
                )),
            }
            out.push('}');
        }
        out.push_str("]}");
        Some(out)
    }

    /// Parses (cached) and, for SELECTs, plans (cached) one statement:
    /// the plan is `Some` exactly for a SELECT.
    fn prepare_cached(
        &self,
        sql: &str,
    ) -> Result<(Arc<Statement>, Option<Arc<SelectPlan>>), DbError> {
        // Copy out of the cache in a tight scope: planning (below) takes
        // the catalog and table locks, which rank under the cache lock.
        let hit = {
            let cache = self.stmt_cache.lock();
            cache
                .get(sql)
                .map(|p| (Arc::clone(&p.stmt), p.plan.clone()))
        };
        let stmt = match hit {
            Some((stmt, Some(plan))) => return Ok((stmt, Some(plan))),
            Some((stmt, None)) => stmt,
            None => {
                let stmt = Arc::new(parser::parse(sql)?);
                let mut cache = self.stmt_cache.lock();
                // Bound the cache to protect against unbounded ad-hoc SQL.
                if cache.len() >= 4096 {
                    cache.clear();
                }
                cache.insert(
                    sql.to_string(),
                    Prepared {
                        stmt: Arc::clone(&stmt),
                        plan: None,
                    },
                );
                stmt
            }
        };
        self.plan_into_cache(sql, stmt)
    }

    /// Builds and caches the plan for a SELECT, outside the statement
    /// cache lock (planning takes the catalog and table locks, which
    /// rank below it). A planning failure is returned and not cached:
    /// the next execution plans again, so DDL can make it succeed.
    fn plan_into_cache(
        &self,
        sql: &str,
        stmt: Arc<Statement>,
    ) -> Result<(Arc<Statement>, Option<Arc<SelectPlan>>), DbError> {
        let Statement::Select(sel) = &*stmt else {
            return Ok((stmt, None));
        };
        let built =
            self.with_bound_tables(&stmt, sel, |bound| planner::build_select_plan(&stmt, bound))?;
        // The scan kernel's signatures, built once the read locks are
        // gone (idempotent; writes keep them current from then on).
        if let Some((table, col)) = &built.signature_column {
            self.entry(table)?.lock.write().ensure_signatures(*col);
        }
        let built = Arc::new(built);
        if let Some(p) = self.stmt_cache.lock().get_mut(sql) {
            p.plan = Some(Arc::clone(&built));
        }
        Ok((stmt, Some(built)))
    }

    /// Drops every cached plan (statements stay parsed). Called after
    /// DDL: `CREATE INDEX` changes access-path choices and `CREATE
    /// TABLE` can turn a planning failure into a success.
    fn invalidate_plans(&self) {
        for p in self.stmt_cache.lock().values_mut() {
            p.plan = None;
        }
    }

    /// Schema facts and a consistent row copy of one table, for the
    /// snapshot writer: `(name, type, is_pk, _)` per column, the set of
    /// secondarily indexed column names, and all live rows.
    pub(crate) fn table_contents(&self, name: &str) -> TableContents {
        let Ok(entry) = self.entry(name) else {
            return (Vec::new(), Default::default(), Vec::new());
        };
        let data = entry.lock.read();
        let schema = data.schema();
        let pk = schema.primary_key();
        let columns: Vec<(String, String, bool, ())> = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), c.dtype.to_string(), pk == Some(i), ()))
            .collect();
        let indexed: std::collections::HashSet<String> = schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(i, _)| pk != Some(*i) && data.has_index(*i))
            .map(|(_, c)| c.name.clone())
            .collect();
        let rows: Vec<Vec<DbValue>> = data.iter_live().map(|(_, r)| r.to_vec()).collect();
        (columns, indexed, rows)
    }

    fn entry(&self, name: &str) -> Result<Arc<TableEntry>, DbError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn execute_statement(
        &self,
        stmt: &Statement,
        plan: Option<&SelectPlan>,
        sql: &str,
        params: &[DbValue],
        reads: Option<&mut ReadSet>,
        path: ScanPath,
    ) -> Result<QueryResult, DbError> {
        let mut stats = ExecStats::default();
        let result = match plan {
            Some(plan) => self.run_select_planned(stmt, plan, params, &mut stats, reads, path)?,
            None => self.run_mutation(stmt, sql, params, &mut stats)?,
        };
        // Synthetic latency is charged after the guards are gone
        // (MySQL's MVCC readers similarly do not hold table locks
        // across long scans).
        self.cost_model().charge(stats.scanned, stats.written);
        Ok(result)
    }

    /// Executes a write statement, logging it to the WAL (when
    /// durability is attached) while the mutated table's lock is still
    /// held, then waiting for durability *after* every lock is
    /// released — so group commit never serializes unrelated tables.
    fn run_mutation(
        &self,
        stmt: &Statement,
        sql: &str,
        params: &[DbValue],
        stats: &mut ExecStats,
    ) -> Result<QueryResult, DbError> {
        // The observer slot is read (and its guard dropped) before any
        // other lock; with no subscriber, key collection is skipped
        // entirely.
        let observer = self.write_observer.read().clone();
        let durable = self.durable.read().clone();
        if let Some(d) = &durable {
            // Fail before touching memory when the WAL is already dead.
            d.wal.check_alive()?;
        }
        // Shared gate: excluded only by a checkpoint's exclusive hold.
        let gate = durable.as_ref().map(|_| self.commit_gate.read());
        let wal = durable.as_ref().map(|d| &d.wal);
        let (result, seq, event) = match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                let schema = Schema::new(columns.clone(), *primary_key)?;
                let mut tables = self.tables.write();
                if tables.contains_key(name) {
                    return Err(DbError::TableExists(name.clone()));
                }
                let seq = Self::log(wal, sql, params)?;
                tables.insert(
                    name.clone(),
                    Arc::new(TableEntry::new(TableData::new(schema))),
                );
                (QueryResult::default(), seq, None)
            }
            Statement::CreateIndex { table, column } => {
                let entry = self.entry(table)?;
                let mut data = entry.lock.write();
                let col = data
                    .schema()
                    .column_index(column)
                    .ok_or_else(|| DbError::NoSuchColumn(column.clone()))?;
                let seq = Self::log(wal, sql, params)?;
                data.create_index(col);
                (QueryResult::default(), seq, None)
            }
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => {
                let entry = self.entry(table)?;
                let mut data = entry.lock.write();
                let mut changes = observer.as_ref().map(|_| Changes::default());
                let n = self.apply(wal, stats, |stats| {
                    let (data, changes) = (&mut *data, changes.as_mut());
                    match stmt {
                        Statement::Insert {
                            columns, values, ..
                        } => exec::run_insert(data, columns, values, params, stats, changes),
                        Statement::Update { sets, where_, .. } => {
                            exec::run_update(data, table, sets, where_, params, stats, changes)
                        }
                        Statement::Delete { where_, .. } => {
                            exec::run_delete(data, table, where_, params, stats, changes)
                        }
                        _ => unreachable!("the enclosing arm matched a row mutation"),
                    }
                })?;
                let seq = Self::log(wal, sql, params)?;
                let keyed = data.schema().primary_key().is_some();
                let event = changes
                    .filter(|_| n > 0)
                    .map(|c| c.into_event(table, keyed, n));
                (
                    QueryResult {
                        rows_affected: n,
                        rows_scanned: stats.scanned,
                        ..QueryResult::default()
                    },
                    seq,
                    event,
                )
            }
            Statement::Select(_) => unreachable!("every SELECT carries a plan"),
        };
        drop(gate);
        if let (Some(d), Some(seq)) = (&durable, seq) {
            // Group-commit wait happens with zero locks held.
            d.wal.commit(seq)?;
        }
        // Notify after the commit (a subscriber must never evict for a
        // write that could still fail durability) and before returning
        // (so no reader that observes this `execute` as complete can be
        // served a cache entry that predates it). Zero locks held.
        if let (Some(obs), Some(event)) = (observer, event) {
            obs(&event);
        }
        // DDL changes access-path choices (`CREATE INDEX`) or can turn a
        // planning failure into a success (`CREATE TABLE`); drop cached
        // plans now that every guard is gone — the statement-cache lock
        // ranks below the table locks.
        if matches!(
            stmt,
            Statement::CreateTable { .. } | Statement::CreateIndex { .. }
        ) {
            self.invalidate_plans();
        }
        Ok(result)
    }

    /// Appends the statement to the WAL, if one is attached. Called
    /// while the mutated table's (or the catalog's) write lock is held.
    fn log(wal: Option<&Arc<Wal>>, sql: &str, params: &[DbValue]) -> Result<Option<u64>, DbError> {
        match wal {
            Some(w) => w.append(sql, params).map(Some),
            None => Ok(None),
        }
    }

    /// Runs a table-mutating executor, poisoning the WAL if the
    /// statement fails *after* mutating rows — a partially-applied,
    /// unlogged statement would make every later logical replay diverge
    /// from memory, so the log must refuse to grow past it.
    fn apply<F>(
        &self,
        wal: Option<&Arc<Wal>>,
        stats: &mut ExecStats,
        f: F,
    ) -> Result<usize, DbError>
    where
        F: FnOnce(&mut ExecStats) -> Result<usize, DbError>,
    {
        let written_before = stats.written;
        let result = f(&mut *stats);
        if let (Err(e), Some(w)) = (&result, wal) {
            if stats.written > written_before {
                w.poison_external(format!("statement failed after partial apply: {e}"));
            }
        }
        result
    }

    /// Takes the read locks for every table a SELECT touches (sorted
    /// name order for deadlock freedom, deduplicated), binds them in
    /// FROM/JOIN order, and runs `f` with the guards held.
    fn with_bound_tables<T>(
        &self,
        stmt: &Statement,
        sel: &SelectStmt,
        f: impl FnOnce(&[BoundTable<'_>]) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let mut names: Vec<&str> = stmt.table_names();
        names.sort_unstable();
        names.dedup();
        let entries: Vec<(String, Arc<TableEntry>)> = names
            .iter()
            .map(|n| Ok((n.to_string(), self.entry(n)?)))
            .collect::<Result<_, DbError>>()?;
        let guards: Vec<_> = entries.iter().map(|(_, e)| e.lock.read()).collect();
        let guard_of = |table: &str| -> Result<&TableData, DbError> {
            let idx = entries
                .iter()
                .position(|(n, _)| n == table)
                .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
            Ok(&guards[idx])
        };
        let bound = std::iter::once(&sel.from)
            .chain(sel.joins.iter().map(|j| &j.table))
            .map(|t| {
                Ok(BoundTable {
                    name: t.effective_name().to_string(),
                    table: t.table.clone(),
                    data: guard_of(&t.table)?,
                })
            })
            .collect::<Result<Vec<_>, DbError>>()?;
        f(&bound)
    }

    /// Executes a SELECT through its plan tree. Per-node timings are
    /// collected into a local buffer while the table guards are held and
    /// handed to the plan observer only after every lock is released —
    /// mirroring the write-observer discipline.
    fn run_select_planned(
        &self,
        stmt: &Statement,
        plan: &SelectPlan,
        params: &[DbValue],
        stats: &mut ExecStats,
        reads: Option<&mut ReadSet>,
        path: ScanPath,
    ) -> Result<QueryResult, DbError> {
        // Observer slot read (guard dropped) before any table lock.
        let observer = self.plan_observer.read().clone();
        let mut node_times: Vec<(&'static str, u64)> = Vec::new();
        let sel = plan.select();
        let result = self.with_bound_tables(stmt, sel, |bound| {
            plan::run_planned(plan, params, bound, stats, reads, path, &mut node_times)
        })?;
        if let Some(obs) = observer {
            for (kind, nanos) in node_times {
                obs(kind, Duration::from_nanos(nanos));
            }
        }
        Ok(result)
    }

    /// Opens (or creates) a durable database in `config.dir`, replaying
    /// any WAL records past the last checkpoint. The recovery scanner
    /// stops cleanly at the first torn or corrupt tail record and
    /// truncates it away; a stale `checkpoint.tmp` from a crash
    /// mid-snapshot is discarded.
    ///
    /// Opening the same directory twice yields byte-identical state —
    /// replay skips everything at or below the checkpoint watermark, so
    /// it is idempotent.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] on unreadable files or a corrupt
    /// checkpoint; any constraint error replaying valid records (which
    /// would indicate a bug, not corruption — corrupt records never
    /// replay).
    pub fn open(config: DurabilityConfig) -> Result<Database, DbError> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| DbError::durability(format!("create {}: {e}", config.dir.display())))?;
        let (db, watermark) = match checkpoint::load_checkpoint(&config.dir)? {
            Some((db, seq)) => (db, seq),
            None => (Database::new(), 0),
        };
        let bytes = checkpoint::read_wal(&config.dir)?;
        let scan = crate::wal::scan_records(&bytes, watermark);
        if scan.valid_len < bytes.len() as u64 {
            checkpoint::truncate_wal(&config.dir, scan.valid_len)?;
        }
        let mut last_seq = watermark;
        let mut replayed = 0u64;
        for record in &scan.records {
            db.execute(&record.sql, &record.params)?;
            last_seq = record.seq;
            replayed += 1;
        }
        db.attach_durable(config, last_seq, replayed)?;
        Ok(db)
    }

    /// Attaches durability to this (so far in-memory) database: writes
    /// an initial checkpoint of the current state, creates an empty
    /// WAL, and starts logging every subsequent mutation.
    ///
    /// Call before serving concurrent writers — mutations racing the
    /// initial checkpoint are not captured.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] if durability is already attached or any
    /// file operation fails.
    pub fn enable_durability(&self, config: DurabilityConfig) -> Result<(), DbError> {
        if self.durable.read().is_some() {
            return Err(DbError::durability("durability already attached"));
        }
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| DbError::durability(format!("create {}: {e}", config.dir.display())))?;
        checkpoint::write_checkpoint(self, &config.dir, 0, config.crash)?;
        checkpoint::truncate_wal(&config.dir, 0)?;
        self.attach_durable(config, 0, 0)
    }

    fn attach_durable(
        &self,
        config: DurabilityConfig,
        last_seq: u64,
        replayed: u64,
    ) -> Result<(), DbError> {
        let wal = Wal::create(
            checkpoint::wal_path(&config.dir),
            config.fsync,
            config.crash,
            last_seq,
        )?;
        Wal::spawn_flusher(&wal);
        let durable = Arc::new(Durable {
            wal,
            config,
            epoch: Instant::now(),
            last_checkpoint_ms: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            replayed,
        });
        *self.durable.write() = Some(durable);
        Ok(())
    }

    /// Writes a checkpoint — a durable full-state snapshot — and
    /// truncates the WAL, so the next [`Database::open`] replays
    /// nothing. Takes the commit gate exclusively: concurrent mutations
    /// wait, SELECTs proceed.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] when durability is not attached or the
    /// snapshot/rename/truncate fails (which also poisons the WAL —
    /// the on-disk horizon can no longer be trusted to advance).
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let durable = self
            .durable
            .read()
            .clone()
            .ok_or_else(|| DbError::durability("durability not attached"))?;
        durable.wal.check_alive()?;
        let gate = self.commit_gate.write();
        // Sharp watermark: the gate excludes every writer, so the last
        // written sequence is exactly the last applied mutation.
        let seq = durable.wal.written_seq();
        if let Err(e) =
            checkpoint::write_checkpoint(self, &durable.config.dir, seq, durable.config.crash)
        {
            durable.wal.poison_external(e.to_string());
            return Err(e);
        }
        if durable
            .config
            .crash
            .is_some_and(|c| c.kills_checkpoint(CheckpointPhase::BeforeTruncate))
        {
            let e =
                DbError::durability("injected crash after checkpoint rename, before wal truncate");
            durable.wal.poison_external(e.to_string());
            return Err(e);
        }
        durable.wal.truncate_after_checkpoint(seq)?;
        drop(gate);
        durable.mark_checkpointed();
        Ok(())
    }

    /// The durability status, or `None` for an in-memory database.
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        self.durable.read().as_ref().map(|d| d.status())
    }

    /// WAL counters, or `None` for an in-memory database.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.read().as_ref().map(|d| d.wal.stats())
    }

    /// Installs an observer called with every WAL fsync's duration —
    /// the servers hook the `wal_fsync_seconds` histogram in here.
    /// No-op for an in-memory database.
    pub fn set_fsync_observer(&self, f: impl Fn(Duration) + Send + Sync + 'static) {
        if let Some(d) = self.durable.read().as_ref() {
            d.wal.set_observer(Arc::new(f));
        }
    }
}

/// A compiled statement handle from [`Database::plan`]: the parse and
/// (for SELECTs) the plan tree are resolved once, then [`Plan::run`]
/// executes with fresh parameters each time.
///
/// The plan inside is shared with the database's statement cache, so
/// metrics and EXPLAIN output accumulate across both paths. A handle
/// outliving a `CREATE INDEX` keeps its original (still correct, merely
/// index-blind) plan; re-call [`Database::plan`] to pick up new access
/// paths.
pub struct Plan<'db> {
    db: &'db Database,
    sql: String,
    stmt: Arc<Statement>,
    plan: Option<Arc<SelectPlan>>,
}

impl Plan<'_> {
    /// Executes the compiled statement with `params`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Database::execute`].
    pub fn run(&self, params: &[DbValue]) -> Result<QueryResult, DbError> {
        self.run_tracked(params, None)
    }

    /// Executes the compiled statement, recording what it read into
    /// `reads` (see [`Database::execute_tracked`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Database::execute`].
    pub fn run_tracked(
        &self,
        params: &[DbValue],
        reads: Option<&mut ReadSet>,
    ) -> Result<QueryResult, DbError> {
        self.db.execute_statement(
            &self.stmt,
            self.plan.as_deref(),
            &self.sql,
            params,
            reads,
            ScanPath::Prefiltered,
        )
    }

    /// [`Plan::run_tracked`] with every base filter tested through the
    /// general expression evaluator, never a scan kernel: the reference
    /// the kernel-agreement property test compares against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Database::execute`].
    #[doc(hidden)]
    pub fn run_without_scan_kernels(
        &self,
        params: &[DbValue],
        reads: Option<&mut ReadSet>,
    ) -> Result<QueryResult, DbError> {
        self.db.execute_statement(
            &self.stmt,
            self.plan.as_deref(),
            &self.sql,
            params,
            reads,
            ScanPath::Holds,
        )
    }

    /// [`Plan::run_tracked`] with the scan kernel testing every row, its
    /// signature prefilter unused: the reference the prefilter property
    /// test compares against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Database::execute`].
    #[doc(hidden)]
    pub fn run_without_signatures(
        &self,
        params: &[DbValue],
        reads: Option<&mut ReadSet>,
    ) -> Result<QueryResult, DbError> {
        self.db.execute_statement(
            &self.stmt,
            self.plan.as_deref(),
            &self.sql,
            params,
            reads,
            ScanPath::Kernel,
        )
    }

    /// Renders the plan tree as JSON: node kind, chosen index, estimated
    /// rows, and cumulative measured rows/time per node. Non-SELECT
    /// statements render a single `write` placeholder node.
    pub fn explain_json(&self) -> String {
        match &self.plan {
            Some(plan) => plan.explain_json(),
            None => "{\"node\":\"write\"}".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readset::RowKey;

    fn bookstore() -> Database {
        let db = Database::new();
        db.execute(
            "CREATE TABLE author (a_id INT PRIMARY KEY, a_name TEXT)",
            &[],
        )
        .unwrap();
        db.execute(
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_a_id INT, \
             i_subject TEXT, i_cost FLOAT, i_stock INT)",
            &[],
        )
        .unwrap();
        db.execute("CREATE INDEX ON item (i_a_id)", &[]).unwrap();
        db.execute("CREATE INDEX ON item (i_subject)", &[]).unwrap();
        for (id, name) in [(1, "Herbert"), (2, "Banks")] {
            db.execute(
                "INSERT INTO author (a_id, a_name) VALUES (?, ?)",
                &[DbValue::Int(id), DbValue::from(name)],
            )
            .unwrap();
        }
        let items = [
            (1, "Dune", 1, "SCIFI", 9.99, 100),
            (2, "Children of Dune", 1, "SCIFI", 7.50, 40),
            (3, "Excession", 2, "SCIFI", 8.25, 60),
            (4, "Cooking Basics", 2, "COOKING", 20.00, 10),
        ];
        for (id, title, a, subj, cost, stock) in items {
            db.execute(
                "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_cost, i_stock) \
                 VALUES (?, ?, ?, ?, ?, ?)",
                &[
                    DbValue::Int(id),
                    DbValue::from(title),
                    DbValue::Int(a),
                    DbValue::from(subj),
                    DbValue::Float(cost),
                    DbValue::Int(stock),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn point_select_uses_pk_index() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT i_title FROM item WHERE i_id = ?",
                &[DbValue::Int(3)],
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![DbValue::from("Excession")]]);
        assert_eq!(r.rows_scanned, 1, "PK lookup should scan exactly one row");
    }

    #[test]
    fn secondary_index_probe() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT i_title FROM item WHERE i_subject = ? ORDER BY i_title",
                &[DbValue::from("SCIFI")],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows_scanned, 3, "index probe should only visit matches");
        assert_eq!(r.rows[0][0], DbValue::from("Children of Dune"));
    }

    #[test]
    fn full_scan_with_like() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT i_id FROM item WHERE i_title LIKE ?",
                &[DbValue::from("%dune%")],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows_scanned, 4, "LIKE requires a full scan");
    }

    #[test]
    fn join_with_index() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT i.i_title, a.a_name FROM item i \
                 JOIN author a ON i.i_a_id = a.a_id \
                 WHERE i.i_subject = ? ORDER BY i.i_title",
                &[DbValue::from("SCIFI")],
            )
            .unwrap();
        assert_eq!(r.columns, vec!["i_title", "a_name"]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(
            r.rows[2],
            vec![DbValue::from("Excession"), DbValue::from("Banks")]
        );
    }

    #[test]
    fn aggregates_and_group_by() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT i_subject, COUNT(*) n, SUM(i_stock) stock, AVG(i_cost) avg_cost \
                 FROM item GROUP BY i_subject ORDER BY n DESC",
                &[],
            )
            .unwrap();
        assert_eq!(r.columns, vec!["i_subject", "n", "stock", "avg_cost"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], DbValue::from("SCIFI"));
        assert_eq!(r.rows[0][1], DbValue::Int(3));
        assert_eq!(r.rows[0][2], DbValue::Int(200));
        assert_eq!(r.rows[1][1], DbValue::Int(1));
    }

    #[test]
    fn global_aggregates_without_group() {
        let db = bookstore();
        let r = db
            .execute("SELECT COUNT(*), MIN(i_cost), MAX(i_cost) FROM item", &[])
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![
                DbValue::Int(4),
                DbValue::Float(7.5),
                DbValue::Float(20.0)
            ]]
        );
        // Aggregate over empty set yields one row.
        let r = db
            .execute("SELECT COUNT(*) FROM item WHERE i_id = -1", &[])
            .unwrap();
        assert_eq!(r.single_int(), Some(0));
    }

    #[test]
    fn order_limit_offset() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT i_id FROM item ORDER BY i_cost DESC LIMIT 2 OFFSET 1",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![DbValue::Int(1)], vec![DbValue::Int(3)]]);
        // Parameterized LIMIT.
        let r = db
            .execute(
                "SELECT i_id FROM item ORDER BY i_id LIMIT ?",
                &[DbValue::Int(2)],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn order_by_non_projected_column() {
        let db = bookstore();
        let r = db
            .execute("SELECT i_title FROM item ORDER BY i_cost", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], DbValue::from("Children of Dune"));
        assert_eq!(r.rows[3][0], DbValue::from("Cooking Basics"));
    }

    #[test]
    fn update_with_expression() {
        let db = bookstore();
        let r = db
            .execute(
                "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?",
                &[DbValue::Int(5), DbValue::Int(1)],
            )
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = db
            .execute("SELECT i_stock FROM item WHERE i_id = 1", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], DbValue::Int(95));
    }

    #[test]
    fn delete_rows() {
        let db = bookstore();
        let r = db
            .execute("DELETE FROM item WHERE i_subject = 'COOKING'", &[])
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        assert_eq!(db.table_len("item").unwrap(), 3);
    }

    #[test]
    fn select_star_expands_join() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT * FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id = 1",
                &[],
            )
            .unwrap();
        assert_eq!(r.columns.len(), 8);
        assert_eq!(r.rows[0].len(), 8);
        assert_eq!(*r.value(0, "a_name").unwrap(), DbValue::from("Herbert"));
    }

    #[test]
    fn errors_surface() {
        let db = bookstore();
        assert!(matches!(
            db.execute("SELECT * FROM missing", &[]),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            db.execute("SELECT zap FROM item", &[]),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            db.execute("CREATE TABLE item (x INT)", &[]),
            Err(DbError::TableExists(_))
        ));
        assert!(matches!(
            db.execute("SELECT * FROM item WHERE i_id = ?", &[]),
            Err(DbError::Invalid(_))
        ));
        assert!(matches!(
            db.execute("INSERT INTO author (a_id, a_name) VALUES (1, 'dup')", &[]),
            Err(DbError::DuplicateKey(_))
        ));
    }

    #[test]
    fn float_coercion_on_insert() {
        let db = bookstore();
        db.execute(
            "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_cost, i_stock) \
             VALUES (9, 't', 1, 'S', 5, 1)",
            &[],
        )
        .unwrap();
        let r = db
            .execute("SELECT i_cost FROM item WHERE i_id = 9", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], DbValue::Float(5.0));
    }

    #[test]
    fn is_null_filtering() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[])
            .unwrap();
        db.execute("INSERT INTO t (id, v) VALUES (1, NULL)", &[])
            .unwrap();
        db.execute("INSERT INTO t (id, v) VALUES (2, 'x')", &[])
            .unwrap();
        let r = db.execute("SELECT id FROM t WHERE v IS NULL", &[]).unwrap();
        assert_eq!(r.rows, vec![vec![DbValue::Int(1)]]);
        let r = db
            .execute("SELECT id FROM t WHERE v IS NOT NULL", &[])
            .unwrap();
        assert_eq!(r.rows, vec![vec![DbValue::Int(2)]]);
    }

    #[test]
    fn self_join_does_not_deadlock() {
        let db = bookstore();
        let r = db
            .execute(
                "SELECT a.i_title, b.i_title FROM item a JOIN item b ON a.i_a_id = b.i_a_id \
                 WHERE a.i_id = 1",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2); // Dune pairs with both Herbert books
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::thread;
        let db = Arc::new(bookstore());
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let db = Arc::clone(&db);
                thread::spawn(move || {
                    for i in 0..50 {
                        if k == 0 {
                            db.execute("UPDATE item SET i_stock = i_stock + 1 WHERE i_id = 1", &[])
                                .unwrap();
                        } else {
                            db.execute(
                                "SELECT * FROM item WHERE i_id = ?",
                                &[DbValue::Int(i % 4 + 1)],
                            )
                            .unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let r = db
            .execute("SELECT i_stock FROM item WHERE i_id = 1", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], DbValue::Int(150));
    }

    #[test]
    fn tracked_select_records_pk_probe_as_exact_key() {
        let db = bookstore();
        let mut reads = ReadSet::new();
        db.execute_tracked(
            "SELECT i_title FROM item WHERE i_id = ?",
            &[DbValue::Int(2)],
            Some(&mut reads),
        )
        .unwrap();
        assert_eq!(reads.reads().len(), 1);
        let r = &reads.reads()[0];
        assert_eq!(r.table, "item");
        assert_eq!(
            r.keys.as_deref(),
            Some(&[RowKey::of(&DbValue::Int(2))][..]),
            "PK point probe should refine to the exact key"
        );
    }

    #[test]
    fn tracked_select_records_filters_and_bare_scans_as_whole_table() {
        let db = bookstore();
        let events: Arc<std::sync::Mutex<Vec<WriteEvent>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        db.set_write_observer(move |e| sink.lock().unwrap().push(e.clone()));
        // Secondary-index probe: membership can change under writes to
        // other rows, so the dependency is the probe's filter, not keys.
        let mut reads = ReadSet::new();
        db.execute_tracked(
            "SELECT i_title FROM item WHERE i_subject = ?",
            &[DbValue::from("SCIFI")],
            Some(&mut reads),
        )
        .unwrap();
        assert_eq!(reads.reads().len(), 1);
        assert_eq!(reads.reads()[0].keys.as_deref(), Some(&[][..]));
        assert_eq!(reads.reads()[0].filters.len(), 1);
        let write = |sql: &str| {
            db.execute(sql, &[]).unwrap();
            events.lock().unwrap().pop().expect("one row changed")
        };
        let cooking = write("UPDATE item SET i_stock = 1 WHERE i_id = 4");
        assert!(!reads.depends_on(&cooking), "other subject spared");
        let into_scifi = write("UPDATE item SET i_subject = 'SCIFI' WHERE i_id = 4");
        assert!(reads.depends_on(&into_scifi), "a row moving in evicts");

        // Nothing to filter by, and the endpoint shortcut: whole table.
        for sql in ["SELECT i_title FROM item", "SELECT COUNT(*) FROM item"] {
            let mut scan = ReadSet::new();
            db.execute_tracked(sql, &[], Some(&mut scan)).unwrap();
            assert!(scan.reads()[0].keys.is_none(), "{sql}");
            assert!(scan.depends_on(&cooking), "{sql}");
        }
    }

    #[test]
    fn tracked_join_depends_on_both_tables() {
        let db = bookstore();
        let mut reads = ReadSet::new();
        db.execute_tracked(
            "SELECT i_title, a_name FROM item JOIN author ON i_a_id = a_id WHERE i_id = 1",
            &[],
            Some(&mut reads),
        )
        .unwrap();
        let tables: Vec<&str> = reads.reads().iter().map(|r| r.table.as_str()).collect();
        assert!(tables.contains(&"item"));
        assert!(tables.contains(&"author"));
        // The inner side is probed through its primary key, so the
        // dependency is refined to the exact rows joined.
        let author = reads.reads().iter().find(|r| r.table == "author").unwrap();
        assert!(author.keys.is_some(), "PK index-loop join refines to keys");
    }

    #[test]
    fn tracked_pk_miss_still_records_the_key() {
        // Caching an empty result must still be invalidated by a later
        // insert of that key.
        let db = bookstore();
        let mut reads = ReadSet::new();
        db.execute_tracked(
            "SELECT i_title FROM item WHERE i_id = ?",
            &[DbValue::Int(999)],
            Some(&mut reads),
        )
        .unwrap();
        let event = WriteEvent {
            table: "item".to_string(),
            keys: Some(vec![RowKey::of(&DbValue::Int(999))]),
            rows_affected: 1,
            images: Vec::new(),
        };
        assert!(reads.depends_on(&event));
    }

    #[test]
    fn write_observer_sees_committed_mutations_with_keys() {
        let db = bookstore();
        let events: Arc<std::sync::Mutex<Vec<WriteEvent>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        db.set_write_observer(move |e| sink.lock().unwrap().push(e.clone()));

        db.execute(
            "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_cost, i_stock) \
             VALUES (9, 'New', 1, 'SCIFI', 1.0, 1)",
            &[],
        )
        .unwrap();
        db.execute("UPDATE item SET i_cost = 2.0 WHERE i_id = 9", &[])
            .unwrap();
        db.execute("DELETE FROM item WHERE i_id = 9", &[]).unwrap();
        // Zero-row mutations stay silent.
        db.execute("UPDATE item SET i_cost = 1.0 WHERE i_id = 999", &[])
            .unwrap();

        let events = events.lock().unwrap();
        assert_eq!(events.len(), 3);
        let key9 = RowKey::of(&DbValue::Int(9));
        for e in events.iter() {
            assert_eq!(e.table, "item");
            assert_eq!(e.rows_affected, 1);
            assert!(e.keys.as_deref().unwrap().contains(&key9));
        }
    }

    #[test]
    fn update_changing_pk_reports_both_keys() {
        let db = bookstore();
        let events: Arc<std::sync::Mutex<Vec<WriteEvent>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        db.set_write_observer(move |e| sink.lock().unwrap().push(e.clone()));
        db.execute("UPDATE item SET i_id = 40 WHERE i_id = 4", &[])
            .unwrap();
        let events = events.lock().unwrap();
        let keys = events[0].keys.as_deref().unwrap();
        assert!(keys.contains(&RowKey::of(&DbValue::Int(4))));
        assert!(keys.contains(&RowKey::of(&DbValue::Int(40))));
    }

    #[test]
    fn query_result_helpers() {
        let db = bookstore();
        let r = db
            .execute("SELECT i_id, i_title FROM item WHERE i_id = 2", &[])
            .unwrap();
        assert!(r.first().is_some());
        assert_eq!(r.column_index("i_title"), Some(1));
        assert_eq!(
            *r.value(0, "i_title").unwrap(),
            DbValue::from("Children of Dune")
        );
        assert_eq!(r.single_int(), None);
    }
}
