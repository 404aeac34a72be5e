//! The bounded database connection pool.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::database::{Database, QueryResult};
use crate::error::DbError;
use crate::fault::FaultPlan;
use crate::readset::ReadSet;
use crate::value::DbValue;
use staged_pool::SyncQueue;
use staged_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use staged_sync::{OrderedMutex, OrderedRwLock, Rank};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Rank of the fault-plan handle (DESIGN.md §10): the outermost db
/// lock — held only to copy the plan out.
const FAULT_RANK: Rank = Rank::new(200);

/// The connection's route tag (see [`PooledConnection::set_route`]);
/// held at the top of `execute` only while the statement is noted under
/// the route (`db.routes`, rank 214), before the breaker and every
/// table lock.
const ROUTE_RANK: Rank = Rank::new(202);
/// Rank of a connection's read-set accumulator: between the fault plan
/// and the breaker handle. Never held across query execution — the
/// statement collects into a local set, which is merged in afterwards.
const READS_RANK: Rank = Rank::new(204);

/// Rank of the breaker handle: above the fault plan, below the breaker
/// state machine it points at (`db.breaker.state`, rank 220).
const BREAKER_RANK: Rank = Rank::new(210);

struct PoolInner {
    db: Arc<Database>,
    tokens: SyncQueue<()>,
    size: usize,
    in_use: AtomicUsize,
    /// Monotonic checkout counter; gives each checked-out connection a
    /// distinct identity for deterministic fault decisions.
    checkouts: AtomicU64,
    /// Active fault-injection plan, if any.
    fault: OrderedRwLock<Option<FaultPlan>>,
    /// Circuit breaker wrapped around checkout and query execution, if
    /// installed.
    breaker: OrderedRwLock<Option<Arc<CircuitBreaker>>>,
    /// Checkouts that timed out ([`ConnectionPool::get_timeout`]).
    acquire_timeouts: AtomicU64,
}

/// A bounded pool of database connections — the paper's "precious
/// database connection resources".
///
/// The embedded [`Database`] could technically be called from any
/// thread, but the paper's whole resource-management argument is about a
/// *bounded* connection set: with thread-per-request, "the number of
/// threads cannot exceed the number of connections" (§1). Server threads
/// therefore check a connection out of this pool ([`ConnectionPool::get`]
/// blocks when all are in use) and hold it for as long as their design
/// dictates — the baseline server pins one per worker thread for the
/// worker's lifetime, the staged server pins them only to
/// dynamic-request workers.
///
/// # Examples
///
/// ```
/// use staged_db::{ConnectionPool, Database};
/// use std::sync::Arc;
///
/// let db = Arc::new(Database::new());
/// db.execute("CREATE TABLE t (id INT PRIMARY KEY)", &[]).unwrap();
/// let pool = ConnectionPool::new(db, 4);
/// let conn = pool.get();
/// conn.execute("INSERT INTO t (id) VALUES (1)", &[]).unwrap();
/// assert_eq!(pool.available(), 3);
/// drop(conn);
/// assert_eq!(pool.available(), 4);
/// ```
#[derive(Clone)]
pub struct ConnectionPool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for ConnectionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnectionPool")
            .field("size", &self.inner.size)
            .field("in_use", &self.in_use())
            .finish()
    }
}

impl ConnectionPool {
    /// Creates a pool of `size` connections to `db`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(db: Arc<Database>, size: usize) -> Self {
        assert!(size > 0, "connection pool needs at least one connection");
        let tokens = SyncQueue::bounded(size);
        for _ in 0..size {
            tokens.push(()).expect("fresh queue accepts tokens");
        }
        ConnectionPool {
            inner: Arc::new(PoolInner {
                db,
                tokens,
                size,
                in_use: AtomicUsize::new(0),
                checkouts: AtomicU64::new(0),
                fault: OrderedRwLock::new(FAULT_RANK, "db.pool.fault", None),
                breaker: OrderedRwLock::new(BREAKER_RANK, "db.pool.breaker", None),
                acquire_timeouts: AtomicU64::new(0),
            }),
        }
    }

    fn checked_out(&self) -> PooledConnection {
        self.inner.in_use.fetch_add(1, Ordering::Relaxed);
        PooledConnection {
            id: self.inner.checkouts.fetch_add(1, Ordering::Relaxed),
            queries: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            tracking: AtomicBool::new(false),
            route: OrderedMutex::new(ROUTE_RANK, "db.pool.route", None),
            reads: OrderedMutex::new(READS_RANK, "db.pool.reads", None),
            inner: Arc::clone(&self.inner),
        }
    }

    /// Checks a connection out, blocking until one is free.
    pub fn get(&self) -> PooledConnection {
        self.inner
            .tokens
            .pop()
            .expect("connection pool token queue is never closed");
        self.checked_out()
    }

    /// Checks a connection out, waiting at most `timeout` for one to
    /// free up — the bounded-acquisition path that turns pool starvation
    /// into a shed (e.g. a `503`) instead of an indefinite hang.
    /// Returns `None` on timeout (counted in
    /// [`ConnectionPool::acquire_timeouts`]).
    pub fn get_timeout(&self, timeout: Duration) -> Option<PooledConnection> {
        // An open breaker means the backend is failing past threshold:
        // don't burn `timeout` waiting for a token the request cannot
        // use anyway.
        if let Some(b) = &*self.inner.breaker.read() {
            if b.checkout_blocked() {
                return None;
            }
        }
        match self.inner.tokens.pop_timeout(timeout) {
            Ok(Some(())) => Some(self.checked_out()),
            _ => {
                self.inner.acquire_timeouts.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Checks a connection out if one is immediately free.
    pub fn try_get(&self) -> Option<PooledConnection> {
        self.inner.tokens.try_pop().ok()?;
        Some(self.checked_out())
    }

    /// Installs (or with `None`, removes) a fault-injection plan; it
    /// applies to queries on *all* connections, including ones already
    /// checked out.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.fault.write() = plan.filter(FaultPlan::injects_something);
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        *self.inner.fault.read()
    }

    /// Installs (or with `None`, removes) a circuit breaker wrapped
    /// around checkout and query execution on *all* connections,
    /// including ones already checked out.
    pub fn set_breaker(&self, config: Option<BreakerConfig>) {
        *self.inner.breaker.write() = config.map(|c| Arc::new(CircuitBreaker::new(c)));
    }

    /// The installed circuit breaker, if any (for health reporting).
    pub fn breaker(&self) -> Option<Arc<CircuitBreaker>> {
        self.inner.breaker.read().clone()
    }

    /// How many [`ConnectionPool::get_timeout`] calls have timed out.
    pub fn acquire_timeouts(&self) -> u64 {
        self.inner.acquire_timeouts.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Total connections.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Connections currently checked out.
    pub fn in_use(&self) -> usize {
        self.inner.in_use.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Connections currently free.
    pub fn available(&self) -> usize {
        self.inner.size - self.in_use()
    }

    /// The underlying database (for administrative work outside the
    /// connection discipline, e.g. population scripts).
    pub fn database(&self) -> &Arc<Database> {
        &self.inner.db
    }
}

/// A checked-out database connection; returns itself to the pool on
/// drop.
pub struct PooledConnection {
    inner: Arc<PoolInner>,
    /// Checkout identity (feeds deterministic fault decisions).
    id: u64,
    /// Queries executed on this checkout.
    queries: AtomicU64,
    /// Set once a fault plan kills this connection; every later query
    /// fails with [`DbError::ConnectionLost`] until re-checkout.
    dead: AtomicBool,
    /// Whether read-set tracking is active (fast-path gate: the mutex
    /// below is only touched when this is set).
    tracking: AtomicBool,
    /// The server route this checkout is serving, if any; every
    /// statement executed while set is recorded against it for the
    /// `/debug/explain` surface.
    route: OrderedMutex<Option<String>>,
    /// The accumulated read set while tracking; `None` otherwise.
    reads: OrderedMutex<Option<ReadSet>>,
}

impl PooledConnection {
    /// Executes a statement on this connection.
    ///
    /// # Errors
    ///
    /// Any [`DbError`] from parsing or execution, plus
    /// [`DbError::Injected`] / [`DbError::ConnectionLost`] when a
    /// [`FaultPlan`] is installed on the pool, plus
    /// [`DbError::CircuitOpen`] when an installed [`CircuitBreaker`] is
    /// rejecting queries.
    pub fn execute(&self, sql: &str, params: &[DbValue]) -> Result<QueryResult, DbError> {
        // Route attribution happens up front so even statements that the
        // breaker or a fault plan rejects show up under their page.
        if let Some(route) = self.route.lock().as_deref() {
            self.inner.db.note_route_statement(route, sql);
        }
        let breaker = self.inner.breaker.read().clone();
        if let Some(b) = &breaker {
            if !b.try_acquire() {
                return Err(DbError::CircuitOpen);
            }
        }
        let result = self.execute_inner(sql, params);
        if let Some(b) = &breaker {
            // Only infrastructure failures feed the breaker; a query
            // bug (syntax, missing table) says nothing about backend
            // health.
            b.record(!matches!(
                &result,
                Err(DbError::Injected(_) | DbError::ConnectionLost)
            ));
        }
        result
    }

    fn execute_inner(&self, sql: &str, params: &[DbValue]) -> Result<QueryResult, DbError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(DbError::ConnectionLost);
        }
        if let Some(plan) = *self.inner.fault.read() {
            let seq = self.queries.fetch_add(1, Ordering::Relaxed);
            if plan.kills_at(seq) {
                self.dead.store(true, Ordering::Release);
                return Err(DbError::ConnectionLost);
            }
            if !plan.extra_latency.is_zero() {
                std::thread::sleep(plan.extra_latency);
            }
            if plan.errors_at(self.id, seq) {
                return Err(DbError::Injected(format!(
                    "query #{seq} on connection #{} failed by plan",
                    self.id
                )));
            }
        }
        if self.tracking.load(Ordering::Acquire) {
            // Collect into a local set and merge *after* the statement
            // returns: holding the rank-204 accumulator across execution
            // would invert with the database's own locks. Merging even
            // on error is deliberately conservative — a partially
            // executed statement may still have read tables.
            let mut local = ReadSet::new();
            let result = self.inner.db.execute_tracked(sql, params, Some(&mut local));
            if !local.is_empty() {
                if let Some(reads) = self.reads.lock().as_mut() {
                    reads.merge(local);
                }
            }
            result
        } else {
            self.inner.db.execute(sql, params)
        }
    }

    /// Starts accumulating the read set of every subsequent statement on
    /// this connection (until [`PooledConnection::take_read_set`]).
    /// Any previously accumulated set is discarded.
    pub fn begin_read_tracking(&self) {
        *self.reads.lock() = Some(ReadSet::new());
        self.tracking.store(true, Ordering::Release);
    }

    /// Stops tracking and returns the read set accumulated since
    /// [`PooledConnection::begin_read_tracking`], or `None` if tracking
    /// was never started.
    pub fn take_read_set(&self) -> Option<ReadSet> {
        if !self.tracking.swap(false, Ordering::AcqRel) {
            return None;
        }
        self.reads.lock().take()
    }

    /// Tags (or, with `None`, clears) the server route this checkout is
    /// serving; while set, every executed statement is recorded for
    /// [`Database::explain_route`].
    pub fn set_route(&self, route: Option<&str>) {
        *self.route.lock() = route.map(str::to_string);
    }

    /// Whether a fault plan has killed this connection.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.inner.db
    }
}

impl fmt::Debug for PooledConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PooledConnection(pool size {})", self.inner.size)
    }
}

impl Drop for PooledConnection {
    fn drop(&mut self) {
        self.inner.in_use.fetch_sub(1, Ordering::Relaxed);
        staged_sync::mutant!("pool_leak_token" => {
            // broken: the connection's token never returns to the
            // queue, shrinking the pool by one on every checkout
        } else {
            let _ = self.inner.tokens.push(());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn pool(size: usize) -> ConnectionPool {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)", &[])
            .unwrap();
        ConnectionPool::new(db, size)
    }

    #[test]
    #[should_panic(expected = "connection pool needs at least one connection")]
    fn zero_size_rejected() {
        let db = Arc::new(Database::new());
        let _ = ConnectionPool::new(db, 0);
    }

    #[test]
    fn checkout_accounting() {
        let p = pool(2);
        assert_eq!(p.available(), 2);
        let c1 = p.get();
        let c2 = p.get();
        assert_eq!(p.available(), 0);
        assert_eq!(p.in_use(), 2);
        assert!(p.try_get().is_none());
        drop(c1);
        assert_eq!(p.available(), 1);
        assert!(p.try_get().is_some());
        drop(c2);
    }

    #[test]
    fn get_blocks_until_released() {
        let p = pool(1);
        let held = p.get();
        let p2 = p.clone();
        let waiter = thread::spawn(move || {
            let conn = p2.get();
            conn.execute("INSERT INTO t (id) VALUES (1)", &[]).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "waiter should block on checkout");
        drop(held);
        waiter.join().unwrap();
        assert_eq!(
            p.database()
                .execute("SELECT COUNT(*) FROM t", &[])
                .unwrap()
                .single_int(),
            Some(1)
        );
    }

    #[test]
    fn get_timeout_times_out_when_starved() {
        let p = pool(1);
        let held = p.get();
        let started = std::time::Instant::now();
        assert!(p.get_timeout(Duration::from_millis(20)).is_none());
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(p.acquire_timeouts(), 1);
        drop(held);
        let conn = p.get_timeout(Duration::from_millis(20));
        assert!(conn.is_some(), "freed connection should be acquirable");
        assert_eq!(p.acquire_timeouts(), 1);
    }

    #[test]
    fn fault_plan_injects_errors_at_configured_rate() {
        let p = pool(1);
        p.set_fault_plan(Some(crate::FaultPlan::seeded(11).error_rate(0.2)));
        let conn = p.get();
        let mut failures = 0;
        for _ in 0..2000 {
            match conn.execute("SELECT COUNT(*) FROM t", &[]) {
                Ok(_) => {}
                Err(DbError::Injected(_)) => failures += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let rate = f64::from(failures) / 2000.0;
        assert!((rate - 0.2).abs() < 0.05, "measured rate {rate}");
    }

    #[test]
    fn connection_death_forces_recheckout() {
        let p = pool(1);
        p.set_fault_plan(Some(crate::FaultPlan::seeded(0).death_period(3)));
        let conn = p.get();
        assert!(conn.execute("SELECT COUNT(*) FROM t", &[]).is_ok());
        assert!(conn.execute("SELECT COUNT(*) FROM t", &[]).is_ok());
        // Third query (seq 3 counting the checkout probe... seq starts
        // at 0): seq 0, 1, 2 fine; seq 3 kills.
        assert!(conn.execute("SELECT COUNT(*) FROM t", &[]).is_ok());
        let err = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap_err();
        assert!(err.is_connection_lost(), "got {err:?}");
        assert!(conn.is_dead());
        // Dead stays dead until re-checkout.
        assert!(conn
            .execute("SELECT COUNT(*) FROM t", &[])
            .unwrap_err()
            .is_connection_lost());
        drop(conn);
        let fresh = p.get();
        assert!(!fresh.is_dead());
        assert!(fresh.execute("SELECT COUNT(*) FROM t", &[]).is_ok());
    }

    #[test]
    fn no_fault_plan_is_zero_overhead_path() {
        let p = pool(1);
        p.set_fault_plan(Some(crate::FaultPlan::none()));
        assert!(p.fault_plan().is_none(), "no-op plan should not install");
        let conn = p.get();
        for _ in 0..100 {
            conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        }
        assert!(!conn.is_dead());
    }

    #[test]
    fn breaker_trips_on_injected_outage_and_recovers() {
        let p = pool(2);
        p.set_breaker(Some(crate::BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 2,
            cooldown: Duration::from_millis(20),
            half_open_probes: 1,
        }));
        let b = p.breaker().expect("breaker installed");
        let conn = p.get();
        // Healthy queries keep it closed.
        for _ in 0..10 {
            conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        }
        assert_eq!(b.state(), crate::BreakerState::Closed);
        // Full outage: every query fails, the breaker trips, and
        // further queries fail fast with CircuitOpen.
        p.set_fault_plan(Some(crate::FaultPlan::seeded(3).error_rate(1.0)));
        let mut saw_injected = 0;
        loop {
            match conn.execute("SELECT COUNT(*) FROM t", &[]) {
                Err(DbError::Injected(_)) => saw_injected += 1,
                Err(DbError::CircuitOpen) => break,
                other => panic!("unexpected outcome {other:?}"),
            }
            assert!(saw_injected < 100, "breaker never tripped");
        }
        assert_eq!(b.state(), crate::BreakerState::Open);
        assert!(b.opened_total() >= 1);
        // While open and cooling down, checkout fails fast too.
        assert!(p.get_timeout(Duration::from_secs(5)).is_none());
        // Recovery: clear the fault, wait out the cooldown, and the
        // half-open probe closes the breaker.
        p.set_fault_plan(None);
        thread::sleep(Duration::from_millis(25));
        conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(b.state(), crate::BreakerState::Closed);
        assert_eq!(b.closed_total(), 1);
    }

    #[test]
    fn breaker_ignores_query_bugs() {
        let p = pool(1);
        p.set_breaker(Some(crate::BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 2,
            cooldown: Duration::from_millis(20),
            half_open_probes: 1,
        }));
        let conn = p.get();
        for _ in 0..10 {
            assert!(matches!(
                conn.execute("SELECT * FROM missing", &[]),
                Err(DbError::NoSuchTable(_))
            ));
        }
        assert_eq!(
            p.breaker().unwrap().state(),
            crate::BreakerState::Closed,
            "application errors are not backend failures"
        );
    }

    #[test]
    fn read_tracking_accumulates_across_statements_and_clears() {
        let p = pool(1);
        let conn = p.get();
        // Not tracking: nothing to take.
        conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert!(conn.take_read_set().is_none());

        conn.begin_read_tracking();
        conn.execute("SELECT * FROM t WHERE id = 1", &[]).unwrap();
        conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        let reads = conn.take_read_set().expect("tracking was on");
        assert_eq!(reads.reads().len(), 1);
        assert_eq!(reads.reads()[0].table, "t");
        assert!(
            reads.reads()[0].keys.is_none(),
            "the scan should widen the point probe to the whole table"
        );
        // Taking the set turns tracking off again.
        assert!(conn.take_read_set().is_none());
        conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert!(conn.take_read_set().is_none());
    }

    #[test]
    fn many_threads_share_bounded_connections() {
        let p = pool(4);
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let p = p.clone();
                thread::spawn(move || {
                    let conn = p.get();
                    conn.execute("INSERT INTO t (id) VALUES (?)", &[DbValue::Int(i)])
                        .unwrap();
                    assert!(p.in_use() <= 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.available(), 4);
        assert_eq!(
            p.database()
                .execute("SELECT COUNT(*) FROM t", &[])
                .unwrap()
                .single_int(),
            Some(16)
        );
    }
}
