//! Worker thread pools with per-worker state and busy/spare accounting.

use crate::queue::{PushError, SyncQueue};
use staged_metrics::{Counter, Gauge};
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Configuration for a [`WorkerPool`].
///
/// # Examples
///
/// ```
/// use staged_pool::PoolConfig;
///
/// let cfg = PoolConfig::new("general", 32).queue_capacity(1024);
/// assert_eq!(cfg.workers, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Human-readable pool name, used in thread names and stats output.
    pub name: String,
    /// Number of worker threads.
    pub workers: usize,
    /// Queue capacity; `usize::MAX` (the default) means unbounded, which
    /// matches the CherryPy queue the paper builds on.
    pub queue: usize,
}

impl PoolConfig {
    /// Creates a configuration with an unbounded queue.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(name: impl Into<String>, workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        PoolConfig {
            name: name.into(),
            workers,
            queue: usize::MAX,
        }
    }

    /// Bounds the job queue.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue = capacity;
        self
    }
}

/// Error returned by [`WorkerPool::submit`] when the pool is shutting
/// down; hands the job back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitError<J>(pub J);

impl<J> fmt::Display for SubmitError<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool is shut down")
    }
}

impl<J: fmt::Debug> Error for SubmitError<J> {}

/// Shared observable state of a pool.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Jobs fully processed.
    pub completed: Counter,
    /// Handler invocations that panicked (the worker survives).
    pub panicked: Counter,
    /// Workers currently executing a job.
    pub busy: Gauge,
    /// Jobs refused because the queue was at capacity (shed load, see
    /// [`WorkerPool::try_submit`]). Overload must be observable, not
    /// silent.
    pub rejected: Counter,
}

/// A fixed-size pool of worker threads consuming typed jobs from a
/// shared [`SyncQueue`].
///
/// Each worker owns private state built by a factory at spawn time —
/// this is how the paper's rule that *database connections belong only
/// to dynamic-request threads* is expressed: the dynamic pools' state
/// factory checks a connection out of the database pool, while the
/// static/render pools' factory builds connection-less state.
///
/// The pool exposes the live spare-thread count
/// ([`WorkerPool::spare_threads`]), which for the general dynamic pool
/// is the paper's `t_spare` input to the reserve controller.
///
/// # Examples
///
/// ```
/// use staged_pool::{PoolConfig, WorkerPool};
///
/// let pool = WorkerPool::new(
///     PoolConfig::new("printers", 2),
///     |worker_index| worker_index,
///     |state, job: String| {
///         let _ = (state, job);
///     },
/// );
/// pool.submit("hello".to_string()).unwrap();
/// pool.shutdown();
/// ```
pub struct WorkerPool<J: Send + 'static> {
    queue: Arc<SyncQueue<J>>,
    stats: Arc<PoolStats>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    name: String,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns the pool.
    ///
    /// `make_state` runs once per worker **on the calling thread** (so it
    /// may borrow from the environment) and its result is moved into the
    /// worker. `handler` runs on the worker for every job; a panicking
    /// handler is caught, counted in [`PoolStats::panicked`], and the
    /// worker keeps serving.
    pub fn new<S, F, H>(config: PoolConfig, make_state: F, handler: H) -> Self
    where
        S: Send + 'static,
        F: FnMut(usize) -> S,
        H: Fn(&mut S, J) + Send + Sync + 'static,
    {
        let queue = Arc::new(if config.queue == usize::MAX {
            // lint: allow(unbounded_queue) — usize::MAX is the caller's
            // explicit opt-out; every server config states a real bound.
            SyncQueue::unbounded()
        } else {
            SyncQueue::bounded(config.queue)
        });
        Self::with_queue(queue, config, make_state, handler)
    }

    /// Spawns the pool around an externally created queue, so other
    /// components can hold a submission handle before (or independently
    /// of) the pool itself — the staged server wires its five pools
    /// together this way. `config.queue` is ignored.
    pub fn with_queue<S, F, H>(
        queue: Arc<SyncQueue<J>>,
        config: PoolConfig,
        make_state: F,
        handler: H,
    ) -> Self
    where
        S: Send + 'static,
        F: FnMut(usize) -> S,
        H: Fn(&mut S, J) + Send + Sync + 'static,
    {
        Self::with_parts(
            queue,
            Arc::new(PoolStats::default()),
            config,
            make_state,
            handler,
        )
    }

    /// Spawns the pool around an externally created queue **and** stats
    /// block, so observers can hold the busy gauge before the pool
    /// exists (the staged server's `t_spare` reader does this).
    pub fn with_parts<S, F, H>(
        queue: Arc<SyncQueue<J>>,
        stats: Arc<PoolStats>,
        config: PoolConfig,
        mut make_state: F,
        handler: H,
    ) -> Self
    where
        S: Send + 'static,
        F: FnMut(usize) -> S,
        H: Fn(&mut S, J) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let mut workers = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let handler = Arc::clone(&handler);
            let mut state = make_state(index);
            let thread_name = format!("{}-{}", config.name, index);
            let handle = thread::Builder::new()
                .name(thread_name)
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        stats.busy.increment();
                        let outcome =
                            panic::catch_unwind(AssertUnwindSafe(|| handler(&mut state, job)));
                        stats.busy.decrement();
                        match outcome {
                            Ok(()) => stats.completed.increment(),
                            Err(_) => stats.panicked.increment(),
                        }
                    }
                })
                .expect("failed to spawn pool worker thread");
            workers.push(handle);
        }
        WorkerPool {
            queue,
            stats,
            workers,
            size: config.workers,
            name: config.name,
        }
    }

    /// Enqueues a job, blocking if the queue is bounded and full.
    ///
    /// **Never call this from an accept/listener path.** A blocking
    /// submit on a full queue stalls the accept loop, so new
    /// connections back up in the kernel instead of being shed with an
    /// overload response — the meltdown mode bounded queues exist to
    /// prevent. Listener threads must use [`WorkerPool::try_submit`]
    /// and shed on error. Debug builds assert the calling thread is not
    /// named like a listener.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] (with the job) if the pool has been shut
    /// down.
    pub fn submit(&self, job: J) -> Result<(), SubmitError<J>> {
        debug_assert!(
            !thread::current()
                .name()
                .is_some_and(|n| n.contains("listener")),
            "blocking submit called from a listener thread; use try_submit and shed"
        );
        self.queue
            .push(job)
            .map_err(|e| SubmitError(e.into_inner()))
    }

    /// Enqueues a job without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] if the queue is full or the pool is shut
    /// down — callers that must not block (the listener thread) use this
    /// and shed load on error. A capacity rejection is counted in
    /// [`PoolStats::rejected`]; a shutdown rejection is not (that is
    /// drain, not overload).
    pub fn try_submit(&self, job: J) -> Result<(), SubmitError<J>> {
        match self.queue.try_push(job) {
            Ok(()) => Ok(()),
            Err(PushError::Full(j)) => {
                self.stats.rejected.increment();
                Err(SubmitError(j))
            }
            Err(PushError::Closed(j)) => Err(SubmitError(j)),
        }
    }

    /// Number of jobs waiting in the queue (not yet picked up).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Largest queue length observed so far.
    pub fn peak_queue_len(&self) -> usize {
        self.queue.peak_len()
    }

    /// Number of workers currently executing a job.
    pub fn busy_threads(&self) -> usize {
        usize::try_from(self.stats.busy.value().max(0)).unwrap_or(0)
    }

    /// Number of idle workers — the paper's `t_spare` when called on the
    /// general dynamic pool.
    pub fn spare_threads(&self) -> usize {
        self.size.saturating_sub(self.busy_threads())
    }

    /// Total number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The pool's configured name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Observable statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// A shareable handle to the statistics, for components (like the
    /// reserve controller) that outlive borrows of the pool.
    pub fn stats_handle(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    /// A shareable handle to the job queue, for producers wired up
    /// independently of the pool (see [`WorkerPool::with_queue`]).
    pub fn queue_handle(&self) -> Arc<SyncQueue<J>> {
        Arc::clone(&self.queue)
    }

    /// Jobs completed so far (convenience for `stats().completed`).
    pub fn completed(&self) -> u64 {
        self.stats.completed.value()
    }

    /// Closes the queue and waits for all workers to drain it and exit.
    pub fn shutdown(mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<J: Send + 'static> fmt::Debug for WorkerPool<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("name", &self.name)
            .field("size", &self.size)
            .field("queue_len", &self.queue_len())
            .field("busy", &self.busy_threads())
            .finish()
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Close the queue so workers exit; do not join in drop (joining
        // is `shutdown`'s job — destructors must not block, C-DTOR-BLOCK).
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "a pool needs at least one worker")]
    fn zero_workers_rejected() {
        let _ = PoolConfig::new("empty", 0);
    }

    #[test]
    fn processes_all_jobs() {
        let sum = Arc::new(AtomicUsize::new(0));
        let sum2 = Arc::clone(&sum);
        let pool = WorkerPool::new(
            PoolConfig::new("t", 4),
            |_| (),
            move |_, n: usize| {
                sum2.fetch_add(n, Ordering::Relaxed);
            },
        );
        for n in 0..1000 {
            pool.submit(n).unwrap();
        }
        pool.shutdown();
        assert_eq!(sum.load(Ordering::Relaxed), 499_500); // lint: allow(relaxed)
    }

    #[test]
    fn worker_state_is_private_and_indexed() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let pool = WorkerPool::new(
            PoolConfig::new("stateful", 3),
            |i| i,
            move |state, _job: ()| {
                staged_sync::lock_recover(&seen2).push(*state);
            },
        );
        for _ in 0..30 {
            pool.submit(()).unwrap();
        }
        pool.shutdown();
        let seen = staged_sync::lock_recover(&seen);
        assert_eq!(seen.len(), 30);
        assert!(seen.iter().all(|&i| i < 3));
    }

    #[test]
    fn panicking_handler_does_not_kill_worker() {
        let pool = WorkerPool::new(
            PoolConfig::new("flaky", 1),
            |_| (),
            |_, fail: bool| {
                if fail {
                    panic!("boom");
                }
            },
        );
        pool.submit(true).unwrap();
        pool.submit(false).unwrap();
        pool.submit(false).unwrap();
        // Allow processing to finish before shutdown to check counters.
        while pool.completed() + pool.stats().panicked.value() < 3 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.stats().panicked.value(), 1);
        assert_eq!(pool.completed(), 2);
        pool.shutdown();
    }

    #[test]
    fn spare_threads_reflects_busy_workers() {
        let gate = Arc::new(SyncQueue::<()>::unbounded());
        let gate2 = Arc::clone(&gate);
        let pool = WorkerPool::new(
            PoolConfig::new("block", 4),
            |_| (),
            move |_, _: ()| {
                gate2.pop();
            },
        );
        assert_eq!(pool.spare_threads(), 4);
        pool.submit(()).unwrap();
        pool.submit(()).unwrap();
        // Wait for both workers to pick the jobs up.
        while pool.busy_threads() < 2 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.spare_threads(), 2);
        gate.push(()).unwrap();
        gate.push(()).unwrap();
        while pool.busy_threads() > 0 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.spare_threads(), 4);
        pool.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let pool: WorkerPool<u8> = WorkerPool::new(PoolConfig::new("gone", 1), |_| (), |_, _| {});
        pool.shutdown();
        // A new pool dropped (not shut down) also rejects submits once dropped:
        let stats;
        {
            let pool: WorkerPool<u8> = WorkerPool::new(PoolConfig::new("d", 1), |_| (), |_, _| {});
            stats = Arc::clone(&pool.stats);
            pool.submit(1).unwrap();
            while stats.completed.value() < 1 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(stats.completed.value(), 1);
    }

    #[test]
    fn bounded_try_submit_sheds_load() {
        let gate = Arc::new(SyncQueue::<()>::unbounded());
        let gate2 = Arc::clone(&gate);
        let pool = WorkerPool::new(
            PoolConfig::new("small", 1).queue_capacity(1),
            |_| (),
            move |_, _: ()| {
                gate2.pop();
            },
        );
        pool.submit(()).unwrap(); // picked up by the worker
        while pool.busy_threads() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        pool.try_submit(()).unwrap(); // fills the queue
        assert!(pool.try_submit(()).is_err()); // shed
        gate.push(()).unwrap();
        gate.push(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn rejected_counter_tracks_capacity_sheds_only() {
        let gate = Arc::new(SyncQueue::<()>::unbounded());
        let gate2 = Arc::clone(&gate);
        let pool = WorkerPool::new(
            PoolConfig::new("shed-count", 1).queue_capacity(1),
            |_| (),
            move |_, _: ()| {
                gate2.pop();
            },
        );
        pool.submit(()).unwrap();
        while pool.busy_threads() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        pool.try_submit(()).unwrap(); // fills the queue
        assert!(pool.try_submit(()).is_err());
        assert!(pool.try_submit(()).is_err());
        assert_eq!(pool.stats().rejected.value(), 2);
        gate.push(()).unwrap();
        gate.push(()).unwrap();
        let stats = pool.stats_handle();
        pool.shutdown();
        // A post-shutdown rejection is drain, not overload.
        assert_eq!(stats.rejected.value(), 2);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    // NB: the test name must not contain "listener" — the harness names
    // the test thread after the test, which would trip the guard itself.
    fn blocking_submit_from_accept_thread_asserts() {
        let pool: WorkerPool<u8> =
            WorkerPool::new(PoolConfig::new("guarded", 1), |_| (), |_, _| {});
        let pool = Arc::new(pool);
        let p = Arc::clone(&pool);
        let result = thread::Builder::new()
            .name("test-listener".to_string())
            .spawn(move || p.submit(1))
            .unwrap()
            .join();
        assert!(
            result.is_err(),
            "submit from a *listener thread must trip the debug assertion"
        );
        // Non-listener threads are unaffected.
        pool.submit(2).unwrap();
    }

    #[test]
    fn debug_is_nonempty() {
        let pool: WorkerPool<u8> = WorkerPool::new(PoolConfig::new("dbg", 1), |_| (), |_, _| {});
        let repr = format!("{pool:?}");
        assert!(repr.contains("dbg"));
        pool.shutdown();
    }
}
