//! Worker thread pools with per-worker state and busy accounting.

use crate::queue::SyncQueue;
use staged_metrics::{Counter, Gauge};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Shared observable state of a pool.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Jobs fully processed.
    pub completed: Counter,
    /// Handler invocations that panicked (the worker survives).
    pub panicked: Counter,
    /// Workers currently executing a job.
    pub busy: Gauge,
    /// Jobs refused because the queue was at capacity. The producer
    /// that sheds the job charges it here, so overload is observable,
    /// not silent.
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
/// Producers push onto the queue directly; the pool only owns the
/// threads that pop it. The paper's `t_spare` is not read from here:
/// the server's dispatcher keeps its own claim counter for the general
/// pool (`SpareThreads` in `staged-core`), so reading and claiming a
/// spare thread is one atomic step.
///
/// # Examples
///
/// ```
/// use staged_pool::{PoolStats, SyncQueue, WorkerPool};
/// use std::sync::Arc;
///
/// let queue = Arc::new(SyncQueue::bounded(16));
/// let stats = Arc::new(PoolStats::default());
/// let pool = WorkerPool::with_parts(
///     Arc::clone(&queue),
///     Arc::clone(&stats),
///     "printers",
///     2,
///     |worker_index| worker_index,
///     |state, job: String| {
///         let _ = (state, job);
///     },
/// );
/// queue.push("hello".to_string()).unwrap();
/// pool.shutdown();
/// assert_eq!(stats.completed.value(), 1);
/// ```
pub struct WorkerPool<J: Send + 'static> {
    queue: Arc<SyncQueue<J>>,
    workers: Vec<JoinHandle<()>>,
    name: String,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads named `{name}-{index}` around an
    /// externally created queue and stats block, so producers and
    /// observers can hold them before the pool exists.
    ///
    /// `make_state` runs once per worker **on the calling thread** (so it
    /// may borrow from the environment) and its result is moved into the
    /// worker. `handler` runs on the worker for every job; a panicking
    /// handler is caught, counted in [`PoolStats::panicked`], and the
    /// worker keeps serving.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_parts<S, F, H>(
        queue: Arc<SyncQueue<J>>,
        stats: Arc<PoolStats>,
        name: &str,
        workers: usize,
        mut make_state: F,
        handler: H,
    ) -> Self
    where
        S: Send + 'static,
        F: FnMut(usize) -> S,
        H: Fn(&mut S, J) + Send + Sync + 'static,
    {
        assert!(workers > 0, "a pool needs at least one worker");
        let handler = Arc::new(handler);
        let workers = (0..workers)
            .map(|index| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let handler = Arc::clone(&handler);
                let mut state = make_state(index);
                thread::Builder::new()
                    .name(format!("{name}-{index}"))
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
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        WorkerPool {
            queue,
            workers,
            name: name.to_string(),
        }
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
            .field("workers", &self.workers.len())
            .field("queue_len", &self.queue.len())
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

    /// A pool of `workers` threads on a fresh queue of `capacity`.
    fn spawn<S, J, F, H>(
        capacity: usize,
        workers: usize,
        make_state: F,
        handler: H,
    ) -> (Arc<SyncQueue<J>>, Arc<PoolStats>, WorkerPool<J>)
    where
        S: Send + 'static,
        J: Send + 'static,
        F: FnMut(usize) -> S,
        H: Fn(&mut S, J) + Send + Sync + 'static,
    {
        let queue = Arc::new(SyncQueue::bounded(capacity));
        let stats = Arc::new(PoolStats::default());
        let pool = WorkerPool::with_parts(
            Arc::clone(&queue),
            Arc::clone(&stats),
            "t",
            workers,
            make_state,
            handler,
        );
        (queue, stats, pool)
    }

    fn wait_until(done: impl Fn() -> bool) {
        while !done() {
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    #[should_panic(expected = "a pool needs at least one worker")]
    fn zero_workers_rejected() {
        let _ = spawn(1, 0, |_| (), |_, _: u8| {});
    }

    #[test]
    fn processes_all_jobs() {
        let sum = Arc::new(AtomicUsize::new(0));
        let sum2 = Arc::clone(&sum);
        let (queue, _, pool) = spawn(
            1000,
            4,
            |_| (),
            move |_, n: usize| {
                sum2.fetch_add(n, Ordering::Relaxed);
            },
        );
        for n in 0..1000 {
            queue.push(n).unwrap();
        }
        pool.shutdown();
        assert_eq!(sum.load(Ordering::Relaxed), 499_500); // lint: allow(relaxed)
    }

    #[test]
    fn worker_state_is_private_and_indexed() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let (queue, _, pool) = spawn(
            30,
            3,
            |i| i,
            move |state, _job: ()| {
                staged_sync::lock_recover(&seen2).push(*state);
            },
        );
        for _ in 0..30 {
            queue.push(()).unwrap();
        }
        pool.shutdown();
        let seen = staged_sync::lock_recover(&seen);
        assert_eq!(seen.len(), 30);
        assert!(seen.iter().all(|&i| i < 3));
    }

    #[test]
    fn panicking_handler_does_not_kill_worker() {
        let (queue, stats, pool) = spawn(
            3,
            1,
            |_| (),
            |_, fail: bool| {
                if fail {
                    panic!("boom");
                }
            },
        );
        queue.push(true).unwrap();
        queue.push(false).unwrap();
        queue.push(false).unwrap();
        // Allow processing to finish before shutdown to check counters.
        wait_until(|| stats.completed.value() + stats.panicked.value() >= 3);
        assert_eq!(stats.panicked.value(), 1);
        assert_eq!(stats.completed.value(), 2);
        pool.shutdown();
    }

    #[test]
    fn spare_threads_reflects_busy_workers() {
        let gate = Arc::new(SyncQueue::<()>::bounded(2));
        let gate2 = Arc::clone(&gate);
        let (queue, stats, pool) = spawn(
            2,
            4,
            |_| (),
            move |_, _: ()| {
                gate2.pop();
            },
        );
        let spare = || 4 - stats.busy.value();
        assert_eq!(spare(), 4);
        queue.push(()).unwrap();
        queue.push(()).unwrap();
        // Wait for both workers to pick the jobs up.
        wait_until(|| stats.busy.value() >= 2);
        assert_eq!(spare(), 2);
        gate.push(()).unwrap();
        gate.push(()).unwrap();
        wait_until(|| stats.busy.value() == 0);
        assert_eq!(spare(), 4);
        pool.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let (queue, _, pool) = spawn(1, 1, |_| (), |_, _: u8| {});
        pool.shutdown();
        assert!(queue.push(1).is_err());
        // A pool dropped (not shut down) also closes its queue, after
        // the jobs already queued are done.
        let (queue, stats, pool) = spawn(1, 1, |_| (), |_, _: u8| {});
        queue.push(1).unwrap();
        wait_until(|| stats.completed.value() >= 1);
        drop(pool);
        assert!(queue.try_push(2).is_err());
        assert_eq!(stats.completed.value(), 1);
    }

    #[test]
    fn bounded_try_submit_sheds_load() {
        let gate = Arc::new(SyncQueue::<()>::bounded(2));
        let gate2 = Arc::clone(&gate);
        let (queue, stats, pool) = spawn(
            1,
            1,
            |_| (),
            move |_, _: ()| {
                gate2.pop();
            },
        );
        queue.push(()).unwrap(); // picked up by the worker
        wait_until(|| stats.busy.value() >= 1);
        queue.try_push(()).unwrap(); // fills the queue
        assert!(queue.try_push(()).is_err()); // shed
        gate.push(()).unwrap();
        gate.push(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn debug_is_nonempty() {
        let queue = Arc::new(SyncQueue::bounded(1));
        let pool = WorkerPool::with_parts(
            queue,
            Arc::new(PoolStats::default()),
            "dbg",
            1,
            |_| (),
            |_, _: u8| {},
        );
        let repr = format!("{pool:?}");
        assert!(repr.contains("dbg"));
        pool.shutdown();
    }
}
