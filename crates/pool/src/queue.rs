//! A bounded, instrumented, closable synchronized FIFO queue.

use staged_metrics::Histogram;
use staged_sync::{assert_no_locks_held, Condvar, OrderedMutex, Rank};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error returned by [`SyncQueue::push`] and [`SyncQueue::try_push`]
/// when the item cannot be enqueued. The rejected item is handed back so
/// the caller can redirect it (e.g. send an overload response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue has been closed; no further items are accepted.
    Closed(T),
    /// The queue is at capacity (only returned by `try_push`).
    Full(T),
}

impl<T> PushError<T> {
    /// Recovers the item that could not be enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Closed(t) | PushError::Full(t) => t,
        }
    }
}

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Closed(_) => write!(f, "queue is closed"),
            PushError::Full(_) => write!(f, "queue is full"),
        }
    }
}

impl<T: fmt::Debug> Error for PushError<T> {}

/// Error returned by [`SyncQueue::try_pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPopError {
    /// The queue is currently empty but still open.
    Empty,
    /// The queue is closed and fully drained.
    Closed,
}

impl fmt::Display for TryPopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryPopError::Empty => write!(f, "queue is empty"),
            TryPopError::Closed => write!(f, "queue is closed and drained"),
        }
    }
}

impl Error for TryPopError {}

#[derive(Debug)]
struct State<T> {
    /// Each item carries its enqueue timestamp so the pop paths can
    /// record queue wait into `wait_hist`.
    items: VecDeque<(T, Instant)>,
    /// Direct-handoff slot: a pushed item parked here bypasses the
    /// deque when an idle popper is already waiting. Only occupied
    /// while `items` is empty, so it always holds the oldest item and
    /// every pop path drains it first — FIFO order is preserved.
    handoff: Option<(T, Instant)>,
    /// Poppers currently blocked in `wait`. Registered under the lock
    /// before the wait and deregistered after, so `idle == 0` proves no
    /// popper needs a wake-up and the push path can skip the condvar.
    idle: usize,
    closed: bool,
    /// Optional per-stage queue-wait histogram, attached at server
    /// start via [`SyncQueue::set_wait_histogram`]. Recording happens
    /// *after* the state lock is released (histogram rank 420 sits
    /// below queue rank 500 in the lock order).
    wait_hist: Option<Arc<Histogram>>,
}

/// Rank of every queue's internal state lock (DESIGN.md §10). Queue
/// state is the innermost lock in the workspace: it is only ever taken
/// by the queue's own methods, and the blocking entry points assert
/// that no other ordered lock is held at all.
const STATE_RANK: Rank = Rank::new(500);

impl<T> State<T> {
    fn queued(&self) -> usize {
        self.items.len() + usize::from(self.handoff.is_some())
    }

    fn take_next(&mut self) -> Option<(T, Instant)> {
        self.handoff.take().or_else(|| self.items.pop_front())
    }
}

/// A bounded synchronized FIFO queue, the building block of every thread
/// pool in the paper's design ("Each thread pool waits on its own
/// synchronized queue", §3.2).
///
/// Semantics:
///
/// * [`SyncQueue::push`] blocks while the queue is at capacity;
/// * [`SyncQueue::pop`] blocks while the queue is empty, returning
///   `None` only once the queue is closed **and** drained — so closing is
///   a graceful drain, not an abort;
/// * length is observable at any time ([`SyncQueue::len`]), which is how
///   the Figure 7/8 queue traces are collected.
///
/// # Examples
///
/// ```
/// use staged_pool::SyncQueue;
///
/// let q = SyncQueue::bounded(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// q.close();
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct SyncQueue<T> {
    state: OrderedMutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> SyncQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        SyncQueue {
            state: OrderedMutex::new(
                STATE_RANK,
                "pool.sync_queue.state",
                State {
                    items: VecDeque::new(),
                    handoff: None,
                    idle: 0,
                    closed: false,
                    wait_hist: None,
                },
            ),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues under the lock, picking the fast path: if a popper is
    /// already parked and nothing is queued ahead, the item goes into
    /// the handoff slot and exactly one popper is woken; if poppers are
    /// parked behind a backlog it goes to the deque with a wake-up; and
    /// when every worker is busy (`idle == 0`) the condvar is skipped
    /// entirely — the next `pop` will find the item without waiting.
    // lint: hot_path — one enqueue per request per stage; no per-item
    // allocation beyond the deque's amortized growth.
    fn enqueue(&self, state: &mut State<T>, item: T) {
        let stamped = (item, Instant::now());
        let handoff_ok = staged_sync::mutant!("syncqueue_handoff_clobber" => {
            // broken: park in the handoff slot whenever a popper is
            // idle, clobbering an item already waiting there
            state.idle > 0
        } else {
            state.idle > 0 && state.handoff.is_none() && state.items.is_empty()
        });
        if handoff_ok {
            state.handoff = Some(stamped);
            self.not_empty.notify_one();
        } else {
            state.items.push_back(stamped);
            if state.idle > 0 {
                staged_sync::mutant!("syncqueue_skip_notify" => {
                    // broken: assume the popper will notice on its own
                } else {
                    self.not_empty.notify_one();
                });
            }
        }
    }
    // lint: end_hot_path

    /// Enqueues an item, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] (with the item) if the queue has
    /// been closed.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        assert_no_locks_held("SyncQueue::push");
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.queued() < self.capacity {
                self.enqueue(&mut state, item);
                return Ok(());
            }
            self.not_full.wait(&mut state);
        }
    }

    /// Enqueues an item without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] if at capacity or
    /// [`PushError::Closed`] if closed; both hand the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.queued() >= self.capacity {
            return Err(PushError::Full(item));
        }
        self.enqueue(&mut state, item);
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    ///
    /// Returns `None` once the queue is closed and fully drained — the
    /// worker-thread exit signal.
    pub fn pop(&self) -> Option<T> {
        assert_no_locks_held("SyncQueue::pop");
        let mut state = self.state.lock();
        loop {
            if let Some((item, queued_at)) = state.take_next() {
                self.not_full.notify_one();
                let hist = state.wait_hist.clone();
                drop(state);
                record_wait(hist, queued_at);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            self.not_empty.wait(&mut state);
            state.idle -= 1;
        }
    }

    /// Dequeues the oldest item, waiting at most `timeout`.
    ///
    /// Returns `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`TryPopError::Closed`] once closed and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<T>, TryPopError> {
        assert_no_locks_held("SyncQueue::pop_timeout");
        let mut state = self.state.lock();
        loop {
            if let Some((item, queued_at)) = state.take_next() {
                self.not_full.notify_one();
                let hist = state.wait_hist.clone();
                drop(state);
                record_wait(hist, queued_at);
                return Ok(Some(item));
            }
            if state.closed {
                return Err(TryPopError::Closed);
            }
            state.idle += 1;
            let timed_out = self.not_empty.wait_for(&mut state, timeout).timed_out();
            state.idle -= 1;
            if timed_out {
                // A push may have parked an item in the handoff slot for
                // this popper in the window between the timeout firing
                // and the lock being reacquired; don't strand it.
                if let Some((item, queued_at)) = state.take_next() {
                    self.not_full.notify_one();
                    let hist = state.wait_hist.clone();
                    drop(state);
                    record_wait(hist, queued_at);
                    return Ok(Some(item));
                }
                return Ok(None);
            }
        }
    }

    /// Dequeues the oldest item without blocking.
    ///
    /// # Errors
    ///
    /// [`TryPopError::Empty`] if open but empty, [`TryPopError::Closed`]
    /// if closed and drained.
    pub fn try_pop(&self) -> Result<T, TryPopError> {
        let mut state = self.state.lock();
        if let Some((item, queued_at)) = state.take_next() {
            self.not_full.notify_one();
            let hist = state.wait_hist.clone();
            drop(state);
            record_wait(hist, queued_at);
            return Ok(item);
        }
        if state.closed {
            Err(TryPopError::Closed)
        } else {
            Err(TryPopError::Empty)
        }
    }

    /// Attaches a queue-wait histogram: from now on every pop records
    /// the popped item's time-in-queue. Called once at server start,
    /// when the registry is assembled.
    pub fn set_wait_histogram(&self, hist: Arc<Histogram>) {
        self.state.lock().wait_hist = Some(hist);
    }

    /// Closes the queue: future pushes fail, and pops drain the backlog
    /// then return `None`.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current number of queued items (including one parked in the
    /// direct-handoff slot awaiting its woken popper).
    pub fn len(&self) -> usize {
        self.state.lock().queued()
    }

    /// Poppers currently parked waiting for work: the tests' barrier for
    /// a push that takes the handoff slot.
    #[cfg(test)]
    fn idle_poppers(&self) -> usize {
        self.state.lock().idle
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Records `queued_at`'s age into `hist`. Must be called with no queue
/// lock held: the histogram's rank (420) is below the queue state's
/// (500), so recording under the state lock would invert the order.
fn record_wait(hist: Option<Arc<Histogram>>, queued_at: Instant) {
    if let Some(h) = hist {
        h.record(queued_at.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    #[should_panic(expected = "queue capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = SyncQueue::<i32>::bounded(0);
    }

    #[test]
    fn fifo_order() {
        let q = SyncQueue::bounded(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn try_push_full() {
        let q = SyncQueue::bounded(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(v)) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn push_after_close_fails_with_item() {
        let q = SyncQueue::bounded(16);
        q.close();
        match q.push(42) {
            Err(PushError::Closed(v)) => assert_eq!(v, 42),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_none() {
        let q = SyncQueue::bounded(16);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(SyncQueue::bounded(16));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(20));
        q.push(7).unwrap();
        assert_eq!(h.join().unwrap(), Some(7));
    }

    #[test]
    fn push_blocks_until_pop() {
        let q = Arc::new(SyncQueue::bounded(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(2));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(1));
        h.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn pop_timeout_times_out() {
        let q = SyncQueue::<u8>::bounded(16);
        let got = q.pop_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn pop_timeout_closed() {
        let q = SyncQueue::<u8>::bounded(16);
        q.close();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            Err(TryPopError::Closed)
        );
    }

    #[test]
    fn try_pop_variants() {
        let q = SyncQueue::bounded(16);
        assert_eq!(q.try_pop(), Err(TryPopError::Empty));
        q.push(9).unwrap();
        assert_eq!(q.try_pop(), Ok(9));
        q.close();
        assert_eq!(q.try_pop(), Err(TryPopError::Closed));
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(SyncQueue::<u8>::bounded(16));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn direct_handoff_to_idle_popper() {
        let q = Arc::new(SyncQueue::bounded(16));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop());
        // Wait for the popper to actually park before pushing.
        for _ in 0..200 {
            if q.idle_poppers() == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(q.idle_poppers(), 1, "popper never parked");
        q.push(11).unwrap();
        assert_eq!(h.join().unwrap(), Some(11));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn no_handoff_when_no_popper_waits() {
        let q = SyncQueue::bounded(16);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.state.lock().handoff.is_none(), "no popper waits");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn handoff_counts_toward_capacity() {
        let q = Arc::new(SyncQueue::bounded(1));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        for _ in 0..200 {
            if q.idle_poppers() == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        q.push(1).unwrap();
        // Whether or not the popper has claimed the handoff yet, the
        // queue never exceeds its capacity of one.
        let overflow = q.try_push(2);
        let drained = h.join().unwrap().unwrap();
        assert_eq!(drained, Some(1));
        match overflow {
            Ok(()) => assert_eq!(q.pop(), Some(2)),
            Err(PushError::Full(v)) => assert_eq!(v, 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn fifo_preserved_across_handoff_and_backlog() {
        let q = Arc::new(SyncQueue::bounded(100));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        for i in 0..100 {
            q.push(i).unwrap();
            if i % 3 == 0 {
                // Give the consumer a chance to park so some pushes
                // take the handoff path and some hit the backlog.
                thread::sleep(Duration::from_micros(200));
            }
        }
        q.close();
        let got = h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn wait_histogram_records_one_sample_per_pop() {
        let q = SyncQueue::bounded(16);
        let hist = Arc::new(Histogram::new());
        q.set_wait_histogram(Arc::clone(&hist));
        q.push(1).unwrap();
        q.push(2).unwrap();
        thread::sleep(Duration::from_millis(5));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Ok(2));
        assert_eq!(hist.count(), 2);
        assert!(
            hist.min() >= Duration::from_millis(4),
            "wait should include queued time, got {:?}",
            hist.min()
        );
        // Items popped before attachment, or with no histogram, record
        // nothing — and a timeout pop records nothing either.
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Ok(None));
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn wait_histogram_covers_direct_handoff() {
        let q = Arc::new(SyncQueue::bounded(16));
        let hist = Arc::new(Histogram::new());
        q.set_wait_histogram(Arc::clone(&hist));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop());
        for _ in 0..200 {
            if q.idle_poppers() == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        q.push(11).unwrap();
        assert_eq!(h.join().unwrap(), Some(11));
        assert_eq!(q.len(), 0);
        assert_eq!(hist.count(), 1, "handoff path records wait too");
    }

    #[test]
    fn many_producers_many_consumers() {
        let q = Arc::new(SyncQueue::bounded(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..250 {
                        q.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap().len()).sum();
        assert_eq!(total, 1000);
    }
}
