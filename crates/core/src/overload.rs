//! Overload-control and fault-injection machinery shared by both
//! servers: the shed (`503`) response and the worker-owned database
//! slot that survives connection death.

use staged_db::{ConnectionPool, PooledConnection, ReadSet};
use staged_http::{Response, StatusCode};
use staged_sync::{OrderedMutex, Rank};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Rank of the retry estimator's sample window (DESIGN.md §10).
const SAMPLES_RANK: Rank = Rank::new(110);

/// The well-formed shed response: `503 Service Unavailable` with a
/// `Retry-After` hint and `Connection: close` (a shed connection is
/// never requeued — its next request would likely be shed too).
pub(crate) fn overload_response(retry_after: Duration) -> Response {
    let mut resp = Response::error(StatusCode::SERVICE_UNAVAILABLE);
    resp.headers_mut()
        .set("Retry-After", retry_after.as_secs().max(1).to_string());
    resp.set_close();
    resp
}

/// Most bytes [`drain_before_close`] will swallow before giving up on
/// a lingering client.
pub(crate) const DRAIN_MAX_BYTES: usize = 64 * 1024;

/// Longest [`drain_before_close`] will spend draining, wall-clock.
pub(crate) const DRAIN_MAX_WAIT: Duration = Duration::from_millis(200);

/// Discards whatever request bytes are still unread before a shed
/// connection is closed. Closing a socket with unread input makes the
/// kernel answer with `RST`, which can destroy the very `503` sitting
/// in the client's receive path; a short lingering drain lets the
/// client take the response and close first.
///
/// The drain is bounded twice over — [`DRAIN_MAX_BYTES`] total and
/// [`DRAIN_MAX_WAIT`] wall-clock — so a client trickling an enormous
/// body cannot pin a worker that is trying to shed load.
pub(crate) fn drain_before_close(stream: &mut std::net::TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let started = Instant::now();
    let mut remaining = DRAIN_MAX_BYTES;
    let mut scratch = [0u8; 1024];
    while remaining > 0 && started.elapsed() < DRAIN_MAX_WAIT {
        match std::io::Read::read(stream, &mut scratch) {
            Ok(n) if n > 0 => remaining = remaining.saturating_sub(n),
            _ => break,
        }
    }
}

/// Lower clamp on the adaptive `Retry-After` estimate, and the advice
/// while no drain rate is measurable yet.
pub(crate) const RETRY_AFTER_FLOOR: Duration = Duration::from_secs(1);

/// Upper clamp on the adaptive `Retry-After` estimate.
pub(crate) const MAX_RETRY_AFTER: Duration = Duration::from_secs(30);

/// How much completion history [`RetryEstimator::advise`] keeps.
const RETRY_SAMPLE_WINDOW: Duration = Duration::from_secs(5);

/// Derives the `Retry-After` advertised on shed responses from the
/// measured drain rate — *queue depth ÷ recent completion rate* — so a
/// briefly saturated server invites clients back quickly while a deep
/// backlog pushes them further out, instead of advertising one fixed
/// constant regardless of conditions.
///
/// Completion-rate samples are taken on each call (sheds are exactly
/// when the estimate is needed), over a sliding ~5 s window. With no
/// measurable drain yet — cold start, or a stalled server — the floor
/// is advertised. Estimates clamp to
/// `[RETRY_AFTER_FLOOR, MAX_RETRY_AFTER]`.
pub(crate) struct RetryEstimator {
    depth: Box<dyn Fn() -> usize + Send + Sync>,
    completed: Box<dyn Fn() -> u64 + Send + Sync>,
    samples: OrderedMutex<VecDeque<(Instant, u64)>>,
}

impl RetryEstimator {
    pub(crate) fn new(
        depth: Box<dyn Fn() -> usize + Send + Sync>,
        completed: Box<dyn Fn() -> u64 + Send + Sync>,
    ) -> Self {
        RetryEstimator {
            depth,
            completed,
            samples: OrderedMutex::new(SAMPLES_RANK, "core.overload.samples", VecDeque::new()),
        }
    }

    /// The current `Retry-After` advice.
    pub(crate) fn advise(&self) -> Duration {
        let now = Instant::now();
        let total = (self.completed)();
        let mut samples = self.samples.lock();
        samples.push_back((now, total));
        while samples.len() > 1 {
            let (t, _) = samples[0];
            if now.duration_since(t) > RETRY_SAMPLE_WINDOW || samples.len() > 64 {
                samples.pop_front();
            } else {
                break;
            }
        }
        let (first_t, first_total) = samples[0];
        let elapsed = now.duration_since(first_t);
        drop(samples);
        if elapsed < Duration::from_millis(50) || total <= first_total {
            // No measurable drain: fall back to the floor.
            return RETRY_AFTER_FLOOR;
        }
        let rate = (total - first_total) as f64 / elapsed.as_secs_f64();
        let depth = (self.depth)() as f64;
        let estimate = Duration::from_secs_f64((depth / rate).max(0.0));
        estimate.clamp(RETRY_AFTER_FLOOR, MAX_RETRY_AFTER)
    }
}

/// Re-checkout attempts (with backoff) before a request whose
/// connection died is answered `503`.
const DB_ACQUIRE_RETRIES: u32 = 2;

/// A dynamic worker's database connection slot. The paper's contract —
/// each dynamic worker *owns* a connection for its lifetime — meets
/// fault injection here: when the owned connection dies (
/// [`PooledConnection::is_dead`]), the slot discards it and checks a
/// replacement out with a bounded, backed-off wait instead of blocking
/// the worker forever on an exhausted pool.
pub(crate) struct DbSlot {
    pool: ConnectionPool,
    conn: Option<PooledConnection>,
    acquire_timeout: Duration,
    /// Whether the current request wants its read set collected. Kept
    /// on the slot (not just the connection) so a replacement
    /// connection checked out mid-request re-arms tracking — otherwise
    /// the retried handler's reads would go unrecorded and a cache
    /// entry could be tagged with an incomplete dependency set.
    track_reads: bool,
}

impl DbSlot {
    /// Checks the worker's initial connection out, blocking like the
    /// original design did — at startup the pool is sized to cover
    /// every dynamic worker, so this returns immediately.
    pub(crate) fn new(pool: &ConnectionPool, acquire_timeout: Duration) -> Self {
        DbSlot {
            conn: Some(pool.get()),
            pool: pool.clone(),
            acquire_timeout,
            track_reads: false,
        }
    }

    /// Starts read-set collection for the current request; any
    /// connection the slot hands out until [`DbSlot::take_read_set`]
    /// tracks its statements.
    pub(crate) fn begin_read_tracking(&mut self) {
        self.track_reads = true;
        if let Some(conn) = &self.conn {
            conn.begin_read_tracking();
        }
    }

    /// Ends collection and returns what the request read. `None` when
    /// tracking never started *or* the tracking connection was lost
    /// mid-request (callers must then skip caching or tag
    /// conservatively — an incomplete set must never tag an entry).
    pub(crate) fn take_read_set(&mut self) -> Option<ReadSet> {
        self.track_reads = false;
        self.conn.as_ref().and_then(|c| c.take_read_set())
    }

    /// The live connection, replacing a dead one if needed. Returns
    /// `None` when the pool stays starved through every retry — the
    /// request should be answered `503`, not block the stage.
    pub(crate) fn conn(&mut self) -> Option<&PooledConnection> {
        if self.conn.as_ref().is_some_and(|c| c.is_dead()) {
            self.conn = None;
        }
        if self.conn.is_none() {
            for attempt in 0..=DB_ACQUIRE_RETRIES {
                if attempt > 0 {
                    std::thread::sleep(Duration::from_millis(2u64 << attempt.min(6)));
                }
                if let Some(fresh) = self.pool.get_timeout(self.acquire_timeout) {
                    if self.track_reads {
                        // Re-arm tracking on the replacement: the retried
                        // handler's reads are the ones that produce the
                        // response that may be cached.
                        fresh.begin_read_tracking();
                    }
                    self.conn = Some(fresh);
                    break;
                }
            }
        }
        self.conn.as_ref()
    }

    /// Discards the held connection so the next [`DbSlot::conn`] call
    /// checks a fresh one out.
    pub(crate) fn invalidate(&mut self) {
        self.conn = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_db::Database;
    use std::sync::Arc;

    #[test]
    fn shed_response_is_wellformed() {
        let resp = overload_response(Duration::from_secs(2));
        assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers().get("retry-after"), Some("2"));
        assert_eq!(resp.headers().get("connection"), Some("close"));
        let bytes = resp.to_bytes();
        assert!(bytes.starts_with(b"HTTP/1.1 503 "));
    }

    #[test]
    fn shed_retry_after_is_at_least_one_second() {
        let resp = overload_response(Duration::from_millis(10));
        assert_eq!(resp.headers().get("retry-after"), Some("1"));
    }

    #[test]
    fn retry_estimator_falls_back_to_floor_when_cold() {
        let est = RetryEstimator::new(Box::new(|| 100), Box::new(|| 0));
        assert_eq!(est.advise(), RETRY_AFTER_FLOOR);
        assert_eq!(est.advise(), RETRY_AFTER_FLOOR, "no completions yet");
    }

    #[test]
    fn retry_estimator_scales_with_backlog_and_drain_rate() {
        use staged_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
        let completed = Arc::new(AtomicU64::new(0));
        let depth = Arc::new(AtomicUsize::new(5_000));
        let est = RetryEstimator::new(
            Box::new({
                let d = Arc::clone(&depth);
                move || d.load(Ordering::Relaxed) // lint: allow(relaxed)
            }),
            Box::new({
                let c = Arc::clone(&completed);
                move || c.load(Ordering::Relaxed) // lint: allow(relaxed)
            }),
        );
        est.advise(); // first sample
        std::thread::sleep(Duration::from_millis(80));
        completed.store(40, Ordering::Relaxed); // ~500/s drain rate // lint: allow(relaxed)
        let advice = est.advise();
        assert!(
            advice > Duration::from_secs(2),
            "deep backlog must push clients out: {advice:?}"
        );
        assert!(advice <= MAX_RETRY_AFTER);

        // A much larger backlog clamps at the maximum.
        depth.store(usize::MAX / 2, Ordering::Relaxed); // lint: allow(relaxed)
        completed.store(80, Ordering::Relaxed); // lint: allow(relaxed)
        assert_eq!(est.advise(), MAX_RETRY_AFTER);

        // A shallow backlog drains fast: advice returns to the floor.
        depth.store(1, Ordering::Relaxed); // lint: allow(relaxed)
        completed.store(120, Ordering::Relaxed); // lint: allow(relaxed)
        assert_eq!(est.advise(), RETRY_AFTER_FLOOR);
    }

    #[test]
    fn drain_before_close_is_bounded_against_trickling_clients() {
        use std::io::Write;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            let chunk = [0u8; 4096];
            // Trickle far more than the byte cap, for longer than the
            // wall-clock cap.
            for _ in 0..400 {
                if client.write_all(&chunk).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        drain_before_close(&mut stream);
        let elapsed = started.elapsed();
        drop(stream);
        assert!(
            elapsed < DRAIN_MAX_WAIT + Duration::from_millis(300),
            "drain pinned the worker for {elapsed:?}"
        );
        writer.join().unwrap();
    }

    #[test]
    fn db_slot_replaces_dead_connection() {
        let pool = ConnectionPool::new(Arc::new(Database::new()), 2);
        let mut slot = DbSlot::new(&pool, Duration::from_millis(50));
        assert!(!slot.conn().expect("initial checkout").is_dead());
        slot.invalidate();
        assert!(
            !slot.conn().expect("re-checkout").is_dead(),
            "the slot recovers a live connection"
        );
    }

    #[test]
    fn db_slot_reports_starvation() {
        let pool = ConnectionPool::new(Arc::new(Database::new()), 1);
        let held = pool.get(); // exhaust the pool
        let mut slot = DbSlot {
            pool: pool.clone(),
            conn: None,
            acquire_timeout: Duration::from_millis(10),
            track_reads: false,
        };
        assert!(slot.conn().is_none(), "starved pool must not block forever");
        drop(held);
        assert!(slot.conn().is_some(), "recovers once the pool frees up");
    }
}
