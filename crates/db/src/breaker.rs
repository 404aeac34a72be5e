//! A circuit breaker for the database connection pool.
//!
//! The pool's fault plan (or a real outage) can push query failure
//! rates to the point where every dynamic request burns its deadline
//! waiting on a backend that cannot answer. The breaker watches query
//! outcomes through a rolling window and, past a failure-rate
//! threshold, **opens**: queries fail immediately with
//! [`DbError::CircuitOpen`](crate::DbError::CircuitOpen) and checkouts
//! stop blocking, so callers can shed with `503` without paying the
//! timeout. After a cooldown the breaker goes **half-open** and admits
//! a bounded budget of probe queries; if they all succeed it closes
//! again, and a single probe failure reopens it for another cooldown.

use staged_sync::atomic::{AtomicU64, Ordering};
use staged_sync::{OrderedMutex, Rank};
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// Rank of the breaker's state machine (DESIGN.md §10): above the
/// pool's breaker-handle lock, below the table locks — a pool thread
/// holding its breaker handle may still record an outcome here.
const STATE_RANK: Rank = Rank::new(220);

/// Tuning for a [`CircuitBreaker`].
///
/// # Examples
///
/// ```
/// use staged_db::BreakerConfig;
///
/// let cfg = BreakerConfig::default();
/// cfg.validate();
/// assert!(cfg.failure_threshold > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Rolling window of recent query outcomes the failure rate is
    /// computed over.
    pub window: usize,
    /// Failure fraction (`(0, 1]`) at which the breaker opens.
    pub failure_threshold: f64,
    /// Outcomes required in the window before the rate is trusted — a
    /// single failed query on a quiet server must not trip the breaker.
    pub min_samples: usize,
    /// How long the breaker stays open before admitting probes.
    pub cooldown: Duration,
    /// Concurrent probe queries admitted while half-open; all of them
    /// must succeed to close the breaker.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown: Duration::from_secs(1),
            half_open_probes: 2,
        }
    }
}

impl BreakerConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1]`, the window or probe
    /// budget is zero, or `min_samples` exceeds the window.
    pub fn validate(&self) {
        assert!(self.window > 0, "breaker window must not be empty");
        assert!(
            self.failure_threshold > 0.0 && self.failure_threshold <= 1.0,
            "breaker failure_threshold must be in (0, 1]"
        );
        assert!(
            self.min_samples > 0 && self.min_samples <= self.window,
            "breaker min_samples must be in [1, window]"
        );
        assert!(
            self.half_open_probes > 0,
            "breaker needs at least one half-open probe"
        );
    }
}

/// The three classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes feed the failure-rate window.
    Closed,
    /// Failing fast; queries are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed; a bounded probe budget decides open vs closed.
    HalfOpen,
}

impl BreakerState {
    /// Short label for health payloads and table output.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

enum Inner {
    Closed {
        /// Rolling outcome window, `true` = failure.
        outcomes: VecDeque<bool>,
        failures: usize,
    },
    Open {
        since: Instant,
    },
    HalfOpen {
        /// Probes admitted but not yet recorded.
        in_flight: u32,
        successes: u32,
    },
}

/// A per-pool circuit breaker (see the `breaker` module docs).
///
/// # Examples
///
/// ```
/// use staged_db::{BreakerConfig, BreakerState, CircuitBreaker};
/// use std::time::Duration;
///
/// let b = CircuitBreaker::new(BreakerConfig {
///     window: 4,
///     failure_threshold: 0.5,
///     min_samples: 2,
///     cooldown: Duration::from_millis(1),
///     half_open_probes: 1,
/// });
/// assert!(b.try_acquire());
/// b.record(false); // failure
/// assert!(b.try_acquire());
/// b.record(false); // failure rate 100% over 2 samples: trips
/// assert_eq!(b.state(), BreakerState::Open);
/// ```
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: OrderedMutex<Inner>,
    opened: AtomicU64,
    half_opened: AtomicU64,
    closed: AtomicU64,
    fast_failures: AtomicU64,
}

impl fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("state", &self.state())
            .field("opened_total", &self.opened_total())
            .finish()
    }
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent ([`BreakerConfig::validate`]).
    pub fn new(config: BreakerConfig) -> Self {
        config.validate();
        CircuitBreaker {
            config,
            inner: OrderedMutex::new(
                STATE_RANK,
                "db.breaker.state",
                Inner::Closed {
                    outcomes: VecDeque::with_capacity(config.window),
                    failures: 0,
                },
            ),
            opened: AtomicU64::new(0),
            half_opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            fast_failures: AtomicU64::new(0),
        }
    }

    /// The breaker's configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Asks to run one query. `true` admits it — the caller **must**
    /// follow up with [`CircuitBreaker::record`]. `false` means fail
    /// fast (counted in [`CircuitBreaker::fast_failures`]).
    pub fn try_acquire(&self) -> bool {
        let mut inner = self.inner.lock();
        match &mut *inner {
            Inner::Closed { .. } => true,
            Inner::Open { since } => {
                if since.elapsed() >= self.config.cooldown {
                    self.half_opened.fetch_add(1, Ordering::Relaxed);
                    *inner = Inner::HalfOpen {
                        in_flight: 1,
                        successes: 0,
                    };
                    true
                } else {
                    self.fast_failures.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
            Inner::HalfOpen { in_flight, .. } => {
                if *in_flight < self.config.half_open_probes {
                    *in_flight += 1;
                    true
                } else {
                    self.fast_failures.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Reports the outcome of an admitted query (`success == false`
    /// means an infrastructure failure: injected fault, lost
    /// connection).
    pub fn record(&self, success: bool) {
        let mut inner = self.inner.lock();
        match &mut *inner {
            Inner::Closed { outcomes, failures } => {
                outcomes.push_back(!success);
                if !success {
                    *failures += 1;
                }
                while outcomes.len() > self.config.window {
                    if outcomes.pop_front() == Some(true) {
                        *failures -= 1;
                    }
                }
                let samples = outcomes.len();
                if samples >= self.config.min_samples
                    && *failures as f64 / samples as f64 >= self.config.failure_threshold
                {
                    self.opened.fetch_add(1, Ordering::Relaxed);
                    *inner = Inner::Open {
                        since: Instant::now(),
                    };
                }
            }
            Inner::HalfOpen {
                in_flight,
                successes,
            } => {
                *in_flight = in_flight.saturating_sub(1);
                if success {
                    *successes += 1;
                    if *successes >= self.config.half_open_probes {
                        self.closed.fetch_add(1, Ordering::Relaxed);
                        *inner = Inner::Closed {
                            outcomes: VecDeque::with_capacity(self.config.window),
                            failures: 0,
                        };
                    }
                } else {
                    self.opened.fetch_add(1, Ordering::Relaxed);
                    *inner = Inner::Open {
                        since: Instant::now(),
                    };
                }
            }
            // A result from before the trip; the window it belonged to
            // is gone.
            Inner::Open { .. } => {}
        }
    }

    /// The current state (read-only: an elapsed cooldown still reports
    /// `Open` until a [`CircuitBreaker::try_acquire`] starts probing).
    pub fn state(&self) -> BreakerState {
        match &*self.inner.lock() {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::Open { .. } => BreakerState::Open,
            Inner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Whether connection checkout should fail fast *right now* (open
    /// and still cooling down). Half-open checkout proceeds so probe
    /// queries can run.
    pub fn checkout_blocked(&self) -> bool {
        match &*self.inner.lock() {
            Inner::Open { since } => since.elapsed() < self.config.cooldown,
            _ => false,
        }
    }

    /// Closed → open transitions (tripping *and* failed probes).
    pub fn opened_total(&self) -> u64 {
        self.opened.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Open → half-open transitions (cooldowns that elapsed).
    pub fn half_open_total(&self) -> u64 {
        self.half_opened.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Half-open → closed transitions (successful recoveries).
    pub fn closed_total(&self) -> u64 {
        self.closed.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Queries rejected without touching the database.
    pub fn fast_failures(&self) -> u64 {
        self.fast_failures.load(Ordering::Relaxed) // lint: allow(relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 2,
            cooldown: Duration::from_millis(20),
            half_open_probes: 2,
        }
    }

    fn run(b: &CircuitBreaker, success: bool) -> bool {
        if !b.try_acquire() {
            return false;
        }
        b.record(success);
        true
    }

    #[test]
    fn stays_closed_under_occasional_failures() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        for i in 0..100 {
            assert!(run(&b, i % 10 != 0), "admitted at {i}");
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opened_total(), 0);
    }

    #[test]
    fn trips_past_threshold_and_fails_fast() {
        let b = CircuitBreaker::new(fast_config());
        assert!(run(&b, false));
        assert!(run(&b, false));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opened_total(), 1);
        assert!(!b.try_acquire(), "open breaker rejects immediately");
        assert_eq!(b.fast_failures(), 1);
        assert!(b.checkout_blocked());
    }

    #[test]
    fn single_failure_below_min_samples_does_not_trip() {
        let b = CircuitBreaker::new(fast_config());
        assert!(run(&b, false));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probes_close_on_success() {
        let b = CircuitBreaker::new(fast_config());
        run(&b, false);
        run(&b, false);
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert!(!b.checkout_blocked(), "cooldown elapsed unblocks checkout");
        // Two probes admitted, a third rejected.
        assert!(b.try_acquire());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.try_acquire());
        assert!(!b.try_acquire(), "probe budget exhausted");
        b.record(true);
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closed_total(), 1);
        assert_eq!(b.half_open_total(), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(fast_config());
        run(&b, false);
        run(&b, false);
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.try_acquire());
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opened_total(), 2);
        assert!(!b.try_acquire(), "reopened breaker cools down again");
    }

    #[test]
    fn window_slides_old_failures_out() {
        let b = CircuitBreaker::new(BreakerConfig {
            window: 4,
            failure_threshold: 0.75,
            min_samples: 4,
            ..fast_config()
        });
        // Two failures, then enough successes to push them out of the
        // four-slot window (peak in-window rate is 2/4 < 0.75).
        run(&b, false);
        run(&b, false);
        for _ in 0..6 {
            run(&b, true);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Three fresh failures make the window [T, F, F, F]: trips.
        run(&b, false);
        run(&b, false);
        run(&b, false);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    #[should_panic(expected = "failure_threshold")]
    fn invalid_threshold_rejected() {
        BreakerConfig {
            failure_threshold: 0.0,
            ..BreakerConfig::default()
        }
        .validate();
    }

    #[test]
    fn late_results_after_trip_are_ignored() {
        let b = CircuitBreaker::new(fast_config());
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        b.record(false);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        // A straggler from before the trip must not corrupt the state.
        b.record(true);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opened_total(), 1);
    }
}
