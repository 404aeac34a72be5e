//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] makes a [`ConnectionPool`](crate::ConnectionPool)
//! misbehave in seeded, reproducible ways: a probabilistic per-query
//! error rate, added per-query latency, and periodic "connection death"
//! that forces the holder to check a fresh connection out. All decisions
//! are pure functions of `(seed, connection id, query sequence number)`,
//! so a chaos run replays identically given the same checkout order.

use std::time::Duration;

/// A reproducible misbehaviour schedule for database connections.
///
/// Install on a pool with
/// [`ConnectionPool::set_fault_plan`](crate::ConnectionPool::set_fault_plan);
/// every subsequent query consults the plan. The zero plan
/// ([`FaultPlan::none`]) injects nothing, so a plan can stay wired in
/// while being effectively off.
///
/// # Examples
///
/// ```
/// use staged_db::FaultPlan;
///
/// let plan = FaultPlan::seeded(42)
///     .error_rate(0.01)
///     .extra_latency(std::time::Duration::from_millis(1))
///     .death_period(1000);
/// assert!(plan.injects_something());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the same seed replays the same fault sequence.
    pub seed: u64,
    /// Probability in `[0, 1]` that a query fails with
    /// [`DbError::Injected`](crate::DbError::Injected).
    pub error_rate: f64,
    /// Synthetic latency added to every query (before execution).
    pub extra_latency: Duration,
    /// Every `death_period`-th query on a connection kills it
    /// (subsequent queries fail with
    /// [`DbError::ConnectionLost`](crate::DbError::ConnectionLost) until
    /// the holder re-checks-out). `0` disables connection death.
    pub death_period: u64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            error_rate: 0.0,
            extra_latency: Duration::ZERO,
            death_period: 0,
        }
    }

    /// A no-fault plan carrying a seed, ready for builder-style tuning.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the probabilistic query-error rate.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `[0, 1]`.
    pub fn error_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "error rate must be in [0, 1]");
        self.error_rate = rate;
        self
    }

    /// Sets the per-query added latency.
    pub fn extra_latency(mut self, latency: Duration) -> Self {
        self.extra_latency = latency;
        self
    }

    /// Sets the connection-death period (`0` = never).
    pub fn death_period(mut self, period: u64) -> Self {
        self.death_period = period;
        self
    }

    /// Whether any fault dimension is active.
    pub fn injects_something(&self) -> bool {
        self.error_rate > 0.0 || !self.extra_latency.is_zero() || self.death_period > 0
    }

    /// Whether the `seq`-th query on a connection kills it.
    pub fn kills_at(&self, seq: u64) -> bool {
        self.death_period > 0 && seq > 0 && seq.is_multiple_of(self.death_period)
    }

    /// Whether the `seq`-th query on connection `conn_id` fails with an
    /// injected error — a pure function of the seed.
    pub fn errors_at(&self, conn_id: u64, seq: u64) -> bool {
        if self.error_rate <= 0.0 {
            return false;
        }
        let x = splitmix64(
            self.seed
                .wrapping_add(conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
        );
        // Map the top 53 bits to [0, 1).
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.error_rate
    }
}

/// SplitMix64: a tiny, high-quality mixing function. Exposed so other
/// crates (e.g. the hostile-traffic fleets in `staged-bench`) can derive
/// deterministic per-event randomness from a seed without pulling in an
/// RNG dependency.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.injects_something());
        assert!(!plan.kills_at(0));
        assert!(!plan.kills_at(1_000_000));
        assert!(!plan.errors_at(1, 1));
    }

    #[test]
    fn death_period_is_periodic() {
        let plan = FaultPlan::seeded(7).death_period(10);
        assert!(!plan.kills_at(0), "checkout itself never kills");
        assert!(plan.kills_at(10));
        assert!(plan.kills_at(20));
        assert!(!plan.kills_at(11));
    }

    #[test]
    fn error_rate_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::seeded(99).error_rate(0.05);
        let hits: u64 = (0..20_000u64)
            .map(|seq| u64::from(plan.errors_at(3, seq)))
            .sum();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "measured rate {rate}");
        // Determinism: the same (conn, seq) always decides the same way.
        for seq in 0..100 {
            assert_eq!(plan.errors_at(3, seq), plan.errors_at(3, seq));
        }
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let a = FaultPlan::seeded(1).error_rate(0.5);
        let b = FaultPlan::seeded(2).error_rate(0.5);
        let differs = (0..64u64).any(|s| a.errors_at(0, s) != b.errors_at(0, s));
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "error rate must be in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::seeded(0).error_rate(1.5);
    }

    #[test]
    fn splitmix_spreads_bits() {
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff_ffff, b & 0xffff_ffff);
    }
}
