//! The pluggable query cost model.

use std::time::{Duration, Instant};

/// Adds synthetic per-row latency to query execution.
///
/// The paper ran against a dedicated MySQL host with a one-million-item
/// database; at laptop scale our tables are ~100× smaller, so raw scans
/// are proportionally faster. `CostModel` restores the paper's latency
/// *shape* by charging a fixed cost per row scanned and per row written.
/// Indexed point lookups scan a handful of rows and stay fast; the
/// best-seller/new-product/search scans touch 10⁴–10⁵ rows and become
/// the paper's "lengthy" queries. The delay is injected **after the
/// statement's table locks are released** (`Database::execute_statement`;
/// DESIGN.md's substitution table says why): it occupies the
/// connection — the paper's precious resource — for as long as the
/// paper's queries ran, but never a table lock.
///
/// A zero model (the default) adds nothing.
///
/// # Examples
///
/// ```
/// use staged_db::CostModel;
///
/// let model = CostModel::new(2_000, 5_000); // 2µs per scanned row
/// assert_eq!(model.delay_for(1_000, 0), std::time::Duration::from_millis(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostModel {
    /// Nanoseconds charged per row scanned.
    pub scan_ns_per_row: u64,
    /// Nanoseconds charged per row written.
    pub write_ns_per_row: u64,
}

impl CostModel {
    /// Creates a cost model.
    pub fn new(scan_ns_per_row: u64, write_ns_per_row: u64) -> Self {
        CostModel {
            scan_ns_per_row,
            write_ns_per_row,
        }
    }

    /// A model that adds no latency.
    pub fn free() -> Self {
        Self::default()
    }

    /// The synthetic delay for a query that scanned and wrote the given
    /// numbers of rows.
    pub fn delay_for(&self, rows_scanned: u64, rows_written: u64) -> Duration {
        Duration::from_nanos(
            rows_scanned
                .saturating_mul(self.scan_ns_per_row)
                .saturating_add(rows_written.saturating_mul(self.write_ns_per_row)),
        )
    }

    /// Blocks the calling thread for [`CostModel::delay_for`]. Short
    /// delays spin; longer ones sleep — a sleeping thread models the
    /// paper's web-server threads blocking on the remote database host
    /// without burning local CPU.
    pub fn charge(&self, rows_scanned: u64, rows_written: u64) {
        let delay = self.delay_for(rows_scanned, rows_written);
        if delay.is_zero() {
            return;
        }
        if delay >= Duration::from_micros(50) {
            std::thread::sleep(delay);
        } else {
            let start = Instant::now();
            while start.elapsed() < delay {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_is_zero() {
        let m = CostModel::free();
        assert_eq!(m.delay_for(1_000_000, 1_000), Duration::ZERO);
    }

    #[test]
    fn delay_is_linear() {
        let m = CostModel::new(100, 1_000);
        assert_eq!(m.delay_for(10, 0), Duration::from_nanos(1_000));
        assert_eq!(m.delay_for(0, 3), Duration::from_micros(3));
        assert_eq!(m.delay_for(10, 3), Duration::from_nanos(4_000));
    }

    #[test]
    fn delay_saturates() {
        let m = CostModel::new(u64::MAX, 0);
        assert_eq!(m.delay_for(2, 0), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn charge_blocks_for_roughly_the_delay() {
        let m = CostModel::new(0, 500_000); // 0.5ms per write
        let start = Instant::now();
        m.charge(0, 2); // 1ms
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn charge_zero_returns_immediately() {
        CostModel::free().charge(u64::MAX, u64::MAX);
    }
}
