//! Population sizes.

use std::time::Duration;

/// Population sizes for the TPC-W database.
///
/// The paper's configuration is one million items, 2.88 million
/// customers, and 2.59 million orders against a dedicated database
/// host, with 0.7–7 s think times and hour-long runs. [`ScaleConfig`]
/// scales all of that down while preserving the ratios TPC-W fixes
/// (2.88 customers and 2.59 orders per item) and the behaviour the
/// scheduling method depends on: indexed lookups stay orders of
/// magnitude cheaper than the scan/aggregate pages. The time scale,
/// the emulated browsers and the server are the
/// [`Deployment`](crate::Deployment)'s.
///
/// # Examples
///
/// ```
/// use staged_tpcw::ScaleConfig;
///
/// let s = ScaleConfig::default();
/// assert_eq!(s.items, 10_000);
/// assert_eq!(s.customers, 28_800);
/// assert_eq!(s.orders, 25_900);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Number of books (paper: 1 000 000; default ×100 down).
    pub items: usize,
    /// Number of customers (paper: 2 880 000).
    pub customers: usize,
    /// Number of historical orders (paper: 2 590 000).
    pub orders: usize,
    /// Authors (TPC-W: items ÷ 4).
    pub authors: usize,
    /// Mean order lines per order (TPC-W: ~3).
    pub lines_per_order: usize,
    /// Static images to generate (item thumbnails etc.).
    pub images: usize,
    /// Bytes per generated image.
    pub image_bytes: usize,
    /// Emulated per-kilobyte template rendering cost (the paper's
    /// CPython/Django engine; see `AppBuilder::render_weight_per_kb`).
    /// Zero in every preset: [`Deployment::paper`](crate::Deployment::paper)
    /// sets the paper run's. This weight and [`ScaleConfig::static_weight`]
    /// move into [`Deployment`](crate::Deployment) once the repo
    /// benchmark's deployment reads it.
    pub render_weight_per_kb: Duration,
    /// Emulated per-response static service overhead (zero in every
    /// preset, like [`ScaleConfig::render_weight_per_kb`]).
    pub static_weight: Duration,
    /// RNG seed for deterministic population.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            items: 10_000,
            customers: 28_800,
            orders: 25_900,
            authors: 2_500,
            lines_per_order: 3,
            images: 1_000,
            image_bytes: 2_048,
            render_weight_per_kb: Duration::ZERO,
            static_weight: Duration::ZERO,
            seed: 0x7bc0_57a9,
        }
    }
}

impl ScaleConfig {
    /// A minimal configuration for unit and integration tests
    /// (hundreds of rows, sub-second population).
    pub fn tiny() -> Self {
        ScaleConfig {
            items: 100,
            customers: 288,
            orders: 259,
            authors: 25,
            lines_per_order: 3,
            images: 20,
            image_bytes: 256,
            ..ScaleConfig::default()
        }
    }

    /// A mid-size configuration for quick local experiments.
    pub fn small() -> Self {
        ScaleConfig {
            items: 1_000,
            customers: 2_880,
            orders: 2_590,
            authors: 250,
            images: 200,
            ..ScaleConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any population count is zero.
    pub fn validate(&self) {
        assert!(self.items > 0, "need at least one item");
        assert!(self.customers > 0, "need at least one customer");
        assert!(self.orders > 0, "need at least one order");
        assert!(self.authors > 0, "need at least one author");
        assert!(self.images > 0, "need at least one image");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preserves_tpcw_ratios() {
        let s = ScaleConfig::default();
        // TPC-W fixes 2.88 customers and 2.59 orders per item.
        assert!((s.customers as f64 / s.items as f64 - 2.88).abs() < 1e-9);
        assert!((s.orders as f64 / s.items as f64 - 2.59).abs() < 1e-9);
        s.validate();
    }

    #[test]
    fn presets_validate() {
        ScaleConfig::tiny().validate();
        ScaleConfig::small().validate();
    }

    #[test]
    #[should_panic(expected = "need at least one item")]
    fn zero_items_rejected() {
        let mut s = ScaleConfig::tiny();
        s.items = 0;
        s.validate();
    }
}
