//! Lightweight, lock-free-where-possible metrics for the staged-web
//! workspace.
//!
//! The paper's evaluation needs three kinds of measurements:
//!
//! * per-page **response-time statistics** (Table 3) — [`Summary`] and
//!   [`Histogram`];
//! * **completion counts** per page and per request class (Table 4,
//!   Figures 9/10) — [`Counter`] and [`TimeSeries`];
//! * **queue-length traces** sampled over time (Figures 7/8) —
//!   [`TimeSeries`] fed by a sampler in `staged-pool`.
//!
//! All types are `Send + Sync` and cheap to share behind an `Arc`.
//!
//! # Examples
//!
//! ```
//! use staged_metrics::{Counter, Histogram};
//! use std::time::Duration;
//!
//! let completed = Counter::new();
//! completed.increment();
//! assert_eq!(completed.value(), 1);
//!
//! let latency = Histogram::new();
//! latency.record(Duration::from_millis(3));
//! assert_eq!(latency.count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
mod registry;
mod snapshot;
mod summary;
mod timeseries;
mod trace;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramBuckets, HistogramSnapshot};
pub use registry::{
    valid_metric_name, validate_exposition, Collect, CounterRead, GaugeRead, Registry,
};
pub use snapshot::Snapshot;
pub use summary::{Summary, SummarySnapshot};
pub use timeseries::{SeriesPoint, TimeSeries};
pub use trace::{Stage, Trace, TraceEvent, TraceHub, TraceOutcome};
