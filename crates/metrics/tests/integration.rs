//! Cross-type metrics scenarios: the measurement pipeline the
//! evaluation harness runs on.

use staged_metrics::{Counter, Gauge, Histogram, Summary, TimeSeries};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A miniature of the server's completion pipeline: many workers record
/// latencies and bump counters; the aggregates must be exact.
#[test]
fn concurrent_measurement_pipeline_is_exact() {
    let latency = Arc::new(Summary::new());
    let histogram = Arc::new(Histogram::new());
    let completed = Arc::new(Counter::new());
    let in_flight = Arc::new(Gauge::new());

    let handles: Vec<_> = (0..8)
        .map(|worker| {
            let latency = Arc::clone(&latency);
            let histogram = Arc::clone(&histogram);
            let completed = Arc::clone(&completed);
            let in_flight = Arc::clone(&in_flight);
            thread::spawn(move || {
                for i in 0..250u64 {
                    in_flight.increment();
                    let sample = Duration::from_micros(worker * 250 + i);
                    latency.record(sample);
                    histogram.record(sample);
                    completed.increment();
                    in_flight.decrement();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(completed.value(), 2000);
    assert_eq!(in_flight.value(), 0);
    let snap = latency.snapshot();
    assert_eq!(snap.count, 2000);
    // Sum of 0..2000 µs.
    assert_eq!(snap.sum_micros, (0..2000u128).sum::<u128>());
    assert_eq!(snap.min_micros, 0);
    assert_eq!(snap.max_micros, 1999);
    assert_eq!(histogram.count(), 2000);
    assert_eq!(histogram.max(), Duration::from_micros(1999));
    // p50 within bucket resolution of the true median (~1000µs).
    let p50 = histogram.quantile(0.5);
    assert!(p50 >= Duration::from_micros(512) && p50 <= Duration::from_micros(2048));
}

/// TimeSeries as used by the throughput figures: events recorded
/// across a warm-up restart land in the right window.
#[test]
fn warmup_restart_discards_rampup_events() {
    let series = TimeSeries::new(Duration::from_millis(10));
    for _ in 0..50 {
        series.increment(); // ramp-up traffic
    }
    assert_eq!(series.total(), 50.0);
    series.restart(); // measurement begins
    for _ in 0..30 {
        series.increment();
    }
    assert_eq!(series.total(), 30.0, "ramp-up events must be discarded");
}

/// Histograms and summaries agree on count and mean for identical
/// streams (histogram mean is exact, not bucketed).
#[test]
fn histogram_and_summary_agree() {
    let h = Histogram::new();
    let s = Summary::new();
    for us in [3u64, 17, 1000, 42, 99999, 7] {
        h.record(Duration::from_micros(us));
        s.record(Duration::from_micros(us));
    }
    assert_eq!(h.count(), s.count());
    assert_eq!(h.mean(), s.snapshot().mean());
    assert_eq!(h.min(), Duration::from_micros(3));
    assert_eq!(h.max(), Duration::from_micros(99999));
}

/// Counter reset is atomic with respect to concurrent increments: no
/// events are double-counted or lost across a reset boundary.
#[test]
fn counter_reset_loses_nothing() {
    let c = Arc::new(Counter::new());
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                for _ in 0..10_000 {
                    c.increment();
                }
            })
        })
        .collect();
    let mut harvested = 0u64;
    for _ in 0..50 {
        harvested += c.reset();
        thread::yield_now();
    }
    for w in writers {
        w.join().unwrap();
    }
    harvested += c.reset();
    assert_eq!(harvested, 40_000);
}
