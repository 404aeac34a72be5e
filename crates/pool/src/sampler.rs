//! Background sampling of queue lengths into time series.

use staged_metrics::TimeSeries;
use staged_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

type GaugeFn = Box<dyn Fn() -> usize + Send + Sync>;

/// Periodically samples a set of named gauges (typically queue lengths)
/// into [`TimeSeries`], producing the traces behind the paper's
/// Figures 7 and 8. It samples once more when stopped, so a gauge that
/// reports the movement of a counter since its previous reading loses
/// nothing at the end of a run.
///
/// # Examples
///
/// ```
/// use staged_pool::QueueSampler;
/// use std::time::Duration;
///
/// let mut sampler = QueueSampler::new(Duration::from_millis(5));
/// let series = sampler.track("demo", || 3);
/// let handle = sampler.start();
/// std::thread::sleep(Duration::from_millis(25));
/// handle.stop();
/// assert!(series.bucket_means().iter().any(|p| p.value > 0.0));
/// ```
pub struct QueueSampler {
    interval: Duration,
    targets: Vec<(String, GaugeFn, Arc<TimeSeries>)>,
}

impl std::fmt::Debug for QueueSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueSampler")
            .field("interval", &self.interval)
            .field("targets", &self.targets.len())
            .finish()
    }
}

impl QueueSampler {
    /// Creates a sampler that fires every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Duration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        QueueSampler {
            interval,
            targets: Vec::new(),
        }
    }

    /// Registers a gauge to sample; returns the series it will feed.
    ///
    /// The series' bucket width equals the sampling interval, so each
    /// bucket holds exactly one observation and
    /// [`TimeSeries::bucket_means`] is the raw trace.
    pub fn track<F>(&mut self, name: impl Into<String>, gauge: F) -> Arc<TimeSeries>
    where
        F: Fn() -> usize + Send + Sync + 'static,
    {
        let series = Arc::new(TimeSeries::new(self.interval));
        self.targets
            .push((name.into(), Box::new(gauge), Arc::clone(&series)));
        series
    }

    /// Starts the background sampling thread.
    pub fn start(self) -> SamplerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = self.interval;
        let targets = self.targets;
        for (_, _, series) in &targets {
            series.restart();
        }
        let thread = thread::Builder::new()
            .name("queue-sampler".to_string())
            .spawn(move || {
                // Acquire pairs with the Release store in `stop_inner`:
                // the sampler must observe everything the stopping
                // thread published before raising the flag.
                loop {
                    let stopping = stop2.load(Ordering::Acquire);
                    for (_, gauge, series) in &targets {
                        series.observe(gauge() as f64);
                    }
                    if stopping {
                        break;
                    }
                    thread::sleep(interval);
                }
            })
            .expect("failed to spawn sampler thread");
        SamplerHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Handle to a running [`QueueSampler`]; stops it on
/// [`SamplerHandle::stop`] or drop.
#[derive(Debug)]
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Stops the sampler and waits for its thread to exit.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        // Signal only; the sleep-bounded thread exits on its own. Joining
        // here too keeps the trace complete and is bounded by `interval`.
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_sync::atomic::AtomicUsize;

    #[test]
    #[should_panic(expected = "sampling interval must be non-zero")]
    fn zero_interval_rejected() {
        let _ = QueueSampler::new(Duration::ZERO);
    }

    #[test]
    fn samples_gauge_values() {
        let value = Arc::new(AtomicUsize::new(5));
        let v2 = Arc::clone(&value);
        let mut sampler = QueueSampler::new(Duration::from_millis(2));
        let series = sampler.track("q", move || v2.load(Ordering::Relaxed)); // lint: allow(relaxed)
        let handle = sampler.start();
        thread::sleep(Duration::from_millis(20));
        handle.stop();
        let points = series.bucket_means();
        assert!(!points.is_empty());
        assert!(points.iter().any(|p| (p.value - 5.0).abs() < f64::EPSILON));
    }

    #[test]
    fn tracks_multiple_gauges_independently() {
        let mut sampler = QueueSampler::new(Duration::from_millis(2));
        let a = sampler.track("a", || 1);
        let b = sampler.track("b", || 9);
        let handle = sampler.start();
        thread::sleep(Duration::from_millis(15));
        handle.stop();
        assert!(a
            .bucket_means()
            .iter()
            .any(|p| (p.value - 1.0).abs() < 1e-9));
        assert!(b
            .bucket_means()
            .iter()
            .any(|p| (p.value - 9.0).abs() < 1e-9));
    }

    #[test]
    fn samples_once_more_when_stopped() {
        // A delta gauge: each reading takes what accumulated since the
        // previous one.
        let pending = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&pending);
        let mut sampler = QueueSampler::new(Duration::from_millis(50));
        let series = sampler.track("delta", move || p2.swap(0, Ordering::AcqRel));
        let handle = sampler.start();
        pending.store(5, Ordering::Release);
        handle.stop();
        assert_eq!(series.total(), 5.0, "movement before the stop is kept");
    }

    #[test]
    fn stop_on_drop() {
        let mut sampler = QueueSampler::new(Duration::from_millis(2));
        let series = sampler.track("q", || 2);
        {
            let _handle = sampler.start();
            thread::sleep(Duration::from_millis(10));
        }
        let count_after_drop = series.bucket_means().len();
        thread::sleep(Duration::from_millis(10));
        assert_eq!(series.bucket_means().len(), count_after_drop);
    }
}
