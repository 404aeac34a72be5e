//! Synchronized queues and instrumented worker thread pools.
//!
//! This crate is the substrate beneath both request-processing models in
//! the paper:
//!
//! * the **thread-per-request** baseline is one [`WorkerPool`] fed by a
//!   single [`SyncQueue`] (CherryPy's architecture, paper §2.2 and
//!   Figure 4);
//! * the **modified server** is five pools — header parsing, static,
//!   general dynamic, lengthy dynamic, template rendering — each with its
//!   own queue (paper §3.2 and Figure 5).
//!
//! The instrumentation is not an afterthought: the evaluation requires
//! per-pool busy and completion counts ([`PoolStats`]) and queue-length
//! traces ([`QueueSampler`], Figures 7/8). The scheduling policy's
//! spare-thread count of the general pool (the paper's `t_spare`) is
//! kept by the server's dispatcher, which claims a thread in the same
//! step as it reads the count (`SpareThreads` in `staged-core`).
//!
//! # Examples
//!
//! ```
//! use staged_pool::{PoolStats, SyncQueue, WorkerPool};
//! use staged_sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let sum = Arc::new(AtomicUsize::new(0));
//! let sum2 = Arc::clone(&sum);
//! let queue = Arc::new(SyncQueue::bounded(100));
//! let pool = WorkerPool::with_parts(
//!     Arc::clone(&queue),
//!     Arc::new(PoolStats::default()),
//!     "adders",
//!     4,
//!     |_worker_index| (),
//!     move |_state, n: usize| {
//!         sum2.fetch_add(n, Ordering::Relaxed);
//!     },
//! );
//! for n in 1..=100 {
//!     queue.push(n).unwrap();
//! }
//! pool.shutdown();
//! assert_eq!(sum.load(Ordering::Relaxed), 5050);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod sampler;
mod worker;

pub use queue::{PushError, SyncQueue, TryPopError};
pub use sampler::{QueueSampler, SamplerHandle};
pub use worker::{PoolStats, WorkerPool};
