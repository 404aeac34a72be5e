//! Property-based tests for queues and pools.

use proptest::prelude::*;
use staged_pool::{PoolStats, PushError, SyncQueue, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded FIFO: any interleaving of pushes and pops
    /// observes queue order, and lengths always match the model.
    #[test]
    fn fifo_model(ops in proptest::collection::vec(prop_oneof![
        (0i64..1000).prop_map(Some),
        Just(None),
    ], 0..80)) {
        let q = SyncQueue::bounded(80);
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.push(v).unwrap();
                    model.push_back(v);
                }
                None => {
                    let got = q.try_pop().ok();
                    prop_assert_eq!(got, model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
    }

    /// A bounded queue never holds more than its capacity, whatever the
    /// op sequence (using non-blocking push).
    #[test]
    fn capacity_respected(capacity in 1usize..8, ops in proptest::collection::vec(any::<bool>(), 0..60)) {
        let q = SyncQueue::bounded(capacity);
        for push in ops {
            if push {
                let _ = q.try_push(0u8);
            } else {
                let _ = q.try_pop();
            }
            prop_assert!(q.len() <= capacity);
        }
    }

    /// Every job submitted to a pool is processed exactly once, for any
    /// worker count and job count.
    #[test]
    fn pool_processes_each_job_once(workers in 1usize..6, jobs in 0usize..120) {
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let (s2, c2) = (Arc::clone(&sum), Arc::clone(&count));
        let queue = Arc::new(SyncQueue::bounded(jobs.max(1)));
        let pool = WorkerPool::with_parts(
            Arc::clone(&queue),
            Arc::new(PoolStats::default()),
            "prop",
            workers,
            |_| (),
            move |_, n: u64| {
                s2.fetch_add(n, Ordering::Relaxed);
                c2.fetch_add(1, Ordering::Relaxed);
            },
        );
        let mut expected = 0u64;
        for n in 0..jobs as u64 {
            queue.push(n).unwrap();
            expected += n;
        }
        pool.shutdown();
        prop_assert_eq!(sum.load(Ordering::Relaxed), expected);
        prop_assert_eq!(count.load(Ordering::Relaxed), jobs as u64);
    }

    /// Bounded queues under concurrent pushers, poppers, and a racing
    /// `close` never deadlock, and every pushed value is accounted for
    /// exactly once: either popped, or handed back **intact** by
    /// `push`/`try_push`, or left in the drainable backlog. This is the
    /// contract the servers' shed paths rely on — a rejected request
    /// must come back whole so it can be answered with a `503`.
    #[test]
    fn bounded_close_race_never_deadlocks_or_loses_items(
        capacity in 1usize..5,
        pushers in 1usize..4,
        per_pusher in 1usize..25,
        close_delay_us in 0u64..300,
        blocking in any::<bool>(),
    ) {
        let q = Arc::new(SyncQueue::bounded(capacity));
        let popped = Arc::new(Mutex::new(Vec::new()));
        let returned = Arc::new(Mutex::new(Vec::new()));

        let poppers: Vec<_> = (0..2)
            .map(|_| {
                let (q, popped) = (Arc::clone(&q), Arc::clone(&popped));
                std::thread::spawn(move || {
                    // `pop` drains the backlog after close, then `None`
                    // releases the thread — the no-deadlock property.
                    while let Some(v) = q.pop() {
                        popped.lock().unwrap().push(v);
                    }
                })
            })
            .collect();

        let producers: Vec<_> = (0..pushers)
            .map(|p| {
                let (q, returned) = (Arc::clone(&q), Arc::clone(&returned));
                std::thread::spawn(move || {
                    for j in 0..per_pusher {
                        let v = (p * 1000 + j) as u64;
                        if blocking {
                            if let Err(PushError::Closed(back)) = q.push(v) {
                                assert_eq!(back, v, "rejected item mutated");
                                returned.lock().unwrap().push(back);
                            }
                        } else {
                            loop {
                                match q.try_push(v) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        assert_eq!(back, v, "shed item mutated");
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(back)) => {
                                        assert_eq!(back, v, "rejected item mutated");
                                        returned.lock().unwrap().push(back);
                                        break;
                                    }
                                }
                            }
                        }
                    }
                })
            })
            .collect();

        std::thread::sleep(std::time::Duration::from_micros(close_delay_us));
        q.close();
        for h in producers {
            h.join().unwrap();
        }
        for h in poppers {
            h.join().unwrap();
        }

        let mut seen: Vec<u64> = popped.lock().unwrap().clone();
        seen.extend(returned.lock().unwrap().iter().copied());
        // Post-close pops still drain whatever the poppers left behind.
        while let Ok(v) = q.try_pop() {
            seen.push(v);
        }
        let mut expected: Vec<u64> = (0..pushers)
            .flat_map(|p| (0..per_pusher).map(move |j| (p * 1000 + j) as u64))
            .collect();
        seen.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
    }
}
