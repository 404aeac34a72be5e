//! The concurrency model suite: the workspace's synchronization
//! protocols driven under the deterministic scheduler in
//! `staged_sync::model`.
//!
//! Each test states an invariant that must hold on **every** explored
//! interleaving of a production protocol. The same tests double as the
//! mutation matrix: `staged-check mutants` re-runs them with one seeded
//! bug enabled (via `MODEL_MUTANTS=<name>`) and requires the suite to
//! fail — a surviving mutant means the checker lost detection power.
//!
//! Run with:
//! `RUSTFLAGS="--cfg model" CARGO_TARGET_DIR=target/model cargo test -p staged-check --test model_suite`
//! or via the runner: `cargo run -p staged-check -- all`.
#![cfg(model)]

use staged_core::model_fixtures as corefix;
use staged_core::{
    DocCache, GovernorConfig, Lookup, Registry, RequestClass, RequestKind, ReserveController,
};
use staged_db::model_fixtures::ModelWal;
use staged_db::{ConnectionPool, CrashPlan, Database, FsyncPolicy, ReadSet, WriteEvent};
use staged_http::Response;
use staged_pool::SyncQueue;
use staged_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use staged_sync::model::{self, Config, FailureKind, ReplaySpec};
use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A scratch file for WAL protocols, unique per test so parallel tests
/// never share a log. Iterations within one exploration may reuse the
/// file; the protocols under test never read it back.
fn wal_path(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("staged-check-{}-{}.wal", test, std::process::id()))
}

fn event(table: &str) -> WriteEvent {
    WriteEvent {
        table: table.to_string(),
        keys: None,
        rows_affected: 1,
        images: Vec::new(),
    }
}

fn reads_of(table: &str) -> Arc<ReadSet> {
    let mut rs = ReadSet::new();
    rs.record_table(table);
    Arc::new(rs)
}

// ---------------------------------------------------------------------
// Protocol 1: SyncQueue producer/consumer handoff
// ---------------------------------------------------------------------

/// Two parked consumers, two pushed items: every item must be delivered
/// exactly once and both consumers must return. Kills
/// `syncqueue_handoff_clobber` (the second push overwrites the parked
/// handoff item — one consumer starves) and `syncqueue_skip_notify`
/// (the backlog push skips the condvar — the second consumer sleeps
/// through its wake-up).
#[test]
fn syncqueue_handoff_preserves_items() {
    let cfg = Config::random("syncqueue_handoff_preserves_items", 400);
    model::explore(&cfg, || {
        let q = Arc::new(SyncQueue::bounded(4));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                model::spawn("consumer", move || q.pop().expect("queue never closed"))
            })
            .collect();
        q.push(1u32).unwrap();
        q.push(2u32).unwrap();
        let mut got: Vec<u32> = consumers.into_iter().map(|c| c.join()).collect();
        got.sort_unstable();
        assert_eq!(got, [1, 2], "each pushed item delivered exactly once");
    });
}

// ---------------------------------------------------------------------
// Protocol 2: connection-pool checkout / shed
// ---------------------------------------------------------------------

/// A dropped connection's token must come back to the pool: a later
/// `get_timeout` on a size-1 pool finds it, and a concurrent one either
/// gets it or sheds *and is counted*. Kills `pool_leak_token` (the
/// drop never returns the token, so the pool drains permanently).
#[test]
fn pool_tokens_return_on_drop() {
    // Sequential leg: the token's return is ordered before the retry.
    let cfg = Config::random("pool_tokens_return_seq", 150);
    model::explore(&cfg, || {
        let pool = Arc::new(ConnectionPool::new(Arc::new(Database::new()), 1));
        let p = Arc::clone(&pool);
        model::spawn("checkout", move || {
            let conn = p.get();
            drop(conn);
        })
        .join();
        let again = pool.get_timeout(Duration::from_millis(50));
        assert!(again.is_some(), "token leaked: pool empty after release");
    });

    // Concurrent leg: a racing checkout either wins the token or times
    // out — and a timeout must be visible in the shed counter.
    let cfg = Config::random("pool_tokens_return_race", 150);
    model::explore(&cfg, || {
        let pool = Arc::new(ConnectionPool::new(Arc::new(Database::new()), 1));
        let holder = {
            let p = Arc::clone(&pool);
            model::spawn("holder", move || drop(p.get()))
        };
        let waiter = {
            let p = Arc::clone(&pool);
            model::spawn("waiter", move || {
                p.get_timeout(Duration::from_millis(50)).is_some()
            })
        };
        holder.join();
        let got = waiter.join();
        if !got {
            assert!(
                pool.acquire_timeouts() >= 1,
                "a shed checkout must be counted"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Protocol 3: DocCache publish vs. invalidate epoch race
// ---------------------------------------------------------------------

/// A render that raced a write to a table it read must never be served
/// from the cache: whatever the interleaving of lookup → render →
/// publish against write → invalidate, a final lookup misses or hits
/// the post-write data. Kills `doccache_skip_epoch_check` (a pre-write
/// render published after the invalidation sticks) and
/// `doccache_skip_evict` (a pre-write entry survives the invalidation).
#[test]
fn doccache_serves_only_current_data() {
    let check = || {
        // `truth` stands in for the database row the page renders.
        let truth = Arc::new(AtomicUsize::new(0));
        let dc = Arc::new(DocCache::new(Duration::from_secs(60), 8));

        let render = {
            let (truth, dc) = (Arc::clone(&truth), Arc::clone(&dc));
            model::spawn("render", move || {
                let snapshot = match dc.lookup("page") {
                    Lookup::Hit(_) => return, // nothing to publish
                    Lookup::Miss(s) => s,
                };
                let seen = truth.load(Ordering::Acquire);
                let body = Arc::new(Response::html(format!("v{seen}")));
                dc.publish("page", body, reads_of("item"), snapshot);
            })
        };
        let writer = {
            let (truth, dc) = (Arc::clone(&truth), Arc::clone(&dc));
            model::spawn("writer", move || {
                truth.store(1, Ordering::Release);
                corefix::invalidate(&dc, &event("item"));
            })
        };
        render.join();
        writer.join();

        let current = format!("v{}", truth.load(Ordering::Acquire));
        if let Lookup::Hit(resp) = dc.lookup("page") {
            assert_eq!(
                resp.body(),
                current.as_bytes(),
                "cache hit served pre-write data"
            );
        }
    };
    model::explore(&Config::random("doccache_current_random", 250), check);
    model::explore(&Config::pct("doccache_current_pct", 150, 3), check);
}

// ---------------------------------------------------------------------
// Protocol 4: WAL group commit
// ---------------------------------------------------------------------

/// Two writers committing through the group-commit protocol must both
/// be acknowledged, whether each leads its own sync or one rides as a
/// follower on the other's. Kills `wal_skip_notify` (the leader syncs
/// but never wakes the parked follower).
#[test]
fn wal_group_commit_acks_every_writer() {
    let path = wal_path("group-commit");
    let cfg = Config::random("wal_group_commit_acks", 300);
    model::explore(&cfg, move || {
        let wal = Arc::new(ModelWal::create(path.clone(), FsyncPolicy::Always).unwrap());
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let wal = Arc::clone(&wal);
                model::spawn("writer", move || {
                    let seq = wal.append("INSERT").expect("append on live wal");
                    wal.commit(seq)
                })
            })
            .collect();
        for w in writers {
            w.join().expect("commit acknowledged");
        }
    });
}

/// When the leader's fsync fails, the WAL poisons — and every parked
/// follower must be woken to observe the death instead of waiting for
/// an acknowledgement that can never come. Kills `wal_poison_silent`.
#[test]
fn wal_poisoned_sync_wakes_followers() {
    let path = wal_path("poison");
    let cfg = Config::random("wal_poison_wakes", 300);
    model::explore(&cfg, move || {
        let wal = Arc::new(
            ModelWal::create_with_crash(
                path.clone(),
                FsyncPolicy::Always,
                CrashPlan::none().kill_at_fsync(1),
            )
            .unwrap(),
        );
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let wal = Arc::clone(&wal);
                model::spawn("writer", move || match wal.append("INSERT") {
                    Ok(seq) => wal.commit(seq).is_err(),
                    Err(_) => true, // append already saw the poison
                })
            })
            .collect();
        for w in writers {
            assert!(
                w.join(),
                "the injected fsync failure must reach every writer"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Protocol 5: connection-governor permit lifecycle
// ---------------------------------------------------------------------

/// Dropping a permit must free both the global and the per-IP slot:
/// after every racing connection is gone, a fresh one from the same IP
/// is admitted. Kills `governor_leak_ip_slot` (the drop leaves the
/// per-IP count pinned, locking the address out forever).
#[test]
fn governor_slot_released_on_drop() {
    let cfg = Config::random("governor_slot_released", 250);
    model::explore(&cfg, || {
        let ip = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 7));
        let gov = Arc::new(corefix::Governor::new(GovernorConfig {
            max_connections: 2,
            per_ip_max_connections: 1,
            ..GovernorConfig::default()
        }));
        let conns: Vec<_> = (0..2)
            .map(|_| {
                let gov = Arc::clone(&gov);
                // Racing admits from one IP: at most one holds the slot
                // at a time; a turnaway here is legal.
                model::spawn("conn", move || drop(gov.admit(Some(ip))))
            })
            .collect();
        for c in conns {
            c.join();
        }
        let fresh = gov.admit(Some(ip));
        assert!(
            fresh.is_ok(),
            "per-IP slot leaked: admit refused after all permits dropped"
        );
        assert_eq!(gov.open(), 1, "only the fresh permit should be open");
        drop(fresh);
    });
}

// ---------------------------------------------------------------------
// Protocol 6: Table 1 dispatch claims general threads atomically
// ---------------------------------------------------------------------

/// Two header workers dispatch a lengthy request each at the same time
/// to a two-thread general pool whose reserve is one: only one thread
/// is above the reserve, so exactly one request may take it and the
/// other goes to the lengthy pool. Kills `dispatch_split_claim` (both
/// read `t_spare` = 2 before either claim counts, and both spill onto
/// the general pool).
#[test]
fn dispatch_claims_general_threads_atomically() {
    let cfg = Config::random("dispatch_claims_atomically", 200);
    model::explore(&cfg, || {
        let general = Arc::new(corefix::SpareThreads::new(2));
        let controller = Arc::new(ReserveController::new(1));
        let headers: Vec<_> = (0..2)
            .map(|_| {
                let (general, controller) = (Arc::clone(&general), Arc::clone(&controller));
                model::spawn("header", move || {
                    general.dispatch(&controller, RequestClass::Lengthy)
                })
            })
            .collect();
        let claims: Vec<_> = headers.into_iter().map(|h| h.join()).collect();
        assert_eq!(
            claims.iter().flatten().count(),
            1,
            "a lengthy burst took a reserved general thread"
        );
        drop(claims);
        assert_eq!(general.spare(), 2, "a dropped claim must free its thread");
    });
}

// ---------------------------------------------------------------------
// Completion counters trail the response bytes
// ---------------------------------------------------------------------

/// Workers bump a request's completion counter — the registry cell
/// behind `requests_completed_total{class}` — *after* writing its
/// response, so a client that has the bytes may briefly see a counter
/// that has not moved, but a moved counter always means the bytes were
/// written.
/// This is the ordering `tests/cross_crate.rs` leans on when it polls
/// for counters to settle after a response arrives; here the checker
/// proves the direction can't invert on any interleaving.
#[test]
fn stats_completion_follows_send() {
    let cfg = Config::random("stats_completion_follows_send", 200);
    model::explore(&cfg, || {
        let sent = Arc::new(AtomicBool::new(false));
        let labels = [("class", RequestKind::LengthyDynamic.label())];
        let completed = Registry::new().counter("requests_completed_total", &labels);
        let worker = {
            let (sent, completed) = (Arc::clone(&sent), Arc::clone(&completed));
            model::spawn("worker", move || {
                sent.store(true, Ordering::Release); // response bytes written
                completed.increment();
            })
        };
        let observer = {
            let (sent, completed) = (Arc::clone(&sent), Arc::clone(&completed));
            model::spawn("observer", move || {
                if completed.value() >= 1 {
                    assert!(
                        sent.load(Ordering::Acquire),
                        "completion counter moved before the response was sent"
                    );
                }
            })
        };
        worker.join();
        observer.join();
    });
}

// ---------------------------------------------------------------------
// The matrix catches its mutants, and failures replay
// ---------------------------------------------------------------------

/// End-to-end detection + replay on a production protocol: enabling a
/// seeded bug makes exploration fail, and the failure's printed
/// `MODEL_REPLAY` spec re-runs the exact interleaving — same decision
/// path, same event-log hash, same verdict.
#[test]
fn mutant_failures_replay_deterministically() {
    let build =
        |label: &'static str| Config::random(label, 400).with_mutants(&["syncqueue_skip_notify"]);
    let protocol = || {
        let q = Arc::new(SyncQueue::bounded(4));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                model::spawn("consumer", move || q.pop().expect("queue never closed"))
            })
            .collect();
        q.push(1u32).unwrap();
        q.push(2u32).unwrap();
        for c in consumers {
            c.join();
        }
    };
    let failure = model::explore_result(&build("mutant_replay"), protocol)
        .expect_err("the seeded lost wake-up must be caught");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "a skipped notify strands a consumer: {failure}"
    );

    let spec = ReplaySpec::parse(&failure.replay_spec()).expect("spec parses");
    let replayed = model::replay(&build("mutant_replay"), &spec, protocol)
        .expect_err("replay reproduces the failure");
    assert_eq!(replayed.event_hash, failure.event_hash, "replay diverged");
    assert_eq!(replayed.path, failure.path, "replay took a different path");
    assert!(matches!(replayed.kind, FailureKind::Deadlock(_)));
}

/// The operator-facing replay path: exporting the printed
/// `MODEL_REPLAY=` spec makes `explore_result` skip exploration and
/// re-run exactly the captured schedule, pinned by the event-log hash.
/// The intercept is label-filtered, so only the matching test re-runs.
#[test]
fn model_replay_env_reruns_pinned_schedule() {
    let build = || Config::random("env_replay", 400).with_mutants(&["syncqueue_skip_notify"]);
    let protocol = || {
        let q = Arc::new(SyncQueue::bounded(4));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                model::spawn("consumer", move || q.pop().expect("queue never closed"))
            })
            .collect();
        q.push(1u32).unwrap();
        q.push(2u32).unwrap();
        for c in consumers {
            c.join();
        }
    };
    let failure = model::explore_result(&build(), protocol).expect_err("seeded bug must be caught");
    assert!(failure.iteration > 0 || !failure.path.is_empty() || failure.seed != 0);

    // What an operator would paste from the failure report.
    std::env::set_var("MODEL_REPLAY", failure.replay_spec());
    let replayed = model::explore_result(&build(), protocol);
    std::env::remove_var("MODEL_REPLAY");

    let replayed = replayed.expect_err("pinned schedule reproduces the failure");
    assert_eq!(replayed.iteration, 0, "replay runs the one schedule only");
    assert_eq!(replayed.event_hash, failure.event_hash, "hash pin held");
    assert!(matches!(replayed.kind, FailureKind::Deadlock(_)));
}
