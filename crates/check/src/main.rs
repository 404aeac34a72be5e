//! `staged-check` — the model-checking runner.
//!
//! Wraps the two `--cfg model` test binaries (the scheduler smoke suite
//! in `crates/sync` and the protocol suite in this crate) behind one
//! command, and drives the mutation matrix: every seeded bug in the
//! workspace — the concurrency protocols', and the read-set soundness,
//! signature-prefilter and top-k-join properties' in `crates/db` — must
//! make its paired test fail. A mutant
//! the test tolerates is a *survivor* — a hole in the checker's
//! detection power — and fails the run.
//!
//! ```text
//! cargo run -p staged-check -- suite     # protocols, clean
//! cargo run -p staged-check -- mutants   # seeded bugs, all must be caught
//! cargo run -p staged-check -- all      # both (the CI entry point)
//! ```
//!
//! Environment:
//! * `MODEL_SEED` — base exploration seed, forwarded and logged.
//! * `MODEL_REPLAY` — replay spec, forwarded (printed by any failure).
//! * `MODEL_TRACE_DIR` — failure-trace directory; defaults to
//!   `target/model/traces`.

use std::process::{Command, ExitCode};

/// Every seeded mutant, paired with the package, test binary and
/// invariant test that must catch it. Adding a `mutant!` site to the
/// workspace means adding a row here, or the matrix will not prove it
/// detectable.
const MATRIX: &[(&str, &str, &str, &str)] = &[
    (
        "syncqueue_handoff_clobber",
        "staged-check",
        "model_suite",
        "syncqueue_handoff_preserves_items",
    ),
    (
        "syncqueue_skip_notify",
        "staged-check",
        "model_suite",
        "syncqueue_handoff_preserves_items",
    ),
    (
        "pool_leak_token",
        "staged-check",
        "model_suite",
        "pool_tokens_return_on_drop",
    ),
    (
        "doccache_skip_epoch_check",
        "staged-check",
        "model_suite",
        "doccache_serves_only_current_data",
    ),
    (
        "doccache_skip_evict",
        "staged-check",
        "model_suite",
        "doccache_serves_only_current_data",
    ),
    (
        "wal_skip_notify",
        "staged-check",
        "model_suite",
        "wal_group_commit_acks_every_writer",
    ),
    (
        "wal_poison_silent",
        "staged-check",
        "model_suite",
        "wal_poisoned_sync_wakes_followers",
    ),
    (
        "governor_leak_ip_slot",
        "staged-check",
        "model_suite",
        "governor_slot_released_on_drop",
    ),
    (
        "dispatch_split_claim",
        "staged-check",
        "model_suite",
        "dispatch_claims_general_threads_atomically",
    ),
    (
        "readset_skip_after_image",
        "staged-db",
        "plan_suite",
        "spared_writes_leave_results_unchanged",
    ),
    (
        "readset_window_exclusive_boundary",
        "staged-db",
        "plan_suite",
        "spared_writes_leave_results_unchanged",
    ),
    (
        "table_signature_stale_on_update",
        "staged-db",
        "plan_suite",
        "signature_prefilter_never_drops_a_match",
    ),
    (
        "plan_top_k_join_stops_short",
        "staged-db",
        "plan_suite",
        "top_k_join_matches_the_unlimited_order",
    ),
];

fn usage() -> ExitCode {
    eprintln!("usage: staged-check <suite|mutants|all>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let trace_dir =
        std::env::var("MODEL_TRACE_DIR").unwrap_or_else(|_| "target/model/traces".to_string());
    let _ = std::fs::create_dir_all(&trace_dir);

    match std::env::var("MODEL_SEED") {
        Ok(seed) => println!("staged-check: MODEL_SEED={seed}"),
        Err(_) => println!(
            "staged-check: MODEL_SEED unset — per-label default seeds \
             (every failure prints its exact seed and path)"
        ),
    }
    println!("staged-check: failure traces in {trace_dir}");

    let ok = match mode.as_str() {
        "suite" => run_suites(&trace_dir),
        "mutants" => run_matrix(&trace_dir),
        "all" => {
            let clean = run_suites(&trace_dir);
            // The matrix is still informative when the clean suite
            // fails, so always run it.
            run_matrix(&trace_dir) && clean
        }
        _ => return usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A `cargo test` invocation against the model-mode target directory,
/// with `--cfg model` appended to whatever RUSTFLAGS the caller has.
fn model_test(trace_dir: &str) -> Command {
    let mut flags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !flags.contains("--cfg model") {
        if !flags.is_empty() {
            flags.push(' ');
        }
        flags.push_str("--cfg model");
    }
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()));
    cmd.arg("test")
        .env("RUSTFLAGS", flags)
        .env("CARGO_TARGET_DIR", "target/model")
        .env("MODEL_TRACE_DIR", trace_dir);
    cmd
}

/// Runs the scheduler smoke suite and the protocol suite clean.
fn run_suites(trace_dir: &str) -> bool {
    let mut ok = true;
    for (pkg, test) in [
        ("staged-sync", "model_smoke"),
        ("staged-check", "model_suite"),
    ] {
        println!("staged-check: suite {pkg}::{test}");
        let status = model_test(trace_dir)
            .args(["-p", pkg, "--test", test])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("staged-check: FAILED {pkg}::{test} ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("staged-check: could not run cargo test: {e}");
                ok = false;
            }
        }
    }
    ok
}

/// Runs the invariant tests with each seeded bug enabled; the test
/// must fail (mutant caught). Output of each child is captured and only
/// shown for survivors, where it is the evidence that matters.
fn run_matrix(trace_dir: &str) -> bool {
    let mut survivors = Vec::new();
    for &(mutant, package, test_bin, test_name) in MATRIX {
        print!("staged-check: mutant {mutant:<30} ");
        let output = model_test(trace_dir)
            .args([
                "-p", package, "--test", test_bin, test_name, "--", "--exact",
            ])
            .env("MODEL_MUTANTS", mutant)
            .output();
        match output {
            Ok(out) if out.status.success() => {
                println!("SURVIVED ({test_name} passed with the bug enabled)");
                survivors.push(mutant);
                let stdout = String::from_utf8_lossy(&out.stdout);
                for line in stdout.lines() {
                    eprintln!("    {line}");
                }
            }
            Ok(_) => println!("caught by {test_name}"),
            Err(e) => {
                println!("ERROR running cargo test: {e}");
                survivors.push(mutant);
            }
        }
    }
    if survivors.is_empty() {
        println!(
            "staged-check: mutation matrix clean — {} mutants, 0 survivors",
            MATRIX.len()
        );
        true
    } else {
        eprintln!(
            "staged-check: {} survivor(s) of {}: {}",
            survivors.len(),
            MATRIX.len(),
            survivors.join(", ")
        );
        false
    }
}
