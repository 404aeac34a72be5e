//! Seeded hostile-traffic scenario suite (DESIGN.md §12).
//!
//! Five adversarial scenarios against the staged server, each run with
//! a fleet of well-behaved fixed-rate probes alongside the attack so
//! the headline number is *goodput under attack*:
//!
//! * `slowloris`  — header drip-feed; run twice (lifecycle budgets on
//!   and off) to show the hardened server sustains goodput where the
//!   per-read-timeout-only server starves.
//! * `flashcrowd` — step-function connect surge against the connection
//!   governor's global cap; measures turn-away behaviour and
//!   time-to-recover.
//! * `bigbody`    — oversized declared bodies (`413`) and body
//!   trickles (`408` via the minimum-throughput budget).
//! * `hotkey`     — closed-loop storm on one shopping-cart row while
//!   probes browse.
//! * `fuzz`       — seeded malformed requests; every one must be
//!   answered `4xx` or dropped cleanly, never served.
//!
//! Gated in CI (smoke mode): exits non-zero if the hardened goodput
//! ratio falls below `--floor`, the unhardened slowloris leg *fails*
//! to starve, fuzz gets a non-`4xx` answer, or any scenario panics.
//!
//! Flags: `--scenario all|slowloris|flashcrowd|bigbody|hotkey|fuzz`,
//! `--seed N`, `--smoke`, `--floor F` (default 0.8), `--no-budgets`
//! (exploration: run every scenario without hardening, no gating),
//! `--json PATH`.

use staged_bench::hostile::{
    body_flood, flash_crowd, hot_key_storm, malformed_fuzz, measure_goodput, slowloris,
    time_to_recover, AttackTallies, ProbeReport,
};
use staged_bench::{json_row, Experiment, Model};
use staged_core::{ServerConfig, ServerHandle};
use staged_db::CostModel;
use staged_http::{fetch_with_timeout, Method};
use staged_metrics::Snapshot;
use staged_tpcw::{Deployment, ScaleConfig};
use std::time::Duration;

/// Probe fleet shape shared by every scenario.
const PROBE_CLIENTS: usize = 4;
const PROBE_TICK: Duration = Duration::from_millis(50);
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
const PROBE_PATH: &str = "/home";

struct Suite {
    seed: u64,
    smoke: bool,
    floor: f64,
    no_budgets: bool,
    json: Option<String>,
    scenario: String,
}

impl Suite {
    fn from_args() -> Suite {
        let mut suite = Suite {
            seed: 0x0d5e_2009,
            smoke: false,
            floor: 0.8,
            no_budgets: false,
            json: None,
            scenario: "all".to_string(),
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| -> &str {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
            };
            match args[i].as_str() {
                "--seed" => suite.seed = value(i).parse().expect("--seed takes a number"),
                "--floor" => suite.floor = value(i).parse().expect("--floor takes a ratio"),
                "--scenario" => suite.scenario = value(i).to_string(),
                "--json" => suite.json = Some(value(i).to_string()),
                "--smoke" => {
                    suite.smoke = true;
                    i += 1;
                    continue;
                }
                "--no-budgets" => {
                    suite.no_budgets = true;
                    i += 1;
                    continue;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scenario all|slowloris|flashcrowd|bigbody|hotkey|fuzz \
                         --seed N --floor F --smoke --no-budgets --json PATH"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag: {other} (try --help)"),
            }
            i += 2;
        }
        suite
    }

    /// Attack-free calibration window.
    fn calm_window(&self) -> Duration {
        if self.smoke {
            Duration::from_millis(1500)
        } else {
            Duration::from_secs(3)
        }
    }

    /// Under-attack measurement window.
    fn attack_window(&self) -> Duration {
        if self.smoke {
            Duration::from_secs(3)
        } else {
            Duration::from_secs(10)
        }
    }

    /// Cap on the time-to-recover probe.
    fn recover_cap(&self) -> Duration {
        if self.smoke {
            Duration::from_secs(5)
        } else {
            Duration::from_secs(10)
        }
    }
}

/// One artifact row: free-form `(name, value)` fields behind the shared
/// [`Snapshot`] encoding so the JSON matches every other bench artifact.
struct Row(Vec<(&'static str, f64)>);

impl Snapshot for Row {
    fn fields(&self, emit: &mut dyn FnMut(&'static str, f64)) {
        for (name, value) in &self.0 {
            emit(name, *value);
        }
    }
}

/// Small config shared by every scenario: a four-thread header pool the
/// attacks can plausibly saturate, short socket timeouts so unhardened
/// failure modes show up inside the measurement window.
fn base_config() -> ServerConfig {
    ServerConfig {
        header_workers: 4,
        static_workers: 4,
        general_workers: 8,
        lengthy_workers: 2,
        render_workers: 4,
        baseline_workers: 10,
        db_connections: 10,
        min_reserve: 1,
        max_reserve: 2,
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    }
}

/// Applies the lifecycle budgets and keep-alive quota under test.
fn harden(cfg: &mut ServerConfig) {
    cfg.limits.header_deadline = Some(Duration::from_millis(250));
    cfg.limits.min_body_rate = 1024;
    cfg.limits.body_grace = Duration::from_millis(250);
    cfg.governor.keepalive_max_requests = 256;
}

fn start(cfg: ServerConfig) -> ServerHandle {
    let exp = Experiment {
        deployment: Deployment {
            scale: ScaleConfig::tiny(),
            server: cfg,
            cost: CostModel::free(),
            ..Deployment::paper()
        },
        ramp: Duration::ZERO,
        measure: Duration::ZERO,
    };
    let db = exp.build_database();
    exp.start_server(Model::Modified, db)
}

fn counter(server: &ServerHandle, name: &str, labels: &[(&str, &str)]) -> f64 {
    server
        .registry()
        .value(name, labels)
        .unwrap_or(0.0)
        .max(0.0)
}

fn healthz_ok(server: &ServerHandle) -> bool {
    fetch_with_timeout(
        server.addr(),
        Method::Get,
        "/healthz",
        &[],
        Duration::from_secs(2),
    )
    .map(|r| r.status.is_success())
    .unwrap_or(false)
}

/// Fraction of offered probe requests that were served (`2xx`).
fn served_ratio(p: &ProbeReport) -> f64 {
    p.ok_ratio()
}

/// Fraction of offered probe requests that got *any* prompt answer —
/// served or an explicit `503` turn-away. The flash-crowd gate: being
/// told to come back later is correct behaviour at the cap; hanging
/// until the client times out is not.
fn answered_ratio(p: &ProbeReport) -> f64 {
    if p.offered == 0 {
        return 0.0;
    }
    (p.ok + p.shed) as f64 / p.offered as f64
}

fn probe_fields(prefix_calm: &ProbeReport, attack: &ProbeReport) -> Vec<(&'static str, f64)> {
    vec![
        ("calm_offered", prefix_calm.offered as f64),
        ("calm_ok", prefix_calm.ok as f64),
        ("calm_goodput_per_s", prefix_calm.goodput_per_s()),
        ("attack_offered", attack.offered as f64),
        ("attack_ok", attack.ok as f64),
        ("attack_shed", attack.shed as f64),
        ("attack_errors", attack.errors as f64),
        ("attack_goodput_per_s", attack.goodput_per_s()),
        ("served_ratio", served_ratio(attack)),
        ("answered_ratio", answered_ratio(attack)),
    ]
}

fn tally_fields(t: &AttackTallies) -> Vec<(&'static str, f64)> {
    use staged_sync::atomic::Ordering;
    vec![
        ("attacker_kills", t.kills.load(Ordering::Relaxed) as f64), // lint: allow(relaxed)
        (
            "attacker_4xx",
            t.rejected_4xx.load(Ordering::Relaxed) as f64, // lint: allow(relaxed)
        ),
        ("attacker_503", t.turned_away.load(Ordering::Relaxed) as f64), // lint: allow(relaxed)
        ("attacker_served", t.served.load(Ordering::Relaxed) as f64),   // lint: allow(relaxed)
    ]
}

struct Outcome {
    scenario: &'static str,
    mode: &'static str,
    row: Row,
    failures: Vec<String>,
}

impl Outcome {
    fn print(&self) {
        println!("## {} ({})", self.scenario, self.mode);
        for (name, value) in &self.row.0 {
            println!("  {name:>22} {value:>12.3}");
        }
        for f in &self.failures {
            println!("  FAIL: {f}");
        }
        println!();
    }
}

/// Slowloris: both legs (budgets on, budgets off) share every knob but
/// the header deadline, so the comparison isolates the lifecycle
/// budget. Gate: hardened leg sustains `floor`× its own attack-free
/// goodput; unhardened leg demonstrably starves (below the floor).
fn run_slowloris(suite: &Suite, hardened: bool) -> Outcome {
    let mode = if hardened { "hardened" } else { "disabled" };
    let mut cfg = base_config();
    if hardened {
        harden(&mut cfg);
    }
    let server = start(cfg);
    let addr = server.addr();
    let calm = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.calm_window(),
        PROBE_TIMEOUT,
    );
    // 8 attackers against a 4-thread header pool (the issue's ">= 2x
    // parse pool" bar); drip below the 2 s read timeout so only the
    // lifecycle deadline can evict them.
    let attack = slowloris(addr, 8, Duration::from_millis(300), Duration::from_secs(1));
    std::thread::sleep(Duration::from_millis(500));
    let under = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.attack_window(),
        PROBE_TIMEOUT,
    );
    let tallies = attack.stop();
    let recover = time_to_recover(
        addr,
        PROBE_PATH,
        PROBE_TICK,
        Duration::from_millis(250),
        0.8 / PROBE_TICK.as_secs_f64(),
        suite.recover_cap(),
    );
    let kills = counter(&server, "slowloris_kills_total", &[]);
    let ratio = if served_ratio(&calm) > 0.0 {
        served_ratio(&under) / served_ratio(&calm)
    } else {
        0.0
    };

    let mut fields = probe_fields(&calm, &under);
    fields.extend(tally_fields(&tallies));
    fields.push(("goodput_ratio", ratio));
    fields.push(("recover_ms", recover.as_millis() as f64));
    fields.push(("srv_slowloris_kills", kills));

    let mut failures = Vec::new();
    if hardened {
        if ratio < suite.floor {
            failures.push(format!(
                "hardened goodput ratio {ratio:.3} below floor {:.3}",
                suite.floor
            ));
        }
        if kills == 0.0 {
            failures.push("header deadline never fired (slowloris_kills_total = 0)".into());
        }
    } else if ratio >= suite.floor {
        failures.push(format!(
            "budgets-disabled server failed to starve (ratio {ratio:.3} >= floor {:.3}) — \
             the attack no longer demonstrates anything",
            suite.floor
        ));
    }
    if !healthz_ok(&server) {
        failures.push("/healthz not OK after attack".into());
    }
    server.shutdown().expect("clean shutdown");
    Outcome {
        scenario: "slowloris",
        mode,
        row: Row(fields),
        failures,
    }
}

/// Flash crowd: a step surge of closed-loop one-shot connections, with
/// the governor's global cap set well below the crowd size. Gate: the
/// probes get *answered* (served or turned away with `503`) promptly,
/// the cap actually rejects, and goodput recovers once the crowd stops.
fn run_flashcrowd(suite: &Suite, hardened: bool) -> Outcome {
    let mode = if hardened { "hardened" } else { "disabled" };
    let mut cfg = base_config();
    if hardened {
        harden(&mut cfg);
        cfg.governor.max_connections = 48;
    }
    let server = start(cfg);
    let addr = server.addr();
    let calm = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.calm_window(),
        PROBE_TIMEOUT,
    );
    let crowd = flash_crowd(addr, 96, PROBE_PATH);
    std::thread::sleep(Duration::from_millis(250));
    let under = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.attack_window(),
        PROBE_TIMEOUT,
    );
    let tallies = crowd.stop();
    let recover = time_to_recover(
        addr,
        PROBE_PATH,
        PROBE_TICK,
        Duration::from_millis(250),
        0.8 / PROBE_TICK.as_secs_f64(),
        suite.recover_cap(),
    );
    let rejected = counter(
        &server,
        "connections_rejected_total",
        &[("reason", "global-cap")],
    );
    let answered = answered_ratio(&under);

    let mut fields = probe_fields(&calm, &under);
    fields.extend(tally_fields(&tallies));
    fields.push(("recover_ms", recover.as_millis() as f64));
    fields.push(("srv_rejected_global", rejected));

    let mut failures = Vec::new();
    if hardened {
        if answered < suite.floor {
            failures.push(format!(
                "answered ratio {answered:.3} below floor {:.3} during surge",
                suite.floor
            ));
        }
        if rejected == 0.0 {
            failures.push("global cap never rejected during a 96-client surge".into());
        }
        if recover >= suite.recover_cap() {
            failures.push(format!(
                "goodput did not recover within {:?}",
                suite.recover_cap()
            ));
        }
    }
    if !healthz_ok(&server) {
        failures.push("/healthz not OK after attack".into());
    }
    server.shutdown().expect("clean shutdown");
    Outcome {
        scenario: "flashcrowd",
        mode,
        row: Row(fields),
        failures,
    }
}

/// Body abuse: oversized declared bodies must be answered `413` without
/// swallowing the flood; body trickles must be cut off `408` by the
/// minimum-throughput budget. Probes must keep browsing throughout.
fn run_bigbody(suite: &Suite, hardened: bool) -> Outcome {
    let mode = if hardened { "hardened" } else { "disabled" };
    let mut cfg = base_config();
    cfg.limits.max_body = 64 * 1024;
    if hardened {
        harden(&mut cfg);
    }
    let server = start(cfg);
    let addr = server.addr();
    let calm = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.calm_window(),
        PROBE_TIMEOUT,
    );
    let attack = body_flood(addr, 4, 128 * 1024, Duration::from_millis(250));
    std::thread::sleep(Duration::from_millis(250));
    let under = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.attack_window(),
        PROBE_TIMEOUT,
    );
    let tallies = attack.stop();
    let ratio = if served_ratio(&calm) > 0.0 {
        served_ratio(&under) / served_ratio(&calm)
    } else {
        0.0
    };
    let rejected_4xx = tallies
        .rejected_4xx
        .load(staged_sync::atomic::Ordering::Relaxed); // lint: allow(relaxed)

    let mut fields = probe_fields(&calm, &under);
    fields.extend(tally_fields(&tallies));
    fields.push(("goodput_ratio", ratio));

    let mut failures = Vec::new();
    if hardened {
        if ratio < suite.floor {
            failures.push(format!(
                "goodput ratio {ratio:.3} below floor {:.3} under body abuse",
                suite.floor
            ));
        }
        if rejected_4xx == 0 {
            failures.push("no 413/408 answers observed by the body-abuse fleet".into());
        }
    }
    if !healthz_ok(&server) {
        failures.push("/healthz not OK after attack".into());
    }
    server.shutdown().expect("clean shutdown");
    Outcome {
        scenario: "bigbody",
        mode,
        row: Row(fields),
        failures,
    }
}

/// Hot-key storm: a closed-loop fleet hammering one cart row while the
/// probes browse. The staged pools must keep the probes' goodput up.
fn run_hotkey(suite: &Suite, hardened: bool) -> Outcome {
    let mode = if hardened { "hardened" } else { "disabled" };
    let mut cfg = base_config();
    if hardened {
        harden(&mut cfg);
    }
    let server = start(cfg);
    let addr = server.addr();
    let calm = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.calm_window(),
        PROBE_TIMEOUT,
    );
    let storm = hot_key_storm(addr, 16, 7, 42);
    std::thread::sleep(Duration::from_millis(250));
    let under = measure_goodput(
        addr,
        PROBE_CLIENTS,
        PROBE_PATH,
        PROBE_TICK,
        suite.attack_window(),
        PROBE_TIMEOUT,
    );
    let tallies = storm.stop();
    let ratio = if served_ratio(&calm) > 0.0 {
        served_ratio(&under) / served_ratio(&calm)
    } else {
        0.0
    };

    let mut fields = probe_fields(&calm, &under);
    fields.extend(tally_fields(&tallies));
    fields.push(("goodput_ratio", ratio));

    let mut failures = Vec::new();
    if hardened && ratio < suite.floor {
        failures.push(format!(
            "goodput ratio {ratio:.3} below floor {:.3} under hot-key storm",
            suite.floor
        ));
    }
    if !healthz_ok(&server) {
        failures.push("/healthz not OK after storm".into());
    }
    server.shutdown().expect("clean shutdown");
    Outcome {
        scenario: "hotkey",
        mode,
        row: Row(fields),
        failures,
    }
}

/// Malformed-request fuzz: seeded garbage must always be answered `4xx`
/// or dropped cleanly — never served — and the server must still be
/// healthy and serving pages afterwards.
fn run_fuzz(suite: &Suite, hardened: bool) -> Outcome {
    let mode = if hardened { "hardened" } else { "disabled" };
    let mut cfg = base_config();
    if hardened {
        harden(&mut cfg);
    }
    let server = start(cfg);
    let addr = server.addr();
    let count = if suite.smoke { 60 } else { 300 };
    let report = malformed_fuzz(addr, count, suite.seed);
    let after = fetch_with_timeout(addr, Method::Get, PROBE_PATH, &[], PROBE_TIMEOUT);
    let still_serving = after.map(|r| r.status.is_success()).unwrap_or(false);

    let fields = vec![
        ("fuzz_sent", report.sent as f64),
        ("fuzz_answered_4xx", report.answered_4xx as f64),
        ("fuzz_dropped", report.dropped as f64),
        ("fuzz_unexpected", report.unexpected as f64),
        ("still_serving", if still_serving { 1.0 } else { 0.0 }),
    ];

    let mut failures = Vec::new();
    if report.unexpected > 0 {
        failures.push(format!(
            "{} malformed requests got a non-4xx answer",
            report.unexpected
        ));
    }
    if report.answered_4xx == 0 {
        failures.push("no malformed request was answered 4xx (all silently dropped)".into());
    }
    if !still_serving {
        failures.push("server stopped serving pages after fuzz".into());
    }
    if !healthz_ok(&server) {
        failures.push("/healthz not OK after fuzz".into());
    }
    server.shutdown().expect("clean shutdown");
    Outcome {
        scenario: "fuzz",
        mode,
        row: Row(fields),
        failures,
    }
}

fn main() {
    let suite = Suite::from_args();
    let hardened = !suite.no_budgets;
    let mut outcomes: Vec<Outcome> = Vec::new();

    let want = |name: &str| suite.scenario == "all" || suite.scenario == name;
    let mut ran_any = false;
    if want("slowloris") {
        ran_any = true;
        // Both legs always run: the comparison IS the scenario.
        outcomes.push(run_slowloris(&suite, hardened));
        if hardened {
            outcomes.push(run_slowloris(&suite, false));
        }
    }
    if want("flashcrowd") {
        ran_any = true;
        outcomes.push(run_flashcrowd(&suite, hardened));
    }
    if want("bigbody") {
        ran_any = true;
        outcomes.push(run_bigbody(&suite, hardened));
    }
    if want("hotkey") {
        ran_any = true;
        outcomes.push(run_hotkey(&suite, hardened));
    }
    if want("fuzz") {
        ran_any = true;
        outcomes.push(run_fuzz(&suite, hardened));
    }
    assert!(ran_any, "unknown scenario: {} (try --help)", suite.scenario);

    println!(
        "# hostile-traffic suite: seed={:#x} floor={} smoke={}",
        suite.seed, suite.floor, suite.smoke
    );
    println!();
    for o in &outcomes {
        o.print();
    }

    if let Some(path) = &suite.json {
        let seed = format!("{:#x}", suite.seed);
        let mut json_rows = String::from("[");
        for (i, o) in outcomes.iter().enumerate() {
            if i > 0 {
                json_rows.push(',');
            }
            json_rows.push_str(&json_row(
                &[
                    ("scenario", o.scenario),
                    ("mode", o.mode),
                    ("model", "modified"),
                    ("seed", &seed),
                ],
                &o.row,
            ));
        }
        json_rows.push(']');
        std::fs::write(path, json_rows).expect("write json artifact");
        println!("wrote {path}");
    }

    let failures: Vec<&String> = outcomes.iter().flat_map(|o| &o.failures).collect();
    if !failures.is_empty() {
        eprintln!("hostile suite FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("hostile suite OK ({} scenario legs)", outcomes.len());
}
