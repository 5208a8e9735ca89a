//! The acceptance soak for the register shape: the store at one shard and
//! one key ([`StoreConfig::register`]), sequential unbatched clients.
//!
//! - ≥ 100k ops across ≥ 8 client threads with drop+delay+crash faults for
//!   both ABD (k = 1) and O² (k = 2), zero linearizability violations —
//!   with stable storage AND with amnesia crashes + WAL recovery;
//! - same seed ⇒ identical fault schedule (transport counters), identical
//!   ops/violation counters, and identical crash and recovery counts;
//! - the intentionally-broken register (single-server fast read, no
//!   write-back) and the intentionally-broken recovery (`--demo-amnesia`:
//!   no WAL replay, no peer catch-up) are both caught by the monitor with
//!   a rendered violation window.

use blunt_core::spec::RegisterSpec;
use blunt_core::value::Val;
use blunt_lincheck::check_linearizable;
use blunt_net::FaultConfigError;
use blunt_runtime::RecoveryMode;
use blunt_store::{run_store, run_store_with, RunOpts, StoreConfig, StoreReport};

/// The acceptance soak shape: ≥ 8 clients, ≥ 100k total ops, full fault
/// mix.
fn soak(seed: u64, k: u32, recovery: RecoveryMode) -> StoreReport {
    let mut cfg = StoreConfig::register(seed);
    cfg.clients = 8;
    cfg.ops_per_client = 13_000;
    cfg.recovery = recovery;
    let opts = RunOpts {
        k,
        ..RunOpts::default()
    };
    run_store_with(&cfg, &opts, None).expect("valid fault config")
}

/// Every window the monitor flagged is small and fails the exhaustive
/// checker on its own.
fn assert_windows_stand_alone(report: &StoreReport) {
    for v in &report.monitor.violations {
        let ops = v.window.invocations().len();
        assert!(ops <= 7, "a window of {ops} ops:\n{}", v.rendered);
        let spec = RegisterSpec::new(Val::Nil);
        assert!(
            !check_linearizable(&v.window, &spec).is_ok(),
            "the exhaustive checker accepts this window:\n{}",
            v.rendered
        );
    }
}

fn rendered(report: &StoreReport) -> Vec<&String> {
    report
        .monitor
        .violations
        .iter()
        .map(|v| &v.rendered)
        .collect()
}

#[test]
fn soak_abd_k1_100k_ops_8_clients_zero_violations() {
    let report = soak(0xB1D5_EED0, 1, RecoveryMode::Stable);
    assert_eq!(report.ops, 104_000);
    assert!(
        report.monitor.clean(),
        "violations: {:?}",
        rendered(&report)
    );
    // The fault mix actually fired.
    assert!(report.stats.dropped > 0, "{:?}", report.stats);
    assert!(report.stats.delayed > 0, "{:?}", report.stats);
    assert!(report.stats.crash_dropped > 0, "{:?}", report.stats);
    // Stable mode: crashes are blackouts, never amnesia events.
    assert_eq!(report.stats.crash_events, 0);
    assert_eq!(report.recovery.crashes, 0);
    assert!(report.latency_us.count == report.ops);
}

#[test]
fn soak_abd_k2_100k_ops_8_clients_zero_violations() {
    let report = soak(0xB1D5_EED2, 2, RecoveryMode::Stable);
    assert_eq!(report.ops, 104_000);
    assert!(
        report.monitor.clean(),
        "k=2 violations: {}",
        report.monitor.violations.len()
    );
    assert!(report.stats.crash_dropped > 0);
}

#[test]
fn soak_amnesia_k1_100k_ops_8_clients_zero_violations() {
    let report = soak(0xA3E5_1A01, 1, RecoveryMode::amnesia());
    assert_eq!(report.ops, 104_000);
    assert!(
        report.monitor.clean(),
        "amnesia k=1 violations: {:?}",
        rendered(&report)
    );
    // Servers really crashed with amnesia and really recovered.
    assert!(report.stats.crash_events > 0, "{:?}", report.stats);
    assert_eq!(report.recovery.crashes, report.stats.crash_events);
    assert_eq!(
        report.recovery.recoveries, report.recovery.crashes,
        "every amnesia crash must run a recovery: {:?}",
        report.recovery
    );
}

#[test]
fn soak_amnesia_k2_100k_ops_8_clients_zero_violations() {
    let report = soak(0xA3E5_1A02, 2, RecoveryMode::amnesia());
    assert_eq!(report.ops, 104_000);
    assert!(
        report.monitor.clean(),
        "amnesia k=2 violations: {}",
        report.monitor.violations.len()
    );
    assert!(report.recovery.recoveries > 0, "{:?}", report.recovery);
}

#[test]
fn same_seed_reproduces_fault_schedule_and_counters() {
    let run = |seed| run_store(&StoreConfig::register(seed)).expect("valid fault config");
    let a = run(0x5EED);
    let b = run(0x5EED);
    // The fault schedule is a pure function of the seed: every
    // deterministic counter matches exactly across runs, and so does the
    // verdict.
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.monitor.violations.len(), b.monitor.violations.len());
    assert!(a.monitor.clean() && b.monitor.clean());
    // And a different seed gives a genuinely different schedule.
    let c = run(0x5EED + 1);
    assert_ne!(a.stats, c.stats);
}

#[test]
fn same_seed_reproduces_recovery_counters_under_amnesia() {
    let run = || {
        let mut cfg = StoreConfig::register(0xA3E5_5EED);
        cfg.recovery = RecoveryMode::amnesia();
        run_store(&cfg).expect("valid fault config")
    };
    let a = run();
    let b = run();
    // The transport stats (including crash_events) and the crash/recovery
    // counts are deterministic: crash events live in link-index space and
    // every signal is drained before shutdown. The WAL-shaped counters
    // (records lost, replays, state queries) depend on flush timing and
    // are deliberately NOT asserted here.
    assert_eq!(a.stats, b.stats);
    assert!(a.stats.crash_events > 0);
    assert_eq!(a.recovery.crashes, b.recovery.crashes);
    assert_eq!(a.recovery.recoveries, b.recovery.recoveries);
    assert_eq!(a.recovery.recoveries, a.recovery.crashes);
    assert!(a.monitor.clean() && b.monitor.clean());
}

#[test]
fn broken_fast_read_is_caught_with_a_rendered_window() {
    let mut cfg = StoreConfig::register(0x0BAD_5EED);
    cfg.broken_reads = true;
    // Write-heavy mix: replicas that miss a dropped update stay stale, and
    // the single-server fast read exposes them.
    cfg.read_per_mille = 400;
    let report = run_store(&cfg).expect("valid fault config");
    assert!(
        !report.monitor.violations.is_empty(),
        "the unsafe fast read went unnoticed"
    );
    let v = &report.monitor.violations[0];
    assert!(!v.rendered.is_empty());
    assert!(
        v.rendered.contains('┌') && v.rendered.contains('└'),
        "window rendering must show operation intervals:\n{}",
        v.rendered
    );
    assert!(!v.window.is_empty());
    assert_windows_stand_alone(&report);
}

#[test]
fn broken_amnesia_recovery_is_caught_with_a_rendered_window() {
    // Recovery that skips WAL replay and peer catch-up: rebooted servers
    // come back at timestamp (0, 0) and serve that void as truth. A single
    // wiped server is usually masked by the quorum, so the broken mode
    // needs the full coincidence: an update that missed one server (drop),
    // a second server that rebooted blank (crash), and an operation whose
    // quorum is exactly that stale pair (the fresh server's leg dropped or
    // delayed). Dense crash windows plus heavy drop/delay rates make that
    // coincidence routine.
    // Concurrency is load-bearing: with one client there is one link per
    // server, and every op overlapping a blackout is forced to commit to
    // both surviving peers, so the rebooted server always finds a fresh
    // quorum. With several clients the per-link window phases are
    // unsynchronized — another client can still commit to the crashing
    // server mid-window, and that acknowledged write dies in the wipe.
    // Two clients, not more: staleness slivers last a handful of ops, and
    // every concurrently-in-flight op widens what the checker must accept
    // as legal. Two clients keep the real-time order tight enough that the
    // sliver is provably non-linearizable.
    // Whether a given run trips the coincidence is scheduling-sensitive
    // (real-time overlap between the two clients is wall-clock, not
    // link-index, state — debug builds and a loaded machine running the
    // rest of the workspace suite in parallel both shift it), so sweep a
    // generous seed budget and require the catch within it; every run
    // must still show the broken shape (crashes fired, zero recoveries).
    let mut caught = None;
    for attempt in 0..24u64 {
        let mut cfg = StoreConfig::register(0x0BAD_A3E5 + attempt);
        cfg.recovery = RecoveryMode::amnesia();
        cfg.demo_shard = Some(0);
        cfg.clients = 2;
        cfg.ops_per_client = 2000;
        cfg.read_per_mille = 400;
        cfg.faults.drop_per_mille = 200;
        cfg.faults.delay_per_mille = 100;
        cfg.faults.crash_len = 2;
        cfg.faults.crash_period = 9; // 3 × (2 + 1): windows exactly fill the period
        let report = run_store(&cfg).expect("valid fault config");
        assert!(report.recovery.crashes > 0, "no crash events fired");
        assert_eq!(
            report.recovery.recoveries, 0,
            "the broken mode must skip recovery"
        );
        if !report.monitor.violations.is_empty() {
            caught = Some(report);
            break;
        }
    }
    let report = caught.expect("the skipped recovery went unnoticed across 24 seeds");
    let v = &report.monitor.violations[0];
    assert!(
        v.rendered.contains('┌') && v.rendered.contains('└'),
        "window rendering must show operation intervals:\n{}",
        v.rendered
    );
    assert_windows_stand_alone(&report);
}

#[test]
fn unusable_fault_config_is_a_recoverable_error() {
    let mut cfg = StoreConfig::register(1);
    cfg.faults.crash_len = 50;
    cfg.faults.crash_period = 100;
    match run_store(&cfg) {
        Err(FaultConfigError::CrashStaggerOverflow {
            servers,
            required,
            crash_period,
            ..
        }) => {
            assert_eq!((servers, required, crash_period), (3, 153, 100));
        }
        other => panic!("expected a stagger error, got {other:?}"),
    }
}
