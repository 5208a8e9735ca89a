//! The socket-transport acceptance run on the register shape, in one
//! process: three servers each running [`blunt_runtime::run_net_server`] on
//! its own thread behind a loopback Unix-domain socket, plus the one
//! driver — the same topology the `net-smoke` CI job runs as separate
//! `chaos serve` processes, minus the process boundary.
//!
//! The run must complete ≥ 10k operations under the chaos fault mix with
//! amnesia crashes, report zero linearizability violations, and show at
//! least one server crash *and recovery* mid-run — i.e. the WAL + peer
//! catch-up machinery works when peers are sockets, not mailboxes.

mod common;

use std::time::Duration;

use blunt_runtime::{RecoveryMode, RecoveryStats};
use blunt_store::{RunOpts, StoreConfig};

#[test]
fn three_uds_servers_10k_ops_zero_violations_with_recovery() {
    let mut cfg = StoreConfig::register(0x4E75_0001);
    cfg.recovery = RecoveryMode::amnesia();
    cfg.ops_per_client = 2_500; // 4 clients × 2 500 = 10 000 ops
    let opts = RunOpts {
        stall_after: Some(Duration::from_secs(60)),
        ..RunOpts::default()
    };
    let (report, served) = common::run_over_uds(&cfg, &opts, "register-amnesia");
    let mut server_total = RecoveryStats::default();
    for r in &served {
        server_total += r.recovery;
    }
    let server_crashes = server_total.crashes;
    let server_recoveries = server_total.recoveries;

    assert_eq!(report.ops, 10_000);
    assert!(
        report.monitor.clean(),
        "violations over sockets: {:?}",
        report
            .monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    assert!(!report.stalled, "run stalled");
    // The fault mix really fired at the socket layer.
    assert!(report.stats.dropped > 0, "{:?}", report.stats);
    assert!(report.stats.crash_events > 0, "{:?}", report.stats);
    // At least one server crashed with amnesia and recovered mid-run, and
    // every crash ran a recovery.
    assert!(server_crashes >= 1, "no server crashed");
    assert_eq!(
        server_recoveries, server_crashes,
        "every amnesia crash must run a recovery"
    );
    // The servers' final telemetry carried every counter back to the
    // driver, field for field.
    assert_eq!(report.recovery, server_total);
    assert_eq!(
        report.shard_recoveries,
        vec![(server_crashes, server_recoveries)]
    );
    // Socket frames actually moved.
    let frames = blunt_obs::counter("net.frames_sent").get();
    assert!(frames > 0, "no frames crossed the socket layer");
    // The tracing plane worked end to end: every server process shipped
    // telemetry and a goodbye dump, and the merged cross-process dump
    // carries span-attributed events from all three remote processes.
    let merged = report.merged_flight.as_ref().expect("net runs merge dumps");
    assert_eq!(report.remote_servers.len(), 3);
    for (sid, r) in report.remote_servers.iter().enumerate() {
        let t = r
            .telemetry
            .unwrap_or_else(|| panic!("server {sid} sent no telemetry"));
        assert_eq!(t.recovery, served[sid].recovery, "server {sid}");
        assert!(t.events > 0, "server {sid} telemetry counted no events");
        assert!(
            t.span_events > 0,
            "server {sid} telemetry counted no span-attributed events"
        );
        let proc = format!("s{sid}");
        assert!(
            merged
                .events
                .iter()
                .any(|e| e.proc == proc && e.span != blunt_obs::flight::SPAN_NONE),
            "merged dump has no span-attributed events from process {proc}"
        );
    }
}

#[test]
fn net_run_is_clean_under_stable_recovery_too() {
    let mut cfg = StoreConfig::register(0x4E75_0002);
    cfg.ops_per_client = 500;
    let (report, _) = common::run_over_uds(&cfg, &RunOpts::default(), "register-stable");
    assert_eq!(report.ops, 2_000);
    assert!(report.monitor.clean(), "stable-mode violations");
    // Stable mode: crashes are blackouts, never recovery events.
    assert_eq!(report.recovery.crashes, 0);
}
