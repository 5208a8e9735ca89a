//! The socket-transport acceptance run on the register shape, in one
//! process: three servers each running [`blunt_runtime::run_net_server`] on
//! its own thread behind a loopback Unix-domain socket, plus the one
//! driver — the same topology the `net-smoke` CI job runs as separate
//! `chaos serve` processes, minus the process boundary.
//!
//! The run must complete ≥ 10k operations under the chaos fault mix with
//! amnesia crashes, report zero linearizability violations, and show at
//! least one server crash *and recovery* mid-run, every catch-up complete —
//! i.e. the WAL + peer catch-up machinery works when peers answer through
//! the driver's relay, not a mailbox. And a serve process that goes away
//! mid-run is a crashed replica, which the majority quorums ride out.

mod common;

use std::thread;
use std::time::{Duration, Instant};

use blunt_net::{Addr, FaultConfig};
use blunt_runtime::{run_net_server, NetServeConfig, RecoveryMode, RecoveryStats};
use blunt_store::{run_store_net, RunOpts, StoreConfig};

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
    // And every recovery's catch-up completed: an aborted one counts as a
    // recovery too, so the two gates above pass even if no `StateReply`
    // ever arrived.
    assert_eq!(server_total.catchup_aborted, 0, "{server_total:?}");
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
    // Catch-up crossed the driver, the one hub: each crash's queries to
    // its two peers and their answers were relayed — 4 per crash, less
    // any the driver's `Shutdown` overtook, at least one each way.
    let relays = blunt_obs::counter("net.relays").get();
    assert!(
        (2 * server_crashes..=2 * server_total.state_queries).contains(&relays),
        "{relays} relays for {server_total:?}"
    );
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

/// A replica whose serve process went away right after the driver dialed
/// it — its connection and listener gone, its socket file left behind — is
/// a crash-stop replica: the other two are a majority, and the run is
/// clean and as quick as a fault-free one. Nothing dials it again.
#[test]
fn a_replica_gone_after_the_dial_is_a_crashed_replica() {
    let mut cfg = StoreConfig::register(0x4E75_0003);
    cfg.faults = FaultConfig::none();
    cfg.clients = 1;
    cfg.ops_per_client = 4;
    let dir = std::env::temp_dir().join(format!("blunt-store-gone-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let addrs: Vec<Addr> = (0..3)
        .map(|i| Addr::parse(dir.join(format!("s{i}.sock")).to_str().expect("utf-8 path")))
        .collect();
    let live: Vec<_> = (0..2)
        .map(|i| {
            let scfg = NetServeConfig {
                listen: addrs[i as usize].clone(),
                server_id: i,
                servers: 3,
                clients: cfg.clients,
                peers: Vec::new(),
                seed: cfg.seed,
                faults: cfg.faults,
                recovery: cfg.recovery,
                shard_size: None,
                dump_dir: None,
            };
            thread::spawn(move || run_net_server(&scfg).expect("server run"))
        })
        .collect();
    let listener = addrs[2].listen().expect("bind UDS listener");
    let gone = thread::spawn(move || drop(listener.accept().expect("the driver dials")));

    let t0 = Instant::now();
    let report = run_store_net(&cfg, &addrs).expect("valid fault config");
    let took = t0.elapsed();
    gone.join().expect("the gone replica");
    for s in live {
        s.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.ops, 4);
    assert!(report.monitor.clean(), "{:?}", report.monitor.violations);
    assert!(took < Duration::from_secs(2), "took {took:?}");
    let said_goodbye: Vec<bool> = report
        .remote_servers
        .iter()
        .map(|r| r.dump.is_some())
        .collect();
    assert_eq!(said_goodbye, [true, true, false]);
}
