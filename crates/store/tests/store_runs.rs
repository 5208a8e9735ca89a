//! Acceptance runs for the sharded keyed store.
//!
//! - keyed smoke under light faults: zero linearizability violations from
//!   the per-shard monitors, with the fault mix actually firing;
//! - same seed ⇒ identical transport stats and coverage (one op at a time;
//!   pipelined, identical request legs and crash counts), different seed ⇒
//!   a genuinely different schedule;
//! - batching is transport amortization only: any `batch_max` yields the
//!   exact same fault schedule (stats AND coverage) as unbatched sends;
//! - pipelining preserves per-key order: deep pipelines stay clean;
//! - the monitor needs no quiescent point: 8 clients × bursts of 16 on two
//!   keys (128 ops drawn at once, past the exhaustive checker's 64) stay
//!   clean on both tiers, and broken reads at that shape are still caught;
//! - the intentionally-broken single-server read is caught by the
//!   per-shard monitor on the keyed store, with a rendered window;
//! - the same client loop over real sockets (UDS loopback) stays clean,
//!   under amnesia crashes too, every crash recovered shard by shard;
//! - the reply-gap retransmission trigger never fires where nothing is
//!   lost, on either tier, and does fire over sockets under the chaos mix.

mod common;

use blunt_core::history::Action;
use blunt_core::spec::RegisterSpec;
use blunt_core::value::Val;
use blunt_lincheck::check_linearizable;
use blunt_obs::FlightKind;
use blunt_runtime::{RecoveryMode, RecoveryStats};
use blunt_store::{run_store, RunOpts, StoreConfig, StoreReport};

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

#[test]
fn keyed_smoke_under_light_faults_zero_violations() {
    let report = run_store(&StoreConfig::smoke(0x5709_0001)).expect("valid fault config");
    assert_eq!(report.ops, 2_000);
    assert!(
        report.monitor.clean(),
        "keyed violations: {:?}",
        report
            .monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    // The fault mix actually fired across the sharded topology.
    assert!(report.stats.dropped > 0, "{:?}", report.stats);
    // Every op produced one Call and one Return into some shard monitor.
    assert_eq!(report.monitor_actions, 2 * report.ops);
    assert_eq!(report.latency_us.count, report.ops);
    // Every return was checked and accepted.
    assert_eq!(report.monitor.checked, report.ops);
    assert!(report.ops_per_sec() > 0.0);
}

#[test]
fn same_seed_reproduces_the_schedule_different_seed_does_not() {
    let run = |seed, depth| {
        let mut cfg = StoreConfig::smoke(seed);
        cfg.pipeline_depth = depth;
        run_store(&cfg).expect("valid fault config")
    };
    // Fault fates live in per-link index space and, one op at a time, every
    // send hits its link in program order: the whole schedule is a pure
    // function of the seed — retransmissions are exempt and can't perturb
    // it.
    let a = run(0x5709_5EED, 1);
    let b = run(0x5709_5EED, 1);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.coverage, b.coverage);
    assert!(a.monitor.clean() && b.monitor.clean());
    let c = run(0x5709_5EEE, 1);
    assert_ne!(a.stats, c.stats);

    // Pipelined, the reply legs are the one documented exception (ROADMAP
    // item 3: how many replies a server→client link is offered moves with
    // timing). What the clients offer their links, and when servers crash,
    // still repeats exactly.
    let a = run(0x5709_5EED, 4);
    let b = run(0x5709_5EED, 4);
    let servers = StoreConfig::smoke(0).servers_total();
    let requests = |r: &blunt_store::StoreReport| -> Vec<blunt_net::LinkCoverage> {
        let links = r.coverage.links.iter();
        links.filter(|l| l.src >= servers).cloned().collect()
    };
    assert_eq!(a.ops, b.ops);
    assert_eq!(requests(&a), requests(&b));
    assert!(!requests(&a).is_empty());
    assert_eq!(a.stats.crash_events, b.stats.crash_events);
    assert_eq!(a.recovery.crashes, b.recovery.crashes);
    assert_eq!(a.shard_recoveries, b.shard_recoveries);
    assert!(a.monitor.clean() && b.monitor.clean());
    assert_ne!(requests(&a), requests(&run(0x5709_5EEE, 4)));
}

#[test]
fn batching_never_perturbs_the_fault_schedule() {
    let run = |batch_max| {
        let mut cfg = StoreConfig::smoke(0x5709_BA7C);
        cfg.batch_max = batch_max;
        run_store(&cfg).expect("valid fault config")
    };
    let unbatched = run(1);
    let batched = run(16);
    // A batch IS its envelope sequence: fates are drawn per logical
    // envelope in send order, so stats and coverage are identical at any
    // batch size — batching changes framing, never the schedule.
    assert_eq!(unbatched.stats, batched.stats);
    assert_eq!(unbatched.coverage, batched.coverage);
    assert!(unbatched.monitor.clean() && batched.monitor.clean());
}

#[test]
fn deep_pipelines_preserve_per_key_order() {
    let run = |depth| {
        let mut cfg = StoreConfig::smoke(0x5709_D0D0);
        cfg.pipeline_depth = depth;
        run_store(&cfg).expect("valid fault config")
    };
    // Depth 1 is the sequential client; depth 8 keeps a full burst in
    // flight. Both must linearize: the pipeline never overlaps two ops on
    // the same key from one client, and cross-key overlap is exactly what
    // linearizability permits.
    for report in [run(1), run(8)] {
        assert!(
            report.monitor.clean(),
            "pipelined violations: {:?}",
            report
                .monitor
                .violations
                .iter()
                .map(|v| &v.rendered)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.ops, 2_000);
    }
}

/// 8 clients × bursts of 16 at depth 8 on two keys, light faults: up to 16
/// ops in flight on each register and no client waiting for another, so
/// neither register need ever be quiescent.
fn wide_hot_shape(seed: u64) -> StoreConfig {
    let mut cfg = StoreConfig::smoke(seed);
    cfg.shards = 2;
    cfg.clients = 8;
    cfg.ops_per_client = 400;
    cfg.burst = 16;
    cfg.pipeline_depth = 8;
    cfg.keys = 2;
    cfg
}

#[test]
fn eight_clients_by_sixteen_on_two_keys_check_clean_on_both_tiers() {
    let cfg = wide_hot_shape(0x5709_80B0);
    let bus = run_store(&cfg).expect("valid fault config");
    let (uds, _) = common::run_over_uds(&cfg, &RunOpts::default(), "wide");
    for (tier, r) in [("bus", &bus), ("uds", &uds)] {
        assert_eq!(r.ops, 3_200, "{tier}");
        assert!(
            r.monitor.clean(),
            "{tier}: {:?}",
            r.monitor
                .violations
                .iter()
                .map(|v| &v.rendered)
                .collect::<Vec<_>>()
        );
        assert_eq!(r.monitor_actions, 2 * r.ops, "{tier}");
        assert_eq!(r.monitor.checked, r.ops, "{tier}");
    }
    // And the same shape still catches the single-server fast read.
    let mut broken = wide_hot_shape(0x5709_80B1);
    broken.broken_reads = true;
    let r = run_store(&broken).expect("valid fault config");
    assert!(
        !r.monitor.violations.is_empty(),
        "the unsafe fast read went unnoticed at 8 × 16"
    );
    assert_windows_stand_alone(&r);
}

#[test]
fn broken_reads_on_the_keyed_store_are_caught() {
    let mut cfg = StoreConfig::smoke(0x5709_0BAD);
    cfg.broken_reads = true;
    // Concentrate the keyspace and go write-heavy: replicas that miss a
    // dropped update stay stale, and the rotating single-server fast read
    // exposes them to the shard's monitor.
    cfg.keys = 8;
    cfg.read_per_mille = 400;
    let report = run_store(&cfg).expect("valid fault config");
    assert!(
        !report.monitor.violations.is_empty(),
        "the unsafe fast read went unnoticed on the keyed store"
    );
    assert_windows_stand_alone(&report);
    let v = &report.monitor.violations[0];
    assert!(
        v.rendered.contains('┌') && v.rendered.contains('└'),
        "window rendering must show operation intervals:\n{}",
        v.rendered
    );
    // The dump carries its own evidence: the shard's monitor replays the
    // window it rejected into its own ring before capturing, so every
    // invocation of the first reported window has its op events in the
    // dump even when the clients' bounded rings have long since evicted
    // them.
    let dump = report
        .violation_dump
        .as_ref()
        .expect("the first violation must capture a flight dump");
    let has = |kinds: [FlightKind; 2], inv: u64| {
        dump.events
            .iter()
            .any(|e| e.ring.starts_with("monitor-s") && kinds.contains(&e.kind) && e.a == inv)
    };
    for action in v.window.actions() {
        match action {
            Action::Call { inv, .. } => assert!(
                has([FlightKind::OpStartRead, FlightKind::OpStartWrite], inv.0),
                "no op_start event for invocation {} of the violation window",
                inv.0
            ),
            Action::Return { inv, .. } => assert!(
                has(
                    [FlightKind::OpCompleteRead, FlightKind::OpCompleteWrite],
                    inv.0
                ),
                "no op_complete event for invocation {} of the violation window",
                inv.0
            ),
        }
    }
}

#[test]
fn amnesia_recovery_on_the_keyed_store_is_clean_and_seed_deterministic() {
    let run = || {
        let mut cfg = StoreConfig::smoke(0x5709_A23E);
        cfg.recovery = RecoveryMode::amnesia();
        // Crash windows scaled to the sharded topology, mirroring the
        // chaos CLI's amnesia profile: a handful of servers down at any
        // instant rather than a whole shard's quorum.
        cfg.faults.crash_len = 4;
        cfg.faults.crash_period = 20 * u64::from(cfg.servers_total());
        run_store(&cfg).expect("valid fault config")
    };
    let a = run();
    assert!(
        a.monitor.clean(),
        "amnesia violations: {:?}",
        a.monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    assert_eq!(a.ops, 2_000);
    // Crashes actually fired, and the sound recovery path answered every
    // one of them: replay the WAL, then catch up from a live quorum.
    assert!(a.recovery.crashes >= 1, "{:?}", a.recovery);
    assert_eq!(a.recovery.crashes, a.recovery.recoveries);
    assert_eq!(
        a.shard_recoveries.iter().map(|&(c, _)| c).sum::<u64>(),
        a.recovery.crashes
    );
    for &(crashes, recoveries) in &a.shard_recoveries {
        assert_eq!(crashes, recoveries);
    }
    // Crash windows live in per-link index space, so which shard crashes
    // when — and therefore how often — is a pure function of the seed,
    // even though ack/reply timing under pipelining is not.
    let b = run();
    assert_eq!(a.recovery.crashes, b.recovery.crashes);
    assert_eq!(a.shard_recoveries, b.shard_recoveries);
    assert_eq!(a.ops, b.ops);
    assert!(b.monitor.clean());
}

#[test]
fn the_fsync_interval_bounds_what_a_crash_takes_not_how_long_an_ack_waits() {
    let run = |fsync_interval| {
        let mut cfg = StoreConfig::smoke(0x5709_A23E);
        cfg.recovery = RecoveryMode::Amnesia {
            fsync_interval,
            demo_skip_recovery: false,
        };
        cfg.faults.crash_len = 4;
        cfg.faults.crash_period = 20 * u64::from(cfg.servers_total());
        let report = run_store(&cfg).expect("valid fault config");
        assert!(
            report.monitor.clean(),
            "violations at fsync_interval {fsync_interval}: {:?}",
            report
                .monitor
                .violations
                .iter()
                .map(|v| &v.rendered)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.ops, 2_000);
        report
    };
    // Interval 1 syncs every record as it is appended; at interval 64 no
    // batch ever fills (4 clients × depth 4 offer a replica far fewer
    // unsynced records than that), so every ack there is released by a
    // pass-end commit. Were the interval still what releases acks, each of
    // those writes would sit out a retransmission timeout first: ≈ 470
    // retransmissions against the ≈ 17 that the dropped messages cost
    // either run — that is what the bound tells apart. The additive slack
    // is for the spurious 1 ms timeouts of a loaded box, which hit the two
    // runs independently: alone in a release build they read 16–22 and
    // 17–28 over 20 runs, in a debug build beside this file's nine other
    // tests 19–53 and 27–65 over 10 — where a bare "twice the other run"
    // failed 2 of the 10.
    let (eager, lazy) = (run(1), run(64));
    assert!(eager.recovery.crashes >= 1, "{:?}", eager.recovery);
    assert_eq!(eager.shard_recoveries, lazy.shard_recoveries);
    assert!(
        lazy.retransmissions <= 2 * eager.retransmissions + lazy.ops / 20,
        "interval 64 retransmitted {} times, interval 1 {} times",
        lazy.retransmissions,
        eager.retransmissions
    );
}

#[test]
fn a_shard_recovery_that_forgets_is_caught_by_that_shards_monitor() {
    // One shard's recovery skips WAL replay and quorum catch-up
    // (demo_shard); its per-shard monitor must be the one that fires.
    // The lie only surfaces when a crash lands between an acked write
    // and a later read served from the forgetful quorum, so scan a few
    // seeds like the CLI demo does.
    let mut caught = false;
    for attempt in 0..8u64 {
        let mut cfg = StoreConfig::smoke(0x5709_F09E + attempt);
        cfg.shards = 2;
        cfg.clients = 2;
        cfg.ops_per_client = 2_000;
        cfg.keys = 4;
        cfg.read_per_mille = 400;
        cfg.recovery = RecoveryMode::amnesia();
        cfg.demo_shard = Some(0);
        cfg.faults = blunt_net::FaultConfig::chaos();
        cfg.faults.drop_per_mille = 200;
        cfg.faults.delay_per_mille = 100;
        cfg.faults.crash_len = 2;
        cfg.faults.crash_period = 3 * u64::from(cfg.servers_total());
        let report = run_store(&cfg).expect("valid fault config");
        assert!(
            report.recovery.crashes >= 1,
            "demo config is inert: no crash windows fired"
        );
        if !report.monitor.violations.is_empty() {
            assert_windows_stand_alone(&report);
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "a recovery that skips WAL replay and catch-up went unnoticed"
    );
}

#[test]
fn keyed_amnesia_over_uds_recovers_every_crash_shard_by_shard() {
    // Recovery over sockets is the one place server processes talk to each
    // other: a recovering replica's `StateQuery` reaches its peers through
    // their pump threads and mailboxes, beside the driver sockets the
    // replica threads read themselves.
    let mut cfg = StoreConfig::smoke(0x5709_A23E);
    cfg.shards = 2;
    cfg.recovery = RecoveryMode::amnesia();
    cfg.faults.crash_len = 4;
    cfg.faults.crash_period = 20 * u64::from(cfg.servers_total());
    let (report, served) = common::run_over_uds(&cfg, &RunOpts::default(), "amnesia");
    assert_eq!(report.ops, 2_000);
    assert!(
        report.monitor.clean(),
        "amnesia violations over sockets: {:?}",
        report
            .monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    assert!(!report.stalled, "run stalled");
    assert!(report.recovery.crashes >= 1, "{:?}", report.recovery);
    // The driver's totals are the servers' own counters summed, every
    // field of them — the WAL and catch-up ones included.
    let mut server_total = RecoveryStats::default();
    for r in &served {
        server_total += r.recovery;
    }
    assert_eq!(report.recovery, server_total);
    let replicas = served.chunks(cfg.servers_per_shard as usize);
    assert_eq!(replicas.len(), report.shard_recoveries.len());
    for (shard, (&(crashes, recoveries), replicas)) in
        report.shard_recoveries.iter().zip(replicas).enumerate()
    {
        assert_eq!(crashes, recoveries, "shard {shard}, by the driver");
        for s in replicas {
            assert_eq!(s.recovery.crashes, s.recovery.recoveries, "shard {shard}");
        }
        let own = replicas.iter().fold((0, 0), |(c, r), s| {
            (c + s.recovery.crashes, r + s.recovery.recoveries)
        });
        assert_eq!(
            own,
            (crashes, recoveries),
            "shard {shard}, by the servers' own reports"
        );
    }
}

/// The `bus_amnesia` benchmark shape at test size: 2 shards × 3 replicas,
/// 2 clients at depth 8 and batch 16 — several ops per shard in flight at
/// once, which is what gives a stalled exchange successors to expose it.
fn deep_two_shard_shape(seed: u64) -> StoreConfig {
    let mut cfg = StoreConfig::bench(seed);
    cfg.shards = 2;
    cfg.clients = 2;
    cfg.ops_per_client = 1_000;
    cfg
}

#[test]
fn the_reply_gap_never_fires_where_nothing_is_lost_on_either_tier() {
    // Fault-free, every link is FIFO and no response goes missing, so no
    // replica ever answers a later exchange ahead of an earlier one: the
    // rule is evaluated every pass and proves nothing. The deadline is a
    // guess and may well fire (a 1 ms silence on a loaded box).
    let cfg = deep_two_shard_shape(0x5709_6A90);
    let bus = run_store(&cfg).expect("valid fault config");
    let (uds, _) = common::run_over_uds(&cfg, &RunOpts::default(), "gap-quiet");
    for (tier, report) in [("bus", bus), ("uds", uds)] {
        assert_eq!(report.ops, 2_000, "{tier}");
        assert!(report.monitor.clean(), "{tier}: violations on a quiet run");
        assert_eq!(report.gap_retransmissions, 0, "{tier}");
    }
}

#[test]
fn the_reply_gap_fires_over_uds_under_chaos_and_amnesia() {
    let mut cfg = deep_two_shard_shape(0x5709_6A91);
    cfg.faults = blunt_net::FaultConfig::chaos();
    cfg.faults.crash_len = 4;
    cfg.faults.crash_period = 20 * u64::from(cfg.servers_total());
    cfg.recovery = RecoveryMode::amnesia();
    let (report, _) = common::run_over_uds(&cfg, &RunOpts::default(), "gap-amnesia");
    assert_eq!(report.ops, 2_000);
    assert!(
        report.monitor.clean(),
        "violations: {:?}",
        report
            .monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    assert!(!report.stalled, "run stalled");
    assert!(report.recovery.crashes >= 1, "{:?}", report.recovery);
    for (shard, &(crashes, recoveries)) in report.shard_recoveries.iter().enumerate() {
        assert_eq!(crashes, recoveries, "shard {shard}");
    }
    // Sockets are per-link FIFO like mailboxes, so the evidence is as good
    // here as on the bus — and every gap rebroadcast is a rebroadcast.
    assert!(report.gap_retransmissions > 0, "the rule never fired");
    assert!(report.gap_retransmissions <= report.retransmissions);
}

#[test]
fn keyed_store_over_uds_sockets_zero_violations() {
    let mut cfg = StoreConfig::smoke(0x5709_4E75);
    cfg.shards = 2;
    cfg.clients = 2;
    cfg.ops_per_client = 250;
    cfg.keys = 16;
    let (report, _) = common::run_over_uds(&cfg, &RunOpts::default(), "net");
    assert_eq!(report.ops, 500);
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
    // Socket frames actually moved, and batches actually formed.
    assert!(blunt_obs::counter("net.frames_sent").get() > 0);
    assert!(blunt_obs::counter("store.batch.flushes").get() > 0);
    // Under light faults either trigger may rebroadcast; the gap's are
    // counted among the total, never beside it.
    assert!(report.gap_retransmissions <= report.retransmissions);
    // The tracing plane comes home on keyed runs too: one remote section
    // per replica, and a merged dump with events from every one of them.
    assert_eq!(report.remote_servers.len(), 6);
    let merged = report.merged_flight.as_ref().expect("net runs merge dumps");
    let jsonl = merged.to_jsonl();
    for sid in 0..cfg.servers_total() {
        assert!(
            jsonl.contains(&format!("\"proc\":\"s{sid}\"")),
            "merged dump has no event from replica process s{sid}"
        );
    }
}
