//! The flight recorder, coverage telemetry and the watch, end to end
//! through the one driver on the register shape:
//!
//! - two same-seed runs produce byte-identical coverage (and summary-grade
//!   deterministic counters), proving the instrumentation draws no
//!   randomness and never perturbs the fault schedule;
//! - a run that the monitor flags auto-captures a flight dump at the
//!   moment of detection, and the dump contains the violating operations
//!   themselves — and keeps every machine's sends in that machine's own
//!   ring, though one worker thread steps them all;
//! - `watch` streams without changing any deterministic result, and its
//!   JSONL mirror ends on the run's totals;
//! - a run in which no op completes for `stall_after` is declared stalled,
//!   and the watchdog writes its flight window to the dump directory.

use std::time::Duration;

use blunt_core::history::Action;
use blunt_core::value::Val;
use blunt_net::FaultConfig;
use blunt_obs::flight::encode_val;
use blunt_obs::{FlightDump, FlightKind, Json};
use blunt_store::{run_store, run_store_with, RunOpts, StoreConfig};

fn small(seed: u64) -> StoreConfig {
    let mut cfg = StoreConfig::register(seed);
    cfg.ops_per_client = 150;
    cfg
}

#[test]
fn same_seed_runs_have_identical_coverage_and_deterministic_counters() {
    let a = run_store(&small(0xC0FF_EE00)).expect("run a");
    let b = run_store(&small(0xC0FF_EE00)).expect("run b");
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(
        a.coverage.to_json().to_string(),
        b.coverage.to_json().to_string(),
        "coverage must serialize byte-identically for a fixed seed"
    );
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.monitor_actions, 2 * a.ops);
    assert_eq!(b.monitor_actions, 2 * b.ops);
    // The full chaos mix at this length exercises every fate.
    assert_eq!(
        a.coverage.fates_exercised(),
        vec![
            "deliver",
            "drop",
            "duplicate",
            "reorder",
            "delay",
            "crash_drop",
            "partition_drop"
        ]
    );
    // Links are (src, dst)-sorted with first-transmission totals that
    // reconcile against the transport counters.
    let offered: u64 = a.coverage.links.iter().map(|l| l.offered).sum();
    assert_eq!(offered, a.stats.offered);
    let mut keys: Vec<(u32, u32)> = a.coverage.links.iter().map(|l| (l.src, l.dst)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
    keys.dedup();
    assert_eq!(keys.len(), a.coverage.links.len(), "one entry per link");
}

#[test]
fn violation_captures_a_flight_dump_containing_the_violating_ops() {
    // The proven catch configuration (mirrors register_soak's
    // broken_fast_read test): unsound single-server reads under the full
    // fault mix.
    let mut cfg = StoreConfig::register(0x0BAD_5EED);
    cfg.broken_reads = true;
    cfg.read_per_mille = 400;
    let report = run_store(&cfg).expect("run");
    assert!(
        !report.monitor.violations.is_empty(),
        "the broken read must be caught"
    );
    let dump = report
        .violation_dump
        .as_ref()
        .expect("a violation must auto-capture a flight dump");
    assert!(
        dump.events
            .iter()
            .any(|e| e.kind == FlightKind::MonitorViolation),
        "the monitor's violation event is in the window"
    );

    // The dump is captured at the instant the monitor flags the first
    // violation, so every operation of that violation's window is in it:
    // each value a violating op returned appears on a completion event.
    let window = &report.monitor.violations[0].window;
    let mut checked = 0;
    for action in window.actions() {
        if let Action::Return {
            inv,
            val: Val::Int(v),
        } = action
        {
            assert!(
                dump.events.iter().any(|e| matches!(
                    e.kind,
                    FlightKind::OpCompleteRead | FlightKind::OpCompleteWrite
                ) && e.a == inv.0
                    && e.b == encode_val(Some(*v))),
                "violating op returning {v} missing from the flight dump"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "violation window has value-returning ops");

    // The monitor checks each action inside the call that reports it, so
    // the dump is taken at the op it flags: no client has recorded anything
    // since that op's completion. The flagged `Return` is the window's last
    // action — every other one was observed before it.
    let Some(Action::Return { inv, .. }) = window.actions().last() else {
        panic!("a window ends on the return it flags");
    };
    let flagged = dump
        .events
        .iter()
        .find(|e| {
            e.ring.starts_with("client-")
                && matches!(
                    e.kind,
                    FlightKind::OpCompleteRead | FlightKind::OpCompleteWrite
                )
                && e.a == inv.0
        })
        .expect("the flagged op's completion is in its client's ring");
    for e in dump.events.iter().filter(|e| e.ring.starts_with("client-")) {
        let later = if e.ring == flagged.ring {
            e.seq > flagged.seq
        } else {
            e.t_us > flagged.t_us
        };
        assert!(
            !later,
            "{} {:?} recorded after the flagged op completed ({} #{}, {} µs)",
            e.ring, e.kind, flagged.ring, flagged.seq, flagged.t_us
        );
    }

    // One worker steps every machine, and each machine's sends and the
    // fates they drew are in its own ring: a client's under `client-<pid>`,
    // a replica's under `server-<pid>`.
    let sends = |prefix: &str| {
        let ring = |e: &&blunt_obs::FlightEvent| e.ring.starts_with(prefix);
        dump.events
            .iter()
            .filter(ring)
            .filter(|e| e.kind == FlightKind::BusSend)
            .count()
    };
    assert!(sends("client-") > 0 && sends("server-") > 0);
    let servers = cfg.servers_total();
    for e in &dump.events {
        let sent = e.kind == FlightKind::BusSend || e.kind.as_str().starts_with("fault_");
        if !sent {
            continue;
        }
        let owner = if e.pid < servers {
            format!("server-{}", e.pid)
        } else {
            format!("client-{}", e.pid)
        };
        assert_eq!(e.ring, owner, "{:?} from pid {}", e.kind, e.pid);
    }

    // Round trip: the dump survives JSONL serialization.
    let reparsed = blunt_obs::FlightDump::parse(&dump.to_jsonl()).expect("round trip");
    assert_eq!(&reparsed, dump);
}

#[test]
fn watch_mode_streams_without_perturbing_determinism() {
    let silent = run_store(&small(0x7E1E_3E7A)).expect("silent run");
    let mirror =
        std::env::temp_dir().join(format!("blunt-store-watch-{}.jsonl", std::process::id()));
    let opts = RunOpts {
        watch: Some(Duration::from_millis(20)),
        watch_out: Some(mirror.clone()),
        stall_after: Some(Duration::from_secs(60)),
        ..RunOpts::default()
    };
    let watched = run_store_with(&small(0x7E1E_3E7A), &opts, None).expect("watched run");
    assert_eq!(silent.coverage, watched.coverage);
    assert_eq!(silent.stats, watched.stats);
    assert_eq!(silent.ops, watched.ops);
    assert!(!watched.stalled);
    assert!(watched.violation_dump.is_none(), "clean run, no dump");

    // The mirror: a header naming the seed, then ticks; the last one is
    // written after every op completed, so it carries the run's total.
    let text = std::fs::read_to_string(&mirror).expect("watch mirror written");
    let _ = std::fs::remove_file(&mirror);
    let docs: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("mirror line parses"))
        .collect();
    assert_eq!(
        docs[0].get("type").and_then(Json::as_str),
        Some("chaos_watch")
    );
    assert_eq!(
        docs[0].get("seed").and_then(Json::as_u64),
        Some(0x7E1E_3E7A)
    );
    let last = docs.last().expect("at least the header");
    assert_eq!(last.get("type").and_then(Json::as_str), Some("watch_tick"));
    assert_eq!(last.get("ops").and_then(Json::as_u64), Some(watched.ops));
}

#[test]
fn the_watchdog_declares_a_stall_and_dumps_the_flight_window() {
    // Every first transmission is dropped, so each phase of the one op
    // completes only on its rebroadcast (exempt, as are the replies it
    // draws), one 300 ms silence deadline later: well past `stall_after`.
    let mut cfg = StoreConfig::register(0x57A1_1ED0);
    cfg.clients = 1;
    cfg.ops_per_client = 1;
    cfg.faults = FaultConfig {
        drop_per_mille: 1000,
        ..FaultConfig::none()
    };
    cfg.retransmit_after = Duration::from_millis(300);
    cfg.retransmit_cap = Duration::from_millis(300);
    let dir = std::env::temp_dir().join(format!("blunt-store-stall-{}", std::process::id()));
    let opts = RunOpts {
        stall_after: Some(Duration::from_millis(100)),
        flight_dump_dir: Some(dir.clone()),
        ..RunOpts::default()
    };
    let report = run_store_with(&cfg, &opts, None).expect("valid fault config");
    assert!(report.stalled, "no op completed for 100 ms");
    assert!(report.monitor.clean());
    assert_eq!(report.ops, 1);

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("the stall dump directory was made")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("stall") && n.ends_with(".flight.jsonl"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "one stall dump: {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("stall dump readable");
    let _ = std::fs::remove_dir_all(&dir);
    let dump = FlightDump::parse(&text).expect("the stall dump parses as a flight dump");
    let client = cfg.servers_total();
    assert!(
        dump.events.iter().any(|e| e.pid == client
            && matches!(e.kind, FlightKind::OpStartRead | FlightKind::OpStartWrite)),
        "the client's op start is in the window"
    );
    assert!(
        dump.events.iter().any(|e| e.kind == FlightKind::FaultDrop),
        "and the drop that stalled it"
    );
}
