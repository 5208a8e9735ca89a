//! A run starts the threads its shape needs and no others.
//!
//! One `worker` thread steps every machine a run process owns: on the bus
//! every client, every shard's replicas and every shard monitor, so no
//! `client-*`, `server-s*` or `monitor-*` thread exists; over sockets the
//! driver's clients and monitors, beside one `net-reader-*` thread per
//! server connection, while each replica is its own `server-<pid>` thread
//! (a `run_net_server`), which accepts its driver's connection itself: no
//! `net-accept` or `net-conn` thread waits for a later dial. A `Delay` is
//! a timer the worker keeps, on either tier, and the driver's worker
//! writes the catch-up relays itself: no run shows a `*-delayer` thread,
//! not a bus run that delays replies, nor a socket run under amnesia that
//! relays catch-up traffic. A watched run is watched by the thread that
//! started it: beside its worker, no `watch` thread. A sampler thread
//! reads `/proc/self/task/*/comm` every millisecond while the runs go;
//! this file holds the one test so that no other test's threads are seen.

#![cfg(target_os = "linux")]

mod common;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use blunt_net::FaultConfig;
use blunt_runtime::RecoveryMode;
use blunt_store::{run_store_with, RunOpts, StoreConfig};

/// The names of this process's threads right now.
fn thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

/// Every thread name seen while `run` ran.
fn names_during(run: impl FnOnce()) -> BTreeSet<String> {
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut seen = BTreeSet::new();
            while !done.load(Ordering::Relaxed) {
                seen.extend(thread_names());
                thread::sleep(Duration::from_millis(1));
            }
            seen
        })
    };
    run();
    done.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread")
}

/// The benchmark's pipelined shape, short: 2 shards × 3 replicas, two
/// clients.
fn shape(faults: FaultConfig) -> StoreConfig {
    let mut cfg = StoreConfig::bench(0x0DE1_A7E5);
    cfg.shards = 2;
    cfg.clients = 2;
    cfg.ops_per_client = 2_000;
    cfg.faults = faults;
    cfg
}

fn delayers(names: &BTreeSet<String>) -> Vec<&String> {
    names.iter().filter(|n| n.ends_with("-delayer")).collect()
}

/// The names in `names` that start with one of `prefixes`.
fn named<'a>(names: &'a BTreeSet<String>, prefixes: &[&str]) -> Vec<&'a str> {
    let hit = |n: &&String| prefixes.iter().any(|p| n.starts_with(p));
    names.iter().filter(hit).map(String::as_str).collect()
}

#[test]
fn a_run_steps_its_machines_on_one_worker_and_starts_no_delayer_even_for_delays() {
    let opts = RunOpts::default();
    let bus = names_during(|| {
        let report = run_store_with(&shape(FaultConfig::none()), &opts, None).expect("valid");
        assert!(report.monitor.clean());
    });
    assert!(bus.contains("worker"), "{bus:?}");
    assert_eq!(
        named(&bus, &["client-", "server-", "monitor-"]),
        Vec::<&str>::new(),
        "the bus run's machines all run on its worker"
    );
    assert_eq!(delayers(&bus), Vec::<&String>::new(), "fault-free bus run");

    let mirror =
        std::env::temp_dir().join(format!("blunt-no-delayer-{}.jsonl", std::process::id()));
    let watching = RunOpts {
        watch_out: Some(mirror.clone()),
        stall_after: Some(Duration::from_secs(60)),
        ..RunOpts::default()
    };
    let watched = names_during(|| {
        let report = run_store_with(&shape(FaultConfig::none()), &watching, None).expect("valid");
        assert!(report.monitor.clean());
        assert!(!report.stalled);
    });
    let _ = std::fs::remove_file(&mirror);
    assert!(watched.contains("worker"), "{watched:?}");
    assert_eq!(
        named(&watched, &["watch"]),
        Vec::<&str>::new(),
        "the thread that started a watched run watches it"
    );

    let uds = names_during(|| {
        let (report, _) = common::run_over_uds(&shape(FaultConfig::none()), &opts, "no-delayer");
        assert!(report.monitor.clean());
    });
    assert!(uds.contains("worker"), "the driver's worker: {uds:?}");
    assert_eq!(
        named(&uds, &["net-accept", "net-conn"]),
        Vec::<&str>::new(),
        "a serve process takes its one connection on its own thread"
    );
    assert_eq!(
        named(&uds, &["net-reader-"]),
        (0..6)
            .map(|i| format!("net-reader-{i}"))
            .collect::<Vec<_>>(),
        "one reader per server connection"
    );
    assert_eq!(
        named(&uds, &["server-"]),
        (0..6).map(|i| format!("server-{i}")).collect::<Vec<_>>(),
        "one server thread per replica over sockets"
    );
    assert_eq!(
        named(&uds, &["client-", "monitor-"]),
        Vec::<&str>::new(),
        "the driver's machines all run on its worker"
    );
    assert_eq!(
        delayers(&uds),
        Vec::<&String>::new(),
        "fault-free serve processes"
    );

    // Delays are the worker's timers: a bus run that draws them starts no
    // thread for them.
    let light = names_during(|| {
        let report = run_store_with(&shape(FaultConfig::light()), &opts, None).expect("valid");
        assert!(report.monitor.clean());
        assert!(report.stats.delayed > 0, "light faults delay replies");
    });
    assert!(light.contains("worker"), "{light:?}");
    assert_eq!(
        delayers(&light),
        Vec::<&String>::new(),
        "a bus run that delays"
    );
    assert_eq!(
        named(&light, &["client-", "server-", "monitor-"]),
        Vec::<&str>::new()
    );

    // The driver's worker relays the servers' catch-up traffic itself.
    let mut amnesia = shape(FaultConfig::light());
    amnesia.recovery = RecoveryMode::amnesia();
    amnesia.faults.crash_len = 4;
    amnesia.faults.crash_period = 20 * u64::from(amnesia.servers_total());
    let relayed = names_during(|| {
        let (report, _) = common::run_over_uds(&amnesia, &opts, "no-delayer-amnesia");
        assert!(report.monitor.clean());
        assert!(
            report.recovery.state_queries > 0,
            "the recoveries queried peers: {:?}",
            report.recovery
        );
    });
    assert!(relayed.contains("worker"), "{relayed:?}");
    assert_eq!(
        named(&relayed, &["net-reader-"]),
        (0..6)
            .map(|i| format!("net-reader-{i}"))
            .collect::<Vec<_>>(),
        "one reader per server connection, under amnesia too"
    );
    assert_eq!(
        delayers(&relayed),
        Vec::<&String>::new(),
        "a socket run that relays catch-up traffic"
    );
}
