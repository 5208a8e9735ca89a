//! A run starts the threads its shape needs and no others.
//!
//! One `worker` thread steps every machine a run process owns: on the bus
//! every client, every shard's replicas and every shard monitor, so no
//! `client-*`, `server-s*` or `monitor-*` thread exists; over sockets the
//! driver's clients and monitors, beside one `net-reader-*` thread per
//! server connection, while each replica is its own `server-<pid>` thread
//! (a `run_net_server`). The bus and the socket driver realise `Delay`
//! fates through one `Delayer` each, whose thread is spawned by the first
//! delay drawn: a fault-free run never shows a `*-delayer` thread, while a
//! bus run under faults that delay does. A sampler thread reads
//! `/proc/self/task/*/comm` every millisecond while the runs go; this file
//! holds the one test so that no other test's threads are seen.

#![cfg(target_os = "linux")]

mod common;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use blunt_net::FaultConfig;
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
fn a_run_steps_its_machines_on_one_worker_and_starts_a_delayer_only_for_delays() {
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

    let uds = names_during(|| {
        let (report, _) = common::run_over_uds(&shape(FaultConfig::none()), &opts, "no-delayer");
        assert!(report.monitor.clean());
    });
    assert!(uds.contains("worker"), "the driver's worker: {uds:?}");
    assert!(uds.contains("net-accept"), "{uds:?}");
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

    // The control: a bus run that draws delays does start its delayer, so
    // the sampler would have seen one above.
    let light = names_during(|| {
        let report = run_store_with(&shape(FaultConfig::light()), &opts, None).expect("valid");
        assert!(report.monitor.clean());
        assert!(report.stats.delayed > 0, "light faults delay replies");
    });
    assert!(light.contains("bus-delayer"), "{light:?}");
    assert_eq!(
        named(&light, &["client-", "server-", "monitor-"]),
        Vec::<&str>::new()
    );
}
