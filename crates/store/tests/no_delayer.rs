//! A run starts the threads its shape needs and no others.
//!
//! The bus and every serve process realise `Delay` fates through one
//! `Delayer`, whose thread is spawned by the first delay drawn. A
//! fault-free run — on the bus, and over sockets with every replica a
//! `run_net_server` — must therefore never show a `*-delayer` thread, while
//! a bus run under faults that delay does. On the bus a shard's replicas
//! share one host thread (`server-s<shard>`); over sockets each replica is
//! its own `server-<pid>` thread. A sampler thread reads
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

/// The server-class threads: what a per-thread profile counts as servers.
fn servers(names: &BTreeSet<String>) -> Vec<&str> {
    let servers = names.iter().filter(|n| n.starts_with("server-"));
    servers.map(String::as_str).collect()
}

#[test]
fn fault_free_runs_start_no_delayer_thread() {
    let opts = RunOpts::default();
    let bus = names_during(|| {
        let report = run_store_with(&shape(FaultConfig::none()), &opts, None).expect("valid");
        assert!(report.monitor.clean());
    });
    assert!(bus.contains("client-6"), "{bus:?}");
    assert_eq!(
        servers(&bus),
        ["server-s0", "server-s1"],
        "one host thread per shard on the bus"
    );
    assert_eq!(delayers(&bus), Vec::<&String>::new(), "fault-free bus run");

    let uds = names_during(|| {
        let (report, _) = common::run_over_uds(&shape(FaultConfig::none()), &opts, "no-delayer");
        assert!(report.monitor.clean());
    });
    assert!(uds.contains("net-accept"), "{uds:?}");
    assert_eq!(
        servers(&uds),
        (0..6).map(|i| format!("server-{i}")).collect::<Vec<_>>(),
        "one server thread per replica over sockets"
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
}
