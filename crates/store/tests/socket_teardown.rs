//! A socket-tier run leaves nothing behind in its process.
//!
//! The driver's per-connection readers block in `read`, and a reader does
//! not end because the run that started it returned: `NetClient::shutdown`
//! shuts every connection down, so its reader sees the end of the stream
//! whatever the server does, and `NetServer::close` does the same from the
//! server's end. A serve process accepts its one connection on its own
//! thread and drops its listener there, so it leaves no thread in `accept`.
//! Before the two endpoints shut their connections down, every in-process
//! socket run leaked two threads per replica (one blocked in `accept`, one
//! reader), with the client lanes and both recorders — 12 threads and
//! ≈ 5 MB a run on the benchmark's `uds_*` shapes. This file holds the one
//! test so that no other test's threads are counted.

#![cfg(target_os = "linux")]

mod common;

use std::time::{Duration, Instant};

use blunt_net::FaultConfig;
use blunt_store::{RunOpts, StoreConfig};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn socket_runs_leave_no_threads_behind() {
    // The benchmark's `uds_pipelined` shape, short: 2 shards × 3 replicas
    // behind six listeners, two clients.
    let mut cfg = StoreConfig::bench(0x7EA2_D043);
    cfg.shards = 2;
    cfg.clients = 2;
    cfg.ops_per_client = 400;
    cfg.faults = FaultConfig::none();
    let before = threads();
    for run in 0..3 {
        // The same tag, so the same six socket paths every time: each run's
        // servers bind them afresh.
        let (report, _) = common::run_over_uds(&cfg, &RunOpts::default(), "teardown");
        assert!(report.monitor.clean());
        assert_eq!(report.ops, 800);
        // The readers see their streams end when the servers close them,
        // which is after the run's last join: give them a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while threads() > before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            threads() <= before,
            "run {run}: {} threads where {before} were before the first run",
            threads()
        );
    }
}
