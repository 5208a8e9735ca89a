//! A socket-tier run leaves nothing behind in its process.
//!
//! `NetServer`'s acceptor blocks in `accept` and the driver's per-connection
//! readers in `read`; neither ends because the run that started it returned.
//! Until `NetServer::close` and `NetClient::shutdown` took care of it, every
//! in-process socket run leaked one acceptor (with its listener, the driver
//! connection and the server's flight recorder) and one reader (with the
//! client lanes and the driver's recorder) per replica — 12 threads and
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
        // The same tag, so the same six socket paths every time: a listener
        // that outlived its run would also take the next run's dials.
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
