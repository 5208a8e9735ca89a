//! A `Delay` is a timer the worker keeps, and the worker wakes for it.
//!
//! Every server→client message of a bus run is delayed, and the clients'
//! retransmission deadline is far away, so whenever a client waits for a
//! reply the worker's mailbox is empty and its only reason to wake soon is
//! the next delay falling due. The run must complete clean, with every
//! reply delivered by its timer (no retransmission), and in about the
//! delays' own time: 25 ops a client at two delayed phases of 1 ms each
//! take ≈ 60 ms. A worker that slept through its timers to the 20 ms idle
//! poll would take ≈ 1 s.
//!
//! One test alone in its binary: it times a run.

use std::time::Duration;

use blunt_net::FaultConfig;
use blunt_store::{run_store, StoreConfig};

/// The register shape's replicas: pids below this are servers.
const SERVERS: u32 = 3;

#[test]
fn a_bus_run_whose_every_reply_is_delayed_completes_clean_on_its_timers() {
    let mut cfg = StoreConfig::register(48_879);
    cfg.ops_per_client = 25;
    cfg.faults = FaultConfig::none();
    cfg.faults.delay_per_mille = 1000;
    cfg.retransmit_after = Duration::from_secs(10);
    cfg.retransmit_cap = Duration::from_secs(10);
    let report = run_store(&cfg).expect("valid fault config");
    assert!(report.monitor.clean(), "{:?}", report.monitor.violations);
    assert_eq!(report.ops, 100);
    let replies: Vec<_> = report
        .coverage
        .links
        .iter()
        .filter(|l| l.src < SERVERS)
        .collect();
    assert_eq!(replies.len(), 12, "every replica answered every client");
    for l in replies {
        assert_eq!(l.delayed, l.offered, "link {}→{}", l.src, l.dst);
    }
    assert_eq!(report.retransmissions, 0, "every reply came on its timer");
    assert!(
        report.elapsed < Duration::from_millis(500),
        "the run took {:?}",
        report.elapsed
    );
}
