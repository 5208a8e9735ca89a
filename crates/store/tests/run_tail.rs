//! A bus run ends with its last op. The worker returns once every client
//! has finished and the mailbox has run dry, so a run pays no idle timeout
//! on its way out: 20 ops of the register shape, retransmission deadlines
//! under its chaos faults included, take about 12 ms; a 20 ms idle wait
//! for a stop flag would show.
//!
//! One test alone in its binary: it times a run, and a soak beside it
//! would be timing the box. The best of three runs is what it bounds.

use std::time::Duration;

use blunt_store::{run_store, StoreConfig};

#[test]
fn a_bus_run_ends_with_its_last_op() {
    let mut cfg = StoreConfig::register(48_879);
    cfg.ops_per_client = 5;
    let best = (0..3)
        .map(|_| {
            let r = run_store(&cfg).expect("valid fault config");
            assert!(r.monitor.clean(), "{:?}", r.monitor.violations);
            assert_eq!(r.ops, 20);
            r.elapsed
        })
        .min()
        .expect("three runs");
    assert!(
        best < Duration::from_millis(15),
        "best of three took {best:?}"
    );
}
