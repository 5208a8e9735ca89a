//! A bus run ends with its last op. The worker returns once every client
//! has finished and the mailbox has run dry, so a run pays no idle timeout
//! on its way out; a 20 ms idle wait for a stop flag would show.
//!
//! What is bounded is the run's fixed cost, its set-up and its tail, not
//! its length: a fault-free run of the register shape takes
//! `t(n) ≈ fixed + n·c` at `n` ops per client, where `c` depends on the
//! build profile (a debug build takes about twice as long per op), so
//! `2·t(5) − t(10)` is the fixed cost alone, in either profile: about
//! 2.5 ms in release and 5 ms in debug. Fault-free, because under faults a
//! run's length is set by the fault schedule's retransmission deadlines,
//! which do not grow with the op count. The best of three runs is taken at
//! each size.
//!
//! One test alone in its binary: it times runs, and a soak beside it would
//! be timing the box.

use std::time::Duration;

use blunt_net::FaultConfig;
use blunt_store::{run_store, StoreConfig};

/// Half the idle tail this guards against.
const FIXED_BOUND: Duration = Duration::from_millis(10);

/// The best of three fault-free runs of the register shape at `ops` per
/// client.
fn best_of_three(ops: u64) -> Duration {
    let mut cfg = StoreConfig::register(48_879);
    cfg.faults = FaultConfig::none();
    cfg.ops_per_client = ops;
    (0..3)
        .map(|_| {
            let r = run_store(&cfg).expect("valid fault config");
            assert!(r.monitor.clean(), "{:?}", r.monitor.violations);
            assert_eq!(r.ops, 4 * ops);
            r.elapsed
        })
        .min()
        .expect("three runs")
}

#[test]
fn a_bus_run_ends_with_its_last_op() {
    let (t5, t10) = (best_of_three(5), best_of_three(10));
    let fixed = (2 * t5).saturating_sub(t10);
    assert!(
        fixed < FIXED_BOUND,
        "a fixed cost of {fixed:?}: {t5:?} at 5 ops per client, {t10:?} at 10"
    );
}
