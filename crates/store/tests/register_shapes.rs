//! The one driver reproduces the deleted register driver.
//!
//! `run_chaos(&RuntimeConfig::smoke(..))` is gone; its five smoke shapes
//! (k = 1, 2 under the chaos mix with stable and amnesia recovery, plus
//! the fault-free control) now run as [`StoreConfig::register`]. The
//! literals below are what the deleted driver produced at seed 48879:
//! every `TransportStats` field, the crash/recovery counts, and
//! `monitor_actions = 2 × ops`. A unified loop that consumed one
//! fault-schedule index the old one did not would move them.

use blunt_net::{FaultConfig, TransportStats};
use blunt_runtime::RecoveryMode;
use blunt_store::{run_store_with, RunOpts, StoreConfig, StoreReport};

struct Shape {
    name: &'static str,
    seed: u64,
    k: u32,
    faults: FaultConfig,
    recovery: RecoveryMode,
    /// offered, dropped, duplicated, reordered, delayed, crash_dropped,
    /// partition_dropped, crash_events (= recoveries).
    expect: [u64; 8],
}

fn shapes() -> [Shape; 5] {
    let chaos = FaultConfig::chaos();
    [
        Shape {
            name: "k1 chaos",
            seed: 48879 ^ 1,
            k: 1,
            faults: chaos,
            recovery: RecoveryMode::Stable,
            expect: [23107, 617, 409, 234, 332, 480, 586, 0],
        },
        Shape {
            name: "k1 amnesia",
            seed: 48879 ^ 1,
            k: 1,
            faults: chaos,
            recovery: RecoveryMode::amnesia(),
            expect: [17550, 474, 297, 112, 172, 480, 462, 15],
        },
        Shape {
            name: "k1 quiet",
            seed: 48879 ^ 0x71,
            k: 1,
            faults: FaultConfig::none(),
            recovery: RecoveryMode::Stable,
            expect: [24000, 0, 0, 0, 0, 0, 0, 0],
        },
        Shape {
            name: "k2 chaos",
            seed: 48879 ^ 2,
            k: 2,
            faults: chaos,
            recovery: RecoveryMode::Stable,
            expect: [34757, 960, 656, 328, 455, 768, 684, 0],
        },
        Shape {
            name: "k2 amnesia",
            seed: 48879 ^ 2,
            k: 2,
            faults: chaos,
            recovery: RecoveryMode::amnesia(),
            expect: [29179, 805, 539, 204, 316, 768, 570, 24],
        },
    ]
}

fn run(shape: &Shape) -> StoreReport {
    let mut cfg = StoreConfig::register(shape.seed);
    cfg.faults = shape.faults;
    cfg.recovery = shape.recovery;
    let opts = RunOpts {
        k: shape.k,
        ..RunOpts::default()
    };
    run_store_with(&cfg, &opts, None).expect("valid fault config")
}

#[test]
fn the_five_register_shapes_reproduce_the_deleted_drivers_counters() {
    for shape in shapes() {
        let r = run(&shape);
        let s: TransportStats = r.stats;
        assert_eq!(
            [
                s.offered,
                s.dropped,
                s.duplicated,
                s.reordered,
                s.delayed,
                s.crash_dropped,
                s.partition_dropped,
                s.crash_events,
            ],
            shape.expect,
            "{}: transport stats moved",
            shape.name
        );
        assert_eq!(r.ops, 2_000, "{}", shape.name);
        assert_eq!(r.monitor_actions, 2 * r.ops, "{}", shape.name);
        assert_eq!(r.recovery.crashes, shape.expect[7], "{}", shape.name);
        assert_eq!(r.recovery.recoveries, shape.expect[7], "{}", shape.name);
        assert_eq!(r.shard_recoveries, vec![(shape.expect[7], shape.expect[7])]);
        assert!(
            r.monitor.clean(),
            "{}: {} violation(s)",
            shape.name,
            r.monitor.violations.len()
        );
        // Same seed, same coverage document, byte for byte.
        let again = run(&shape);
        assert_eq!(
            r.coverage.to_json().to_string(),
            again.coverage.to_json().to_string(),
            "{}: coverage is not a pure function of the seed",
            shape.name
        );
    }
}
