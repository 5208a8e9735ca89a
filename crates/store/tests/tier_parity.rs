//! One schedule, two media: the same seed gives the same fault counters
//! and the same per-link coverage on the in-process bus and over Unix
//! sockets, reply legs included.
//!
//! Both tiers draw every fate of a run in one place — the bus, or the
//! socket driver (requests as it sends them, replies as its readers take
//! them off the wire) — from the same per-link streams. On the register
//! shape (depth 1, batch 1) under stable recovery, which requests a
//! replica answers, and in which order on each link, is then a function of
//! the seed on either tier. The one medium difference is a request
//! `Duplicate`: the bus delivers both copies, so the replica answers
//! twice, while a socket duplicate is two frames with one tag and the
//! server's dedup window absorbs the second. So duplicates are off here.

mod common;

use blunt_net::FaultConfig;
use blunt_runtime::RecoveryMode;
use blunt_store::{run_store, RunOpts, StoreConfig};

fn shape(seed: u64) -> StoreConfig {
    let mut cfg = StoreConfig::register(seed);
    cfg.ops_per_client = 300;
    cfg.recovery = RecoveryMode::Stable;
    cfg.faults = FaultConfig::chaos();
    cfg.faults.duplicate_per_mille = 0;
    cfg
}

#[test]
fn bus_and_uds_draw_the_same_fates_for_a_seed() {
    for seed in [0x7A11_0001, 0x7A11_0002, 0x7A11_0003] {
        let cfg = shape(seed);
        let bus = run_store(&cfg).expect("valid fault config");
        let (uds, _) = common::run_over_uds(&cfg, &RunOpts::default(), "tier-parity");
        for (tier, report) in [("bus", &bus), ("uds", &uds)] {
            assert_eq!(report.ops, 1_200, "{tier}, seed {seed:#x}");
            assert!(report.monitor.clean(), "{tier}, seed {seed:#x}: violations");
        }
        // Every link of the topology carried traffic: four clients into
        // three replicas and back.
        assert_eq!(bus.coverage.links.len(), 24, "seed {seed:#x}");
        assert_eq!(uds.stats, bus.stats, "seed {seed:#x}");
        assert_eq!(uds.coverage, bus.coverage, "seed {seed:#x}");
    }
}
