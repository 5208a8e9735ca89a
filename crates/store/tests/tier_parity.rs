//! One schedule, two media: the same seed gives the same fault counters
//! and the same per-link coverage on the in-process bus and over Unix
//! sockets, reply legs included, duplicates and amnesia crashes too.
//!
//! Both tiers draw every fate of a run on one thread, from one table — the
//! bus run's worker, or the socket driver's (requests as it sends them,
//! replies as its inbox takes them from the readers) — from the same
//! per-link streams. On the register
//! shape (depth 1, batch 1), which requests a replica answers, and in which
//! order on each link, is then a function of the seed on either tier. A
//! request `Duplicate` reaches the replica twice on both, so under stable
//! recovery every delivered copy of a request is answered once.
//!
//! Each replica is one machine on either tier, and records into its own
//! flight ring, `server-<pid>`: the two tiers' dumps name the same replica
//! rings.

mod common;

use std::collections::BTreeSet;

use blunt_net::{Coverage, FaultConfig};
use blunt_obs::FlightEvent;
use blunt_runtime::RecoveryMode;
use blunt_store::{run_store, RunOpts, StoreConfig, StoreReport};

const SEEDS: [u64; 3] = [0x7A11_0001, 0x7A11_0002, 0x7A11_0003];

/// The register shape's replicas: pids below this are servers.
const SERVERS: u32 = 3;

fn shape(seed: u64, recovery: RecoveryMode) -> StoreConfig {
    let mut cfg = StoreConfig::register(seed);
    cfg.ops_per_client = 300;
    cfg.recovery = recovery;
    cfg.faults = FaultConfig::chaos();
    cfg
}

/// Runs `seed` on both tiers and asserts they drew the same fates.
fn both_tiers(seed: u64, recovery: RecoveryMode, tag: &str) -> [(&'static str, StoreReport); 2] {
    let cfg = shape(seed, recovery);
    let bus = run_store(&cfg).expect("valid fault config");
    let (uds, _) = common::run_over_uds(&cfg, &RunOpts::default(), tag);
    for (tier, report) in [("bus", &bus), ("uds", &uds)] {
        assert_eq!(report.ops, 1_200, "{tier}, seed {seed:#x}");
        assert!(report.monitor.clean(), "{tier}, seed {seed:#x}: violations");
    }
    // Every link of the topology carried traffic: four clients into
    // three replicas and back.
    assert_eq!(bus.coverage.links.len(), 24, "seed {seed:#x}");
    assert_eq!(uds.stats, bus.stats, "seed {seed:#x}");
    assert_eq!(uds.coverage, bus.coverage, "seed {seed:#x}");
    [("bus", bus), ("uds", uds)]
}

/// For each client→server link, the replies offered on the reverse link:
/// one per request copy the replica received.
fn assert_each_copy_answered_once(coverage: &Coverage, what: &str) {
    for req in coverage.links.iter().filter(|l| l.src >= SERVERS) {
        let reply = coverage
            .links
            .iter()
            .find(|l| (l.src, l.dst) == (req.dst, req.src))
            .unwrap_or_else(|| panic!("{what}: no reply link {}→{}", req.dst, req.src));
        let copies = req.delivered + 2 * req.duplicated + req.reordered + req.delayed;
        assert_eq!(
            reply.offered, copies,
            "{what}: link {}→{}",
            req.src, req.dst
        );
    }
}

#[test]
fn bus_and_uds_draw_the_same_fates_for_a_seed() {
    for seed in SEEDS {
        for (tier, report) in both_tiers(seed, RecoveryMode::Stable, "tier-parity-stable") {
            let what = format!("{tier}, seed {seed:#x}");
            assert!(report.stats.duplicated > 0, "{what}");
            // The fates the worker realises on the reply legs: holds and
            // timers.
            assert!(report.stats.delayed > 0, "{what}");
            assert!(report.stats.reordered > 0, "{what}");
            assert_each_copy_answered_once(&report.coverage, &what);
        }
    }
}

#[test]
fn bus_and_uds_draw_the_same_fates_under_amnesia() {
    for seed in SEEDS {
        for (tier, report) in both_tiers(seed, RecoveryMode::amnesia(), "tier-parity-amnesia") {
            let r = report.recovery;
            assert!(r.crashes > 0, "{tier}, seed {seed:#x}: no crash");
            assert_eq!(r.crashes, r.recoveries, "{tier}, seed {seed:#x}");
            assert_eq!(r.catchup_aborted, 0, "{tier}, seed {seed:#x}");
        }
    }
}

/// The rings `events` — every one a replica recorded — came from; each must
/// be its replica's own, `server-<pid>`.
fn replica_rings<'a>(
    events: impl Iterator<Item = &'a FlightEvent>,
    tier: &str,
) -> BTreeSet<String> {
    events
        .map(|e| {
            assert_eq!(
                e.ring,
                format!("server-{}", e.pid),
                "{tier}: {:?} of pid {}",
                e.kind,
                e.pid
            );
            e.ring.clone()
        })
        .collect()
}

#[test]
fn every_replica_records_into_its_own_ring_on_both_tiers() {
    // The unsound single-server read, so the bus run takes a violation
    // dump; a socket run always merges its serve processes' dumps.
    let mut cfg = StoreConfig::register(0x0BAD_5EED);
    cfg.broken_reads = true;
    cfg.read_per_mille = 400;
    let bus = run_store(&cfg).expect("valid fault config");
    let (uds, _) = common::run_over_uds(&cfg, &RunOpts::default(), "tier-parity-rings");
    let bus_dump = bus.violation_dump.expect("the broken read is caught");
    let uds_dump = uds.merged_flight.expect("a socket run merges its dumps");
    // On either tier, every event of a replica's pid is in the replica's
    // own ring: its deliveries, acks and WAL flushes, its sends and the
    // fates they drew — over sockets the driver draws a reply's fate as it
    // takes the frame, into the same `server-<pid>` ring of its recorder.
    let on_bus = replica_rings(bus_dump.events.iter().filter(|e| e.pid < SERVERS), "bus");
    let on_uds = replica_rings(uds_dump.events.iter().filter(|e| e.pid < SERVERS), "uds");
    let all: BTreeSet<String> = (0..SERVERS).map(|p| format!("server-{p}")).collect();
    assert_eq!(on_bus, all);
    assert_eq!(on_uds, on_bus, "one ring per replica on both tiers");
}
