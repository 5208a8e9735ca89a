//! The shard monitors are rung, not fed: enqueuing an action checks
//! nothing, each client rings every shard's monitor once a burst, the
//! worker drains every monitor at the end of a pass in which a client rang,
//! and once more when the run ends — on the benchmark's shape, on both
//! tiers.
//!
//! One test, tier after tier, alone in its binary: the backlog is about
//! scheduling, and a soak hammering both vCPUs beside it would be measuring
//! the box.

mod common;

use blunt_net::FaultConfig;
use blunt_store::{run_store, RunOpts, StoreConfig, StoreReport};

/// `bus_pipelined` / `uds_pipelined`: 2 shards × 3 replicas, 2 clients at
/// depth 8, batch 16, bursts of 8, 1024 keys, no faults.
fn benchmark_shape() -> StoreConfig {
    let mut cfg = StoreConfig::bench(0x0D00_BE11);
    cfg.shards = 2;
    cfg.clients = 2;
    cfg.ops_per_client = 2_000;
    cfg.faults = FaultConfig::none();
    cfg
}

fn check(tier: &str, cfg: &StoreConfig, r: &StoreReport) {
    assert!(r.monitor.clean(), "{tier}: {:?}", r.monitor.violations);
    assert_eq!(r.ops, u64::from(cfg.clients) * cfg.ops_per_client);
    // Nothing is lost to a monitor that waits out the burst: every
    // `Call` and every `Return` is checked.
    let m = r.monitor_overhead;
    assert_eq!(r.monitor_actions, 2 * r.ops, "{tier}");
    assert_eq!(m.actions, r.monitor_actions, "{tier}");
    // A monitor is drained at most once a pass, in a pass where some client
    // ended a burst, and once at the end: once per client per burst at
    // most — not once per action, which is 2 × 8 times as often. One
    // client's bursts end in different passes (a burst's ops take round
    // trips), so each of its bursts costs a drain of its own at least.
    let bursts = cfg.ops_per_client.div_ceil(cfg.burst);
    let shards = u64::from(cfg.shards);
    let rings = shards * (u64::from(cfg.clients) * bursts + 1);
    assert!(
        (shards * (bursts + 1)..=rings).contains(&m.wakeups),
        "{tier}: {} drains, {rings} rings",
        m.wakeups
    );
    // Rung once a burst, a monitor runs a burst behind by design: when it
    // is drained, the burst's 2 × clients × burst actions are waiting and
    // the clients have already issued the next fill's `Call`s (32 + 16
    // here). The bound is loose on purpose: 16 bursts, against the
    // 2 × ops = 8 000 a monitor that is not drained until the end shows.
    let burst_actions = 2 * u64::from(cfg.clients) * cfg.burst;
    assert!(
        m.lag_ops_hwm <= 16 * burst_actions,
        "{tier}: backlog {} actions, a burst is {burst_actions}",
        m.lag_ops_hwm
    );
}

#[test]
fn monitors_are_drained_once_a_burst_and_miss_nothing() {
    let cfg = benchmark_shape();
    let bus = run_store(&cfg).expect("valid fault config");
    check("bus", &cfg, &bus);
    let (uds, _) = common::run_over_uds(&cfg, &RunOpts::default(), "doorbell");
    check("uds", &cfg, &uds);
}
