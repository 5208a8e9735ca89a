//! ABD^k on the flagship path: Algorithm 2's `k` query preambles and one
//! object random choice, on the sharded, pipelined, batched store — under
//! light faults, and under the full chaos mix with amnesia crashes.

use blunt_net::FaultConfig;
use blunt_runtime::RecoveryMode;
use blunt_store::{run_store_with, RunOpts, StoreConfig, StoreReport};

fn abd2(cfg: &StoreConfig) -> StoreReport {
    let opts = RunOpts {
        k: 2,
        ..RunOpts::default()
    };
    run_store_with(cfg, &opts, None).expect("valid fault config")
}

fn assert_sound(report: &StoreReport) {
    assert!(
        report.monitor.clean(),
        "ABD² violations: {:?}",
        report
            .monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.ops, 2_000);
    assert_eq!(report.monitor_actions, 2 * report.ops);
}

#[test]
fn abd2_on_the_sharded_pipelined_store_is_clean_under_light_faults() {
    let cfg = StoreConfig::smoke(0x5709_ABD2);
    let report = abd2(&cfg);
    assert_sound(&report);
    assert!(report.stats.dropped > 0, "{:?}", report.stats);
    // Two preambles and an update: three quorum exchanges per op where
    // plain ABD has two.
    let plain = blunt_store::run_store(&cfg).expect("valid fault config");
    assert!(
        report.stats.offered > plain.stats.offered * 5 / 4,
        "ABD² offered {} envelopes, plain ABD {}",
        report.stats.offered,
        plain.stats.offered
    );
}

#[test]
fn abd2_survives_chaos_and_amnesia_with_seed_deterministic_recoveries() {
    let run = || {
        let mut cfg = StoreConfig::smoke(0x5709_ABD2);
        cfg.faults = FaultConfig::chaos();
        cfg.recovery = RecoveryMode::amnesia();
        // Crash windows scaled to the sharded topology, as the chaos CLI's
        // amnesia profile does.
        cfg.faults.crash_len = 4;
        cfg.faults.crash_period = 20 * u64::from(cfg.servers_total());
        abd2(&cfg)
    };
    let a = run();
    assert_sound(&a);
    assert!(a.recovery.crashes >= 1, "{:?}", a.recovery);
    assert_eq!(a.recovery.crashes, a.recovery.recoveries);
    let b = run();
    assert_sound(&b);
    assert_eq!(a.shard_recoveries, b.shard_recoveries);
}
