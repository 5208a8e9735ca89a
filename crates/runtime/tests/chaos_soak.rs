//! The shared-memory register constructions under the threaded chaos
//! runtime: the Vitányi–Awerbuch workload stays clean at k = 1 and 2, and
//! the intentionally-broken single-cell read is caught. (The
//! message-passing soak lives with the one client driver, in
//! `crates/store/tests/register_soak.rs`.)

use blunt_runtime::{run_shm_chaos, ShmChaosConfig};

#[test]
fn shm_va_register_workload_is_clean_for_k1_and_k2() {
    for k in [1, 2] {
        let report = run_shm_chaos(&ShmChaosConfig::small(0x5113 + u64::from(k), k));
        assert_eq!(report.ops, 1600);
        assert!(
            report.monitor.clean(),
            "VA k={k} violations: {}",
            report.monitor.violations.len()
        );
    }
}

#[test]
fn shm_broken_single_cell_read_is_caught() {
    let mut cfg = ShmChaosConfig::small(0xBAD_5113, 1);
    cfg.broken_reads = true;
    let report = run_shm_chaos(&cfg);
    assert!(
        !report.monitor.violations.is_empty(),
        "single-cell fast read went unnoticed"
    );
    assert!(report.monitor.violations[0].rendered.contains("call"));
}
