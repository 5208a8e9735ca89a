//! A serve process's telemetry counts every event of its run, however
//! often its flight rings lapped between two telemetry ticks.
//!
//! The shape is the benchmark's pipelined one on a single shard, so every
//! replica answers two exchanges of every op: a few thousand requests per
//! second wrap each server's 4 096-slot ring several times within one
//! 500 ms tick. Every request a server receives records a `bus_deliver`
//! and its answer a `bus_send`, so a server that counted at the source
//! reports at least twice the requests its driver offered it. Amnesia
//! recovery makes every drain pass a WAL group commit, and the servers'
//! fsync counts must add up to the process-wide `runtime.storage.fsyncs`
//! delta. This file holds one test, so no other run shares that counter.

mod common;

use blunt_net::FaultConfig;
use blunt_runtime::RecoveryMode;
use blunt_store::{RunOpts, StoreConfig};

#[test]
fn serve_telemetry_counts_every_event_and_fsync_of_a_lapped_run() {
    let mut cfg = StoreConfig::smoke(0x7E1E_0001);
    cfg.shards = 1;
    cfg.clients = 2;
    cfg.ops_per_client = 6_000;
    cfg.keys = 1024;
    cfg.pipeline_depth = 8;
    cfg.batch_max = 16;
    cfg.faults = FaultConfig::none();
    cfg.recovery = RecoveryMode::amnesia();
    let fsyncs = blunt_obs::counter("runtime.storage.fsyncs");
    let before = fsyncs.get();
    let (report, _) = common::run_over_uds(&cfg, &RunOpts::default(), "serve-telemetry");
    let synced = fsyncs.get() - before;

    assert_eq!(report.ops, 12_000);
    assert!(report.monitor.clean(), "violations over sockets");
    let mut fsync_total = 0;
    for (sid, server) in report.remote_servers.iter().enumerate() {
        let t = server
            .telemetry
            .unwrap_or_else(|| panic!("server {sid} sent no telemetry"));
        let requests: u64 = report
            .coverage
            .links
            .iter()
            .filter(|l| l.dst as usize == sid)
            .map(|l| l.offered)
            .sum();
        assert!(
            requests > 4_096,
            "server {sid}: {requests} requests cannot lap a ring"
        );
        assert!(
            t.events >= 2 * requests,
            "server {sid} reported {} events for {requests} requests",
            t.events
        );
        assert!(t.span_events >= 2 * requests, "server {sid}: {t:?}");
        fsync_total += t.fsync_count;
    }
    assert!(synced > 0, "an amnesia run commits its WAL");
    assert_eq!(fsync_total, synced, "every fsync is reported once");
}
