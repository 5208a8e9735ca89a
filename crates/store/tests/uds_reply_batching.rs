//! Server→driver reply coalescing, end to end over Unix sockets.
//!
//! Alone in its test binary: the `runtime.server.*` counters it reads are
//! process-wide, and every other store run in the process would feed them.

mod common;

use blunt_store::{RunOpts, StoreConfig};

#[test]
fn pipelined_uds_run_coalesces_replies_and_stays_clean() {
    let mut cfg = StoreConfig::smoke(0x5709_C0A1);
    cfg.shards = 2;
    cfg.servers_per_shard = 3;
    cfg.clients = 2;
    cfg.ops_per_client = 1_000;
    cfg.keys = 64;
    cfg.pipeline_depth = 8;
    cfg.batch_max = 16;
    let (report, _) = common::run_over_uds(&cfg, &RunOpts::default(), "reply-batching");
    assert_eq!(report.ops, 2_000);
    assert!(
        report.monitor.clean(),
        "violations with coalesced replies: {:?}",
        report
            .monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    // A depth-8 client's flush puts several requests in one replica's
    // mailbox at once; a drain pass that takes more than one answers them
    // in a single `EnvBatch` frame.
    let flushes = blunt_obs::counter("runtime.server.reply_flushes").get();
    let envelopes = blunt_obs::counter("runtime.server.reply_envelopes").get();
    assert!(
        envelopes > flushes && flushes > 0,
        "{envelopes} reply envelopes in {flushes} flushes: no pass ever coalesced"
    );
    // The server side keeps out of the client's per-op batching numbers:
    // they count the requests the clients offered on their links, plus the
    // rebroadcasts, and none of the reply legs the stats count beside them.
    let requests: u64 = report
        .coverage
        .links
        .iter()
        .filter(|l| l.src >= cfg.servers_total())
        .map(|l| l.offered)
        .sum();
    assert!(
        requests < report.stats.offered,
        "reply legs are counted too"
    );
    assert_eq!(
        blunt_obs::counter("store.batch.envelopes").get(),
        requests + report.retransmissions * u64::from(cfg.servers_per_shard),
        "store.batch.* counts exactly what the clients sent"
    );
}
