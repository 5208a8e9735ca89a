//! Shared by the store's integration tests (and the `thread_profile`
//! example): a run over loopback Unix sockets.

use std::thread;

use blunt_net::Addr;
use blunt_runtime::{run_net_server, NetServeConfig, NetServeReport};
use blunt_store::{run_store_with, RunOpts, StoreConfig, StoreReport};

/// Runs `cfg` with every replica a `run_net_server` thread behind its own
/// Unix socket, recovering as `cfg.recovery` says; `tag` keeps concurrent
/// tests' socket directories apart. Returns the driver's report and every
/// server's own, in pid order.
pub fn run_over_uds(
    cfg: &StoreConfig,
    opts: &RunOpts,
    tag: &str,
) -> (StoreReport, Vec<NetServeReport>) {
    let total = cfg.servers_total();
    let dir = std::env::temp_dir().join(format!("blunt-store-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let addrs: Vec<Addr> = (0..total)
        .map(|i| Addr::parse(dir.join(format!("s{i}.sock")).to_str().expect("utf-8 path")))
        .collect();
    let servers: Vec<_> = (0..total)
        .map(|i| {
            let scfg = NetServeConfig {
                listen: addrs[i as usize].clone(),
                server_id: i,
                servers: total,
                clients: cfg.clients,
                peers: Vec::new(),
                seed: cfg.seed,
                faults: cfg.faults,
                recovery: cfg.recovery,
                shard_size: Some(cfg.servers_per_shard),
                dump_dir: None,
            };
            // Named like an in-process replica, so a per-thread profile
            // files it under the same class.
            thread::Builder::new()
                .name(format!("server-{i}"))
                .spawn(move || run_net_server(&scfg).expect("server run"))
                .expect("spawn replica server thread")
        })
        .collect();

    let report = run_store_with(cfg, opts, Some(&addrs)).expect("valid fault config");
    let served = servers
        .into_iter()
        .map(|s| s.join().expect("server thread"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (report, served)
}
