//! Shared by the store's integration tests: a keyed run over loopback
//! Unix sockets.

use std::thread;

use blunt_net::Addr;
use blunt_runtime::{run_net_server, NetServeConfig, RecoveryMode};
use blunt_store::{run_store_net, StoreConfig, StoreReport};

/// Runs `cfg` with every replica a `run_net_server` thread behind its own
/// Unix socket (stable recovery); `tag` keeps concurrent tests' socket
/// directories apart.
pub fn run_over_uds(cfg: &StoreConfig, tag: &str) -> StoreReport {
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
                peers: addrs.clone(),
                seed: cfg.seed,
                faults: cfg.faults,
                recovery: RecoveryMode::Stable,
                shard_size: None,
                dump_dir: None,
            };
            thread::spawn(move || run_net_server(&scfg).expect("server run"))
        })
        .collect();

    let report = run_store_net(cfg, &addrs).expect("valid fault config");
    for s in servers {
        s.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}
