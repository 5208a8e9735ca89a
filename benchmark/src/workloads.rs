//! The five workloads: one fixed topology, five ways of loading it.
//!
//! Every workload runs 2 shards × 3 replicas under **2 client threads** —
//! the only load generators, closed loop: a client's next op starts when a
//! pipeline slot frees. That is sized for a 2-core box. The repository's
//! own `StoreConfig::bench` shape (8 × 3 servers + 8 clients + 8 monitors =
//! 40 threads) is deliberately not used: on 2 cores it measures the
//! scheduler, not the store (hundreds of thousands of spurious 1 ms
//! retransmission timeouts in a fault-free run).

use std::time::Duration;

use blunt_net::FaultConfig;
use blunt_runtime::RecoveryMode;
use blunt_store::StoreConfig;

/// Shards in every workload.
pub const SHARDS: u32 = 2;
/// Replicas per shard in every workload.
pub const REPLICAS: u32 = 3;
/// Client threads in every workload.
pub const CLIENTS: u32 = 2;
/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 48879;

/// Which transport carries the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// `blunt_store::run_store` over the in-process `Bus`.
    Bus,
    /// `blunt_store::run_store_net` against one `run_net_server` thread per
    /// replica, over Unix sockets.
    Uds,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Why the workload exists: which layers carry load and which do not.
    pub why: &'static str,
    pub tier: Tier,
    pub keys: u32,
    pub pipeline_depth: u32,
    pub batch_max: usize,
    pub read_per_mille: u16,
    /// Ops per client in one timed slice, sized so a slice lasts a quarter
    /// to half a second on the 2-core reference box: long enough that the
    /// 20 ms the servers take to notice the end is a small share, short
    /// enough for some eighty slices in a 20 s run. The warm-up is a tenth.
    pub ops_per_client: u64,
    /// Chaos faults with amnesia crashes (`true`) or a fault-free run under
    /// stable recovery (`false`).
    pub amnesia: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bus_pipelined",
        why: "in-process bus, no faults, 1024 keys, depth 8, batch 16: client step machine, bus, server_loop and monitor do all the work; codec, sockets, WAL and fault fates do none",
        tier: Tier::Bus,
        keys: 1024,
        pipeline_depth: 8,
        batch_max: 16,
        read_per_mille: 500,
        ops_per_client: 4_000,
        amnesia: false,
    },
    Workload {
        name: "bus_hotkeys",
        why: "bus_pipelined on 8 keys: per-key program order blocks the first-startable scan and the monitor sees overlapping same-key ops, so a change that helps wide keyspaces and hurts conflicts shows",
        tier: Tier::Bus,
        keys: 8,
        pipeline_depth: 8,
        batch_max: 16,
        read_per_mille: 500,
        ops_per_client: 2_500,
        amnesia: false,
    },
    Workload {
        name: "bus_amnesia",
        why: "in-process bus under chaos faults and amnesia crashes, 20% reads: the only workload where injector fates, the delayer, MultiWal append/fsync, WAL replay, catch-up and degraded mode carry load",
        tier: Tier::Bus,
        keys: 1024,
        pipeline_depth: 8,
        batch_max: 16,
        read_per_mille: 200,
        ops_per_client: 1_000,
        amnesia: true,
    },
    Workload {
        name: "uds_pipelined",
        why: "bus_pipelined's shape over Unix sockets: adds EnvBatch frame encode/decode, socket write/read, tagged RPC, dedup and reader threads, so its gap to bus_pipelined is the socket tier's cost",
        tier: Tier::Uds,
        keys: 1024,
        pipeline_depth: 8,
        batch_max: 16,
        read_per_mille: 500,
        ops_per_client: 3_500,
        amnesia: false,
    },
    Workload {
        name: "uds_serial",
        why: "Unix sockets at depth 1, batch 1: one Env frame per message and no coalescing, latency-bound, so a batching gain on uds_pipelined that adds delay shows here as p50",
        tier: Tier::Uds,
        keys: 1024,
        pipeline_depth: 1,
        batch_max: 1,
        read_per_mille: 500,
        ops_per_client: 1_000,
        amnesia: false,
    },
];

/// The workload called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The fault profile: none, or the chaos mix with the crash cadence the
    /// `chaos --store` CLI uses for sharded amnesia runs.
    pub fn faults(&self) -> FaultConfig {
        if !self.amnesia {
            return FaultConfig::none();
        }
        let mut f = FaultConfig::chaos();
        f.crash_len = 4;
        f.crash_period = 20 * u64::from(SHARDS * REPLICAS);
        f
    }

    /// What a crash does to a replica.
    pub fn recovery(&self) -> RecoveryMode {
        if self.amnesia {
            RecoveryMode::amnesia()
        } else {
            RecoveryMode::Stable
        }
    }

    /// The store configuration for one run of `ops_per_client` ops.
    pub fn store_config(&self, seed: u64, ops_per_client: u64) -> StoreConfig {
        StoreConfig {
            shards: SHARDS,
            servers_per_shard: REPLICAS,
            clients: CLIENTS,
            ops_per_client,
            keys: self.keys,
            pipeline_depth: self.pipeline_depth,
            batch_max: self.batch_max,
            burst: 8,
            read_per_mille: self.read_per_mille,
            seed,
            faults: self.faults(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: self.recovery(),
            demo_shard: None,
        }
    }
}
