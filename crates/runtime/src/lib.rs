//! The chaos runtime: the repo's protocol step machines run outside the
//! simulator, under seeded fault injection, with an online linearizability
//! check.
//!
//! Everything else in this workspace runs inside the single-threaded
//! deterministic simulator (`blunt_sim`), where the adversary is an explicit
//! player. This crate turns the adversary into *measured chaos*: the same
//! ABD client/server machines (`blunt_abd`) exchange messages over a
//! swappable [`blunt_net::Transport`] — the in-process message [`bus`] or
//! the socket tier in `blunt_net` — whose [`blunt_net::fault`] injector — drop, delay,
//! duplicate, reorder, partition, crash — follows a schedule that is a pure
//! function of the run seed, so any run is replayable. [`workload`] holds
//! the [`Replica`], the shard monitor and the run observers
//! (live telemetry, the watch/watchdog); [`worker`] is the one
//! driver that steps every machine of a run process on one thread over one
//! mailbox ([`run_worker`]; [`server_loop`] is its one-replica call). The
//! client side — the one client machine, of which the single-register
//! workload is the one-shard, one-key shape — is `blunt-store`, which
//! depends on this crate and hands its clients to the worker as
//! [`Client`]s.
//! Crashes are more than blackouts: under
//! [`recovery::RecoveryMode::Amnesia`] a server loses its volatile state
//! and recovers from a per-server write-ahead log ([`storage`]) plus peer
//! catch-up before serving again. The [`monitor`] checks the concurrent
//! history as it streams in, with a zone check for registers whose write
//! values are unique, rendering any violation window through
//! `blunt_trace`'s space-time diagram. [`shm`] does
//! the same for the shared-memory register constructions, every process
//! stepped on one thread in an order a seeded draw picks. [`netrun`]
//! is the server half of multi-process runs: one `chaos serve` process per
//! server, driven by the store's client driver over sockets — same protocol
//! loops, same seeded fault schedule pushed down to the socket layer.
//!
//! The determinism/replay contract, the fault semantics, and the soundness
//! argument for the monitor live in `docs/RUNTIME.md`; the transport tier
//! in `docs/TRANSPORT.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod monitor;
pub mod netrun;
pub mod recovery;
pub mod shm;
pub mod storage;
pub mod worker;
pub mod workload;

pub use blunt_net::{
    Addr, Coverage, Fate, FaultConfig, FaultConfigError, FaultPlan, LinkCoverage, RecoveryStats,
    RemoteServer, ServerTelemetry,
};
pub use bus::{Bus, BusInbox, Envelope, Payload};
pub use monitor::{MonitorReport, OnlineMonitor, Violation};
pub use netrun::{run_net_server, NetServeConfig, NetServeReport};
pub use recovery::{RecoveryMode, RecoverySink};
pub use shm::{run_shm_chaos, ShmChaosConfig, ShmReport};
pub use storage::MultiWal;
pub use worker::{run_worker, Client};
pub use workload::{server_loop, watch_loop, Replica, ShardMonitor, Telemetry, MAX_OPS_PER_CLIENT};
