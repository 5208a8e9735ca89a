//! blunt-store: a sharded, keyed multi-register store over ABD quorums.
//!
//! The runtime (`blunt_runtime`) provides the replica, the bus and the run
//! observers; this crate is the client side of every run — the one client
//! driver ([`run_store_with`]) — and composes *many* replicated register
//! groups into a keyed store. The classic single-register workload is the
//! one-shard, one-key shape of it ([`StoreConfig::register`]), ABD^k is
//! [`RunOpts::k`], and the tier is the transport the driver is handed. A seed-deterministic
//! consistent-hash [`ring`] maps each key onto one of N independent ABD
//! shards — disjoint slices of the server set, each running the unmodified
//! [`blunt_runtime::server_loop`] over its own quorum. Clients are
//! *pipelined*: each keeps up to `pipeline_depth` operations in flight at
//! once (per-key program order preserved — two ops on the same key never
//! overlap from one client), and their quorum fan-out is *batched*: a
//! per-client [`batch::BatchingTransport`] coalesces protocol sends into
//! `send_batch` calls that the socket tier packs into single `EnvBatch`
//! frames per destination. Fault fates are still drawn per logical envelope
//! in send order, so batching amortizes syscalls without perturbing the
//! seeded schedule.
//!
//! Safety is checked sharded: one online linearizability monitor thread
//! per shard ([`blunt_runtime::spawn_monitor`]) consumes that shard's call
//! / return stream. This is sound because linearizability of a keyed store
//! decomposes per key (the checker already treats each [`ObjId`] as an
//! independent register), every operation on a key routes to exactly one
//! shard, and each client sends its `Call` before the first message of the
//! op and its `Return` after completion — so each shard's stream is a
//! real-time-ordered history of exactly the keys it owns. The full
//! soundness argument, the sharding model, and the batching/pipelining
//! semantics live in `docs/STORE.md`.
//!
//! [`ObjId`]: blunt_core::ids::ObjId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod ring;
pub mod run;

pub use batch::BatchingTransport;
pub use ring::{HashRing, VNODES};
pub use run::{run_store, run_store_net, run_store_with, RunOpts, StoreConfig, StoreReport};
