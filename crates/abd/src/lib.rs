//! The ABD register in a crash-prone message-passing system, its
//! preamble-iterated transformation `ABD^k`, and composed systems running
//! randomized programs over them.
//!
//! This crate implements:
//!
//! - the **multi-writer ABD register** (Algorithm 3 of the paper, following
//!   Lynch–Shvartsman): `Read` and `Write` both run a *query phase* (broadcast
//!   `query`, await a majority of replies, adopt the pair with the largest
//!   timestamp) followed by an *update phase* (broadcast `update`, await a
//!   majority of acks);
//! - the **single-writer ABD register** (the original
//!   Attiya–Bar-Noy–Dolev algorithm): the designated writer skips the query
//!   phase and stamps values with a local sequence number;
//! - the **preamble-iterated `ABD^k`** (Algorithm 4): the query phase — the
//!   effect-free preamble identified by `Π_ABD` (Theorem 5.1) — is executed
//!   `k` times and one result is chosen uniformly at random. `k = 1`
//!   reproduces the untransformed algorithm exactly (no object random step
//!   is taken);
//! - [`system::AbdLayer`] — the message-passing object layer of the one
//!   program host [`blunt_programs::host::Composed`]: the network, the
//!   replicas and the in-flight operations. [`system::AbdSystem`] is that
//!   host over this layer, a complete [`blunt_sim::System`] composing a
//!   [`blunt_programs::ProgramDef`] with a set of registers, each configured
//!   as atomic, `ABD^k`, or single-writer `ABD^k`, over one shared network.
//!   The same program text therefore runs against `P(O_a)`, `P(O)`, and
//!   `P(O^k)`, which is how the paper's probability comparisons are made.
//!   The host, not this crate, runs the atomic registers and emits each
//!   operation's `Call`/`PreamblePassed`/`ObjectRandom`/`Return` events.
//!
//! Effect-freedom of the preamble is visible in the code: the server's query
//! handler is [`server::ServerState::reply`], which takes `&self` — a query
//! can never change server state — while the update handler
//! [`server::ServerState::absorb`] takes `&mut self`.
//!
//! The step machines here are **transport-agnostic**: they map
//! `(state, message) → (state, replies)` and never name a transport. The
//! same compiled machines run under the simulator's adversary-scheduled
//! network, on the chaos runtime's in-process bus, and across real TCP or
//! Unix-domain sockets via `blunt-net` (see `docs/TRANSPORT.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod msg;
pub mod scenarios;
pub mod server;
pub mod system;
pub mod ts;

pub use client::{ActiveOp, OpKind, Phase};
pub use config::{ObjectConfig, ObjectKind};
pub use msg::AbdMsg;
pub use server::{ServerState, StoreState};
pub use system::{AbdEvent, AbdLayer, AbdSystem, AbdSystemDef};
pub use ts::Ts;
