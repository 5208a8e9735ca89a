//! blunting reproduction: the transport tier.
//!
//! The chaos runtime exercises ABD-style quorum protocols under a
//! seed-deterministic fault injector. This crate is the seam that makes
//! the *transport* swappable without touching the protocol or the fault
//! schedule:
//!
//! - [`Transport`] — the object-safe surface the runtime's server and
//!   client loops drive: send an [`Envelope`], broadcast to a quorum,
//!   flush stragglers, read the deterministic [`TransportStats`] and
//!   [`Coverage`]. The in-process bus (in `blunt-runtime`) and the socket
//!   backends here both implement it.
//! - [`fault`] / [`injector`] — the seed-determined per-link fate streams,
//!   the shared decision core ([`Injector::decide`]) both backends use
//!   bit for bit, so fault counters are a pure function of
//!   `(seed, config, topology)` regardless of transport, and the one
//!   realiser of a drawn fate ([`Links`], [`Delayer`]).
//! - [`frame`] — the length-prefixed, versioned wire format (hand-rolled,
//!   zero dependencies).
//! - [`conn`] / [`pool`] — TCP / Unix-domain streams and the driver's
//!   connection pool (one connection per server) with single-redial
//!   self-healing.
//! - [`rpc`] — monotonic frame tags; a reply echoes its request's tag.
//! - [`client`] / [`server`] — the two socket endpoints: [`NetClient`]
//!   (the driver process: its one worker steps the clients and the shard
//!   monitors; it owns every fault link of the run, replies' included) and [`NetServer`] (one `chaos
//!   serve` process per server, a plain replica host with no fault
//!   schedule). A socket run is a star: a server's one connection is the
//!   driver's, and the driver relays the catch-up traffic servers send
//!   each other, so every message of the run crosses the process that
//!   owns its fates.
//! - [`Inbox`] — what a worker receives from: a plain channel receiver
//!   in process and in the driver, a [`ServerInbox`] in a server process,
//!   where the worker reads the driver's socket itself and no thread
//!   stands between a request on the wire and the step that answers it.
//!
//! ## Counters
//!
//! The socket tier feeds the `net.*` counter family: `net.frames_sent`,
//! `net.frames_received`, `net.bytes_sent`, `net.bytes_received`,
//! `net.reconnects`, `net.rpc.tag_mismatch_drops`, and `net.relays`
//! (envelopes the driver relayed from one server to another).
//!
//! ## Fault semantics across backends
//!
//! The *decision* (which fate, which counters) is shared and
//! seed-deterministic, and so is the *realisation*. Every fate of a run
//! is drawn in one process: the bus's, or the socket driver's — requests'
//! on its send path, replies' on each server's reader thread. Each hands
//! its items to a [`Links`] table, which drops, duplicates, holds back for
//! a reorder and signals crashes the same way for each, and gives a
//! `Delay` to a [`Delayer`]. Only the sink differs with the medium, not
//! the effect: a request `Duplicate` is two enqueues on the bus and the
//! same tagged entry written twice over sockets, and either way the
//! replica receives, and answers, both copies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod coverage;
pub mod fault;
pub mod frame;
pub mod injector;
pub mod pool;
pub mod rpc;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetClientCfg, RecoveryStats, RemoteServer, ServerTelemetry};
pub use conn::{Addr, Listener, Stream};
pub use coverage::{Coverage, LinkCoverage};
pub use fault::{Fate, FaultConfig, FaultConfigError, FaultPlan};
pub use frame::{Frame, FrameError, TaggedEnv, DRIVER_NODE, FRAME_VERSION, MAX_FRAME_LEN};
pub use injector::{Delayer, Injector, Links, TransportStats};
pub use server::{NetServer, NetServerCfg, ServerInbox};
pub use wire::{Envelope, Payload, SpanCtx};

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::Pid;

/// What a worker receives its [`Envelope`]s from. The in-process bus and
/// the driver's [`NetClient`] hand it a plain [`Receiver`]; a server
/// process gets a [`ServerInbox`], which reads the driver's socket on the
/// calling thread.
/// The errors are the channel's own, with the channel's meanings:
/// `Timeout`/`Empty` — nothing yet; `Disconnected` — nothing ever again.
pub trait Inbox {
    /// Waits up to `timeout` for the next envelope.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when none arrived in time,
    /// [`RecvTimeoutError::Disconnected`] at the end of input.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope, RecvTimeoutError>;

    /// The next envelope that needs no waiting for.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when taking one would block,
    /// [`TryRecvError::Disconnected`] at the end of input.
    fn try_recv(&mut self) -> Result<Envelope, TryRecvError>;
}

impl Inbox for Receiver<Envelope> {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        Receiver::recv_timeout(self, timeout)
    }

    fn try_recv(&mut self) -> Result<Envelope, TryRecvError> {
        Receiver::try_recv(self)
    }
}

/// What the chaos runtime's replicas and clients send through: any medium that
/// can carry [`Envelope`]s under the seed-determined fault schedule.
///
/// Implementations: the in-process bus (`blunt_runtime::Bus`), the driver
/// endpoint [`NetClient`], and the server endpoint [`NetServer`], which
/// draws no fates (the driver draws its replies'). The
/// protocol state machines in `blunt-abd` never see this trait — they are
/// pure step functions — so a transport swap cannot change protocol
/// decisions, only message timing and loss.
pub trait Transport: Send + Sync {
    /// Sends `env`, applying the fault schedule to non-exempt envelopes.
    fn send(&self, env: Envelope);

    /// Sends several envelopes as one logical flush. **Semantically a
    /// batch IS its envelope sequence**: the default forwards to
    /// [`Transport::send`] in order, and every override must preserve
    /// that contract — fault fates are drawn per logical envelope, in
    /// order, exactly as the loop would, so batching can never perturb
    /// the seed-determined schedule, stats, or coverage. Socket backends
    /// override this to pack the surviving envelopes of each destination
    /// into a single `EnvBatch` frame, amortizing syscall and framing
    /// overhead across a quorum round.
    fn send_batch(&self, envs: Vec<Envelope>) {
        for env in envs {
            self.send(env);
        }
    }

    /// Broadcasts the ABD message `msg` from `src` to every pid in `dsts`
    /// (a quorum round's fan-out), every envelope stamped with trace
    /// context `span`. The span is pure data (no transport branches on
    /// it), so span-stamped broadcasts consume exactly the same
    /// fault-schedule indices as unstamped ones.
    fn broadcast_span(&self, src: Pid, dsts: &[Pid], msg: &AbdMsg, exempt: bool, span: SpanCtx) {
        for &dst in dsts {
            self.send(Envelope::abd(src, dst, msg.clone(), exempt).with_span(span));
        }
    }

    /// Marks the start of a new operation by `client`.
    ///
    /// Retired: nothing under `crates/` overrides or calls it since every
    /// reply names its client in `dst`. It stays only because the
    /// benchmark's replay probe (`benchmark/src/replay.rs`) calls it.
    fn on_op_start(&self, client: Pid) {
        let _ = client;
    }

    /// Releases reorder hold-backs and drains delayers — end of run,
    /// nothing will overtake them anymore.
    fn flush(&self);

    /// The deterministic fault counters so far.
    fn stats(&self) -> TransportStats;

    /// The fault-schedule coverage so far.
    fn coverage(&self) -> Coverage;
}
