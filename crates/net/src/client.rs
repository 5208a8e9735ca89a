//! The driver endpoint: the clients and the shard monitors live in this
//! process, on its one worker; servers are reached over sockets.
//!
//! [`NetClient`] owns the **whole** fault schedule of a socket run, as the
//! bus owns an in-process run's: every fate is drawn in this process, on
//! its worker, from one [`Links`] table for both directions, so a serve
//! process needs no seed or fault flags.
//!
//! - **Client→server.** Every non-exempt request is realised on the send
//!   path: `Drop` family skips the entry, `Duplicate` writes the same
//!   tagged entry twice (the server admits both, so the replica answers
//!   both, as on the bus), and a crash-window exit puts the exempt amnesia
//!   signal directly ahead of the triggering entry in the server's
//!   `EnvBatch`. The schedule gives these links no `Reorder` or `Delay`.
//! - **Server→client.** A `net-reader-<pid>` thread per server connection
//!   only decodes frames, and hands each to the worker's [`DriverInbox`]
//!   as one message. The inbox draws each reply's fate on the same table
//!   the send path uses (the schedule puts `Reorder`/`Delay` only on links
//!   into a client and crash windows only on links into a server, so the
//!   two directions never meet on a link) and hands the worker what is
//!   deliverable; the worker gives each reply to the client its `dst`
//!   names. A `Reorder` waits in the link's hold-back slot, a `Delay` in
//!   the inbox's [`Timers`], which bound how long the inbox waits;
//!   [`Transport::flush`] releases both.
//! - **Server→server.** The driver is the hub of a socket run: servers
//!   hold no connection to each other. An entry for another server
//!   (catch-up traffic, always exempt) draws no fate, counts in neither
//!   [`Transport::stats`] nor [`Transport::coverage`], and the inbox
//!   relays it to its server as a lone `Env` frame under a driver tag, as
//!   the bus delivers exempt server→server envelopes. The worker may write
//!   to a server as its requests do: a reader never blocks on anything but
//!   its socket, so a server writing to the driver always gets read. A
//!   relay that would follow a server's `Shutdown` is dropped.
//!
//! A reply to a finished exchange reaches its client like any other and the
//! client refuses it by `sn`, as on the bus; only a reply that answers no
//! request (`re = 0`) is dropped, counted as `net.rpc.tag_mismatch_drops`.
//! [`Transport::stats`] and [`Transport::coverage`] cover both directions.
//! They are final once [`NetClient::shutdown`] returns: it services the
//! inbox until every server's `Goodbye` (a server writes all its replies
//! ahead of its goodbye on the one FIFO connection), so late replies' fates
//! count, and it consumes the inbox, so nothing draws after it. A server
//! that sent no goodbye (it died, or missed the deadline) leaves its reply
//! links partial.
//!
//! [`NetClient::connect`] dials every server once, and a connection is a
//! fixed fact of the run: when a write to it fails, or its reader meets
//! the end of its stream, it is shut down, and every later frame on it is
//! lost. That is a crash-stop replica, which the majority quorums
//! tolerate; no connection is ever dialed again. (A serve process that
//! came back would come back with an empty write-ahead log: an amnesia
//! crash with no recovery.)

use std::collections::VecDeque;
use std::io;
use std::ops::AddAssign;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::flight::FlightDump;
use blunt_obs::{FlightKind, FlightRecorder, FlightRing};

use crate::conn::{Addr, Stream};
use crate::fault::{FaultConfig, FaultConfigError};
use crate::frame::{Frame, FrameReader, FrameWriter, TaggedEnv, DRIVER_NODE};
use crate::injector::{Injector, Links, Timers, TransportStats};
use crate::rpc::TagGen;
use crate::wire::Envelope;
use crate::{Coverage, Inbox, Transport};

/// How long a dial retries refused connections before the server counts
/// as crashed from the start: generous enough to cover serve processes
/// that are still binding.
const DIAL_RETRY_WINDOW: Duration = Duration::from_secs(10);

/// How a driver reaches its servers.
pub struct NetClientCfg {
    /// Fault-schedule seed.
    pub seed: u64,
    /// Fault configuration.
    pub faults: FaultConfig,
    /// One listen address per server, index = server pid.
    pub servers: Vec<Addr>,
    /// Number of clients this driver runs.
    pub clients: u32,
    /// Whether crash-window exits raise the amnesia signal (sent to the
    /// crashed server as an exempt [`Payload::Crash`](crate::Payload::Crash)
    /// entry).
    pub signal_crashes: bool,
}

/// Crash-recovery counters, of one replica or summed over several (also
/// exported as the `runtime.recovery.*` metrics in `blunt_obs`). The
/// runtime's recovery sink accumulates them; a serve process ships its own
/// in every [`ServerTelemetry`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryStats {
    /// Crash events suffered by servers (deterministic for a seed — one
    /// per crash-event signal).
    pub crashes: u64,
    /// Recovery protocol runs completed (deterministic; equals `crashes`
    /// in sound modes — every crash is recovered from, even if the
    /// catch-up phase was truncated by shutdown).
    pub recoveries: u64,
    /// WAL records lost to crashes (timing-dependent: depends on where
    /// group-commit flushes landed).
    pub wal_records_lost: u64,
    /// Recoveries that restored a durable checkpoint by WAL replay
    /// (timing-dependent).
    pub wal_records_replayed: u64,
    /// State-transfer queries sent during peer catch-up
    /// (timing-dependent).
    pub state_queries: u64,
    /// Catch-up phases truncated because the run was shutting down
    /// (timing-dependent; the replayed checkpoint still stands).
    pub catchup_aborted: u64,
}

impl AddAssign for RecoveryStats {
    fn add_assign(&mut self, r: RecoveryStats) {
        self.crashes += r.crashes;
        self.recoveries += r.recoveries;
        self.wal_records_lost += r.wal_records_lost;
        self.wal_records_replayed += r.wal_records_replayed;
        self.state_queries += r.state_queries;
        self.catchup_aborted += r.catchup_aborted;
    }
}

/// A server's cumulative report, shipped periodically over the driver
/// connection as a `Telemetry` frame and once more, complete, right before
/// its `Goodbye`. Last-writer-wins on the driver side, so a server that
/// dies before its `Goodbye` still leaves its most recent counters behind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerTelemetry {
    /// Every crash-recovery counter so far.
    pub recovery: RecoveryStats,
    /// WAL fsyncs performed so far.
    pub fsync_count: u64,
    /// Running p99 WAL fsync latency (µs).
    pub fsync_p99_us: u64,
    /// Flight events recorded so far that carry a span.
    pub span_events: u64,
    /// Flight events recorded so far, total.
    pub events: u64,
}

/// What the driver knows about one remote server process: its estimated
/// clock offset and the latest telemetry/dump it shipped back.
#[derive(Clone, Debug, Default)]
pub struct RemoteServer {
    /// Estimated offset of the server's flight clock relative to the
    /// driver's (`remote_t ≈ driver_t + offset_us`), from the latest
    /// `Hello`/`HelloAck` round trip.
    pub offset_us: i64,
    /// The most recent `Telemetry` snapshot, if any arrived.
    pub telemetry: Option<ServerTelemetry>,
    /// The bounded flight dump piggybacked on the server's `Goodbye`:
    /// `None` until the goodbye arrives, empty if it carried no dump (or
    /// one that did not parse).
    pub dump: Option<FlightDump>,
}

/// What the driver's inbox takes, in order: a frame a reader decoded, or
/// the end of the run.
enum Inbound {
    /// A frame server `peer` sent.
    Frame(usize, Frame),
    /// Server `peer`'s goodbye, its dump decoded: every reply the server
    /// wrote came before it.
    Goodbye(usize, FlightDump),
    /// Server `peer`'s connection ended: its reader met the end of the
    /// stream, or an error.
    Closed(usize),
    /// [`Transport::flush`]: release every hold and every timer.
    Flush,
}

/// One server connection's reader: decodes frames and hands each to the
/// inbox as one message, then the end of the connection. It draws no fate
/// and writes to no socket. Only a `HelloAck` stays here, so that the
/// offset estimate is taken when the frame is decoded.
fn read_server(
    peer: usize,
    stream: Stream,
    inbound: &Sender<Inbound>,
    remote: &Mutex<Vec<RemoteServer>>,
    flight: &FlightRecorder,
) {
    let mut reader = FrameReader::new(stream);
    while let Ok(Some(frame)) = reader.read() {
        let message = match frame {
            Frame::HelloAck { echo_t, t_us, .. } => {
                // Cristian's algorithm: assume the reply took half the
                // round trip, so the server stamped `t_us` at roughly
                // driver-time `echo_t + rtt/2`.
                let now = flight.now_us();
                let rtt = now.saturating_sub(echo_t);
                let offset = t_us as i64 - (echo_t + rtt / 2) as i64;
                remote.lock().expect("remote lock")[peer].offset_us = offset;
                continue;
            }
            Frame::Goodbye { dump, .. } => {
                Inbound::Goodbye(peer, FlightDump::parse(&dump).unwrap_or_default())
            }
            frame => Inbound::Frame(peer, frame),
        };
        if inbound.send(message).is_err() {
            return;
        }
    }
    let _ = inbound.send(Inbound::Closed(peer));
}

/// One server's connection, or `None`: the link is down.
type Conn = Mutex<Option<FrameWriter<Stream>>>;

/// Dials server `peer` at `addr`, says `Hello` and starts the
/// connection's `net-reader-<peer>`; the writer half is the caller's.
fn dial(
    peer: usize,
    addr: &Addr,
    inbound: &Sender<Inbound>,
    remote: &Arc<Mutex<Vec<RemoteServer>>>,
    flight: &Arc<FlightRecorder>,
) -> io::Result<FrameWriter<Stream>> {
    let mut writer = FrameWriter::new(addr.connect_retry(DIAL_RETRY_WINDOW)?);
    // One clock sample per connection: the server echoes `t_us` in its
    // `HelloAck`, which gives the reader the offset estimate.
    writer.write(&Frame::Hello {
        node: DRIVER_NODE,
        t_us: flight.now_us(),
    })?;
    let stream = writer.get_ref().try_clone()?;
    let (inbound, remote, flight) = (inbound.clone(), Arc::clone(remote), Arc::clone(flight));
    std::thread::Builder::new()
        .name(format!("net-reader-{peer}"))
        .spawn(move || read_server(peer, stream, &inbound, &remote, &flight))?;
    Ok(writer)
}

/// Takes a link down for good: the connection is shut down, so its reader
/// ends too, and nothing is written to it again.
pub(crate) fn down(slot: &mut Option<FrameWriter<Stream>>) {
    if let Some(w) = slot.take() {
        let _ = w.get_ref().shutdown();
    }
}

/// Writes `frame` on `conn`. A failed write loses the frame and takes the
/// link down.
fn write(conn: &Conn, frame: &Frame) -> io::Result<()> {
    let mut slot = conn.lock().expect("connection lock");
    let written = slot
        .as_mut()
        .ok_or(io::ErrorKind::NotConnected)?
        .write(frame);
    if written.is_err() {
        down(&mut slot);
    }
    written
}

/// The driver-process transport: sockets to every server and the fault
/// links of both directions.
pub struct NetClient {
    /// One connection per server (index = server pid): the requests', the
    /// relays' and the `Shutdown`'s.
    conns: Vec<Conn>,
    tags: Arc<TagGen>,
    /// Every link of the run, both directions: the send path draws the
    /// requests' fates, the inbox the replies'.
    links: Mutex<Links<TaggedEnv>>,
    /// The inbox's queue, for [`Transport::flush`]'s message.
    inbound: Sender<Inbound>,
    /// Per-server remote state (index = server pid).
    remote: Arc<Mutex<Vec<RemoteServer>>>,
    /// The driver's flight recorder — its clock is the reference frame for
    /// clock-offset estimation.
    flight: Arc<FlightRecorder>,
}

impl NetClient {
    /// Dials every server in `cfg` once, returning the transport plus the
    /// driver's one inbox, which carries every client's replies (each
    /// names its client in `dst`) and must be serviced by the thread that
    /// steps the clients.
    ///
    /// # Errors
    ///
    /// [`FaultConfigError`] for unusable fault configurations. A server
    /// that still refuses the dial after 10 s is crashed from the start:
    /// every frame for it is lost, which the quorums absorb.
    pub fn connect(
        cfg: &NetClientCfg,
        flight: Arc<FlightRecorder>,
    ) -> Result<(Arc<NetClient>, DriverInbox), FaultConfigError> {
        let servers = cfg.servers.len() as u32;
        let nodes = servers + cfg.clients;
        let injector = Injector::new(cfg.seed, cfg.faults, servers, nodes, cfg.signal_crashes)?;
        let tags = Arc::new(TagGen::new());
        let signal_tags = Arc::clone(&tags);
        let links = Links::new(injector, move |server, window| TaggedEnv {
            tag: signal_tags.next(),
            re: 0,
            env: Envelope::crash(server, window),
        });
        let (inbound, frames) = mpsc::channel();
        let remote = Arc::new(Mutex::new(vec![RemoteServer::default(); cfg.servers.len()]));
        let conns = cfg
            .servers
            .iter()
            .enumerate()
            .map(|(peer, addr)| Mutex::new(dial(peer, addr, &inbound, &remote, &flight).ok()))
            .collect();
        // A replica's reply legs draw their fates into its own ring, as
        // on the bus.
        let rings = (0..cfg.servers.len())
            .map(|pid| flight.register(&format!("server-{pid}")))
            .collect();
        let client = Arc::new(NetClient {
            conns,
            tags,
            links: Mutex::new(links),
            inbound,
            remote,
            flight,
        });
        let inbox = DriverInbox {
            net: Arc::clone(&client),
            frames,
            ready: VecDeque::new(),
            timers: Timers::default(),
            rings,
        };
        Ok((client, inbox))
    }

    /// Total recoveries across all servers' latest telemetry snapshots —
    /// the live number `--watch` shows while the run is still going.
    #[must_use]
    pub fn remote_recoveries(&self) -> u64 {
        self.remote
            .lock()
            .expect("remote lock")
            .iter()
            .filter_map(|r| r.telemetry.map(|t| t.recovery.recoveries))
            .sum()
    }

    /// Realises `envs`: fates drawn per envelope, in the caller's order,
    /// under one lock — exactly the fault-schedule indices, in exactly the
    /// per-link order, that sending them one by one would consume. Returns
    /// the surviving entries grouped per destination server, in
    /// first-delivery order, each group in wire order.
    fn realise(&self, envs: Vec<Envelope>) -> Vec<(Pid, Vec<TaggedEnv>)> {
        let ring = self.flight.thread_ring();
        let entries = envs.into_iter().map(|env| {
            let (src, dst, label) = (env.src, env.dst, env.msg.flight_label());
            let span = env.span.flight_word();
            ring.record_span(FlightKind::BusSend, src.0, u64::from(dst.0), label, span);
            TaggedEnv {
                tag: self.tags.next(),
                // Exempt frames keep their reply correlation; faulted
                // traffic is always unsolicited from this endpoint.
                re: if env.exempt { env.reply_to } else { 0 },
                env: Envelope { reply_to: 0, ..env },
            }
        });
        let mut per_dst: Vec<(Pid, Vec<TaggedEnv>)> = Vec::new();
        let deliver = |e: TaggedEnv| {
            let dst = e.env.dst;
            match per_dst.iter_mut().find(|(d, _)| *d == dst) {
                Some((_, entries)) => entries.push(e),
                None => per_dst.push((dst, vec![e])),
            }
        };
        self.draw(entries, &ring, deliver, |_, _| {
            unreachable!("the schedule restricts delays to server→client links")
        });
        per_dst
    }

    /// Draws the fate of every faulted entry, in order, on the run's one
    /// table under one lock, recording on `ring`, and hands what is
    /// deliverable to `now` and a `Delay` to `later`; an exempt entry goes
    /// to `now` in place, drawing nothing. Both directions' fates are
    /// drawn here.
    fn draw(
        &self,
        entries: impl IntoIterator<Item = TaggedEnv>,
        ring: &FlightRing,
        mut now: impl FnMut(TaggedEnv),
        mut later: impl FnMut(u16, TaggedEnv),
    ) {
        let mut links = None;
        for e in entries {
            if e.env.exempt {
                now(e);
                continue;
            }
            let (src, dst, label) = (e.env.src, e.env.dst, e.env.msg.flight_label());
            links
                .get_or_insert_with(|| self.links.lock().expect("links lock"))
                .realise(src, dst, label, e, ring, &mut now, &mut later);
        }
    }

    /// Tells every server whose connection is open to finish up, and
    /// services `inbox` for up to `wait` until each of them has said
    /// `Goodbye` or its connection has ended: a server writes every reply
    /// ahead of its goodbye, so the fates of late replies are drawn and
    /// counted. A relay for a server past its `Shutdown` is dropped. Then
    /// shuts every connection down — the reader threads hold clones of the
    /// streams and must not outlive the run, because a server keeps its
    /// end open — and drops the inbox, so nothing draws a fate after this
    /// returns. Returns every server's remote state (index = server pid):
    /// a server sends its final telemetry right before its goodbye, so one
    /// that said goodbye reports its whole run; one that died hard keeps
    /// its last telemetry and a `None` dump.
    pub fn shutdown(&self, mut inbox: DriverInbox, wait: Duration) -> Vec<RemoteServer> {
        // Each writer leaves its slot with the `Shutdown`, so nothing
        // follows it; a failed write is a server that is gone already.
        let mut shut = Vec::new();
        let mut waiting = vec![false; self.conns.len()];
        for (peer, conn) in self.conns.iter().enumerate() {
            if let Some(mut w) = conn.lock().expect("connection lock").take() {
                waiting[peer] = w.write(&Frame::Shutdown).is_ok();
                shut.push(w);
            }
        }
        let deadline = Instant::now() + wait;
        while waiting.contains(&true) {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(message) = inbox.frames.recv_timeout(left) else {
                break;
            };
            if let Inbound::Goodbye(peer, _) | Inbound::Closed(peer) = message {
                waiting[peer] = false;
            }
            inbox.take(message);
        }
        for w in shut {
            let _ = w.get_ref().shutdown();
        }
        self.remote.lock().expect("remote lock").clone()
    }
}

/// Hands a deliverable reply to the worker, unless it answers no request.
fn route(ready: &mut VecDeque<Envelope>, e: TaggedEnv) {
    if e.re == 0 {
        blunt_obs::static_counter!("net.rpc.tag_mismatch_drops").inc();
        return;
    }
    ready.push_back(e.env.in_reply_to(e.tag));
}

/// The driver worker's inbox: what the readers decoded, one message per
/// frame, with every reply's fate drawn here, on the worker. Replies the
/// fate leaves deliverable wait in order for the worker to take them; a
/// `Delay` waits in the inbox's timers, which it looks at whenever it runs
/// out of deliverable replies, and which cut a wait short when one falls
/// due. An entry for a server is relayed to it at once.
pub struct DriverInbox {
    net: Arc<NetClient>,
    frames: Receiver<Inbound>,
    /// Deliverable replies nobody has taken yet, in delivery order.
    ready: VecDeque<Envelope>,
    timers: Timers<TaggedEnv>,
    /// Where each server's replies record their fault events (index =
    /// server pid): `server-<pid>`, the replica's ring on the bus.
    rings: Vec<Arc<FlightRing>>,
}

impl DriverInbox {
    fn take(&mut self, message: Inbound) {
        let remote = &self.net.remote;
        match message {
            Inbound::Frame(peer, Frame::Env { tag, re, env }) => {
                self.admit(peer, vec![TaggedEnv { tag, re, env }]);
            }
            Inbound::Frame(peer, Frame::EnvBatch { entries }) => self.admit(peer, entries),
            Inbound::Frame(peer, Frame::Telemetry { report, .. }) => {
                remote.lock().expect("remote lock")[peer].telemetry = Some(report);
            }
            Inbound::Goodbye(peer, dump) => {
                remote.lock().expect("remote lock")[peer].dump = Some(dump);
            }
            Inbound::Closed(peer) => {
                down(&mut self.net.conns[peer].lock().expect("connection lock"))
            }
            // Servers send a driver nothing else.
            Inbound::Frame(..) => {}
            Inbound::Flush => {
                let held = self.net.links.lock().expect("links lock").release();
                for e in held.into_iter().chain(self.timers.release()) {
                    route(&mut self.ready, e);
                }
            }
        }
    }

    /// One frame's entries from server `peer`, in wire order: replies
    /// through the links (fates drawn per entry under one lock, as the send
    /// path draws a batch's, into `peer`'s ring), entries for a server
    /// (always exempt) relayed. Each entry is handled exactly as if it had
    /// arrived as its own `Env` frame, so batching is invisible above the
    /// framing layer.
    fn admit(&mut self, peer: usize, entries: Vec<TaggedEnv>) {
        let net = &*self.net;
        let ready = &mut self.ready;
        let (mut later, mut relays) = (Vec::new(), Vec::new());
        let deliver = |e: TaggedEnv| {
            if e.env.dst.index() < net.conns.len() {
                relays.push(e);
            } else {
                route(ready, e);
            }
        };
        net.draw(entries, &self.rings[peer], deliver, |ms, e| {
            later.push((ms, e))
        });
        self.timers.add(later);
        for e in relays {
            let dst = e.env.dst.index();
            let relay = TaggedEnv {
                tag: net.tags.next(),
                ..e
            };
            // A failed write is a lost frame, as on any other path.
            if write(&net.conns[dst], &Frame::from(relay)).is_ok() {
                blunt_obs::static_counter!("net.relays").inc();
            }
        }
    }
}

impl Inbox for DriverInbox {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_recv() {
                Err(TryRecvError::Empty) => {}
                got => return got.map_err(|_| RecvTimeoutError::Disconnected),
            }
            // Woken for the next timer due, if it is sooner.
            let wake = self
                .timers
                .next_due()
                .map_or(deadline, |due| due.min(deadline));
            match self
                .frames
                .recv_timeout(wake.saturating_duration_since(Instant::now()))
            {
                Ok(message) => self.take(message),
                Err(RecvTimeoutError::Timeout) if wake < deadline => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn try_recv(&mut self) -> Result<Envelope, TryRecvError> {
        loop {
            // Replies whose timers fell due go before the next frame.
            if self.ready.is_empty() && !self.timers.is_empty() {
                for e in self.timers.due(Instant::now()) {
                    route(&mut self.ready, e);
                }
            }
            if let Some(env) = self.ready.pop_front() {
                return Ok(env);
            }
            let message = self.frames.try_recv()?;
            self.take(message);
        }
    }
}

impl Transport for NetClient {
    fn send(&self, env: Envelope) {
        self.send_batch(vec![env]);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        for (dst, entries) in self.realise(envs) {
            // A send failure is a lost frame, and a link down for good: a
            // crashed replica, which the quorums tolerate.
            let _ = write(&self.conns[dst.index()], &Frame::batch(entries));
        }
    }

    /// Tells the inbox to release every hold and every timer, behind
    /// whatever the readers handed it before; nothing if the inbox is gone
    /// ([`NetClient::shutdown`]).
    fn flush(&self) {
        let _ = self.inbound.send(Inbound::Flush);
    }

    fn stats(&self) -> TransportStats {
        self.links.lock().expect("links lock").injector().stats()
    }

    fn coverage(&self) -> Coverage {
        self.links.lock().expect("links lock").injector().coverage()
    }
}
