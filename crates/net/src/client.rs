//! The driver endpoint: client threads and the monitor live in this
//! process; servers are reached over sockets.
//!
//! [`NetClient`] owns the **whole** fault schedule of a socket run, as the
//! bus owns an in-process run's: every fate is drawn in this process, so a
//! serve process needs no seed or fault flags.
//!
//! - **Client→server.** Every non-exempt request is realised by one
//!   [`Links`] on the send path: `Drop` family skips the entry,
//!   `Duplicate` writes the same tagged entry twice (the server admits
//!   both, so the replica answers both, as on the bus), and a crash-window
//!   exit puts the exempt amnesia signal directly ahead of the triggering
//!   entry in the server's `EnvBatch`. The schedule gives these links no
//!   `Reorder` or `Delay`.
//! - **Server→client.** Inbound frames are replies. Each server's reader
//!   thread draws their fates on that server's own [`Links`] (no other
//!   reader takes its lock), and routes what is deliverable to the issuing
//!   client's lane by the lane bits of the entry's `re` header
//!   ([`rpc::lane_of`](crate::rpc::lane_of)). A `Reorder` waits in the
//!   link's hold-back slot, a `Delay` in the `net-delayer` thread (spawned
//!   by the first delay drawn), whose sink is the lanes too;
//!   [`Transport::flush`] releases both.
//! - **Server→server.** The driver is the hub of a socket run: servers
//!   hold no connection to each other. An entry a reader takes off a
//!   server's connection for another server (catch-up traffic, always
//!   exempt) draws no fate, counts in neither [`Transport::stats`] nor
//!   [`Transport::coverage`], and is relayed to its server as a lone `Env`
//!   frame under a driver tag, as the bus delivers exempt server→server
//!   envelopes. A reader never writes to a socket — two readers relaying
//!   to each other's servers, while both servers block writing to the
//!   driver, would deadlock — so the relay is the `net-delayer`'s, with no
//!   delay. A relay read after [`Transport::flush`], or one that would
//!   follow a server's `Shutdown`, is dropped.
//!
//! A reply to a finished exchange reaches its lane like any other and the
//! client refuses it by `sn`, as on the bus; only a reply with no lane
//! counts as `net.rpc.tag_mismatch_drops`. [`Transport::stats`] and
//! [`Transport::coverage`] cover both directions: they are final once
//! every server's `Goodbye` has arrived ([`NetClient::shutdown`]) and the
//! holds are released, because a server writes all its replies ahead of
//! its goodbye on the one FIFO connection. A server that sent no goodbye
//! (it died, or missed the deadline) leaves its reply links partial: what
//! its reader drew before [`Transport::flush`] counts, and nothing after.

use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::flight::FlightDump;
use blunt_obs::{FlightKind, FlightRecorder};

use crate::conn::Addr;
use crate::fault::{FaultConfig, FaultConfigError};
use crate::frame::{Frame, FrameReader, TaggedEnv, DRIVER_NODE};
use crate::injector::{Delayer, Injector, Links, TransportStats};
use crate::pool::ConnectionPool;
use crate::rpc::{lane_of, TagGen, MAX_LANES};
use crate::wire::Envelope;
use crate::{Coverage, Transport};

/// How a driver reaches its servers.
pub struct NetClientCfg {
    /// Fault-schedule seed.
    pub seed: u64,
    /// Fault configuration.
    pub faults: FaultConfig,
    /// One listen address per server, index = server pid.
    pub servers: Vec<Addr>,
    /// Number of client threads this driver runs.
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

/// Hands a deliverable reply to the lane whose request tag it answers.
fn route(lanes: &[Sender<Envelope>], e: TaggedEnv) {
    match lane_of(e.re).and_then(|lane| lanes.get(lane)) {
        Some(mailbox) => {
            let _ = mailbox.send(e.env.in_reply_to(e.tag));
        }
        None => blunt_obs::static_counter!("net.rpc.tag_mismatch_drops").inc(),
    }
}

/// State the per-connection reader threads share with the send path.
struct Shared {
    /// Server pids are `0..servers`: an entry for one is relayed.
    servers: u32,
    /// One connection per server: the send path's, the relays' and the
    /// `Shutdown`'s.
    pool: ConnectionPool,
    tags: TagGen,
    /// One mailbox per client lane (lane = pid − servers).
    lanes: Vec<Sender<Envelope>>,
    /// The server→client links, one table per server (index = server pid),
    /// each drawn from by that server's reader alone.
    replies: Vec<Mutex<Links<TaggedEnv>>>,
    /// Where a delayed reply waits for its lane, and a relay for its
    /// server ([`Shared::hand_on`]).
    delayer: Delayer<TaggedEnv>,
    /// Set by [`Transport::flush`]: from then on a reader draws no fate.
    flushed: AtomicBool,
    /// Signalled at every `Goodbye` stored; [`NetClient::shutdown`] waits
    /// on it for the last.
    goodbye_arrived: Condvar,
    /// Per-server remote state (index = server pid).
    remote: Mutex<Vec<RemoteServer>>,
    /// The driver's flight recorder — its clock is the reference frame for
    /// clock-offset estimation.
    flight: Arc<FlightRecorder>,
}

impl Shared {
    /// One frame's entries from server `peer`, in wire order: replies
    /// through the server's reply links (fates drawn per entry under one
    /// lock, as the bus draws a batch's) to their lanes, and entries for a
    /// server to the delayer, due at once, to be relayed. Each entry is
    /// handled exactly as if it had arrived as its own `Env` frame, so
    /// batching is invisible above the framing layer.
    ///
    /// The lock is held to the end, so a flush waits for this frame's
    /// draws, delays and relays; a faulted reply or a relay read after the
    /// flush (from a server that sent no `Goodbye`) is dropped, and the
    /// counters stay as the flush left them.
    fn admit(&self, peer: usize, entries: Vec<TaggedEnv>) {
        let ring = self.flight.thread_ring();
        let (mut now, mut later) = (Vec::with_capacity(entries.len()), Vec::new());
        let mut deliver = |e: TaggedEnv| now.push(e);
        let mut delay = |ms, e| later.push((ms, e));
        let mut links = None;
        for e in entries {
            if e.env.dst.0 < self.servers {
                // Under the lock too, so no relay is scheduled after the
                // flush has closed the delayer.
                links.get_or_insert_with(|| self.replies[peer].lock().expect("links"));
                if !self.flushed.load(Ordering::Relaxed) {
                    delay(0, e);
                }
            } else if e.env.exempt {
                deliver(e);
            } else {
                let (src, dst, label) = (e.env.src, e.env.dst, e.env.msg.flight_label());
                let links = links.get_or_insert_with(|| self.replies[peer].lock().expect("links"));
                if !self.flushed.load(Ordering::Relaxed) {
                    links.realise(src, dst, label, e, &ring, &mut deliver, &mut delay);
                }
            }
        }
        now.into_iter().for_each(|e| route(&self.lanes, e));
        self.delayer.delay(later);
    }

    /// The delayer's sink: a relay to its server, as a lone `Env` frame
    /// under a fresh driver tag; a reply to its lane.
    fn hand_on(&self, e: TaggedEnv) {
        let dst = e.env.dst;
        if dst.0 >= self.servers {
            route(&self.lanes, e);
            return;
        }
        blunt_obs::static_counter!("net.relays").inc();
        let relay = TaggedEnv {
            tag: self.tags.next(),
            ..e
        };
        // A failed write is a lost frame, as on any other path.
        let _ = self.pool.send(dst.index(), &Frame::from(relay));
    }

    fn reader_loop(&self, peer: usize, stream: crate::conn::Stream) {
        self.flight.register_current(&format!("net-reader-{peer}"));
        let mut reader = FrameReader::new(stream);
        loop {
            let frame = match reader.read() {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => return,
            };
            match frame {
                Frame::Env { tag, re, env } => {
                    self.admit(peer, vec![TaggedEnv { tag, re, env }]);
                }
                Frame::EnvBatch { entries } => self.admit(peer, entries),
                Frame::HelloAck { echo_t, t_us, .. } => {
                    // Cristian's algorithm: assume the reply took half the
                    // round trip, so the server stamped `t_us` at roughly
                    // driver-time `echo_t + rtt/2`.
                    let now = self.flight.now_us();
                    let rtt = now.saturating_sub(echo_t);
                    let offset = t_us as i64 - (echo_t + rtt / 2) as i64;
                    self.remote.lock().expect("remote lock")[peer].offset_us = offset;
                }
                Frame::Telemetry { report, .. } => {
                    self.remote.lock().expect("remote lock")[peer].telemetry = Some(report);
                }
                Frame::Goodbye { dump, .. } => {
                    let dump = FlightDump::parse(&dump).unwrap_or_default();
                    self.remote.lock().expect("remote lock")[peer].dump = Some(dump);
                    self.goodbye_arrived.notify_all();
                }
                // Servers never send these to a driver.
                Frame::Hello { .. } | Frame::Shutdown => {}
            }
        }
    }
}

/// The driver-process transport: sockets to every server, the fault links
/// of both directions, and reply routing back to client lanes.
pub struct NetClient {
    servers: u32,
    links: Mutex<Links<TaggedEnv>>,
    shared: Arc<Shared>,
    flight: Arc<FlightRecorder>,
}

impl NetClient {
    /// Connects to every server in `cfg`, returning the transport plus one
    /// inbound mailbox per client lane (index = client pid − servers).
    /// Connections are dialed lazily on first send and self-heal across
    /// server restarts.
    ///
    /// # Errors
    ///
    /// [`FaultConfigError`] for unusable fault configurations; connection
    /// errors surface later, on send, as silently lost frames (the
    /// retransmission layer absorbs them).
    pub fn connect(
        cfg: &NetClientCfg,
        flight: Arc<FlightRecorder>,
    ) -> Result<(Arc<NetClient>, Vec<Receiver<Envelope>>), FaultConfigError> {
        assert!(
            u64::from(cfg.clients) <= MAX_LANES,
            "{} clients do not fit the tag's lane bits",
            cfg.clients
        );
        let servers = cfg.servers.len() as u32;
        let nodes = servers + cfg.clients;
        let injector = |signal| Injector::new(cfg.seed, cfg.faults, servers, nodes, signal);
        let requests = injector(cfg.signal_crashes)?;
        // Replies go to clients, never into a crash window: no signals.
        let replies = (0..servers)
            .map(|_| Links::new(injector(false).expect("validated"), |_, _| unreachable!()))
            .map(Mutex::new)
            .collect();
        let (lanes, receivers): (Vec<_>, Vec<_>) =
            (0..cfg.clients).map(|_| mpsc::channel()).unzip();
        // The pool's readers and the delayer's sink reach back into the
        // `Shared` that owns both, so neither holds it strongly.
        let shared = Arc::new_cyclic(|me: &Weak<Shared>| {
            let (reader_shared, sink) = (me.clone(), me.clone());
            let hello_flight = Arc::clone(&flight);
            let pool = ConnectionPool::new(
                cfg.servers.clone(),
                // Fresh clock sample per dial: the server echoes `t_us` in
                // its `HelloAck`, giving the reader loop one offset
                // estimate per (re)connection.
                move || Frame::Hello {
                    node: DRIVER_NODE,
                    t_us: hello_flight.now_us(),
                },
                move |peer, stream| {
                    let Some(shared) = reader_shared.upgrade() else {
                        return;
                    };
                    std::thread::Builder::new()
                        .name(format!("net-reader-{peer}"))
                        .spawn(move || shared.reader_loop(peer, stream))
                        .expect("spawn connection reader thread");
                },
            );
            Shared {
                servers,
                pool,
                tags: TagGen::new(),
                lanes,
                replies,
                delayer: Delayer::new("net-delayer", move |e| {
                    if let Some(shared) = sink.upgrade() {
                        shared.hand_on(e);
                    }
                }),
                flushed: AtomicBool::new(false),
                goodbye_arrived: Condvar::new(),
                remote: Mutex::new(vec![RemoteServer::default(); cfg.servers.len()]),
                flight: Arc::clone(&flight),
            }
        });
        let signal_shared = Arc::clone(&shared);
        let client = Arc::new(NetClient {
            servers,
            links: Mutex::new(Links::new(requests, move |server, window| TaggedEnv {
                tag: signal_shared.tags.next(),
                re: 0,
                env: Envelope::crash(server, window),
            })),
            shared,
            flight,
        });
        Ok((client, receivers))
    }

    /// A fresh tag for an outbound frame, stamped with the sender's lane
    /// when the sender is a client.
    fn tag_for(&self, src: Pid) -> u64 {
        match src.0.checked_sub(self.servers) {
            Some(lane) => self.shared.tags.next_for(lane as usize),
            None => self.shared.tags.next(),
        }
    }

    fn write(&self, dst: Pid, frame: &Frame) {
        // A send failure is a lost frame; retransmission recovers, exactly
        // as with any other drop on the path.
        let _ = self.shared.pool.send(dst.index(), frame);
    }

    /// Total recoveries across all servers' latest telemetry snapshots —
    /// the live number `--watch` shows while the run is still going.
    #[must_use]
    pub fn remote_recoveries(&self) -> u64 {
        self.shared
            .remote
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
        let mut per_dst: Vec<(Pid, Vec<TaggedEnv>)> = Vec::new();
        let mut deliver = |e: TaggedEnv| {
            let dst = e.env.dst;
            match per_dst.iter_mut().find(|(d, _)| *d == dst) {
                Some((_, entries)) => entries.push(e),
                None => per_dst.push((dst, vec![e])),
            }
        };
        let mut links = None;
        for env in envs {
            let (src, dst, label) = (env.src, env.dst, env.msg.flight_label());
            let span = env.span.flight_word();
            ring.record_span(FlightKind::BusSend, src.0, u64::from(dst.0), label, span);
            let entry = TaggedEnv {
                tag: self.tag_for(src),
                // Exempt frames keep their reply correlation; faulted
                // traffic is always unsolicited from this endpoint.
                re: if env.exempt { env.reply_to } else { 0 },
                env: Envelope { reply_to: 0, ..env },
            };
            if entry.env.exempt {
                deliver(entry);
                continue;
            }
            links
                .get_or_insert_with(|| self.links.lock().expect("links lock"))
                .realise(src, dst, label, entry, &ring, &mut deliver, &mut |_, _| {
                    unreachable!("the schedule restricts delays to server→client links")
                });
        }
        drop(links);
        per_dst
    }

    /// Tells every server to finish up, waits up to `wait` for their
    /// `Goodbye`s, then shuts every connection down: the reader threads
    /// hold clones of the pooled streams (and, through them, the client
    /// lanes and the flight recorder), and must not outlive the run because
    /// a server keeps its end open. Returns every server's remote state
    /// (index = server pid): a server sends its final telemetry right
    /// before its goodbye, so one that said goodbye reports its whole run;
    /// one that died hard keeps its last telemetry and a `None` dump.
    pub fn shutdown(&self, wait: Duration) -> Vec<RemoteServer> {
        // A send failure is a lost frame: one dead server must not keep
        // the others from hearing it. A relay that would follow the
        // `Shutdown` is never read, and its server may be gone: none is
        // written.
        let pool = &self.shared.pool;
        for peer in 0..pool.len() {
            let _ = pool.send_last(peer, &Frame::Shutdown);
        }
        let deadline = Instant::now() + wait;
        let mut remote = self.shared.remote.lock().expect("remote lock");
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if remote.iter().all(|r| r.dump.is_some()) || left.is_zero() {
                break;
            }
            remote = self
                .shared
                .goodbye_arrived
                .wait_timeout(remote, left)
                .expect("remote lock")
                .0;
        }
        pool.close();
        remote.clone()
    }
}

impl Transport for NetClient {
    fn send(&self, env: Envelope) {
        self.send_batch(vec![env]);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        for (dst, entries) in self.realise(envs) {
            self.write(dst, &Frame::batch(entries));
        }
    }

    fn flush(&self) {
        // Set before any lock is taken: a reader that takes one after this
        // flush has released it sees the flag.
        self.shared.flushed.store(true, Ordering::Relaxed);
        for links in &self.shared.replies {
            let held = links.lock().expect("links").release();
            held.into_iter().for_each(|e| route(&self.shared.lanes, e));
        }
        self.shared.delayer.close();
    }

    fn stats(&self) -> TransportStats {
        let mut stats = self.links.lock().expect("links lock").injector().stats();
        for links in &self.shared.replies {
            stats += links.lock().expect("links").injector().stats();
        }
        stats
    }

    fn coverage(&self) -> Coverage {
        let mut coverage = self.links.lock().expect("links lock").injector().coverage();
        for links in &self.shared.replies {
            let replies = links.lock().expect("links").injector().coverage();
            coverage.links.extend(replies.links);
        }
        coverage.links.sort_by_key(|l| (l.src, l.dst));
        coverage
    }
}
