//! The driver endpoint: client threads and the monitor live in this
//! process; servers are reached over sockets.
//!
//! [`NetClient`] owns the **client→server** half of the fault schedule:
//! every non-exempt request is realised by the shared [`Links`] exactly
//! like the in-process bus's — `Drop` family skips the entry, `Duplicate`
//! writes the same tagged entry twice (the server's dedup window absorbs
//! the copy), and a crash-window exit puts the exempt amnesia signal
//! directly ahead of the triggering entry in the server's `EnvBatch`.
//! `Reorder`/`Delay` never occur on client→server links (the schedule
//! restricts them to server→client), so the driver runs no delayer.
//!
//! Inbound frames are replies: each reader thread routes them to the
//! issuing client's lane by the frame's `re` header via [`ReplyRouter`];
//! replies to retired tags count as `net.rpc.tag_mismatch_drops`.

use std::ops::AddAssign;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::flight::FlightDump;
use blunt_obs::{FlightKind, FlightRecorder};

use crate::conn::Addr;
use crate::fault::{FaultConfig, FaultConfigError};
use crate::frame::{Frame, FrameReader, TaggedEnv, DRIVER_NODE};
use crate::injector::{Injector, Links, TransportStats};
use crate::pool::ConnectionPool;
use crate::rpc::{DedupWindow, ReplyRouter, TagGen};
use crate::wire::Envelope;
use crate::{Coverage, Transport};

/// How a driver reaches its servers.
pub struct NetClientCfg {
    /// Fault-schedule seed (shared with the servers' own injectors).
    pub seed: u64,
    /// Fault configuration (shared likewise).
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

/// State the per-connection reader threads share with the send path.
struct Shared {
    router: ReplyRouter,
    /// One mailbox per client lane (lane = pid − servers).
    lanes: Vec<Sender<Envelope>>,
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
    /// One reply off the wire: past the connection's dedup window, to the
    /// lane whose request tag it answers.
    fn admit(&self, dedup: &mut DedupWindow, tag: u64, re: u64, env: Envelope) {
        if !dedup.admit(tag) {
            blunt_obs::static_counter!("net.rpc.dedup_drops").inc();
            return;
        }
        match self.router.route(re) {
            Some(lane) => {
                let _ = self.lanes[lane].send(env.in_reply_to(tag));
            }
            None => blunt_obs::static_counter!("net.rpc.tag_mismatch_drops").inc(),
        }
    }

    fn reader_loop(&self, peer: usize, stream: crate::conn::Stream) {
        let mut reader = FrameReader::new(stream);
        let mut dedup = DedupWindow::new(1024);
        loop {
            let frame = match reader.read() {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => return,
            };
            match frame {
                Frame::Env { tag, re, env } => self.admit(&mut dedup, tag, re, env),
                // Unpacked in order: each entry is handled exactly as if it
                // had arrived as its own `Env` frame, so batching is
                // invisible above the framing layer.
                Frame::EnvBatch { entries } => {
                    for e in entries {
                        self.admit(&mut dedup, e.tag, e.re, e.env);
                    }
                }
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

/// The driver-process transport: sockets to every server, the
/// client→server fault links, and reply routing back to client lanes.
pub struct NetClient {
    servers: u32,
    links: Mutex<Links<TaggedEnv>>,
    pool: ConnectionPool,
    tags: Arc<TagGen>,
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
        let servers = cfg.servers.len() as u32;
        let nodes = servers + cfg.clients;
        let injector = Injector::new(cfg.seed, cfg.faults, servers, nodes, cfg.signal_crashes)?;
        let mut lanes = Vec::with_capacity(cfg.clients as usize);
        let mut receivers = Vec::with_capacity(cfg.clients as usize);
        for _ in 0..cfg.clients {
            let (tx, rx) = mpsc::channel();
            lanes.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            router: ReplyRouter::new(cfg.clients as usize),
            lanes,
            goodbye_arrived: Condvar::new(),
            remote: Mutex::new(vec![RemoteServer::default(); cfg.servers.len()]),
            flight: Arc::clone(&flight),
        });
        let reader_shared = Arc::clone(&shared);
        let hello_flight = Arc::clone(&flight);
        let pool = ConnectionPool::new(
            cfg.servers.clone(),
            // Fresh clock sample per dial: the server echoes `t_us` in its
            // `HelloAck`, giving the reader loop one offset estimate per
            // (re)connection.
            move || Frame::Hello {
                node: DRIVER_NODE,
                t_us: hello_flight.now_us(),
            },
            move |peer, stream| {
                let shared = Arc::clone(&reader_shared);
                std::thread::Builder::new()
                    .name(format!("net-reader-{peer}"))
                    .spawn(move || shared.reader_loop(peer, stream))
                    .expect("spawn connection reader thread");
            },
        );
        let tags = Arc::new(TagGen::new());
        let signal_tags = Arc::clone(&tags);
        let client = Arc::new(NetClient {
            servers,
            links: Mutex::new(Links::new(injector, move |server, window| TaggedEnv {
                tag: signal_tags.next(),
                re: 0,
                env: Envelope::crash(server, window),
            })),
            pool,
            tags,
            shared,
            flight,
        });
        Ok((client, receivers))
    }

    /// A fresh tag for an outbound frame, registered for reply routing when
    /// the sender is a client lane.
    fn tag_for(&self, src: Pid) -> u64 {
        let tag = self.tags.next();
        if src.0 >= self.servers {
            self.shared
                .router
                .register((src.0 - self.servers) as usize, tag);
        }
        tag
    }

    fn write(&self, dst: Pid, frame: &Frame) {
        // A send failure is a lost frame; retransmission recovers, exactly
        // as with any other drop on the path.
        let _ = self.pool.send(dst.index(), frame);
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
        // the others from hearing it.
        for peer in 0..self.pool.len() {
            let _ = self.pool.send(peer, &Frame::Shutdown);
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
        self.pool.close();
        remote.clone()
    }
}

impl Transport for NetClient {
    fn send(&self, env: Envelope) {
        for (dst, entries) in self.realise(vec![env]) {
            // A duplicate is the same tag twice: the wire sees two frames,
            // the receiver's dedup window absorbs the copy.
            for e in entries {
                self.write(dst, &Frame::from(e));
            }
        }
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        for (dst, entries) in self.realise(envs) {
            self.write(dst, &Frame::batch(entries));
        }
    }

    fn on_op_start(&self, client: Pid) {
        if client.0 >= self.servers {
            self.shared
                .router
                .begin_op((client.0 - self.servers) as usize);
        }
    }

    fn flush(&self) {
        // Nothing is held or delayed: the schedule restricts reorders and
        // delays to server→client links.
    }

    fn stats(&self) -> TransportStats {
        self.links.lock().expect("links lock").injector().stats()
    }

    fn coverage(&self) -> Coverage {
        self.links.lock().expect("links lock").injector().coverage()
    }
}
