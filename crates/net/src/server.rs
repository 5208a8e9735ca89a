//! The server endpoint: one `chaos serve` process per server pid.
//!
//! [`NetServer`] is a plain replica host: it accepts the driver's
//! connection plus peer-server connections (recovery traffic) and holds no
//! fault schedule. The driver draws the fate of every message of the run,
//! replies included, when its reader takes them off this server's
//! connection ([`NetClient`](crate::NetClient)). So every reply one
//! [`Transport::send_batch`] call makes reaches the driver in a single
//! `EnvBatch` frame, in the caller's order, and a serve process needs no
//! seed or fault flags.
//!
//! Inbound, the replica thread reads its own driver socket through the
//! [`ServerInbox`] that [`NetServer::bind`] returns: no thread stands
//! between a request on the wire and the ABD step that answers it. The
//! process's threads are the replica (whoever drives the inbox), the
//! acceptor, one short-lived handshake thread per accepted connection,
//! and one pump per connected peer — none per driver connection. The
//! driver connection's dedup window lives in the inbox, a peer
//! connection's in its pump.
//!
//! An inbound `Shutdown` on the driver connection raises the stop flag and
//! ends the inbox's input; the runtime then sends the server's final
//! counters with [`NetServer::telemetry`], its flight-dump tail with
//! [`NetServer::goodbye`], and takes the server off the network with
//! [`NetServer::close`] — the acceptor blocks in
//! `accept` and the driver's reader in `read`, and neither ends because a
//! `NetServer` is dropped.

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::{FlightKind, FlightRecorder};

use crate::client::ServerTelemetry;
use crate::conn::{Addr, Stream};
use crate::frame::{Frame, FrameReader, FrameWriter, TaggedEnv, DRIVER_NODE};
use crate::injector::TransportStats;
use crate::pool::ConnectionPool;
use crate::rpc::{DedupWindow, TagGen};
use crate::wire::Envelope;
use crate::{Coverage, Inbox, Transport};

/// How one server process joins a chaos run.
pub struct NetServerCfg {
    /// Where this server listens.
    pub listen: Addr,
    /// This server's pid (`0..servers`).
    pub me: Pid,
    /// Total number of servers in the run.
    pub servers: u32,
    /// Every server's listen address, index = pid (recovery traffic dials
    /// peers directly; this server's own entry is never dialed).
    pub peers: Vec<Addr>,
}

/// The single writer handle back to the driver process, replaced whenever
/// the driver redials (e.g. after noticing a dead connection).
struct DriverSlot(Mutex<Option<FrameWriter<Stream>>>);

impl DriverSlot {
    fn write(&self, frame: &Frame) {
        let mut slot = self.0.lock().expect("driver slot lock");
        if let Some(w) = slot.as_mut() {
            if w.write(frame).is_err() {
                // The frame is lost; the driver's pool will redial and the
                // retransmission layer recovers.
                *slot = None;
            }
        }
    }
}

/// The server-process transport: the driver/peer listener, the writer back
/// to the driver, and the peer pool for recovery traffic.
pub struct NetServer {
    me: Pid,
    servers: u32,
    /// Where the acceptor listens: [`NetServer::close`] dials it.
    listen: Addr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    peers: ConnectionPool,
    tags: TagGen,
    driver: Arc<DriverSlot>,
    stop: Arc<AtomicBool>,
    flight: Arc<FlightRecorder>,
    /// Bumped by [`Transport::on_crash`] (an amnesia crash of this server
    /// process); every connection's reader — the inbox for the driver's, a
    /// pump for a peer's — compares against its last-seen value and resets
    /// its dedup window when it lags: dedup state is volatile and must not
    /// survive the crash.
    dedup_epoch: Arc<AtomicU64>,
}

/// What the acceptor's threads send the replica thread.
enum Inbound {
    /// A driver connection past its handshake: the read half, with
    /// whatever the handshake's `read` buffered behind the `Hello`.
    Driver(FrameReader<Stream>),
    /// One admitted envelope off a peer connection.
    Peer(Envelope),
}

/// One connection's duplicate suppression: its window, and the crash epoch
/// the window was last wiped at.
struct Admission {
    window: DedupWindow,
    seen_epoch: u64,
}

impl Admission {
    fn new(dedup_epoch: &AtomicU64) -> Admission {
        Admission {
            window: DedupWindow::new(1024),
            seen_epoch: dedup_epoch.load(Ordering::SeqCst),
        }
    }

    /// Passes `frame`'s envelopes to `out` in wire order, each handled
    /// exactly as if it had arrived as its own `Env` frame; frames that
    /// carry no envelope pass nothing.
    fn unpack(&mut self, frame: Frame, dedup_epoch: &AtomicU64, mut out: impl FnMut(Envelope)) {
        // An amnesia crash since the last frame wipes this connection's
        // dedup memory: pre-crash clients retransmit tags this window has
        // already admitted, and dropping them would starve recovery of
        // exactly the retries it depends on. Checked after the read, so
        // the first post-crash frame sees the fresh window.
        let epoch = dedup_epoch.load(Ordering::SeqCst);
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            self.window.reset();
            blunt_obs::static_counter!("net.rpc.dedup_resets").inc();
        }
        let mut admit = |tag: u64, env: Envelope| {
            if self.window.admit(tag) {
                out(env.in_reply_to(tag));
            } else {
                blunt_obs::static_counter!("net.rpc.dedup_drops").inc();
            }
        };
        match frame {
            Frame::Env { tag, env, .. } => admit(tag, env),
            Frame::EnvBatch { entries } => {
                for e in entries {
                    admit(e.tag, e.env);
                }
            }
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::Telemetry { .. }
            | Frame::Goodbye { .. }
            | Frame::Shutdown => {}
        }
    }
}

/// One accepted connection. A peer's is pumped into the mailbox from this
/// thread until the stream ends. The driver's gets its writer installed and
/// its `HelloAck`, then its read half goes to the replica thread and this
/// thread exits: the replica reads its own driver socket.
fn handshake(
    me: Pid,
    flight: &FlightRecorder,
    stream: Stream,
    mailbox: &Sender<Inbound>,
    driver: &DriverSlot,
    dedup_epoch: &AtomicU64,
) {
    let writer = stream.try_clone();
    let mut reader = FrameReader::new(stream);
    let (hello, hello_t) = match reader.read() {
        Ok(Some(Frame::Hello { node, t_us })) => (node, t_us),
        _ => return,
    };
    if hello != DRIVER_NODE {
        let mut admission = Admission::new(dedup_epoch);
        let mut listening = true;
        while listening {
            let Ok(Some(frame)) = reader.read() else {
                return;
            };
            admission.unpack(frame, dedup_epoch, |env| {
                listening &= mailbox.send(Inbound::Peer(env)).is_ok();
            });
        }
        return;
    }
    if let Ok(writer) = writer {
        *driver.0.lock().expect("driver slot lock") = Some(FrameWriter::new(writer));
    }
    // Echo the driver's timestamp with our own flight clock — the same
    // clock stamping this process's flight events — so the driver can
    // estimate this process's clock offset from the round trip.
    driver.write(&Frame::HelloAck {
        node: me.0,
        echo_t: hello_t,
        t_us: flight.now_us(),
    });
    let _ = mailbox.send(Inbound::Driver(reader));
}

/// How long a read of the driver socket may keep a [`ServerInbox`] from
/// looking at its peer mailbox. Safe `std` cannot wait on a socket and a
/// channel at once, so while the driver is silent the inbox surfaces this
/// often; under load reads return with data and the timeout never fires.
/// The kernel counts socket timeouts in timer ticks and rounds up: at
/// HZ = 250 the read comes back after 4–8 ms, not 1.
const PEER_POLL: Duration = Duration::from_millis(1);

/// The driver connection as the replica thread holds it.
struct DriverConn {
    reader: FrameReader<Stream>,
    admission: Admission,
    /// The read timeout the socket carries now (`None`: as accepted,
    /// blocking), so it is set again only when it has to change.
    read_timeout: Option<Duration>,
}

/// The replica thread's inbox in a server process. Requests are read off
/// the driver's socket **by the calling thread** — frame decode, dedup
/// window and all — so a request costs no thread hand-off on its way in.
/// Peer connections (recovery traffic; cold, and several of them) keep a
/// pump thread each and share one mailbox, which the inbox looks at before
/// every socket read and whenever a read times out.
///
/// What a peer envelope waits, at most, before the replica sees it:
/// nothing while no driver is connected (the inbox then blocks on the
/// mailbox itself); one frame's worth of handling while driver traffic
/// flows; one read timeout (`PEER_POLL`: 1 ms asked for, up to two timer
/// ticks delivered) while the driver connection is silent — or the
/// caller's whole timeout after [`ServerInbox::expect_no_peers`].
///
/// A `Shutdown` frame raises the server's stop flag and ends the input:
/// every later call reports `Disconnected`. The driver connection ending
/// any other way (EOF, an I/O or framing error) leaves the inbox waiting
/// for the driver to redial. The newest driver connection always wins: a
/// redial replaces the reader, its dedup window, and whatever sat undecoded
/// in the old buffer — a lost frame, which retransmission absorbs.
pub struct ServerInbox {
    mailbox: Receiver<Inbound>,
    driver: Option<DriverConn>,
    /// Admitted envelopes nobody has taken yet: the rest of the frame read
    /// last, or peer envelopes.
    ready: VecDeque<Envelope>,
    poll_peers: bool,
    shut: bool,
    stop: Arc<AtomicBool>,
    dedup_epoch: Arc<AtomicU64>,
}

impl ServerInbox {
    /// Declares that no peer will send: servers exchange recovery traffic
    /// only, so a run whose servers never recover (stable storage) has
    /// none. The inbox then blocks on the driver socket for the caller's
    /// whole timeout — no wake-ups while idle — and a peer envelope that
    /// arrives all the same waits out that timeout at most.
    pub fn expect_no_peers(&mut self) {
        self.poll_peers = false;
    }

    fn take(&mut self, inbound: Inbound) {
        match inbound {
            Inbound::Peer(env) => self.ready.push_back(env),
            Inbound::Driver(reader) => {
                self.driver = Some(DriverConn {
                    reader,
                    admission: Admission::new(&self.dedup_epoch),
                    read_timeout: None,
                });
            }
        }
    }

    /// One frame off the driver connection into `ready`. Blocks for at
    /// most the socket's read timeout, and not at all when the frame is
    /// already buffered.
    fn read_driver(&mut self) {
        let Some(conn) = self.driver.as_mut() else {
            return;
        };
        match conn.reader.read() {
            Ok(Some(Frame::Shutdown)) => {
                self.stop.store(true, Ordering::SeqCst);
                self.shut = true;
            }
            Ok(Some(frame)) => {
                let ready = &mut self.ready;
                conn.admission
                    .unpack(frame, &self.dedup_epoch, |env| ready.push_back(env));
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Ok(None) | Err(_) => self.driver = None,
        }
    }
}

impl Inbox for ServerInbox {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_recv() {
                Ok(env) => return Ok(env),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let Some(conn) = self.driver.as_mut() else {
                // No driver connection: its hand-over and the peers'
                // envelopes come through the one mailbox.
                let inbound = self.mailbox.recv_timeout(left)?;
                self.take(inbound);
                continue;
            };
            // The caller's timeout rather than what is left of it, so the
            // socket option changes only when the caller's timeout does.
            let slice = Some(if self.poll_peers {
                timeout.min(PEER_POLL)
            } else {
                timeout
            });
            if conn.read_timeout != slice {
                if conn.reader.get_ref().set_read_timeout(slice).is_err() {
                    // Unbounded reads would hang the replica on a silent
                    // driver; without the bound the connection is no use.
                    self.driver = None;
                    continue;
                }
                conn.read_timeout = slice;
            }
            self.read_driver();
        }
    }

    fn try_recv(&mut self) -> Result<Envelope, TryRecvError> {
        loop {
            if let Some(env) = self.ready.pop_front() {
                return Ok(env);
            }
            if self.shut {
                return Err(TryRecvError::Disconnected);
            }
            if let Ok(inbound) = self.mailbox.try_recv() {
                self.take(inbound);
                continue;
            }
            // Only a frame that is whole in the buffer: never a socket
            // read, so a drain pass ends when the wire runs dry.
            if !self.driver.as_ref().is_some_and(|c| c.reader.has_frame()) {
                return Err(TryRecvError::Empty);
            }
            self.read_driver();
        }
    }
}

impl NetServer {
    /// Binds the listener and returns the transport plus the replica
    /// thread's inbox. Accepting, handshakes and peer connections run on
    /// background threads from here on; the driver connection is read by
    /// whoever calls the inbox.
    ///
    /// # Errors
    ///
    /// Bind errors.
    pub fn bind(
        cfg: &NetServerCfg,
        flight: Arc<FlightRecorder>,
    ) -> io::Result<(Arc<NetServer>, ServerInbox)> {
        let listener = cfg.listen.listen()?;
        let (mailbox_tx, mailbox_rx) = mpsc::channel();
        let driver = Arc::new(DriverSlot(Mutex::new(None)));
        let stop = Arc::new(AtomicBool::new(false));
        let dedup_epoch = Arc::new(AtomicU64::new(0));
        let me = cfg.me;
        let acceptor = {
            let driver = Arc::clone(&driver);
            let flight = Arc::clone(&flight);
            let dedup_epoch = Arc::clone(&dedup_epoch);
            let stop = Arc::clone(&stop);
            let accept = move || loop {
                let Ok(stream) = listener.accept() else {
                    return;
                };
                // A stopped server takes no connection; the one that got
                // `accept` to return may be `close`'s own.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let mailbox = mailbox_tx.clone();
                let driver = Arc::clone(&driver);
                let flight = Arc::clone(&flight);
                let dedup_epoch = Arc::clone(&dedup_epoch);
                let conn = move || handshake(me, &flight, stream, &mailbox, &driver, &dedup_epoch);
                // A connection that gets no thread is a lost frame's worth
                // of trouble for its dialer, not for this server.
                let _ = std::thread::Builder::new()
                    .name("net-conn".into())
                    .spawn(conn);
            };
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(accept)?
        };
        let peers = ConnectionPool::new(
            cfg.peers.clone(),
            // Peer hellos carry no clock sample — only the driver estimates
            // offsets, from its own `Hello`/`HelloAck` round trips.
            move || Frame::Hello {
                node: me.0,
                t_us: 0,
            },
            // Peer connections are write-only from this side: replies to
            // our recovery queries arrive on the connection the peer dials
            // back (its own pool), so the read half idles until EOF.
            |_, _| {},
        );
        let inbox = ServerInbox {
            mailbox: mailbox_rx,
            driver: None,
            ready: VecDeque::new(),
            poll_peers: true,
            shut: false,
            stop: Arc::clone(&stop),
            dedup_epoch: Arc::clone(&dedup_epoch),
        };
        let server = Arc::new(NetServer {
            me,
            servers: cfg.servers,
            listen: cfg.listen.clone(),
            acceptor: Mutex::new(Some(acceptor)),
            peers,
            tags: TagGen::new(),
            driver,
            stop,
            flight,
            dedup_epoch,
        });
        Ok((server, inbox))
    }

    /// The stop flag, raised when the inbox reads the driver's `Shutdown`
    /// frame. (The inbox ends its input at the same frame, which is what
    /// stops a serve loop at once rather than at its next idle poll.)
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Ships a cumulative telemetry snapshot to the driver. Best-effort:
    /// if the driver connection is down the snapshot is lost and the next
    /// periodic tick resends fresher numbers.
    pub fn telemetry(&self, report: ServerTelemetry) {
        self.driver.write(&Frame::Telemetry {
            node: self.me.0,
            report,
        });
    }

    /// Says goodbye to the driver with a bounded flight dump (JSONL; empty
    /// string = no dump). The counters went ahead in the last
    /// [`NetServer::telemetry`].
    pub fn goodbye(&self, dump: String) {
        self.driver.write(&Frame::Goodbye {
            node: self.me.0,
            dump,
        });
    }

    /// Takes the server off the network, for good: raises the stop flag,
    /// shuts the driver connection down (everything written before —
    /// the `Goodbye` — is still delivered; the driver's reader then sees
    /// the end of the stream) and ends the acceptor, which drops the
    /// listener. The acceptor is blocked in `accept` and safe `std` cannot
    /// interrupt that, so one throw-away dial of the server's own address
    /// returns it to the flag. Peer connections end with their dialers.
    pub fn close(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(w) = self.driver.0.lock().expect("driver slot lock").take() {
            let _ = w.get_ref().shutdown();
        }
        let Some(acceptor) = self.acceptor.lock().expect("acceptor lock").take() else {
            return;
        };
        // If the dial fails the listener is either gone already (joined
        // at once) or out of reach, and waiting for it would hang.
        if self.listen.connect().is_ok() || acceptor.is_finished() {
            let _ = acceptor.join();
        }
    }
}

impl Transport for NetServer {
    fn send(&self, env: Envelope) {
        self.send_batch(vec![env]);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        let ring = self.flight.thread_ring();
        let mut out = Vec::with_capacity(envs.len());
        for env in envs {
            let (src, dst, label) = (env.src, env.dst, env.msg.flight_label());
            let span = env.span.flight_word();
            ring.record_span(FlightKind::BusSend, src.0, u64::from(dst.0), label, span);
            let entry = TaggedEnv {
                tag: self.tags.next(),
                re: env.reply_to,
                env: Envelope { reply_to: 0, ..env },
            };
            if dst.0 < self.servers {
                // Peer traffic is recovery (always exempt): straight to the
                // peer's listener, no fault schedule.
                let _ = self.peers.send(dst.index(), &Frame::from(entry));
            } else {
                // The driver draws the reply's fate as it reads it.
                out.push(entry);
            }
        }
        if !out.is_empty() {
            self.driver.write(&Frame::batch(out));
        }
    }

    fn on_crash(&self) {
        // Volatile transport state dies with the server: every
        // connection's reader observes the bumped epoch and resets its
        // dedup window before admitting its next frame.
        self.dedup_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Nothing to release: a serve process holds and delays nothing.
    fn flush(&self) {}

    /// Empty: the driver counts every fate of the run.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Empty: the driver keeps every link's coverage.
    fn coverage(&self) -> Coverage {
        Coverage::default()
    }
}
