//! The server endpoint: one `chaos serve` process per server pid.
//!
//! [`NetServer`] is a plain replica host with one connection: the
//! driver's. It holds no fault schedule. The driver draws the fate of
//! every message of the run, replies included, on its worker, as its inbox
//! takes each frame read off this server's connection
//! ([`DriverInbox`](crate::DriverInbox)). So
//! every reply one [`Transport::send_batch`] call makes reaches the driver
//! in a single `EnvBatch` frame, in the caller's order, and a serve
//! process needs no seed or fault flags. Catch-up traffic for a peer
//! (`StateQuery`/`StateReply`) goes to the driver too, each on its own
//! `Env` frame, and the driver relays it: servers never dial each other.
//!
//! Inbound, the replica thread reads its own driver socket through the
//! [`ServerInbox`] that [`NetServer::bind`] returns: no thread stands
//! between a request on the wire and the ABD step that answers it. The
//! process's threads are the replica (whoever drives the inbox), the
//! acceptor, and one short-lived handshake thread per accepted connection
//! — none per driver connection. A connection whose `Hello` is not the
//! driver's is closed at once.
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
use std::sync::atomic::{AtomicBool, Ordering};
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
use crate::rpc::TagGen;
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

/// The server-process transport: the listener and the writer back to the
/// driver.
pub struct NetServer {
    me: Pid,
    servers: u32,
    /// Where the acceptor listens: [`NetServer::close`] dials it.
    listen: Addr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    tags: TagGen,
    driver: Arc<DriverSlot>,
    stop: Arc<AtomicBool>,
    flight: Arc<FlightRecorder>,
}

/// One accepted connection. The driver's gets its writer installed and its
/// `HelloAck`, then its read half goes to the replica thread and this
/// thread exits: the replica reads its own driver socket. Any other
/// connection is closed as this thread returns.
fn handshake(
    me: Pid,
    flight: &FlightRecorder,
    stream: Stream,
    mailbox: &Sender<FrameReader<Stream>>,
    driver: &DriverSlot,
) {
    let writer = stream.try_clone();
    let mut reader = FrameReader::new(stream);
    let Ok(Some(Frame::Hello {
        node: DRIVER_NODE,
        t_us: hello_t,
    })) = reader.read()
    else {
        return;
    };
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
    let _ = mailbox.send(reader);
}

/// The driver connection as the replica thread holds it.
struct DriverConn {
    reader: FrameReader<Stream>,
    /// The read timeout the socket carries now (`None`: as accepted,
    /// blocking), so it is set again only when it has to change.
    read_timeout: Option<Duration>,
}

/// The replica thread's inbox in a server process. Requests are read off
/// the driver's socket **by the calling thread**, so a request costs no
/// thread hand-off on its way in. Every entry is admitted: a request the
/// driver wrote twice (a `Duplicate` fate) reaches the replica twice, as
/// on the bus.
/// A read blocks for at most the caller's timeout; the mailbox beside the
/// socket carries only the hand-over of a fresh driver connection, and the
/// inbox looks at it before every read.
///
/// A `Shutdown` frame raises the server's stop flag and ends the input:
/// every later call reports `Disconnected`. The driver connection ending
/// any other way (EOF, an I/O or framing error) leaves the inbox waiting
/// for the driver to redial. The newest driver connection always wins: a
/// redial replaces the reader and whatever sat undecoded in the old
/// buffer — a lost frame, which retransmission absorbs.
pub struct ServerInbox {
    mailbox: Receiver<FrameReader<Stream>>,
    driver: Option<DriverConn>,
    /// Admitted envelopes nobody has taken yet: the rest of the frame read
    /// last.
    ready: VecDeque<Envelope>,
    shut: bool,
    stop: Arc<AtomicBool>,
}

impl ServerInbox {
    fn take(&mut self, reader: FrameReader<Stream>) {
        self.driver = Some(DriverConn {
            reader,
            read_timeout: None,
        });
    }

    /// One frame off the driver connection into `ready`, its envelopes in
    /// wire order, each handled exactly as if it had arrived as its own
    /// `Env` frame. Blocks for at most the socket's read timeout, and not
    /// at all when the frame is already buffered.
    fn read_driver(&mut self) {
        let Some(conn) = self.driver.as_mut() else {
            return;
        };
        let frame = match conn.reader.read() {
            Ok(Some(Frame::Shutdown)) => {
                self.stop.store(true, Ordering::SeqCst);
                self.shut = true;
                return;
            }
            Ok(Some(frame)) => frame,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => return,
            Ok(None) | Err(_) => {
                self.driver = None;
                return;
            }
        };
        match frame {
            Frame::Env { tag, env, .. } => self.ready.push_back(env.in_reply_to(tag)),
            Frame::EnvBatch { entries } => {
                let admitted = entries.into_iter().map(|e| e.env.in_reply_to(e.tag));
                self.ready.extend(admitted);
            }
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::Telemetry { .. }
            | Frame::Goodbye { .. }
            | Frame::Shutdown => {}
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
                // No driver connection: wait for its hand-over.
                let reader = self.mailbox.recv_timeout(left)?;
                self.take(reader);
                continue;
            };
            // The caller's timeout rather than what is left of it, so the
            // socket option changes only when the caller's timeout does.
            if conn.read_timeout != Some(timeout) {
                if conn
                    .reader
                    .get_ref()
                    .set_read_timeout(Some(timeout))
                    .is_err()
                {
                    // Unbounded reads would hang the replica on a silent
                    // driver; without the bound the connection is no use.
                    self.driver = None;
                    continue;
                }
                conn.read_timeout = Some(timeout);
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
            if let Ok(reader) = self.mailbox.try_recv() {
                self.take(reader);
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
    /// thread's inbox. Accepting and handshakes run on background threads
    /// from here on; the driver connection is read by whoever calls the
    /// inbox.
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
        let me = cfg.me;
        let acceptor = {
            let driver = Arc::clone(&driver);
            let flight = Arc::clone(&flight);
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
                let conn = move || handshake(me, &flight, stream, &mailbox, &driver);
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
        let inbox = ServerInbox {
            mailbox: mailbox_rx,
            driver: None,
            ready: VecDeque::new(),
            shut: false,
            stop: Arc::clone(&stop),
        };
        let server = Arc::new(NetServer {
            me,
            servers: cfg.servers,
            listen: cfg.listen.clone(),
            acceptor: Mutex::new(Some(acceptor)),
            tags: TagGen::new(),
            driver,
            stop,
            flight,
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
    /// returns it to the flag.
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
                // Catch-up traffic for a peer (always exempt): the driver
                // relays it. On its own frame, as a snapshot can approach
                // the frame cap.
                self.driver.write(&Frame::from(entry));
            } else {
                // The driver draws the reply's fate as its worker takes it.
                out.push(entry);
            }
        }
        if !out.is_empty() {
            self.driver.write(&Frame::batch(out));
        }
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
