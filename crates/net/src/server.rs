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
//! [`NetServer::bind`] binds, accepts on the calling thread until a
//! connection's `Hello` is the driver's, answers it with a `HelloAck`, and
//! drops the listener: a run's one connection is a fixed fact of the run,
//! and no thread waits in `accept` for a later dial. A connection whose
//! `Hello` is not the driver's, or that says nothing for 2 s, is closed
//! and the next one taken. Inbound, the replica thread reads the driver
//! socket itself through the [`ServerInbox`] `bind` returns: no thread
//! stands between a request on the wire and the ABD step that answers it.
//!
//! The input ends when the inbox reads the driver's `Shutdown`, which also
//! raises the stop flag, or when the driver connection ends any other way
//! (EOF, an I/O or framing error): a driver that is gone is not coming
//! back. The runtime then sends the server's final counters with
//! [`NetServer::telemetry`], its flight-dump tail with
//! [`NetServer::goodbye`] (lost, if the driver is gone), and shuts the
//! connection down with [`NetServer::close`].

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::{FlightKind, FlightRecorder};

use crate::client::{down, ServerTelemetry};
use crate::conn::{Addr, Stream};
use crate::frame::{Frame, FrameReader, FrameWriter, TaggedEnv, DRIVER_NODE};
use crate::injector::TransportStats;
use crate::rpc::TagGen;
use crate::wire::Envelope;
use crate::{Coverage, Inbox, Transport};

/// How long an accepted connection has to say `Hello` before it is closed
/// and the next one taken: a dialer that says nothing cannot hold a
/// server's accept forever.
const HELLO_WAIT: Duration = Duration::from_secs(2);

/// How one server process joins a chaos run.
pub struct NetServerCfg {
    /// Where this server listens.
    pub listen: Addr,
    /// This server's pid (`0..servers`).
    pub me: Pid,
    /// Total number of servers in the run.
    pub servers: u32,
}

/// The writer back to the driver: down for the rest of the run from its
/// first failed write on, as a crashed link is.
struct DriverSlot(Mutex<Option<FrameWriter<Stream>>>);

impl DriverSlot {
    /// Writes `frame`; a failed write loses it and shuts the connection
    /// down, which ends the inbox's input too.
    fn write(&self, frame: &Frame) {
        let mut slot = self.0.lock().expect("driver slot lock");
        if slot.as_mut().is_some_and(|w| w.write(frame).is_err()) {
            down(&mut slot);
        }
    }
}

/// The server-process transport: the writer back to the driver.
pub struct NetServer {
    me: Pid,
    servers: u32,
    tags: TagGen,
    driver: DriverSlot,
    stop: Arc<AtomicBool>,
    flight: Arc<FlightRecorder>,
}

/// The driver's connection, if `stream` is it: its `Hello` read within
/// [`HELLO_WAIT`], and the reader that read it (frames behind the `Hello`
/// stay in its buffer), a writer on the same connection, and the driver's
/// `Hello` timestamp.
fn handshake(stream: Stream) -> Option<(FrameReader<Stream>, FrameWriter<Stream>, u64)> {
    stream.set_read_timeout(Some(HELLO_WAIT)).ok()?;
    let writer = FrameWriter::new(stream.try_clone().ok()?);
    let mut reader = FrameReader::new(stream);
    match reader.read() {
        Ok(Some(Frame::Hello {
            node: DRIVER_NODE,
            t_us,
        })) => Some((reader, writer, t_us)),
        _ => None,
    }
}

/// The replica thread's inbox in a server process. Requests are read off
/// the driver's socket **by the calling thread**, so a request costs no
/// thread hand-off on its way in. Every entry is admitted: a request the
/// driver wrote twice (a `Duplicate` fate) reaches the replica twice, as
/// on the bus. A read blocks for at most the caller's timeout.
///
/// The input ends at a `Shutdown` frame, which also raises the server's
/// stop flag, or when the driver connection ends any other way (EOF, an
/// I/O or framing error): every later call reports `Disconnected`.
pub struct ServerInbox {
    reader: FrameReader<Stream>,
    /// The read timeout the socket carries now, so it is set again only
    /// when it has to change.
    read_timeout: Duration,
    /// Admitted envelopes nobody has taken yet: the rest of the frame read
    /// last.
    ready: VecDeque<Envelope>,
    ended: bool,
    stop: Arc<AtomicBool>,
}

impl ServerInbox {
    /// One frame off the driver connection into `ready`, its envelopes in
    /// wire order, each handled exactly as if it had arrived as its own
    /// `Env` frame. Blocks for at most the socket's read timeout, and not
    /// at all when the frame is already buffered.
    fn read_driver(&mut self) {
        match self.reader.read() {
            Ok(Some(Frame::Env { tag, env, .. })) => self.ready.push_back(env.in_reply_to(tag)),
            Ok(Some(Frame::EnvBatch { entries })) => {
                let admitted = entries.into_iter().map(|e| e.env.in_reply_to(e.tag));
                self.ready.extend(admitted);
            }
            Ok(Some(Frame::Shutdown)) => {
                self.stop.store(true, Ordering::SeqCst);
                self.ended = true;
            }
            Ok(Some(
                Frame::Hello { .. }
                | Frame::HelloAck { .. }
                | Frame::Telemetry { .. }
                | Frame::Goodbye { .. },
            )) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Ok(None) | Err(_) => self.ended = true,
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
            if Instant::now() >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            // The caller's timeout rather than what is left of it, so the
            // socket option changes only when the caller's timeout does.
            if self.read_timeout != timeout {
                if self
                    .reader
                    .get_ref()
                    .set_read_timeout(Some(timeout))
                    .is_err()
                {
                    // Unbounded reads would hang the replica on a silent
                    // driver; without the bound the connection is no use.
                    self.ended = true;
                    continue;
                }
                self.read_timeout = timeout;
            }
            self.read_driver();
        }
    }

    fn try_recv(&mut self) -> Result<Envelope, TryRecvError> {
        loop {
            if let Some(env) = self.ready.pop_front() {
                return Ok(env);
            }
            if self.ended {
                return Err(TryRecvError::Disconnected);
            }
            // Only a frame that is whole in the buffer: never a socket
            // read, so a drain pass ends when the wire runs dry.
            if !self.reader.has_frame() {
                return Err(TryRecvError::Empty);
            }
            self.read_driver();
        }
    }
}

impl NetServer {
    /// Binds the listener, waits on the calling thread for the driver's
    /// connection and answers its `Hello`, then drops the listener: a later
    /// dial finds nobody. Returns the transport plus the replica thread's
    /// inbox, which reads the driver connection on whoever calls it.
    ///
    /// # Errors
    ///
    /// Bind and accept errors.
    pub fn bind(
        cfg: &NetServerCfg,
        flight: Arc<FlightRecorder>,
    ) -> io::Result<(Arc<NetServer>, ServerInbox)> {
        let listener = cfg.listen.listen()?;
        let (reader, writer, hello_t) = loop {
            if let Some(driver) = handshake(listener.accept()?) {
                break driver;
            }
        };
        drop(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let server = Arc::new(NetServer {
            me: cfg.me,
            servers: cfg.servers,
            tags: TagGen::new(),
            driver: DriverSlot(Mutex::new(Some(writer))),
            stop: Arc::clone(&stop),
            flight,
        });
        // Echo the driver's timestamp with our own flight clock — the same
        // clock stamping this process's flight events — so the driver can
        // estimate this process's clock offset from the round trip.
        server.driver.write(&Frame::HelloAck {
            node: cfg.me.0,
            echo_t: hello_t,
            t_us: server.flight.now_us(),
        });
        let inbox = ServerInbox {
            reader,
            read_timeout: HELLO_WAIT,
            ready: VecDeque::new(),
            ended: false,
            stop,
        };
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
    /// if the driver connection is down the snapshot is lost.
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

    /// Shuts the driver connection down, for every handle of it: what was
    /// written before — the `Goodbye` — is still delivered, and the
    /// driver's reader then sees the end of the stream.
    pub fn close(&self) {
        down(&mut self.driver.0.lock().expect("driver slot lock"));
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
