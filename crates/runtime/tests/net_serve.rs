//! What a serve process owes its driver, its one connection: `Shutdown`
//! ends the serve loop at once (not at the next idle poll) — a latency, so
//! it is measured several times and the median is held to the bound: one
//! descheduled run on a busy box is not a regression, a 20 ms idle poll on
//! the path is — and so does the connection ending, after which the
//! process still writes its flight dump; and a peer's recovery query,
//! relayed by the driver, is answered back to the driver for the peer.

use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_net::frame::{Frame, FrameReader, FrameWriter, DRIVER_NODE};
use blunt_net::{Addr, Envelope, FaultConfig, Payload, SpanCtx, Stream};
use blunt_obs::flight::FlightDump;
use blunt_runtime::{run_net_server, NetServeConfig, NetServeReport, RecoveryMode};

const SHUTDOWN_BOUND: Duration = Duration::from_millis(5);
const ROUNDS: usize = 7;

fn sock_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("blunt-net-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    dir
}

fn addr(dir: &std::path::Path, name: &str) -> Addr {
    Addr::parse(dir.join(name).to_str().expect("utf-8 path"))
}

/// Server 0 of `servers`, listening on `listen`, on its own thread; the
/// join handle yields its report and the instant `run_net_server` returned.
fn serve(
    listen: &Addr,
    servers: u32,
    recovery: RecoveryMode,
) -> thread::JoinHandle<(NetServeReport, Instant)> {
    serve_dumping(listen, servers, recovery, None)
}

/// [`serve`], writing the process's flight dump into `dump_dir`.
fn serve_dumping(
    listen: &Addr,
    servers: u32,
    recovery: RecoveryMode,
    dump_dir: Option<PathBuf>,
) -> thread::JoinHandle<(NetServeReport, Instant)> {
    let cfg = NetServeConfig {
        listen: listen.clone(),
        server_id: 0,
        servers,
        clients: 1,
        peers: Vec::new(),
        seed: 7,
        faults: FaultConfig::none(),
        recovery,
        shard_size: None,
        dump_dir,
    };
    thread::spawn(move || {
        let report = run_net_server(&cfg).expect("serve");
        (report, Instant::now())
    })
}

/// Dials `to` as the driver and waits out the handshake.
fn dial(to: &Addr) -> (FrameWriter<Stream>, FrameReader<Stream>) {
    let stream = to.connect_retry(Duration::from_secs(5)).expect("dial");
    let mut writer = FrameWriter::new(stream.try_clone().expect("clone"));
    let mut reader = FrameReader::new(stream);
    writer
        .write(&Frame::Hello {
            node: DRIVER_NODE,
            t_us: 0,
        })
        .expect("hello");
    assert!(matches!(
        reader.read().expect("hello ack"),
        Some(Frame::HelloAck { .. })
    ));
    (writer, reader)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn shutdown_ends_the_serve_loop_at_once() {
    for (tag, recovery) in [
        ("stop-stable", RecoveryMode::Stable),
        ("stop-amnesia", RecoveryMode::amnesia()),
    ] {
        let dir = sock_dir(tag);
        // One path for every round: a server drops its listener once its
        // driver is in, and the next round's server binds the path afresh.
        let listen = addr(&dir, "s0.sock");
        let took: Vec<Duration> = (0..ROUNDS)
            .map(|_| {
                let server = serve(&listen, 1, recovery);
                let (mut driver, _replies) = dial(&listen);
                // Idle long enough for the replica to be parked in a read
                // of this connection.
                thread::sleep(Duration::from_millis(30));
                let sent = Instant::now();
                driver.write(&Frame::Shutdown).expect("shutdown");
                let (_, returned) = server.join().expect("server thread");
                returned.duration_since(sent)
            })
            .collect();
        assert!(
            median(took.clone()) < SHUTDOWN_BOUND,
            "{tag}: run_net_server returned {took:?} after Shutdown"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The driver's connection is a serve process's input: when it ends
/// without a `Shutdown` — the driver died — the serve loop returns, and
/// the process writes its flight dump, as it does after a `Shutdown`.
#[test]
fn the_driver_connection_ending_ends_the_serve_loop_and_writes_the_dump() {
    let dir = sock_dir("driver-gone");
    let listen = addr(&dir, "s0.sock");
    let dumps = dir.join("dumps");
    let server = serve_dumping(&listen, 1, RecoveryMode::amnesia(), Some(dumps.clone()));
    let (driver, replies) = dial(&listen);
    let (done_tx, done) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let _ = done_tx.send(server.join());
    });
    // Idle long enough for the replica to be parked in a read of this
    // connection.
    thread::sleep(Duration::from_millis(30));
    let closed = Instant::now();
    drop((driver, replies));
    let (report, returned) = done
        .recv_timeout(Duration::from_secs(1))
        .expect("run_net_server still running 1 s after its driver went away")
        .expect("server thread");
    waiter.join().expect("waiter thread");
    assert!(returned.duration_since(closed) < Duration::from_secs(1));
    assert_eq!(report.recovery.crashes, 0);
    let dump = std::fs::read_to_string(dumps.join("serve-0.flight.jsonl")).expect("the dump");
    FlightDump::parse(&dump).expect("a flight dump");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer's catch-up query reaches a server the way everything does: on
/// the driver connection, relayed by the driver. The answer goes back the
/// same way, on its own `Env` frame (a snapshot can approach the frame
/// cap), addressed to the peer for the driver to relay.
#[test]
fn a_peers_state_query_is_answered_on_the_driver_connection() {
    let dir = sock_dir("peer-query");
    let listen = addr(&dir, "s0.sock");
    let server = serve(&listen, 2, RecoveryMode::amnesia());
    let (mut driver, mut replies) = dial(&listen);
    for sn in 1..=3 {
        driver
            .write(&Frame::Env {
                tag: sn,
                re: 0,
                env: Envelope {
                    src: Pid(1),
                    dst: Pid(0),
                    msg: Payload::StateQuery { sn },
                    exempt: true,
                    reply_to: 0,
                    span: SpanCtx::NONE,
                },
            })
            .expect("state query");
        let answer = loop {
            match replies.read().expect("read") {
                Some(Frame::Telemetry { .. }) => {}
                other => break other,
            }
        };
        match answer {
            Some(Frame::Env { re, env, .. }) => {
                assert_eq!((env.src, env.dst), (Pid(0), Pid(1)), "to the peer");
                assert_eq!(re, sn, "answers the relayed query's tag");
                assert!(env.exempt);
                assert!(matches!(env.msg, Payload::StateReply { sn: got, .. } if got == sn));
            }
            other => panic!("expected a lone state reply, got {other:?}"),
        }
    }
    driver.write(&Frame::Shutdown).expect("shutdown");
    let (report, _) = server.join().expect("server thread");
    assert_eq!(report.recovery.crashes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
