//! The replica thread reads its own driver socket: the frames behind the
//! `Hello`, the refusal of any other dialer, the end of the input with the
//! driver connection, the non-blocking half of [`ServerInbox`], and the
//! admission of every entry (a request `Duplicate` is the same tagged entry
//! twice, and the replica receives both), against a real `NetServer` on a
//! loopback Unix socket.

use std::io::{ErrorKind, Read as _, Write as _};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::{ObjId, Pid};
use blunt_net::frame::{Frame, DRIVER_NODE};
use blunt_net::{
    Addr, Envelope, Inbox, NetServer, NetServerCfg, Payload, ServerInbox, Stream, TaggedEnv,
};
use blunt_obs::FlightRecorder;

const LONG: Duration = Duration::from_secs(5);
const SHORT: Duration = Duration::from_millis(200);

type Bound = (Arc<NetServer>, ServerInbox);

/// The socket a test's server listens on; `tag` keeps the tests apart.
fn sock(tag: &str) -> Addr {
    let dir = std::env::temp_dir().join(format!("blunt-inbox-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"))
}

/// A one-server `NetServer` binding on its own thread, which returns once
/// its driver is in.
fn serve(tag: &str) -> (JoinHandle<Bound>, Addr) {
    let listen = sock(tag);
    let cfg = NetServerCfg {
        listen: listen.clone(),
        me: Pid(0),
        servers: 1,
    };
    let bind = move || NetServer::bind(&cfg, Arc::new(FlightRecorder::new(256))).expect("bind");
    (thread::spawn(bind), listen)
}

/// A `NetServer` whose driver opened its connection with `bytes` (its
/// `Hello` first); the driver's end of that connection.
fn bind(tag: &str, bytes: &[u8]) -> (Arc<NetServer>, ServerInbox, Stream) {
    let (server, addr) = serve(tag);
    let conn = dial(&addr, bytes);
    let (server, inbox) = server.join().expect("bind thread");
    (server, inbox, conn)
}

fn hello() -> Vec<u8> {
    hello_from(DRIVER_NODE)
}

fn hello_from(node: u32) -> Vec<u8> {
    Frame::Hello { node, t_us: 0 }.encode().expect("encodes")
}

/// A query entry carrying `tag`, its `sn` set to the tag.
fn entry(tag: u64) -> TaggedEnv {
    let sn = u32::try_from(tag).expect("small tag");
    let msg = AbdMsg::Query { obj: ObjId(0), sn };
    TaggedEnv {
        tag,
        re: 0,
        env: Envelope::abd(Pid(1), Pid(0), msg, false),
    }
}

/// The bytes of a lone query frame carrying `tag`.
fn query(tag: u64) -> Vec<u8> {
    Frame::from(entry(tag)).encode().expect("encodes")
}

fn sn_of(env: &Envelope) -> u32 {
    match &env.msg {
        Payload::Abd(m) => m.sn(),
        other => panic!("not a protocol message: {other:?}"),
    }
}

/// Dials `addr` and sends `bytes` in one write.
fn dial(addr: &Addr, bytes: &[u8]) -> Stream {
    let mut s = addr.connect_retry(LONG).expect("dial");
    s.write_all(bytes).expect("write");
    s
}

#[test]
fn frames_behind_the_hello_travel_with_the_reader() {
    // One write: the handshake's first `read` takes the `Hello` and every
    // frame behind it into the buffer the inbox then reads from.
    let burst = [hello(), query(1), query(2), query(3)].concat();
    let (_server, mut inbox, _conn) = bind("handover", &burst);
    for want in 1..=3 {
        let env = inbox.recv_timeout(LONG).expect("delivered");
        assert_eq!(sn_of(&env), want);
        assert_eq!(env.reply_to, u64::from(want), "stamped with its tag");
    }
    assert_eq!(inbox.recv_timeout(SHORT), Err(RecvTimeoutError::Timeout));
}

/// A request `Duplicate` is the same tagged entry written twice, on one
/// frame when the driver batches: the replica receives both copies, as a
/// bus mailbox does, each stamped with the tag.
#[test]
fn a_tag_written_twice_reaches_the_replica_twice() {
    let twice = Frame::EnvBatch {
        entries: vec![entry(7), entry(7), entry(8)],
    };
    let opening = [hello(), twice.encode().expect("encodes")].concat();
    let (_server, mut inbox, mut conn) = bind("duplicate", &opening);
    for want in [7, 7, 8] {
        let env = inbox.recv_timeout(LONG).expect("admitted");
        assert_eq!((sn_of(&env), env.reply_to), (want, u64::from(want)));
    }
    // And a lone `Env` repeating a tag already seen.
    conn.write_all(&query(7)).expect("resend");
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("admitted")), 7);
    assert_eq!(inbox.recv_timeout(SHORT), Err(RecvTimeoutError::Timeout));
}

/// The driver connection is the run's one connection: when it ends, the
/// input ends, for good, and no later dial reaches the server.
#[test]
fn the_driver_connection_ending_ends_the_input() {
    let (server, mut inbox, conn) = bind("conn-ends", &[hello(), query(42)].concat());
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("admitted")), 42);
    assert!(
        sock("conn-ends").connect().is_err(),
        "the listener outlived the accept"
    );

    drop(conn);
    let t0 = Instant::now();
    assert_eq!(
        inbox.recv_timeout(LONG),
        Err(RecvTimeoutError::Disconnected),
        "at the end of the stream, not after a timeout"
    );
    assert!(t0.elapsed() < SHORT, "took {:?}", t0.elapsed());
    assert_eq!(inbox.try_recv(), Err(TryRecvError::Disconnected));
    assert!(
        !server.stop_flag().load(Ordering::SeqCst),
        "only a `Shutdown` raises the stop flag"
    );
}

#[test]
fn try_recv_never_reads_the_socket() {
    // The socket's read timeout is the caller's: a `try_recv` that read
    // the socket would sit out the 5 s below.
    let second = query(2);
    let (head, tail) = second.split_at(second.len() / 2);
    let opening = [hello(), query(1), head.to_vec()].concat();
    let (_server, mut inbox, mut conn) = bind("try-recv", &opening);
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("whole frame")), 1);
    let t0 = Instant::now();
    assert_eq!(
        inbox.try_recv(),
        Err(TryRecvError::Empty),
        "half a frame buffered is nothing to take"
    );
    assert!(t0.elapsed() < Duration::from_secs(1), "try_recv blocked");

    // The other half arrives: still nothing without a read, then whole.
    conn.write_all(tail).expect("second half");
    conn.write_all(&query(3)).expect("third frame");
    assert_eq!(inbox.try_recv(), Err(TryRecvError::Empty));
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("completed")), 2);
    // Frame 3 came in with the same read: whole in the buffer, so a drain
    // pass takes it without blocking.
    assert_eq!(sn_of(&inbox.try_recv().expect("buffered whole")), 3);
    assert_eq!(inbox.try_recv(), Err(TryRecvError::Empty));
}

#[test]
fn shutdown_raises_the_flag_and_ends_the_input_after_what_preceded_it() {
    let shutdown = Frame::Shutdown.encode().expect("encodes");
    let opening = [hello(), query(1), shutdown, query(2)].concat();
    let (server, mut inbox, _conn) = bind("shutdown", &opening);
    let stop = server.stop_flag();
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("ahead of it")), 1);
    assert_eq!(inbox.try_recv(), Err(TryRecvError::Disconnected));
    assert!(stop.load(std::sync::atomic::Ordering::SeqCst));
    assert_eq!(
        inbox.recv_timeout(LONG),
        Err(RecvTimeoutError::Disconnected),
        "at once, and for good"
    );
}

/// Only the driver talks to a server: a connection whose `Hello` names any
/// other node is closed, and the frames behind it reach no one, and so is
/// one that says nothing; the server takes the next.
#[test]
fn a_hello_from_another_node_is_refused() {
    let (server, addr) = serve("refused");
    let mut peer = dial(&addr, &[hello_from(1), query(1)].concat());
    peer.set_read_timeout(Some(LONG)).expect("read timeout");
    let mut rest = Vec::new();
    match peer.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "no `HelloAck`, nothing at all"),
        // Closed with our bytes unread.
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "not closed: {e}"),
    }
    // A dialer that never says `Hello` holds the accept only for a while.
    let _silent = dial(&addr, &[]);

    // The driver is still welcome.
    let _driver = dial(&addr, &[hello(), query(2)].concat());
    let (_server, mut inbox) = server.join().expect("bind thread");
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("delivered")), 2);
    assert_eq!(inbox.recv_timeout(SHORT), Err(RecvTimeoutError::Timeout));
}
