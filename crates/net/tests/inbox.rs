//! The replica thread reads its own driver socket: hand-over, redial, the
//! refusal of any other dialer, the non-blocking half of [`ServerInbox`],
//! and the admission of every entry (a request `Duplicate` is the same
//! tagged entry twice, and the replica receives both), against a real
//! `NetServer` on a loopback Unix socket.

use std::io::{ErrorKind, Read as _, Write as _};
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
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

/// A bound one-server `NetServer`; `tag` keeps the tests' sockets apart.
fn bind(tag: &str) -> (Arc<NetServer>, ServerInbox, Addr) {
    let dir = std::env::temp_dir().join(format!("blunt-inbox-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let listen = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let cfg = NetServerCfg {
        listen: listen.clone(),
        me: Pid(0),
        servers: 1,
    };
    let (server, inbox) =
        NetServer::bind(&cfg, Arc::new(FlightRecorder::new(256))).expect("bind UDS listener");
    (server, inbox, listen)
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
    let (_server, mut inbox, addr) = bind("handover");
    // One write: the handshake thread's first `read` takes the `Hello` and
    // every frame behind it into the buffer it then hands over.
    let burst = [hello(), query(1), query(2), query(3)].concat();
    let _conn = dial(&addr, &burst);
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
    let (_server, mut inbox, addr) = bind("duplicate");
    let twice = Frame::EnvBatch {
        entries: vec![entry(7), entry(7), entry(8)],
    };
    let mut conn = dial(&addr, &[hello(), twice.encode().expect("encodes")].concat());
    for want in [7, 7, 8] {
        let env = inbox.recv_timeout(LONG).expect("admitted");
        assert_eq!((sn_of(&env), env.reply_to), (want, u64::from(want)));
    }
    // And a lone `Env` repeating a tag already seen.
    conn.write_all(&query(7)).expect("resend");
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("admitted")), 7);
    assert_eq!(inbox.recv_timeout(SHORT), Err(RecvTimeoutError::Timeout));
}

#[test]
fn the_newest_driver_connection_wins() {
    let (_server, mut inbox, addr) = bind("redial");
    let mut first = dial(&addr, &[hello(), query(42)].concat());
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("admitted")), 42);

    // A redial while the old connection is still open and silent: the
    // inbox finds the hand-over when its read of the old socket times out,
    // after the caller's timeout, as a serve loop's idle poll does.
    let second = dial(&addr, &[hello(), query(42), query(43)].concat());
    let deadline = Instant::now() + LONG;
    let fresh = loop {
        match inbox.recv_timeout(SHORT) {
            Ok(env) => break env,
            Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
            Err(e) => panic!("no hand-over: {e:?}"),
        }
    };
    assert_eq!(sn_of(&fresh), 42, "the new connection's first frame");
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("delivered")), 43);
    // The old connection lost: what it sends now goes nowhere.
    let _ = first.write_all(&query(44));
    assert_eq!(inbox.recv_timeout(SHORT), Err(RecvTimeoutError::Timeout));

    // And a redial after the connection died (EOF), which leaves the
    // inbox waiting on its mailbox alone.
    drop(second);
    drop(first);
    assert_eq!(inbox.recv_timeout(SHORT), Err(RecvTimeoutError::Timeout));
    let _third = dial(&addr, &[hello(), query(42)].concat());
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("after EOF")), 42);
}

#[test]
fn try_recv_never_reads_the_socket() {
    let (_server, mut inbox, addr) = bind("try-recv");
    // The socket's read timeout is the caller's: a `try_recv` that read
    // the socket would sit out the 5 s below.
    assert_eq!(inbox.try_recv(), Err(TryRecvError::Empty), "no driver yet");

    let second = query(2);
    let (head, tail) = second.split_at(second.len() / 2);
    let mut conn = dial(&addr, &[hello(), query(1), head.to_vec()].concat());
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
    let (server, mut inbox, addr) = bind("shutdown");
    let stop = server.stop_flag();
    let shutdown = Frame::Shutdown.encode().expect("encodes");
    let _conn = dial(&addr, &[hello(), query(1), shutdown, query(2)].concat());
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
/// other node is closed, and the frames behind it reach no one.
#[test]
fn a_hello_from_another_node_is_refused() {
    let (_server, mut inbox, addr) = bind("refused");
    let mut peer = dial(&addr, &[hello_from(1), query(1)].concat());
    peer.set_read_timeout(Some(LONG)).expect("read timeout");
    let mut rest = Vec::new();
    match peer.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "no `HelloAck`, nothing at all"),
        // Closed with our bytes unread.
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "not closed: {e}"),
    }
    assert_eq!(inbox.recv_timeout(SHORT), Err(RecvTimeoutError::Timeout));

    // The driver is still welcome.
    let _driver = dial(&addr, &[hello(), query(2)].concat());
    assert_eq!(sn_of(&inbox.recv_timeout(LONG).expect("delivered")), 2);
}
