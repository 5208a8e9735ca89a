//! The driver is the hub of a socket run: a server's catch-up traffic for
//! another server crosses the driver's reader, which relays it and draws
//! nothing for it.
//!
//! The test plays both servers of a two-server chaos run against a real
//! `NetClient` under `FaultConfig::chaos()`. Server 0 writes a fixed reply
//! stream in `EnvBatch` chunks, once with an exempt `StateQuery` for
//! server 1 inside it and once without. Server 1 must receive the query as
//! a lone `Env` frame, no client may see it, and `stats()`, `coverage()`
//! and every client's replies must equal the run without it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::frame::{Frame, FrameReader, FrameWriter, DRIVER_NODE};
use blunt_net::{
    Addr, Envelope, FaultConfig, Listener, NetClient, NetClientCfg, Payload, SpanCtx, Stream,
    TaggedEnv, Transport, TransportStats,
};
use blunt_obs::FlightRecorder;

const SEED: u64 = 48_879;
const SERVERS: u32 = 2;
const CLIENTS: u32 = 4;
const REPLIES: u32 = 400;
/// Where in server 0's stream the query sits, and its tag there.
const QUERY_AT: usize = 201;
const QUERY_TAG: u64 = 9_999;
const LONG: Duration = Duration::from_secs(10);

/// Server 0's replies: the four clients answered in turn, every fifth an
/// exempt ack. `sn` numbers the entries; the tag is `sn + 1` and `re`
/// names a request.
fn replies() -> Vec<TaggedEnv> {
    (0..REPLIES)
        .map(|i| {
            let client = i % CLIENTS;
            let obj = ObjId(i % 5);
            let (msg, exempt) = if i % 5 == 4 {
                (AbdMsg::Ack { obj, sn: i }, true)
            } else {
                let val = Val::Int(i64::from(i));
                let ts = Ts {
                    t: i64::from(i),
                    pid: 0,
                };
                (
                    AbdMsg::Reply {
                        obj,
                        sn: i,
                        val,
                        ts,
                    },
                    false,
                )
            };
            TaggedEnv {
                tag: u64::from(i) + 1,
                re: u64::from(i) + 100,
                env: Envelope::abd(Pid(0), Pid(SERVERS + client), msg, exempt),
            }
        })
        .collect()
}

/// Server 0 catching up: its query to server 1, as `NetServer` frames it.
fn query() -> TaggedEnv {
    TaggedEnv {
        tag: QUERY_TAG,
        re: 0,
        env: Envelope {
            src: Pid(0),
            dst: Pid(1),
            msg: Payload::StateQuery { sn: 7 },
            exempt: true,
            reply_to: 0,
            span: SpanCtx::NONE,
        },
    }
}

struct Outcome {
    /// Per client, the `sn`s it received, sorted (delays make the arrival
    /// order timing).
    clients: Vec<Vec<u32>>,
    stats: TransportStats,
    coverage: String,
    /// Every frame server 1 read after the driver's `Hello`.
    at_server_1: Vec<Frame>,
}

/// One end of a driver connection: the writer back to the driver, and the
/// thread passing on every frame the driver sends after its `Hello`.
type Conn = (FrameWriter<Stream>, Receiver<Frame>, thread::JoinHandle<()>);

/// Accepts the driver's connection on `listener`.
fn accept(listener: &Listener) -> Conn {
    let stream = listener.accept().expect("the driver dials");
    let writer = FrameWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = FrameReader::new(stream);
    assert!(matches!(
        reader.read().expect("hello"),
        Some(Frame::Hello {
            node: DRIVER_NODE,
            ..
        })
    ));
    let (tx, rx) = mpsc::channel();
    let pass_on = thread::spawn(move || {
        while let Ok(Some(frame)) = reader.read() {
            let _ = tx.send(frame);
        }
    });
    (writer, rx, pass_on)
}

fn drive(with_query: bool) -> Outcome {
    static RUN: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "blunt-relay-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let addrs: Vec<Addr> = (0..SERVERS)
        .map(|i| Addr::parse(dir.join(format!("s{i}.sock")).to_str().expect("utf-8 path")))
        .collect();
    let listeners: Vec<_> = addrs
        .iter()
        .map(|a| a.listen().expect("bind UDS listener"))
        .collect();
    let (client, mailbox) = NetClient::connect(
        &NetClientCfg {
            seed: SEED,
            faults: FaultConfig::chaos(),
            servers: addrs,
            clients: CLIENTS,
            signal_crashes: false,
        },
        Arc::new(FlightRecorder::new(256)),
    )
    .expect("chaos is a valid fault config here");

    // The driver dials on its first send to a server; an exempt one draws
    // no fate.
    let mut conns = Vec::new();
    for (s, listener) in listeners.iter().enumerate() {
        let ack = AbdMsg::Ack {
            obj: ObjId(0),
            sn: 0,
        };
        client.send(Envelope::abd(Pid(SERVERS), Pid(s as u32), ack, true));
        conns.push(accept(listener));
    }
    let (mut to_driver_0, from_driver_0, pass_on_0) = conns.remove(0);
    let (mut to_driver_1, from_driver_1, pass_on_1) = conns.remove(0);
    let opened = from_driver_1.recv_timeout(LONG).expect("the opening ack");
    assert!(matches!(opened, Frame::EnvBatch { .. }));

    let mut stream = replies();
    if with_query {
        stream.insert(QUERY_AT, query());
    }
    for chunk in stream.chunks(16) {
        let frame = Frame::EnvBatch {
            entries: chunk.to_vec(),
        };
        to_driver_0.write(&frame).expect("batch frame");
    }
    let mut at_server_1 = Vec::new();
    if with_query {
        // The relay must be written before the driver's `Shutdown`, which
        // ends what a server reads.
        at_server_1.push(from_driver_1.recv_timeout(LONG).expect("the relay"));
    }
    for (s, to_driver) in [&mut to_driver_0, &mut to_driver_1].into_iter().enumerate() {
        let goodbye = Frame::Goodbye {
            node: s as u32,
            dump: String::new(),
        };
        to_driver.write(&goodbye).expect("goodbye");
    }
    let remote = client.shutdown(LONG);
    assert!(
        remote.iter().all(|r| r.dump.is_some()),
        "a goodbye is missing"
    );
    client.flush();
    drop((to_driver_0, to_driver_1));
    // The driver's `shutdown` ended both connections.
    pass_on_0.join().expect("server 0's reader");
    pass_on_1.join().expect("server 1's reader");
    at_server_1.extend(from_driver_1.try_iter());
    assert_eq!(from_driver_0.try_iter().last(), Some(Frame::Shutdown));
    let _ = std::fs::remove_dir_all(&dir);

    let mut clients = vec![Vec::new(); CLIENTS as usize];
    for env in mailbox.try_iter() {
        match env.msg {
            Payload::Abd(m) => clients[(env.dst.0 - SERVERS) as usize].push(m.sn()),
            other => panic!("a client got {other:?}"),
        }
    }
    clients.iter_mut().for_each(|sns| sns.sort_unstable());
    Outcome {
        clients,
        stats: client.stats(),
        coverage: client.coverage().to_json().to_string(),
        at_server_1,
    }
}

#[test]
fn a_servers_query_for_a_peer_is_relayed_and_draws_nothing() {
    let plain = drive(false);
    let relayed = drive(true);
    assert!(
        plain.stats.dropped > 0 && plain.stats.delayed > 0,
        "seed {SEED} faults these links: {:?}",
        plain.stats
    );
    assert_eq!(relayed.stats, plain.stats, "the relay drew no fate");
    assert_eq!(relayed.coverage, plain.coverage, "nor covered a link");
    assert_eq!(relayed.clients, plain.clients, "nor reached a client");

    assert_eq!(plain.at_server_1, vec![Frame::Shutdown]);
    let [relay, Frame::Shutdown] = relayed.at_server_1.as_slice() else {
        panic!("server 1 read {:?}", relayed.at_server_1);
    };
    let Frame::Env { tag, re, env } = relay else {
        panic!("the relay is not a lone `Env`: {relay:?}");
    };
    let want = query();
    assert_ne!(*tag, want.tag, "relayed under a driver tag");
    assert_eq!((*re, env), (want.re, &want.env));
}
