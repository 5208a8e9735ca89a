//! The driver's inbox draws a reply's fate as it takes the reply's frame
//! from the reader, and how the server framed its replies does not matter.
//!
//! The test plays server 0 of a chaos run: it accepts a real `NetClient`'s
//! connection and writes one fixed reply sequence under
//! `FaultConfig::chaos()` to it four ways — as lone `Env` frames, and as
//! `EnvBatch` chunks of 1, 3 and 16 — while the test thread services the
//! driver's one inbox, as the driver's worker does. What each client
//! receives (picked out by `dst`), `stats()` and `coverage()` must agree
//! across the four, and with the fates an injector built like the
//! driver's schedules for the same sequence. `NetClient::shutdown` draws
//! the fates of every reply written before the server's goodbye, and none
//! after.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::frame::{Frame, FrameReader, FrameWriter, DRIVER_NODE};
use blunt_net::{
    Addr, DriverInbox, Envelope, Fate, FaultConfig, Inbox, Injector, NetClient, NetClientCfg,
    Payload, TaggedEnv, Transport, TransportStats,
};
use blunt_obs::FlightRecorder;

const SEED: u64 = 48_879;
const SERVERS: u32 = 1;
const CLIENTS: u32 = 4;
const ME: Pid = Pid(0);
const REPLIES: u32 = 1_600;
const LONG: Duration = Duration::from_secs(10);

/// The reply sequence as server 0 writes it: the four clients answered in
/// a fixed scramble, every fifth entry an exempt ack between faulted
/// replies. `sn` numbers the entries, so a decoded payload names its
/// position; the tag is `sn + 1` and `re` names a request.
fn replies() -> Vec<TaggedEnv> {
    (0..REPLIES)
        .map(|i| {
            let client = (i * 7 + i / 5) % CLIENTS;
            let (msg, exempt) = if i % 5 == 4 {
                (
                    AbdMsg::Ack {
                        obj: ObjId(i % 9),
                        sn: i,
                    },
                    true,
                )
            } else {
                (
                    AbdMsg::Reply {
                        obj: ObjId(i % 9),
                        sn: i,
                        val: Val::Int(i64::from(i)),
                        ts: Ts {
                            t: i64::from(i),
                            pid: 0,
                        },
                    },
                    false,
                )
            };
            TaggedEnv {
                tag: u64::from(i) + 1,
                re: u64::from(i) + 100,
                env: Envelope::abd(ME, Pid(SERVERS + client), msg, exempt),
            }
        })
        .collect()
}

fn sn_of(env: &Envelope) -> u32 {
    match &env.msg {
        Payload::Abd(m) => m.sn(),
        other => panic!("only ABD replies are sent here, got {other:?}"),
    }
}

/// `received` per client (index = pid − servers), in order.
fn per_client(received: Vec<Envelope>) -> Vec<Vec<Envelope>> {
    let mut clients = vec![Vec::new(); CLIENTS as usize];
    for env in received {
        clients[(env.dst.0 - SERVERS) as usize].push(env);
    }
    clients
}

/// Everything the inbox hands over without waiting.
fn drain(inbox: &mut DriverInbox) -> Vec<Envelope> {
    std::iter::from_fn(|| inbox.try_recv().ok()).collect()
}

struct Outcome {
    /// Per client, the envelopes it received, in order.
    clients: Vec<Vec<Envelope>>,
    stats: TransportStats,
    coverage: String,
}

/// A fresh `NetClient` connected to this test playing server 0.
struct Server {
    client: Arc<NetClient>,
    inbox: DriverInbox,
    writer: FrameWriter<blunt_net::Stream>,
    drain: thread::JoinHandle<()>,
    dir: std::path::PathBuf,
}

fn accept_driver() -> Server {
    static RUN: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "blunt-reply-batching-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let listen = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let listener = listen.listen().expect("bind UDS listener");
    let (client, inbox) = NetClient::connect(
        &NetClientCfg {
            seed: SEED,
            faults: FaultConfig::chaos(),
            servers: vec![listen],
            clients: CLIENTS,
            signal_crashes: false,
        },
        Arc::new(FlightRecorder::new(256)),
    )
    .expect("chaos is a valid fault config here");

    // `connect` dialed the server, its `Hello` first (checked below); an
    // opening exempt ack draws no fate.
    let hello_sent = Envelope::abd(
        Pid(SERVERS),
        ME,
        AbdMsg::Ack {
            obj: ObjId(0),
            sn: 0,
        },
        true,
    );
    client.send(hello_sent);
    let stream = listener.accept().expect("the driver dials");
    let mut writer = FrameWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = FrameReader::new(stream);
    assert!(matches!(
        reader.read().expect("hello"),
        Some(Frame::Hello {
            node: DRIVER_NODE,
            ..
        })
    ));
    // Keep the driver's writes drained, so its `Shutdown` never blocks.
    let drain = thread::spawn(move || while let Ok(Some(_)) = reader.read() {});
    writer
        .write(&Frame::HelloAck {
            node: ME.0,
            echo_t: 0,
            t_us: 0,
        })
        .expect("hello ack");
    Server {
        client,
        inbox,
        writer,
        drain,
        dir,
    }
}

/// Writes `entries` as server 0: `chunk = None` is one `Env` frame per
/// entry, `Some(n)` an `EnvBatch` per `n` entries.
fn write(server: &mut Server, entries: &[TaggedEnv], chunk: Option<usize>) {
    match chunk {
        None => entries.iter().for_each(|e| {
            let frame = Frame::from(e.clone());
            server.writer.write(&frame).expect("env frame");
        }),
        Some(n) => entries.chunks(n).for_each(|c| {
            let frame = Frame::EnvBatch {
                entries: c.to_vec(),
            };
            server.writer.write(&frame).expect("batch frame");
        }),
    }
}

/// Writes an exempt ack to client 0 (its own tag) and services the inbox
/// until it comes out: the reader hands a connection's frames over in
/// order, so every entry written before it has drawn its fate by then.
/// Returns what the inbox handed over, the ack left out.
fn sync(server: &mut Server) -> Vec<Envelope> {
    let mark_sn = 2 * REPLIES;
    let mark = TaggedEnv {
        tag: u64::from(mark_sn) + 1,
        re: 1,
        env: Envelope::abd(
            ME,
            Pid(SERVERS),
            AbdMsg::Ack {
                obj: ObjId(0),
                sn: mark_sn,
            },
            true,
        ),
    };
    server.writer.write(&Frame::from(mark)).expect("mark frame");
    let mut received = Vec::new();
    loop {
        let env = server.inbox.recv_timeout(LONG).expect("the mark arrives");
        if sn_of(&env) == mark_sn {
            return received;
        }
        received.push(env);
    }
}

/// Says goodbye as server 0, shuts the driver down and cleans up; every
/// server's remote state.
fn finish(server: Server) -> Vec<blunt_net::RemoteServer> {
    let Server {
        client,
        inbox,
        mut writer,
        drain,
        dir,
    } = server;
    writer
        .write(&Frame::Goodbye {
            node: ME.0,
            dump: String::new(),
        })
        .expect("goodbye");
    let remote = client.shutdown(inbox, LONG);
    drop(writer);
    drain.join().expect("drain thread");
    let _ = std::fs::remove_dir_all(&dir);
    remote
}

/// Writes the sequence to a fresh `NetClient` as server 0, framed as
/// `chunk` says.
fn drive(chunk: Option<usize>) -> Outcome {
    let mut server = accept_driver();
    write(&mut server, &replies(), chunk);
    // Every fate is drawn once the mark is in; the flush releases the
    // holds and the delays.
    let mut received = sync(&mut server);
    server.client.flush();
    received.extend(drain(&mut server.inbox));
    let outcome = Outcome {
        clients: per_client(received),
        stats: server.client.stats(),
        coverage: server.client.coverage().to_json().to_string(),
    };
    let remote = finish(server);
    assert!(remote[0].dump.is_some(), "the goodbye never arrived");
    outcome
}

/// The fate each faulted reply draws from an injector built like the
/// driver's reply links (index = the entry's `sn`), and that injector's
/// stats and coverage once it has drawn them all.
fn scheduled_fates() -> (Vec<Option<Fate>>, TransportStats, String) {
    let mut inj = Injector::new(
        SEED,
        FaultConfig::chaos(),
        SERVERS,
        SERVERS + CLIENTS,
        false,
    )
    .expect("chaos is a valid fault config here");
    let fates = replies()
        .iter()
        .map(|e| (!e.env.exempt).then(|| inj.decide(e.env.src, e.env.dst).0))
        .collect();
    (fates, inj.stats(), inj.coverage().to_json().to_string())
}

#[test]
fn lone_frames_and_batches_of_every_size_draw_the_same_fates() {
    let (fates, stats, coverage) = scheduled_fates();
    for want in ["duplicate", "reorder", "delay", "drop"] {
        assert!(
            fates.iter().flatten().any(|f| match f {
                Fate::Duplicate => want == "duplicate",
                Fate::Reorder => want == "reorder",
                Fate::Delay(_) => want == "delay",
                Fate::Drop | Fate::PartitionDrop { .. } => want == "drop",
                _ => false,
            }),
            "seed {SEED} never schedules a {want} on these links"
        );
    }
    let fate = |env: &Envelope| fates[sn_of(env) as usize];
    let delayed = |env: &Envelope| matches!(fate(env), Some(Fate::Delay(_)));
    // Delayed replies reach the mailbox whenever they fall due, so their
    // place among the others is timing; everything else has one order per
    // client.
    let settled = |o: &Outcome| -> Vec<Vec<Envelope>> {
        o.clients
            .iter()
            .map(|got| got.iter().filter(|e| !delayed(e)).cloned().collect())
            .collect()
    };
    let late = |o: &Outcome| -> Vec<Vec<u32>> {
        o.clients
            .iter()
            .map(|got| {
                let mut sns: Vec<u32> = got.iter().filter(|e| delayed(e)).map(sn_of).collect();
                sns.sort_unstable();
                sns
            })
            .collect()
    };

    let lone = drive(None);
    assert_eq!(lone.stats, stats, "the driver drew the scheduled fates");
    assert_eq!(lone.coverage, coverage, "coverage of the scheduled fates");
    // Every reply reached the mailbox for its own client, answering its
    // own tag, as often as its fate says.
    let sent = replies();
    let mut copies = vec![0u32; REPLIES as usize];
    for received in &lone.clients {
        for env in received {
            let sn = sn_of(env);
            copies[sn as usize] += 1;
            assert_eq!(env.dst, sent[sn as usize].env.dst, "sn {sn}'s client");
            assert_eq!(env.reply_to, u64::from(sn) + 1, "sn {sn} answers its tag");
        }
    }
    for (sn, (&got, fate)) in copies.iter().zip(&fates).enumerate() {
        let want = match fate {
            Some(Fate::Drop | Fate::CrashDrop { .. } | Fate::PartitionDrop { .. }) => 0,
            Some(Fate::Duplicate) => 2,
            _ => 1,
        };
        assert_eq!(got, want, "sn {sn}, fate {fate:?}");
    }
    // A reordered reply reaches the mailbox after the next one on its link
    // that overtook it.
    assert!(
        settled(&lone).iter().any(|got| got
            .windows(2)
            .any(|w| fate(&w[1]) == Some(Fate::Reorder) && sn_of(&w[0]) > sn_of(&w[1]))),
        "no reordered reply was overtaken"
    );
    assert!(late(&lone).iter().any(|l| !l.is_empty()));

    for chunk in [1, 3, 16] {
        let batched = drive(Some(chunk));
        assert_eq!(batched.stats, lone.stats, "stats at chunk {chunk}");
        assert_eq!(batched.coverage, lone.coverage, "coverage at chunk {chunk}");
        assert_eq!(
            settled(&batched),
            settled(&lone),
            "per-client order at chunk {chunk}"
        );
        assert_eq!(
            late(&batched),
            late(&lone),
            "delayed replies at chunk {chunk}"
        );
    }
}

/// The driver's worker has serviced its inbox up to some point when the
/// run ends; `shutdown` draws the fates of every reply the server wrote
/// before its goodbye, and none of what it wrote after.
#[test]
fn shutdown_draws_every_fate_up_to_the_goodbye_and_none_after() {
    let all = replies();
    let (serviced, rest) = all.split_at(REPLIES as usize / 2);
    let (late, after) = rest.split_at(rest.len() / 2);
    let mut server = accept_driver();
    write(&mut server, serviced, Some(16));
    sync(&mut server);
    write(&mut server, late, Some(16));
    server
        .writer
        .write(&Frame::Goodbye {
            node: ME.0,
            dump: String::new(),
        })
        .expect("goodbye");
    write(&mut server, after, Some(16));
    let client = Arc::clone(&server.client);
    let remote = finish(server);
    assert!(remote[0].dump.is_some(), "the goodbye never arrived");

    let mut inj = Injector::new(
        SEED,
        FaultConfig::chaos(),
        SERVERS,
        SERVERS + CLIENTS,
        false,
    )
    .expect("chaos is a valid fault config here");
    for e in serviced.iter().chain(late).filter(|e| !e.env.exempt) {
        inj.decide(e.env.src, e.env.dst);
    }
    assert!(
        after.iter().any(|e| !e.env.exempt),
        "faulted replies follow the goodbye"
    );
    assert_eq!(client.stats(), inj.stats(), "drawn up to the goodbye");
    assert_eq!(
        client.coverage().to_json().to_string(),
        inj.coverage().to_json().to_string()
    );
}
