//! The driver draws a reply's fate as its reader takes the reply off the
//! wire, and how the server framed its replies does not matter.
//!
//! The test plays server 0 of a chaos run: it accepts a real `NetClient`'s
//! connection and writes one fixed reply sequence under
//! `FaultConfig::chaos()` to it four ways — as lone `Env` frames, and as
//! `EnvBatch` chunks of 1, 3 and 16. Each client lane's decoded sequence,
//! `stats()` and `coverage()` must agree across the four, and with the fates
//! an injector built like the driver's schedules for the same sequence.
//! Once the driver has flushed, a reply it still reads draws no fate.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::frame::{Frame, FrameReader, FrameWriter, DRIVER_NODE};
use blunt_net::rpc::LANE_SHIFT;
use blunt_net::{
    Addr, Envelope, Fate, FaultConfig, Injector, NetClient, NetClientCfg, Payload, TaggedEnv,
    Transport, TransportStats,
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
/// position; the tag is `sn + 1` and `re` carries the client's lane.
fn replies() -> Vec<TaggedEnv> {
    (0..REPLIES)
        .map(|i| {
            let lane = (i * 7 + i / 5) % CLIENTS;
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
                re: (u64::from(lane) + 1) << LANE_SHIFT | (u64::from(i) + 100),
                env: Envelope::abd(ME, Pid(SERVERS + lane), msg, exempt),
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

struct Outcome {
    /// Per client lane, the envelopes it received, in order.
    lanes: Vec<Vec<Envelope>>,
    stats: TransportStats,
    coverage: String,
}

/// A fresh `NetClient` connected to this test playing server 0.
struct Server {
    client: Arc<NetClient>,
    lanes: Vec<Receiver<Envelope>>,
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
    let (client, lanes) = NetClient::connect(
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

    // The driver dials on its first send; an exempt one draws no fate.
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
        lanes,
        writer,
        drain,
        dir,
    }
}

/// Writes the sequence to a fresh `NetClient` as server 0: `chunk = None`
/// is one `Env` frame per entry, `Some(n)` an `EnvBatch` per `n` entries.
fn drive(chunk: Option<usize>) -> Outcome {
    let Server {
        client,
        lanes,
        mut writer,
        drain,
        dir,
    } = accept_driver();
    let entries = replies();
    match chunk {
        None => entries
            .into_iter()
            .for_each(|e| writer.write(&Frame::from(e)).expect("env frame")),
        Some(n) => entries.chunks(n).for_each(|c| {
            let frame = Frame::EnvBatch {
                entries: c.to_vec(),
            };
            writer.write(&frame).expect("batch frame");
        }),
    }
    writer
        .write(&Frame::Goodbye {
            node: ME.0,
            dump: String::new(),
        })
        .expect("goodbye");
    // Every reply precedes the goodbye on the connection, so once it is in
    // every fate is drawn; the flush releases the holds and the delays.
    let remote = client.shutdown(LONG);
    assert!(remote[0].dump.is_some(), "the goodbye never arrived");
    client.flush();
    drop(writer);
    drain.join().expect("drain thread");
    let _ = std::fs::remove_dir_all(&dir);
    let received = |lane: &Receiver<Envelope>| lane.try_iter().collect();
    Outcome {
        lanes: lanes.iter().map(received).collect(),
        stats: client.stats(),
        coverage: client.coverage().to_json().to_string(),
    }
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
    // Delayed replies reach their lane whenever they fall due, so their
    // place among the others is timing; everything else has one order per
    // lane.
    let settled = |o: &Outcome| -> Vec<Vec<Envelope>> {
        o.lanes
            .iter()
            .map(|lane| lane.iter().filter(|e| !delayed(e)).cloned().collect())
            .collect()
    };
    let late = |o: &Outcome| -> Vec<Vec<u32>> {
        o.lanes
            .iter()
            .map(|lane| {
                let mut sns: Vec<u32> = lane.iter().filter(|e| delayed(e)).map(sn_of).collect();
                sns.sort_unstable();
                sns
            })
            .collect()
    };

    let lone = drive(None);
    assert_eq!(lone.stats, stats, "the driver drew the scheduled fates");
    assert_eq!(lone.coverage, coverage, "coverage of the scheduled fates");
    // Every reply reached its own lane, answering its own tag, as often as
    // its fate says.
    let mut copies = vec![0u32; REPLIES as usize];
    for (lane, received) in lone.lanes.iter().enumerate() {
        for env in received {
            let sn = sn_of(env);
            copies[sn as usize] += 1;
            assert_eq!(
                env.dst,
                Pid(SERVERS + lane as u32),
                "sn {sn} in lane {lane}"
            );
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
    // A reordered reply reaches its lane after the next one on its link
    // that overtook it.
    assert!(
        settled(&lone).iter().any(|lane| lane
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
            "lane order at chunk {chunk}"
        );
        assert_eq!(
            late(&batched),
            late(&lone),
            "delayed replies at chunk {chunk}"
        );
    }
}

/// Writes `entries` as lone `Env` frames, then an exempt ack to lane 0
/// (its own tag), and waits for it: the reader handles a connection's
/// frames in order, so every entry before it has reached its lane by then.
/// Returns what the lanes received, the ack left out.
fn write_and_sync(server: &mut Server, entries: &[TaggedEnv]) -> Vec<Envelope> {
    let mark_sn = REPLIES + sn_of(&entries[0].env);
    for e in entries {
        server
            .writer
            .write(&Frame::from(e.clone()))
            .expect("env frame");
    }
    let mark = TaggedEnv {
        tag: u64::from(mark_sn) + 1,
        re: 1 << LANE_SHIFT,
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
        let env = server.lanes[0]
            .recv_timeout(LONG)
            .expect("the mark arrives");
        if sn_of(&env) == mark_sn {
            break;
        }
        received.push(env);
    }
    received.extend(server.lanes.iter().flat_map(Receiver::try_iter));
    received
}

/// A server that never says goodbye keeps its reader reading past the
/// driver's flush; what it reads then draws no fate, so the counters stay
/// as the flush left them and no faulted reply reaches a lane.
#[test]
fn a_reply_read_after_the_flush_draws_no_fate() {
    let mut server = accept_driver();
    let mut first = replies();
    let rest = first.split_off(REPLIES as usize / 2);
    write_and_sync(&mut server, &first);
    server.client.flush();
    let (stats, coverage) = (server.client.stats(), server.client.coverage());
    let faulted = first.iter().filter(|e| !e.env.exempt).count();
    assert_eq!(stats.offered, faulted as u64, "the first half was drawn");

    // What the flush released belongs to the first half.
    server
        .lanes
        .iter()
        .for_each(|lane| lane.try_iter().for_each(drop));
    let late = write_and_sync(&mut server, &rest);
    assert_eq!(
        server.client.stats(),
        stats,
        "no fate drawn after the flush"
    );
    assert_eq!(
        server.client.coverage().to_json().to_string(),
        coverage.to_json().to_string()
    );
    let exempt = rest.iter().filter(|e| e.env.exempt).count();
    assert_eq!(
        late.len(),
        exempt,
        "only the exempt acks pass the flushed reader"
    );
    for env in &late {
        let sn = sn_of(env);
        assert!(
            rest[(sn - REPLIES / 2) as usize].env.exempt,
            "faulted sn {sn} reached a lane"
        );
    }

    server.client.shutdown(Duration::ZERO);
    drop(server.writer);
    server.drain.join().expect("drain thread");
    let _ = std::fs::remove_dir_all(&server.dir);
}
