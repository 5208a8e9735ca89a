//! `NetServer::send_batch` is its envelope sequence.
//!
//! One fixed reply sequence under `FaultConfig::chaos()` goes through a
//! real `NetServer` four ways — `send` one by one, and `send_batch` in
//! chunks of 1, 3 and 16 — with the test dialed in as the driver and
//! reading the wire. Batching may change only how replies share frames:
//! stats, coverage and what each client's lane would decode must not move.

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
    Addr, Envelope, Fate, FaultConfig, Injector, NetServer, NetServerCfg, Payload, Transport,
    TransportStats,
};
use blunt_obs::FlightRecorder;

const SEED: u64 = 48_879;
const SERVERS: u32 = 3;
const CLIENTS: u32 = 4;
const ME: Pid = Pid(0);
const REPLIES: u32 = 1_600;

/// The reply sequence: server 0 answering the four clients in a fixed
/// scramble, every fifth envelope an exempt ack between faulted replies.
/// `sn` numbers the envelopes, so a decoded payload names its position.
fn replies() -> Vec<Envelope> {
    (0..REPLIES)
        .map(|i| {
            let dst = Pid(SERVERS + (i * 7 + i / 5) % CLIENTS);
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
            Envelope::abd(ME, dst, msg, exempt).in_reply_to(u64::from(i) + 100)
        })
        .collect()
}

fn sn_of(env: &Envelope) -> u32 {
    match &env.msg {
        Payload::Abd(m) => m.sn(),
        other => panic!("only ABD replies are sent here, got {other:?}"),
    }
}

/// One decoded entry as a client lane would see it, plus whether it had a
/// frame to itself.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Seen {
    tag: u64,
    re: u64,
    env: Envelope,
    alone: bool,
}

struct Outcome {
    /// Every envelope-bearing frame the driver connection carried.
    frames: Vec<Frame>,
    stats: TransportStats,
    coverage: String,
}

impl Outcome {
    /// Per client, the entries in wire order.
    fn per_client(&self) -> Vec<Vec<Seen>> {
        let mut lanes = vec![Vec::new(); CLIENTS as usize];
        let mut push = |tag, re, env: &Envelope, alone| {
            lanes[(env.dst.0 - SERVERS) as usize].push(Seen {
                tag,
                re,
                env: env.clone(),
                alone,
            });
        };
        for f in &self.frames {
            match f {
                Frame::Env { tag, re, env } => push(*tag, *re, env, true),
                Frame::EnvBatch { entries } => {
                    for e in entries {
                        push(e.tag, e.re, &e.env, false);
                    }
                }
                other => panic!("unexpected frame on the reply path: {other:?}"),
            }
        }
        lanes
    }
}

/// Runs the sequence through a fresh `NetServer`: `chunk = None` is
/// `send` per envelope, `Some(n)` is `send_batch` in chunks of `n`.
fn drive(chunk: Option<usize>) -> Outcome {
    static RUN: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "blunt-reply-batching-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let listen = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let cfg = NetServerCfg {
        listen: listen.clone(),
        me: ME,
        servers: SERVERS,
        clients: CLIENTS,
        peers: vec![listen.clone(); SERVERS as usize],
        seed: SEED,
        faults: FaultConfig::chaos(),
    };
    let (server, _mailbox) =
        NetServer::bind(&cfg, Arc::new(FlightRecorder::new(256))).expect("bind UDS listener");

    let stream = listen.connect_retry(Duration::from_secs(5)).expect("dial");
    let mut writer = FrameWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = FrameReader::new(stream);
    writer
        .write(&Frame::Hello {
            node: DRIVER_NODE,
            t_us: 0,
        })
        .expect("hello");
    // The ack proves the server holds our connection as its driver slot;
    // a reply sent before that would be written nowhere.
    assert!(matches!(
        reader.read().expect("hello ack"),
        Some(Frame::HelloAck { .. })
    ));
    // Read while the server writes: the replies need not fit a socket
    // buffer.
    let wire = thread::spawn(move || {
        let mut frames = Vec::new();
        loop {
            match reader.read().expect("driver connection") {
                Some(Frame::Goodbye { .. }) => return frames,
                Some(f) => frames.push(f),
                None => panic!("server hung up before its goodbye"),
            }
        }
    });

    let envs = replies();
    match chunk {
        None => envs.into_iter().for_each(|env| server.send(env)),
        Some(n) => envs.chunks(n).for_each(|c| server.send_batch(c.to_vec())),
    }
    // Releases the reorder holds and joins the delayer, so every reply
    // that will ever be written is written before the goodbye.
    server.flush();
    server.goodbye(String::new());
    let frames = wire.join().expect("wire reader");
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        frames,
        stats: server.stats(),
        coverage: server.coverage().to_json().to_string(),
    }
}

/// The fate each faulted reply draws, from an injector built exactly like
/// the server's: index = the envelope's `sn`.
fn scheduled_fates() -> Vec<Option<Fate>> {
    let mut inj = Injector::new(
        SEED,
        FaultConfig::chaos(),
        SERVERS,
        SERVERS + CLIENTS,
        false,
    )
    .expect("chaos is a valid fault config here");
    replies()
        .iter()
        .map(|env| (!env.exempt).then(|| inj.decide(env.src, env.dst).0))
        .collect()
}

#[test]
fn send_batch_is_equivalent_to_send_at_every_chunk_size() {
    let fates = scheduled_fates();
    let delayed = |s: &Seen| matches!(fates[sn_of(&s.env) as usize], Some(Fate::Delay(_)));
    for want in ["duplicate", "reorder", "delay", "drop"] {
        assert!(
            fates.iter().flatten().any(|f| match f {
                Fate::Duplicate => want == "duplicate",
                Fate::Reorder => want == "reorder",
                Fate::Delay(_) => want == "delay",
                Fate::Drop => want == "drop",
                _ => false,
            }),
            "seed {SEED} never schedules a {want} on these links"
        );
    }

    let unbatched = drive(None);
    let base = unbatched.per_client();
    // Delayed replies are written by the delayer thread whenever they fall
    // due, so their place among the others is timing; everything else has
    // one wire order per client.
    let project = |lanes: &[Vec<Seen>], want_delayed: bool| -> Vec<Vec<(u64, u64, Envelope)>> {
        lanes
            .iter()
            .map(|lane| {
                let mut picked: Vec<_> = lane
                    .iter()
                    .filter(|s| delayed(s) == want_delayed)
                    .map(|s| (s.tag, s.re, s.env.clone()))
                    .collect();
                if want_delayed {
                    picked.sort_by_key(|(tag, ..)| *tag);
                }
                picked
            })
            .collect()
    };
    let settled = |lanes: &[Vec<Seen>]| project(lanes, false);
    let late = |lanes: &[Vec<Seen>]| project(lanes, true);
    assert!(late(&base).iter().any(|l| !l.is_empty()));

    for chunk in [1, 3, 16] {
        let batched = drive(Some(chunk));
        assert_eq!(batched.stats, unbatched.stats, "stats at chunk {chunk}");
        assert_eq!(
            batched.coverage, unbatched.coverage,
            "coverage JSON at chunk {chunk}"
        );
        let lanes = batched.per_client();
        assert_eq!(
            settled(&lanes),
            settled(&base),
            "wire order at chunk {chunk}"
        );
        assert_eq!(
            late(&lanes),
            late(&base),
            "delayed replies at chunk {chunk}"
        );
        for s in lanes.iter().flatten() {
            // Delay: leaves alone, through the delayer. Everything else
            // shares its call's one `EnvBatch`.
            assert_eq!(s.alone, delayed(s), "framing of {s:?} at chunk {chunk}");
        }
        assert!(
            batched.frames.len()
                <= (REPLIES as usize).div_ceil(chunk) + late(&lanes).concat().len() + 1,
            "chunk {chunk} wrote {} frames",
            batched.frames.len()
        );
    }

    // The cases that must have happened *inside* one batch at chunk 16.
    let batched = drive(Some(16));
    let batches: Vec<&Vec<_>> = batched
        .frames
        .iter()
        .filter_map(|f| match f {
            Frame::EnvBatch { entries } => Some(entries),
            _ => None,
        })
        .collect();
    assert!(
        batches
            .iter()
            .any(|b| b.windows(2).any(|w| w[0].tag == w[1].tag)),
        "no Duplicate (same tag twice, back to back) inside a batch"
    );
    assert!(
        batches
            .iter()
            .any(|b| b.iter().enumerate().any(|(i, held)| {
                fates[sn_of(&held.env) as usize] == Some(Fate::Reorder)
                    && b[..i]
                        .iter()
                        .any(|o| o.env.dst == held.env.dst && o.tag > held.tag)
            })),
        "no Reorder released after its overtaker inside a batch"
    );
    assert!(
        batches
            .iter()
            .any(|b| b.iter().any(|e| e.env.exempt) && b.iter().any(|e| !e.env.exempt)),
        "no batch mixes exempt acks with faulted replies"
    );
}
