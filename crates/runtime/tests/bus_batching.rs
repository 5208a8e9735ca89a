//! `Bus::send_batch` is its envelope sequence.
//!
//! One fixed envelope sequence under `FaultConfig::chaos()`, crash
//! signalling on, goes through a fresh `Bus` four ways — `send` one by one,
//! and `send_batch` in chunks of 1, 3 and 16 — and every mailbox is read
//! back after `flush()`. Batching may change only how the deliveries of
//! *different* mailboxes interleave: stats, coverage and what each link
//! delivers, in which order, must not move.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::Injector;
use blunt_net::TransportStats;
use blunt_obs::FlightRecorder;
use blunt_runtime::{Bus, Envelope, Fate, FaultConfig, Payload};

const SEED: u64 = 48_879;
const SERVERS: u32 = 3;
const CLIENTS: u32 = 2;
const NODES: u32 = SERVERS + CLIENTS;
const ENVELOPES: u32 = 3_000;

/// The sequence: each client in turn sends a request to every server and
/// gets its reply — requests and replies alternating, the servers taken
/// round robin as a broadcast takes them, so a chunk interleaves its
/// destinations — and every fifth envelope is exempt, between faulted
/// ones. `sn` numbers the envelopes, so a delivered payload names its
/// position.
fn sequence() -> Vec<Envelope> {
    (0..ENVELOPES)
        .map(|i| {
            let client = Pid(SERVERS + (i / 6) % CLIENTS);
            let server = Pid((i / 2) % SERVERS);
            let obj = ObjId(i % 9);
            let exempt = i % 5 == 4;
            if i % 2 == 0 {
                Envelope::abd(client, server, AbdMsg::Query { obj, sn: i }, exempt)
            } else {
                let reply = AbdMsg::Reply {
                    obj,
                    sn: i,
                    val: Val::Int(i64::from(i)),
                    ts: Ts::new(i64::from(i), client),
                };
                Envelope::abd(server, client, reply, exempt)
            }
        })
        .collect()
}

/// What the schedule holds for one envelope of the sequence.
struct Scheduled {
    /// `None`: exempt, never offered to the injector.
    fate: Option<Fate>,
    /// The `(server, window)` crash signal the envelope raises.
    signal: Option<(Pid, u64)>,
}

/// Index = the envelope's `sn`, from an injector built exactly like the
/// bus's.
fn schedule() -> Vec<Scheduled> {
    let mut inj = Injector::new(SEED, FaultConfig::chaos(), SERVERS, NODES, true)
        .expect("chaos is a valid fault config here");
    sequence()
        .iter()
        .map(|env| {
            let drawn = (!env.exempt).then(|| inj.decide(env.src, env.dst));
            Scheduled {
                fate: drawn.map(|(fate, _)| fate),
                signal: drawn.and_then(|(_, signal)| signal),
            }
        })
        .collect()
}

fn sn_of(env: &Envelope) -> Option<u32> {
    match &env.msg {
        Payload::Abd(m) => Some(m.sn()),
        _ => None,
    }
}

struct Outcome {
    /// Per mailbox (index = pid), what it held after `flush()`, minus the
    /// delayed envelopes: those are enqueued by the delayer thread when
    /// they fall due, so their place among the others is timing.
    settled: Vec<Vec<Envelope>>,
    /// Per mailbox, the `sn`s of the delayed envelopes it held, sorted.
    late: Vec<Vec<u32>>,
    stats: TransportStats,
    coverage: String,
}

impl Outcome {
    /// What link `src → dst` delivered, in mailbox order. A crash signal
    /// travels its server's link to itself.
    fn link(&self, src: Pid, dst: Pid) -> Vec<&Envelope> {
        let mailbox = self.settled[dst.index()].iter();
        mailbox.filter(|e| e.src == src).collect()
    }
}

/// Runs the sequence through a fresh bus: `chunk = None` is `send` per
/// envelope, `Some(n)` is `send_batch` in chunks of `n`.
fn drive(chunk: Option<usize>, plan: &[Scheduled]) -> Outcome {
    let (bus, mailboxes) = Bus::new(
        SEED,
        FaultConfig::chaos(),
        SERVERS,
        NODES,
        true,
        Arc::new(FlightRecorder::new(64)),
    )
    .expect("chaos is a valid fault config here");
    let envs = sequence();
    match chunk {
        None => envs.into_iter().for_each(|env| bus.send(env)),
        Some(n) => envs.chunks(n).for_each(|c| bus.send_batch(c.to_vec())),
    }
    // Releases the reorder holds and joins the delayer: whatever will ever
    // be delivered is in a mailbox now.
    bus.flush();
    let delayed = |env: &Envelope| {
        sn_of(env).is_some_and(|sn| matches!(plan[sn as usize].fate, Some(Fate::Delay(_))))
    };
    let drain = |rx: &Receiver<Envelope>| rx.try_iter().partition::<Vec<_>, _>(|e| !delayed(e));
    let (settled, late): (Vec<_>, Vec<_>) = mailboxes.iter().map(drain).unzip();
    Outcome {
        settled,
        late: late
            .into_iter()
            .map(|mailbox| {
                let mut sns: Vec<u32> = mailbox.iter().filter_map(sn_of).collect();
                sns.sort_unstable();
                sns
            })
            .collect(),
        stats: bus.stats(),
        coverage: bus.coverage().to_json().to_string(),
    }
}

/// Holds one run against the schedule, envelope by envelope: what each
/// fate must have left in the destination's mailbox, and where.
fn check_against_schedule(out: &Outcome, plan: &[Scheduled], how: &str) {
    let envs = sequence();
    // Per mailbox: where each `sn` sits, and where each crash window's
    // signal does.
    let mut at: Vec<HashMap<u32, Vec<usize>>> = vec![HashMap::new(); NODES as usize];
    let mut crash_at: Vec<HashMap<u64, Vec<usize>>> = vec![HashMap::new(); NODES as usize];
    for (mailbox, held) in out.settled.iter().enumerate() {
        for (pos, env) in held.iter().enumerate() {
            match &env.msg {
                Payload::Crash { window } => {
                    assert!(env.exempt, "{how}: the amnesia signal must be exempt");
                    assert_eq!(
                        (env.src, env.dst),
                        (Pid(mailbox as u32), Pid(mailbox as u32))
                    );
                    crash_at[mailbox].entry(*window).or_default().push(pos);
                }
                _ => {
                    let sn = sn_of(env).expect("only ABD traffic and crash signals are sent");
                    assert_eq!(env, &envs[sn as usize], "{how}: delivered as sent");
                    at[mailbox].entry(sn).or_default().push(pos);
                }
            }
        }
    }
    let nowhere = Vec::new();
    for (i, (env, s)) in envs.iter().zip(plan).enumerate() {
        let sn = i as u32;
        let dst = env.dst.index();
        let places = at[dst].get(&sn).unwrap_or(&nowhere);
        let is_late = out.late[dst].binary_search(&sn).is_ok();
        match s.fate {
            // Exempt envelopes bypass the injector: delivered, once, always.
            None | Some(Fate::Deliver | Fate::Reorder) => {
                assert_eq!(places.len(), 1, "{how}: envelope {sn} ({:?})", s.fate);
            }
            Some(Fate::Duplicate) => {
                assert_eq!(places.len(), 2, "{how}: duplicate {sn}");
                assert_eq!(
                    places[1],
                    places[0] + 1,
                    "{how}: duplicate {sn} back to back"
                );
            }
            Some(Fate::Delay(_)) => assert!(is_late, "{how}: delayed {sn} never arrived"),
            Some(Fate::Drop | Fate::CrashDrop { .. } | Fate::PartitionDrop { .. }) => {
                assert!(places.is_empty() && !is_late, "{how}: lost {sn} arrived");
            }
        }
        if let Some((server, window)) = s.signal {
            let signal = &crash_at[server.index()][&window];
            assert_eq!(signal.len(), 1, "{how}: one signal per (server, window)");
            if matches!(s.fate, Some(Fate::Deliver | Fate::Duplicate)) {
                assert_eq!(
                    signal[0] + 1,
                    places[0],
                    "{how}: the crash signal goes directly ahead of envelope {sn}, which raised it"
                );
            }
        }
        if s.fate == Some(Fate::Reorder) {
            // What takes the held envelope's place decides where it lands:
            // the link's next faulted envelope that touches the hold slot.
            let overtaker = (i + 1..envs.len()).find(|&j| {
                (envs[j].src, envs[j].dst) == (env.src, env.dst)
                    && matches!(
                        plan[j].fate,
                        Some(Fate::Deliver | Fate::Duplicate | Fate::Reorder)
                    )
            });
            match overtaker {
                Some(j) if plan[j].fate != Some(Fate::Reorder) => {
                    let overtook = at[dst][&(j as u32)].last().expect("delivered");
                    assert_eq!(
                        places[0],
                        overtook + 1,
                        "{how}: held {sn} goes directly after {j}, which overtook it"
                    );
                }
                // Displaced by the next held envelope: it takes that one's
                // place in line, which the link comparison pins.
                Some(_) => {}
                None => {
                    let link = out.link(env.src, env.dst);
                    let last = link.last().expect("the link delivered something");
                    assert_eq!(sn_of(last), Some(sn), "{how}: `flush` releases {sn} last");
                }
            }
        }
    }
    let signals = plan.iter().filter(|s| s.signal.is_some()).count();
    let delivered: usize = crash_at
        .iter()
        .map(|m| m.values().map(Vec::len).sum::<usize>())
        .sum();
    assert_eq!(delivered, signals, "{how}: a signal nobody raised");
    assert_eq!(out.stats.crash_events, signals as u64);
    let faulted = plan.iter().filter(|s| s.fate.is_some()).count();
    assert_eq!(
        out.stats.offered, faulted as u64,
        "{how}: exempt envelopes are never fated"
    );
}

#[test]
fn send_batch_is_equivalent_to_send_at_every_chunk_size() {
    let plan = schedule();
    let envs = sequence();
    let same_link = |i: usize, j: usize| (envs[i].src, envs[i].dst) == (envs[j].src, envs[j].dst);
    // Everything the contract names has to happen — and, for what spans
    // two envelopes, inside one chunk of 16.
    for want in ["duplicate", "delay", "drop", "crash signal"] {
        assert!(
            plan.iter().any(|s| match s.fate {
                Some(Fate::Duplicate) => want == "duplicate",
                Some(Fate::Delay(_)) => want == "delay",
                Some(Fate::Drop) => want == "drop",
                _ => want == "crash signal" && s.signal.is_some(),
            }),
            "seed {SEED} never schedules a {want} on these links"
        );
    }
    assert!(
        (0..envs.len()).any(|i| {
            plan[i].fate == Some(Fate::Reorder)
                && (i + 1..(i / 16 + 1) * 16).any(|j| {
                    same_link(i, j) && matches!(plan[j].fate, Some(Fate::Deliver | Fate::Duplicate))
                })
        }),
        "seed {SEED} never has a held envelope overtaken inside one chunk of 16"
    );
    assert!(
        (0..envs.len()).any(|j| plan[j].signal.is_some() && j % 16 != 0 && j % 3 != 0),
        "seed {SEED} never raises a crash signal from the middle of a chunk"
    );

    let unbatched = drive(None, &plan);
    check_against_schedule(&unbatched, &plan, "send");
    assert!(unbatched.late.iter().any(|l| !l.is_empty()));

    for chunk in [1, 3, 16] {
        let how = format!("send_batch, chunks of {chunk}");
        let batched = drive(Some(chunk), &plan);
        check_against_schedule(&batched, &plan, &how);
        assert_eq!(batched.stats, unbatched.stats, "{how}: stats");
        assert_eq!(batched.coverage, unbatched.coverage, "{how}: coverage JSON");
        assert_eq!(batched.late, unbatched.late, "{how}: delayed envelopes");
        for dst in (0..NODES).map(Pid) {
            for src in (0..NODES).map(Pid) {
                assert_eq!(
                    batched.link(src, dst),
                    unbatched.link(src, dst),
                    "{how}: what {src} → {dst} delivered, in order"
                );
            }
        }
    }
}
