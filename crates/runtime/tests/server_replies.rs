//! `server_loop` buffers a drain pass's replies — but never across a
//! crash, a blocking wait or its own exit — and, under amnesia, commits
//! the pass's WAL records at its end, so no ack waits for a timer.
//!
//! The mailbox is loaded before the loop starts, so one pass takes
//! everything in it: queries *and* the crash signal behind them (the exact
//! shape in which a buffered reply could be held over the crash and the
//! catch-up wait), or a handful of updates too few to fill a WAL batch.
//!
//! A `Host` of a whole replica group on the worker, over one mailbox:
//! there a recovering replica's peers share its thread, so its catch-up
//! must complete through the transport and back into that mailbox, for
//! one crash and for two at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::{Coverage, SpanCtx, Transport, TransportStats};
use blunt_obs::{FlightKind, FlightRecorder};
use blunt_runtime::{
    run_worker, server_loop, Envelope, Host, Payload, RecoveryMode, RecoverySink, RecoveryStats,
};

/// Records every envelope in the order the transport is handed it, and
/// the size and time of each `send_batch` call.
#[derive(Default)]
struct Probe {
    seen: Mutex<Vec<Envelope>>,
    batches: Mutex<Vec<(usize, Instant)>>,
}

impl Transport for Probe {
    fn send(&self, env: Envelope) {
        self.seen.lock().unwrap().push(env);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        self.batches
            .lock()
            .unwrap()
            .push((envs.len(), Instant::now()));
        self.seen.lock().unwrap().extend(envs);
    }

    fn flush(&self) {}

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn coverage(&self) -> Coverage {
        Coverage::default()
    }
}

const ME: Pid = Pid(0);
const CLIENT: Pid = Pid(3);
/// `ME`'s replica group.
const GROUP: [Pid; 3] = [Pid(0), Pid(1), Pid(2)];

fn query(sn: u32) -> Envelope {
    let msg = AbdMsg::Query {
        obj: ObjId(sn % 3),
        sn,
    };
    Envelope::abd(CLIENT, ME, msg, false).in_reply_to(u64::from(sn) + 1)
}

/// A first-transmission update of its own register: nothing durable ever
/// covers it, so under amnesia its ack has to wait for a commit.
fn update(sn: u32) -> Envelope {
    let msg = AbdMsg::Update {
        obj: ObjId(sn),
        sn,
        val: Val::Int(i64::from(sn)),
        ts: Ts::new(i64::from(sn) + 1, CLIENT),
    };
    Envelope::abd(CLIENT, ME, msg, false).in_reply_to(u64::from(sn) + 1)
}

fn crash() -> Envelope {
    Envelope {
        src: ME,
        dst: ME,
        msg: Payload::Crash { window: 0 },
        exempt: true,
        reply_to: 0,
        span: SpanCtx::NONE,
    }
}

/// What one `server_loop` call over a preloaded mailbox did.
struct Served {
    /// Every envelope handed to the transport, in order.
    seen: Vec<Envelope>,
    /// The size of every `send_batch` call, and how long after the loop
    /// was entered it came.
    batches: Vec<(usize, Duration)>,
    /// Acks withheld at each group commit, from the replica's own
    /// `WalFlush` flight events — one per commit, whatever other tests in
    /// this process do to the global `runtime.storage.fsyncs` counter.
    commits: Vec<u64>,
    recovery: RecoveryStats,
}

impl Served {
    /// `(sn, exempt)` of every ack handed to the transport. A commit
    /// releases its acks in no particular order, so they come sorted.
    fn acks(&self) -> Vec<(u32, bool)> {
        let acks = self.seen.iter().filter_map(|e| match &e.msg {
            Payload::Abd(AbdMsg::Ack { sn, .. }) => Some((*sn, e.exempt)),
            _ => None,
        });
        let mut acks: Vec<_> = acks.collect();
        acks.sort_unstable();
        acks
    }

    fn batch_sizes(&self) -> Vec<usize> {
        self.batches.iter().map(|&(n, _)| n).collect()
    }
}

/// Amnesia with WAL batches of four.
const AMNESIA: RecoveryMode = RecoveryMode::Amnesia {
    fsync_interval: 4,
    demo_skip_recovery: false,
};

/// Runs one replica (WAL batches of four) over `inbound`, all of it in the
/// mailbox before the loop starts and none of it exempt unless it says so:
/// no retransmission ever prods the replica. The mailbox's sender stays
/// alive and `stop` is already up, so the loop takes its passes — a
/// catch-up finds no peer answering and gives up at its first timeout —
/// waits out one idle timeout (20 ms) and returns: whatever has not left
/// by then never will.
fn serve(amnesia: bool, inbound: Vec<Envelope>) -> Served {
    let mode = if amnesia {
        AMNESIA
    } else {
        RecoveryMode::Stable
    };
    let (tx, rx) = mpsc::channel();
    for env in inbound {
        tx.send(env).unwrap();
    }
    let stop = AtomicBool::new(true);
    let probe = Probe::default();
    let sink = RecoverySink::default();
    let recorder = FlightRecorder::new(256);
    let entered = Instant::now();
    server_loop(
        ME,
        GROUP.to_vec(),
        mode,
        rx,
        &probe,
        &stop,
        &sink,
        &recorder,
    );
    drop(tx);
    let batches = probe.batches.into_inner().unwrap();
    let events = recorder.dump().events;
    Served {
        seen: probe.seen.into_inner().unwrap(),
        batches: batches
            .into_iter()
            .map(|(n, at)| (n, at.duration_since(entered)))
            .collect(),
        commits: events
            .iter()
            .filter(|e| e.kind == FlightKind::WalFlush)
            .map(|e| e.a)
            .collect(),
        recovery: sink.snapshot(),
    }
}

#[test]
fn replies_of_a_pass_leave_before_the_crash_behind_them_is_handled() {
    const K: u32 = 10;
    let mut inbound: Vec<Envelope> = (0..K).map(query).collect();
    inbound.push(crash());
    let served = serve(true, inbound);

    let seen = &served.seen;
    let first_state_query = seen
        .iter()
        .position(|e| matches!(e.msg, Payload::StateQuery { .. }))
        .expect("the crash ran a catch-up");
    let replied: Vec<(u32, u64)> = seen[..first_state_query]
        .iter()
        .map(|e| match &e.msg {
            Payload::Abd(AbdMsg::Reply { sn, .. }) => (*sn, e.reply_to),
            other => panic!("only query replies precede the catch-up, got {other:?}"),
        })
        .collect();
    assert_eq!(
        replied,
        (0..K).map(|sn| (sn, u64::from(sn) + 1)).collect::<Vec<_>>(),
        "every reply, in order, before the first StateQuery"
    );
    assert_eq!(
        seen.len(),
        first_state_query + 2,
        "after the replies: one StateQuery per peer, and nothing held back"
    );
    assert_eq!(
        served.batch_sizes(),
        vec![K as usize],
        "the pass's replies left as one batch; state transfer is never batched"
    );
    let r = served.recovery;
    assert_eq!((r.crashes, r.recoveries), (1, 1));
}

#[test]
fn a_pass_too_small_to_fill_a_wal_batch_commits_at_its_end() {
    // Three records against an interval of four: no batch fills, nothing
    // exempt arrives. The pass end alone must commit them — at once, not
    // at the idle timeout 20 ms later.
    let served = serve(true, (0..3).map(update).collect());
    assert_eq!(served.commits, vec![3], "one group commit, three acks");
    assert_eq!(
        served.acks(),
        (0..3).map(|sn| (sn, true)).collect::<Vec<_>>(),
        "amnesia acks are exempt"
    );
    let [(size, after)] = served.batches[..] else {
        panic!("one reply batch, got {:?}", served.batches);
    };
    assert_eq!(size, 3);
    assert!(
        after < Duration::from_millis(5),
        "the acks left {after:?} after the loop was entered: they waited for a timer"
    );
}

#[test]
fn a_pass_commits_when_a_wal_batch_fills_and_again_at_its_end() {
    let served = serve(true, (0..6).map(update).collect());
    assert_eq!(
        served.commits,
        vec![4, 2],
        "one commit at `batch_full`, one at pass end"
    );
    assert_eq!(
        served.acks(),
        (0..6).map(|sn| (sn, true)).collect::<Vec<_>>()
    );
    assert_eq!(
        served.batch_sizes(),
        vec![6],
        "both commits' acks share the pass's batch"
    );
}

#[test]
fn a_crash_mid_pass_takes_the_records_the_pass_had_not_committed() {
    // The crash signal is handled before the pass's commit: the two
    // records are lost, and their acks with them — for good, whatever the
    // rest of the run (here: the aborted catch-up and the idle timeout)
    // does.
    let served = serve(true, vec![update(0), update(1), crash()]);
    assert_eq!(served.recovery.wal_records_lost, 2);
    assert_eq!(
        (served.recovery.crashes, served.recovery.recoveries),
        (1, 1)
    );
    assert_eq!(served.commits, Vec::<u64>::new());
    assert_eq!(served.acks(), Vec::new(), "an ack for a lost record");
}

#[test]
fn a_crash_during_catch_up_finishes_that_catch_up_then_crashes_again() {
    // The second crash lands while the first catch-up is waiting for peer
    // state: it is honoured after that catch-up ends (here: aborted, no
    // peer answers), and the ABD traffic around it waits for the last
    // recovery, then is served in arrival order.
    let served = serve(true, vec![update(0), crash(), query(1), crash(), update(2)]);
    let r = served.recovery;
    assert_eq!((r.crashes, r.recoveries), (2, 2));
    assert_eq!(r.catchup_aborted, 2);
    assert_eq!(r.state_queries, 4);
    assert_eq!(r.wal_records_lost, 1, "update(0)'s uncommitted record");

    let seen = &served.seen;
    let state_queries: Vec<(u32, u64)> = seen
        .iter()
        .filter_map(|e| match e.msg {
            Payload::StateQuery { sn } => Some((e.dst.0, sn)),
            _ => None,
        })
        .collect();
    assert_eq!(
        state_queries,
        vec![(1, 1), (2, 1), (1, 2), (2, 2)],
        "one StateQuery per peer per crash, a fresh exchange each time"
    );
    assert!(
        matches!(seen[0].msg, Payload::StateQuery { .. }),
        "update(0)'s ack died with its record: {:?}",
        seen[0]
    );
    let served_after: Vec<(&str, u32)> = seen[state_queries.len()..]
        .iter()
        .map(|e| match &e.msg {
            Payload::Abd(AbdMsg::Reply { sn, .. }) => ("reply", *sn),
            Payload::Abd(AbdMsg::Ack { sn, .. }) => ("ack", *sn),
            other => panic!("only the buffered traffic's answers follow, got {other:?}"),
        })
        .collect();
    assert_eq!(served_after, vec![("reply", 1), ("ack", 2)]);
}

#[test]
fn a_stable_replica_acks_as_it_absorbs_and_never_syncs() {
    let served = serve(false, (0..3).map(update).collect());
    assert_eq!(served.commits, Vec::<u64>::new());
    assert_eq!(
        served.acks(),
        (0..3).map(|sn| (sn, false)).collect::<Vec<_>>(),
        "inheriting the updates' exemption"
    );
    assert_eq!(served.batch_sizes(), vec![3]);
}

/// `env`, addressed to replica `dst` instead.
fn to(dst: Pid, env: Envelope) -> Envelope {
    Envelope { dst, ..env }
}

/// The transport of a host running `hosted` of [`GROUP`]: envelopes for a
/// hosted replica go back into the host's mailbox, everything else — the
/// client's answers, a query to a replica hosted nowhere — to the
/// [`Probe`].
struct Loopback<'a> {
    hosted: &'a [Pid],
    mailbox: Sender<Envelope>,
    out: Probe,
}

impl Transport for Loopback<'_> {
    fn send(&self, env: Envelope) {
        self.send_batch(vec![env]);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        let (home, out): (Vec<_>, Vec<_>) =
            envs.into_iter().partition(|e| self.hosted.contains(&e.dst));
        home.into_iter()
            .for_each(|e| self.mailbox.send(e).expect("the host reads its mailbox"));
        if !out.is_empty() {
            self.out.send_batch(out);
        }
    }

    fn flush(&self) {}

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn coverage(&self) -> Coverage {
        Coverage::default()
    }
}

/// Runs `hosted` of [`GROUP`] on one host under amnesia over `inbound`,
/// preloaded like [`serve`]'s, until `recoveries` recoveries have completed
/// (or 5 s have passed); only then is `stop` raised, so no catch-up can
/// have been cut short by it. Returns what left the host, in order, and
/// the host's recovery counters.
fn host(hosted: &[Pid], inbound: Vec<Envelope>, recoveries: u64) -> (Vec<Envelope>, RecoveryStats) {
    let (tx, rx) = mpsc::channel();
    for env in inbound {
        tx.send(env).unwrap();
    }
    let stop = AtomicBool::new(false);
    let transport = Loopback {
        hosted,
        mailbox: tx,
        out: Probe::default(),
    };
    let sink = RecoverySink::default();
    let recorder = FlightRecorder::new(256);
    thread::scope(|s| {
        s.spawn(|| {
            let mut host = Host::new(
                "server-s0",
                hosted,
                &GROUP,
                AMNESIA,
                &transport,
                &sink,
                &recorder,
            );
            let hosts = std::slice::from_mut(&mut host);
            run_worker(rx, hosts, &mut [], &mut [], Some(&stop), &recorder);
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.snapshot().recoveries < recoveries && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let seen = transport.out.seen.into_inner().unwrap();
    (seen, sink.snapshot())
}

#[test]
fn a_hosted_replica_catches_up_from_the_replicas_on_its_own_thread() {
    // Replica 0 crashes with ABD traffic behind the signal; its two peers
    // run on the same thread and answer its StateQuery through the
    // mailbox they share, so the catch-up completes — nothing aborts it —
    // and the buffered traffic is then served in arrival order.
    let inbound = vec![update(0), crash(), query(1), update(2)];
    let (seen, r) = host(&GROUP, inbound, 1);
    assert_eq!((r.crashes, r.recoveries), (1, 1));
    assert_eq!(r.state_queries, 2, "one StateQuery per peer");
    assert_eq!(r.catchup_aborted, 0, "the peers on its thread answered");
    assert_eq!(r.wal_records_lost, 1, "update(0)'s uncommitted record");
    let answered: Vec<(&str, u32)> = seen
        .iter()
        .map(|e| match &e.msg {
            Payload::Abd(AbdMsg::Reply { sn, .. }) => ("reply", *sn),
            Payload::Abd(AbdMsg::Ack { sn, .. }) => ("ack", *sn),
            other => panic!("only the client's answers leave the group, got {other:?}"),
        })
        .collect();
    assert_eq!(answered, vec![("reply", 1), ("ack", 2)]);
    assert!(seen.iter().all(|e| e.src == ME && e.dst == CLIENT));
}

#[test]
fn two_hosted_replicas_crashed_in_one_pass_both_recover_without_stop() {
    // Replicas 0 and 1 crash in the same pass, so each asks the other
    // while both are catching up. With replica 2 on the host, it alone
    // could answer both; hosted without it, each catch-up can only end
    // with the other's answer: state transfer is served during a
    // catch-up, or the two recoveries would wait on each other until
    // `stop` aborted them.
    let inbound = || vec![crash(), to(Pid(1), crash()), query(1), to(Pid(1), query(2))];
    for hosted in [&GROUP[..], &GROUP[..2]] {
        let (seen, r) = host(hosted, inbound(), 2);
        assert_eq!((r.crashes, r.recoveries), (2, 2), "hosting {hosted:?}");
        assert_eq!(r.state_queries, 4);
        assert_eq!(r.catchup_aborted, 0, "a recovery waited for `stop`");
        let mut replied: Vec<(u32, u32)> = seen
            .iter()
            .filter_map(|e| match &e.msg {
                Payload::Abd(AbdMsg::Reply { sn, .. }) => Some((e.src.0, *sn)),
                // The query to the replica hosted nowhere.
                Payload::StateQuery { .. } => None,
                other => panic!("only query replies leave the host, got {other:?}"),
            })
            .collect();
        replied.sort_unstable();
        assert_eq!(replied, vec![(0, 1), (1, 2)], "hosting {hosted:?}");
    }
}
