//! `server_loop` buffers a drain pass's replies — but never across a
//! crash, a blocking wait or its own exit.
//!
//! The mailbox is loaded before the loop starts, so one pass takes the
//! queries *and* the crash signal behind them: the exact shape in which a
//! buffered reply could be held over the crash and the catch-up wait.

use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::Mutex;

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::{ObjId, Pid};
use blunt_net::{Coverage, SpanCtx, Transport, TransportStats};
use blunt_obs::FlightRecorder;
use blunt_runtime::{server_loop, Envelope, Payload, RecoveryMode, RecoverySink};

/// Records every envelope in the order the transport is handed it, and how
/// each `send_batch` call was sized.
#[derive(Default)]
struct Probe {
    seen: Mutex<Vec<Envelope>>,
    batches: Mutex<Vec<usize>>,
}

impl Transport for Probe {
    fn send(&self, env: Envelope) {
        self.seen.lock().unwrap().push(env);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        self.batches.lock().unwrap().push(envs.len());
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

#[test]
fn replies_of_a_pass_leave_before_the_crash_behind_them_is_handled() {
    const K: u32 = 10;
    let (me, client) = (Pid(0), Pid(3));
    let (tx, rx) = mpsc::channel();
    for sn in 0..K {
        let query = AbdMsg::Query {
            obj: ObjId(sn % 3),
            sn,
        };
        tx.send(Envelope::abd(client, me, query, false).in_reply_to(u64::from(sn) + 1))
            .unwrap();
    }
    tx.send(Envelope {
        src: me,
        dst: me,
        msg: Payload::Crash { window: 0 },
        exempt: true,
        reply_to: 0,
        span: SpanCtx::NONE,
    })
    .unwrap();
    // Stop is already up: the catch-up that follows the crash finds no
    // peer answering, gives up at its first timeout, and the loop returns
    // at its next idle tick — after everything queued has been handled.
    let stop = AtomicBool::new(true);
    let probe = Probe::default();
    let sink = RecoverySink::default();
    server_loop(
        me,
        vec![Pid(0), Pid(1), Pid(2)],
        RecoveryMode::amnesia(),
        rx,
        &probe,
        &stop,
        &sink,
        &FlightRecorder::new(64),
    );
    drop(tx);

    let seen = probe.seen.into_inner().unwrap();
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
        probe.batches.into_inner().unwrap(),
        vec![K as usize],
        "the pass's replies left as one batch; state transfer is never batched"
    );
    let r = sink.snapshot();
    assert_eq!((r.crashes, r.recoveries), (1, 1));
}
