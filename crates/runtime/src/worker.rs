//! The one worker: every machine a run process owns, stepped on one thread
//! over one mailbox.
//!
//! A run's machines never block and take their decisions at a `now` they
//! are handed: the store's clients (`blunt-store`'s `StoreClient`, seen
//! here through [`Client`]) and the [`Replica`]s. [`run_worker`] is their
//! only driver. In process it runs every client and every shard's
//! replicas; in a socket driver the clients; in a serve process one
//! replica ([`crate::server_loop`]). The shard monitors
//! ([`crate::ShardMonitor`]) are not machines: a client calls its shard's
//! monitor inside the step that calls or returns an op. Which thread runs
//! a machine's step is the scheduler's business, not the protocol's: the
//! machines share nothing but the thread, and every message between two
//! of them goes through the transport and back into the mailbox like any
//! other.
//!
//! Each pass does, in order:
//!
//! 1. **Step the clients**: a client whose burst is over draws its next
//!    one, then fills its pipeline and flushes what it buffered.
//! 2. **Take a bounded pass of envelopes** (`DRAIN_PASS` per machine) and
//!    hand each to the machine its `dst` names.
//! 3. **End every replica's pass**, in the order the replicas were given
//!    (shard-major in a store run): commit, then flush — the write-ahead
//!    acks the commit releases leave with the pass's other replies.
//! 4. **Sweep every client** at the pass's `now`: the reply gap, then the
//!    deadlines.
//!
//! The worker blocks on the mailbox only after a pass that took no
//! envelope and rebroadcast nothing, until the earliest client deadline,
//! the 5 ms poll of an open catch-up, or the idle stop check; an inbox
//! that holds delayed messages wakes it sooner, when the next falls due. A run with
//! clients ends when every client has finished and the mailbox and the
//! replicas' catch-ups have drained; a run without (a serve process) when its
//! input ends, or at an idle check once `stop` is set. Either way every
//! catch-up still open is aborted first.
//!
//! Flight lanes stay per machine: the worker [enters](FlightRecorder::enter)
//! a machine's ring before stepping it, so what the machine sends — the
//! transport records `bus_send` and fault events into the thread's current
//! ring — lands in `client-<pid>` or `server-<pid>`, on the bus and in a
//! serve process alike.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_net::Inbox;
use blunt_obs::{FlightRecorder, FlightRing};

use crate::bus::Envelope;
use crate::workload::Replica;

/// Most envelopes one pass takes off the mailbox per machine before the
/// replicas' replies are flushed: bounds both how long the first reply of
/// a pass waits for the last and how many envelopes share one `EnvBatch`
/// frame.
const DRAIN_PASS: usize = 64;

/// How often an open catch-up looks at `stop` and at the end of input: its
/// peers may already be gone.
const CATCH_UP_POLL: Duration = Duration::from_millis(5);

/// How long an idle worker with no client deadline waits before it looks
/// at `stop`.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// A client machine the worker steps beside its replicas.
pub trait Client {
    /// The pid whose envelopes this client takes.
    fn pid(&self) -> Pid;

    /// This client's flight ring, entered before every step.
    fn ring(&self) -> &Arc<FlightRing>;

    /// Pass step 1: if the burst is over, draw the next one — or, after
    /// the last, finish; then fill the pipeline and flush.
    fn step(&mut self);

    /// One envelope addressed to this client, at the pass's `now`.
    fn on_envelope(&mut self, env: Envelope, now: Instant);

    /// Pass step 4: both rebroadcast triggers, judged at `now`. Returns
    /// whether anything was rebroadcast (it leaves with the next step).
    fn sweep(&mut self, now: Instant) -> bool;

    /// When the worker must step this client even if nothing arrives;
    /// `None` once it has finished its run.
    fn deadline(&self, now: Instant) -> Option<Instant>;
}

/// Who takes a pid's envelopes.
#[derive(Clone, Copy)]
enum Owner {
    /// Nobody on this worker.
    None,
    /// `replicas[r]`.
    Replica(usize),
    /// `clients[c]`.
    Client(usize),
}

/// Steps `clients` and `replicas` over `inbox` until the run
/// ends (module docs), on the calling thread. `stop` is the idle check of
/// a worker without clients; `recorder` holds every machine's ring.
///
/// # Panics
///
/// Panics on an envelope for no machine of this worker, and if the inbox
/// ends while a client is still running.
pub fn run_worker(
    inbox: &mut impl Inbox,
    replicas: &mut [Replica<'_>],
    clients: &mut [&mut dyn Client],
    stop: Option<&AtomicBool>,
    recorder: &FlightRecorder,
) {
    let mut owner = Vec::new();
    let mut own = |pid: Pid, who: Owner| {
        if owner.len() <= pid.index() {
            owner.resize(pid.index() + 1, Owner::None);
        }
        owner[pid.index()] = who;
    };
    for (r, replica) in replicas.iter().enumerate() {
        own(replica.pid(), Owner::Replica(r));
    }
    for (c, client) in clients.iter().enumerate() {
        own(client.pid(), Owner::Client(c));
    }
    let pass = DRAIN_PASS * (replicas.len() + clients.len()).max(1);
    let mut head = None;
    loop {
        for c in clients.iter_mut() {
            recorder.enter(c.ring());
            c.step();
        }
        let now = Instant::now();
        let mut taken = 0;
        let mut ended = false;
        while taken < pass {
            let env = match head.take().map_or_else(|| inbox.try_recv(), Ok) {
                Ok(env) => env,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    ended = true;
                    break;
                }
            };
            taken += 1;
            match owner.get(env.dst.index()).copied().unwrap_or(Owner::None) {
                Owner::Replica(r) => {
                    recorder.enter(replicas[r].ring());
                    replicas[r].on_envelope(env);
                }
                Owner::Client(c) => {
                    recorder.enter(clients[c].ring());
                    clients[c].on_envelope(env, now);
                }
                Owner::None => panic!("an envelope for {:?}, which no machine here owns", env.dst),
            }
        }
        for r in replicas.iter_mut() {
            recorder.enter(r.ring());
            r.end_pass();
        }
        let mut swept = false;
        for c in clients.iter_mut() {
            recorder.enter(c.ring());
            swept |= c.sweep(now);
        }

        let running = clients.iter().any(|c| c.deadline(now).is_some());
        if ended {
            assert!(
                !running,
                "transport closed while store operations were in flight"
            );
            close(replicas, recorder);
            break;
        }
        if taken > 0 || swept {
            continue;
        }
        if !clients.is_empty() && !running {
            // The mailbox is dry: whatever a catch-up still waits for is
            // not coming.
            if abort_catch_ups(replicas, recorder) {
                continue;
            }
            break;
        }
        replicas.iter().for_each(Replica::debug_assert_nothing_held);
        let mut wait = if replicas.iter().any(Replica::catching_up) {
            CATCH_UP_POLL
        } else {
            IDLE_POLL
        };
        for c in clients.iter() {
            if let Some(due) = c.deadline(now) {
                wait = wait.min(due.saturating_duration_since(now));
            }
        }
        match inbox.recv_timeout(wait) {
            Ok(env) => head = Some(env),
            Err(RecvTimeoutError::Timeout) => {
                if stop.is_some_and(|s| s.load(Ordering::Relaxed))
                    && !abort_catch_ups(replicas, recorder)
                {
                    break;
                }
            }
            // The next pass's `try_recv` meets the end of input too.
            Err(RecvTimeoutError::Disconnected) => {}
        }
    }
    replicas.iter().for_each(Replica::debug_assert_nothing_held);
}

/// Aborts every catch-up under way; whether any was. An aborted recovery
/// serves what it buffered, so its replies leave with the next pass.
fn abort_catch_ups(replicas: &mut [Replica<'_>], recorder: &FlightRecorder) -> bool {
    let mut aborted = false;
    for r in replicas {
        recorder.enter(r.ring());
        aborted |= r.end_catch_up(true);
    }
    aborted
}

/// The end of input: every catch-up aborted — and every one a crash
/// signal queued behind it — and every pass ended.
fn close(replicas: &mut [Replica<'_>], recorder: &FlightRecorder) {
    for r in replicas {
        recorder.enter(r.ring());
        while r.end_catch_up(true) {}
        r.end_pass();
    }
}
