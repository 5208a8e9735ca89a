//! The replica, the shard monitor and the run observers: what every chaos
//! run is built from, whatever drives it.
//!
//! The replica is a state machine that never blocks (`Replica`: one
//! dispatch per envelope, one commit-and-flush per pass); a [`Host`] holds
//! the replicas one worker runs — a shard's on the bus, one in a serve
//! process ([`server_loop`]). The shard monitor
//! ([`ShardMonitor`]) checks the actions the clients enqueue on its
//! [`MonitorFeed`] when the worker drains it, once a client burst. Both are
//! stepped by the one worker (`crate::worker`), beside the clients, which
//! live in `blunt-store`: their pipelined machine is the only client in the
//! workspace, and the classic single-register workload is that store at one
//! shard and one key. The observers stay here, next to `blunt-trace`: the
//! shared [`Telemetry`] counters and [`watch_loop`] (progress line, JSONL
//! mirror, stall watchdog), the one run thread besides the worker.
//!
//! **Crash recovery.** Under [`RecoveryMode::Amnesia`] every server keeps a
//! write-ahead log ([`MultiWal`]) and obeys the *write-ahead ack discipline*: an
//! update is acknowledged only once a WAL record with a timestamp covering
//! it is fsynced. The log is group-committed at two points: inside a drain
//! pass whenever `fsync_interval` records are unsynced (what bounds the
//! suffix a crash can take), and at the **end of every pass** — everything
//! that queued while the replica was busy shares one fsync, and the sync is
//! issued the moment the mailbox is empty, so the replica never waits with
//! a record unsynced or an ack withheld. When the bus raises the amnesia
//! signal ([`Payload::Crash`]) at a crash window's exit, the server erases
//! its volatile state and its unsynced WAL suffix (the records the pass
//! under way appended since its last commit; their withheld acks die with
//! them), then recovers — the
//! blackout window models the outage itself; the power loss materializes at
//! the reboot, when peers are reachable again for catch-up and the
//! recovered (or, under `--demo-amnesia`, unrecovered) state is actually
//! observable by clients. Recovery: replay the durable checkpoint, then
//! catch up from `quorum − 1` peers via exempt [`Payload::StateQuery`]
//! state transfer (mirroring the ABD read phase) before serving buffered
//! traffic. The catch-up is a state of the replica, not a loop: while it
//! is open, ABD traffic is buffered and a further crash signal is counted,
//! to crash the replica again once this catch-up ends. The discipline
//! makes replay alone sound — every *acked* update
//! is durable, and unacked state a reader observed is re-made durable by
//! that reader's own write-back quorum — so concurrent recoveries need no
//! coordination; the catch-up phase only restores freshness. The argument
//! lives in `docs/RUNTIME.md`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blunt_abd::msg::AbdMsg;
use blunt_abd::server::StoreState;
use blunt_abd::ts::Ts;
use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_obs::flight::encode_val;
use blunt_obs::{FlightDump, FlightKind, FlightRecorder, FlightRing, Json, QuantileSketch};

use blunt_net::{Inbox, SpanCtx, Transport};

use crate::bus::{Envelope, Payload};
use crate::monitor::{MonitorReport, OnlineMonitor};
use crate::recovery::{RecoveryMode, RecoverySink};
use crate::storage::MultiWal;
use crate::worker::run_worker;

/// The most operations one client of a chaos run — a store client, a VA
/// worker thread — may perform. Client `c`'s `idx`-th write stores the
/// value `c × MAX_OPS_PER_CLIENT + idx` and pid `p`'s invocation ids are
/// `p × 10 × MAX_OPS_PER_CLIENT + idx`; past this bound two clients' writes
/// would share a value, and the checker could no longer tell them apart.
pub const MAX_OPS_PER_CLIENT: u64 = 1_000_000;

/// What the online monitor cost this run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonitorOverhead {
    /// Actions the monitor observed (= `2 × ops`; deterministic).
    pub actions: u64,
    /// Total wall time spent inside [`OnlineMonitor::observe`]
    /// (timing-dependent; bench-gated only under `--strict-times`).
    pub observe_ns: u64,
    /// High-water mark of the monitor's backlog — actions enqueued by
    /// clients but not yet observed, i.e. how far the monitor ran behind
    /// the frontier (timing-dependent). A monitor is drained each time a
    /// client finishes a burst, so about one burst's actions per client
    /// (`2 × clients × burst`) is the design point, not a sign of trouble.
    pub lag_ops_hwm: u64,
    /// Times the worker drained a monitor (timing-dependent,
    /// informational): once a pass in which a client ended a burst, and
    /// once at the end of the run.
    pub wakeups: u64,
}

/// Live counters the clients and the shard monitors keep and the
/// watch/watchdog thread reads. Pure observation: nothing here feeds back
/// into scheduling or the fault plan.
#[derive(Default)]
pub struct Telemetry {
    /// Operations completed so far.
    ops: AtomicU64,
    /// Actions enqueued to the monitor channels: one per invocation, one
    /// per completion — so `actions_sent − 2 × ops` operations are in
    /// flight.
    actions_sent: AtomicU64,
    /// Actions the monitors have observed.
    actions_seen: AtomicU64,
    /// Streaming per-op latency (µs), mergeable across threads.
    sketch: QuantileSketch,
}

impl Telemetry {
    /// A client is about to send an op's `Call` to its monitor.
    pub fn op_started(&self) {
        self.actions_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// An op completed `lat_us` after its `Call`; the client enqueues its
    /// `Return` next.
    pub fn op_completed(&self, lat_us: u64) {
        self.sketch.record(lat_us);
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.actions_sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// The clients' end of one shard monitor: the shard's action queue.
///
/// **Enqueuing is not checking.** [`MonitorFeed::send`] appends to the
/// queue and returns; the order of the appends is all the soundness
/// argument needs (`crate::monitor`). The worker drains the queue into the
/// shard's [`ShardMonitor`] at the end of a pass in which some client ended
/// a burst, and once more at the end of the run (`crate::worker`). Every
/// machine of a run lives on the worker's thread, so the queue needs no
/// lock.
#[derive(Default)]
pub struct MonitorFeed(RefCell<Vec<Action>>);

impl MonitorFeed {
    /// Enqueues `a` behind everything any client has enqueued so far.
    pub fn send(&self, a: Action) {
        self.0.borrow_mut().push(a);
    }
}

/// Shard `shard`'s online monitor: it consumes the shard's action stream
/// from its [`MonitorFeed`], feeds the streaming checker, and captures a
/// flight dump at its first violation. Sound per shard because every op on
/// a key routes to exactly one shard (see the `blunt-store` crate docs).
pub struct ShardMonitor<'a> {
    feed: &'a MonitorFeed,
    checker: OnlineMonitor,
    recorder: &'a FlightRecorder,
    telemetry: &'a Telemetry,
    /// `monitor-s<shard>`.
    ring: Arc<FlightRing>,
    /// The monitor's flight pid: after the run's nodes, one per shard.
    pid: u32,
    overhead: MonitorOverhead,
    /// Actions checked at the last `monitor_cut` event.
    cuts: u64,
    dump: Option<FlightDump>,
}

impl<'a> ShardMonitor<'a> {
    /// Shard `shard`'s monitor over `feed`. `lanes` is the run's node
    /// count: monitors take the flight pids after it, one per shard.
    #[must_use]
    pub fn new(
        shard: u32,
        feed: &'a MonitorFeed,
        recorder: &'a FlightRecorder,
        telemetry: &'a Telemetry,
        lanes: usize,
    ) -> ShardMonitor<'a> {
        ShardMonitor {
            feed,
            checker: OnlineMonitor::new(Val::Nil, lanes),
            recorder,
            telemetry,
            ring: recorder.register_lanes(&format!("monitor-s{shard}"), 1),
            pid: u32::try_from(lanes).expect("node count fits u32") + shard,
            overhead: MonitorOverhead::default(),
            cuts: 0,
            dump: None,
        }
    }

    /// Checks every action enqueued so far: a cut.
    pub fn drain(&mut self) {
        self.overhead.wakeups += 1;
        let actions = {
            let mut queue = self.feed.0.borrow_mut();
            // Sized like the drain before: one allocation a drain.
            let next = Vec::with_capacity(queue.len());
            std::mem::replace(&mut *queue, next)
        };
        for a in actions {
            self.observe(a);
        }
        if self.overhead.actions > self.cuts {
            self.cuts = self.overhead.actions;
            self.ring
                .record(FlightKind::MonitorCut, self.pid, self.cuts, 0);
        }
    }

    fn observe(&mut self, a: Action) {
        let t0 = Instant::now();
        let ok = self.checker.observe(a);
        self.overhead.observe_ns = self
            .overhead
            .observe_ns
            .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.overhead.actions += 1;
        let seen = self.telemetry.actions_seen.fetch_add(1, Ordering::Relaxed) + 1;
        let lag = self
            .telemetry
            .actions_sent
            .load(Ordering::Relaxed)
            .saturating_sub(seen);
        self.overhead.lag_ops_hwm = self.overhead.lag_ops_hwm.max(lag);
        if ok {
            return;
        }
        if self.dump.is_none() {
            // A lagging monitor may flag a window whose op events the
            // clients' bounded rings have already evicted — replay the
            // window into this ring so the dump always carries its own
            // evidence.
            if let Some(v) = self.checker.violations().last() {
                replay_window(&self.ring, v.window.actions());
            }
        }
        let index = self.checker.violations().len() as u64 - 1;
        self.ring
            .record(FlightKind::MonitorViolation, self.pid, index, 0);
        if self.dump.is_none() {
            // Capture now, while the offending ops are still in the rings.
            self.dump = Some(self.recorder.dump());
        }
    }

    /// The verdict, what this shard's monitor cost, and the dump captured
    /// at its first violation.
    #[must_use]
    pub fn finish(self) -> (MonitorReport, MonitorOverhead, Option<FlightDump>) {
        (self.checker.finish(), self.overhead, self.dump)
    }
}

/// Re-records a violation window's actions into the monitor's ring,
/// attributed to their original client pids. By the time a lagging monitor
/// flags a return, the clients may have recorded thousands of newer events
/// — enough to evict the offending ops and their witnesses from their
/// bounded rings — so the dump taken at detection replays the window
/// itself (≤ 7 operations) immediately before the `monitor_violation`
/// marker.
fn replay_window(ring: &FlightRing, actions: &[Action]) {
    let mut invs: HashMap<InvId, (u32, bool)> = HashMap::new();
    for action in actions {
        match action {
            Action::Call {
                inv,
                pid,
                method,
                arg,
                ..
            } => {
                let is_read = *method == MethodId::READ;
                invs.insert(*inv, (pid.0, is_read));
                ring.record(
                    if is_read {
                        FlightKind::OpStartRead
                    } else {
                        FlightKind::OpStartWrite
                    },
                    pid.0,
                    inv.0,
                    encode_val(match arg {
                        Val::Int(v) => Some(*v),
                        _ => None,
                    }),
                );
            }
            Action::Return { inv, val } => {
                let (pid, is_read) = invs.get(inv).copied().unwrap_or((0, true));
                ring.record(
                    if is_read {
                        FlightKind::OpCompleteRead
                    } else {
                        FlightKind::OpCompleteWrite
                    },
                    pid,
                    inv.0,
                    encode_val(match val {
                        Val::Int(v) => Some(*v),
                        _ => None,
                    }),
                );
            }
        }
    }
}

/// The combined watch/watchdog thread: prints a progress line every
/// `watch` interval, mirrors it as JSONL to `watch_out` — a `chaos_watch`
/// header, then one `watch_tick` record per tick, at the `watch` interval
/// when set, every 250 ms otherwise — and captures a
/// flight dump — written under `flight_dump_dir` when set, rendered over
/// `lanes` lanes — if no operation completes for `stall_after`. `seed` goes
/// into the mirror's header. `recoveries` reads the live recovery count:
/// the run's own sinks in process, the servers' telemetry over sockets.
/// Exits when the run drops its end of `stop_rx`.
#[allow(clippy::too_many_arguments)] // a thread entry point, not an API
pub fn watch_loop(
    watch: Option<Duration>,
    watch_out: Option<&Path>,
    stall_after: Option<Duration>,
    flight_dump_dir: Option<&Path>,
    seed: u64,
    lanes: usize,
    started: Instant,
    t: &Telemetry,
    recorder: &FlightRecorder,
    recoveries: &(dyn Fn() -> u64 + Send + Sync),
    stalled: &AtomicBool,
    stop_rx: &Receiver<()>,
) {
    let tick = watch.unwrap_or(Duration::from_millis(250));
    let mut last_ops: u64 = 0;
    let mut last_tick = started;
    let mut progressed_at = Instant::now();
    let mut dumped = false;
    let mut watch_file = watch_out.and_then(|p| {
        let mut f = std::fs::File::create(p).ok()?;
        let header = blunt_obs::json::doc("chaos_watch", vec![("seed".into(), Json::UInt(seed))]);
        writeln!(f, "{header}").ok()?;
        Some(f)
    });
    loop {
        // A stopping run still writes one last tick: the mirror always
        // carries the run's final counters, even when the whole run fits
        // inside a single tick interval.
        let stopping = match stop_rx.recv_timeout(tick) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => true,
            Err(RecvTimeoutError::Timeout) => false,
        };
        let now = Instant::now();
        let ops = t.ops.load(Ordering::Relaxed);
        let dt = now.duration_since(last_tick).as_secs_f64().max(1e-9);
        let rate = (ops.saturating_sub(last_ops)) as f64 / dt;
        let sent = t.actions_sent.load(Ordering::Relaxed);
        let in_flight = sent.saturating_sub(2 * ops);
        let lag = sent.saturating_sub(t.actions_seen.load(Ordering::Relaxed));
        let recoveries = recoveries();
        if watch.is_some() {
            eprintln!(
                "chaos[watch] t={:.1}s ops={ops} (+{rate:.0}/s) in_flight={in_flight} \
                 lat p50/p99={}µs/{}µs recoveries={recoveries} monitor_lag={lag}",
                now.duration_since(started).as_secs_f64(),
                t.sketch.quantile(0.5),
                t.sketch.quantile(0.99),
            );
        }
        if let Some(f) = watch_file.as_mut() {
            let write_tick = writeln!(
                f,
                "{{\"type\":\"watch_tick\",\"t_ms\":{},\"ops\":{ops},\"ops_per_sec\":{},\
                 \"in_flight\":{in_flight},\"lat_p50_us\":{},\"lat_p99_us\":{},\
                 \"recoveries\":{recoveries},\"monitor_lag\":{lag}}}",
                now.duration_since(started).as_millis(),
                rate.round().max(0.0) as u64,
                t.sketch.quantile(0.5),
                t.sketch.quantile(0.99),
            )
            .and_then(|()| f.flush());
            if write_tick.is_err() {
                // A dead mirror (disk full, deleted parent) must not kill
                // the watchdog; drop the file and keep watching.
                watch_file = None;
            }
        }
        if stopping {
            return;
        }
        if ops != last_ops {
            progressed_at = now;
        }
        last_ops = ops;
        last_tick = now;
        if let Some(limit) = stall_after {
            if !dumped && now.duration_since(progressed_at) >= limit {
                dumped = true;
                stalled.store(true, Ordering::Relaxed);
                eprintln!(
                    "chaos[watchdog] no operation completed for {limit:?}; capturing flight dump"
                );
                let dump = recorder.dump();
                if let Some(dir) = flight_dump_dir {
                    let rendered = blunt_trace::flight_space_time(
                        &dump.last_n(800),
                        lanes,
                        &blunt_trace::DiagramOptions::default(),
                    );
                    let _ = std::fs::create_dir_all(dir);
                    // Process-unique stem: a second stalling run in the same
                    // process (e.g. a seed sweep) must not clobber the first
                    // dump's evidence.
                    let stem = blunt_obs::flight::unique_dump_stem("stall");
                    let _ =
                        std::fs::write(dir.join(format!("{stem}.flight.jsonl")), dump.to_jsonl());
                    let _ = std::fs::write(dir.join(format!("{stem}.diagram.txt")), rendered);
                }
            }
        }
    }
}

/// An acknowledgment withheld until the WAL covers its timestamp (the
/// write-ahead ack discipline).
struct PendingAck {
    ts: Ts,
    dst: Pid,
    obj: ObjId,
    sn: u32,
    /// The request frame's tag, echoed so socket transports can route the
    /// ack back to the issuing client lane.
    re: u64,
    /// The update's trace context, echoed (as the reply hop) on the
    /// released ack so the exchange stays span-attributed end to end.
    span: SpanCtx,
    /// When the ack was withheld (`runtime.storage.ack_parked_us`).
    parked_at: Instant,
}

/// One ABD replica's whole state between two steps: its registers, its
/// durable storage, what the pass under way has produced, and — while it
/// recovers — its catch-up. It never blocks: the worker hands it one
/// envelope at a time and ends each pass, and the sends go through the
/// [`Transport`] it was given.
struct Replica<'a> {
    me: Pid,
    /// The replica group `me` belongs to (including `me`): recovery
    /// catch-up queries exactly these peers, and the catch-up quorum is
    /// derived from the group size. In single-shard runs this is all
    /// servers; in the sharded store it is one shard's replicas.
    group: Vec<Pid>,
    bus: &'a dyn Transport,
    sink: &'a RecoverySink,
    state: StoreState,
    wal: MultiWal,
    pending_acks: Vec<PendingAck>,
    /// Protocol replies of the drain pass under way, in send order; they
    /// leave together in [`Replica::flush_replies`].
    replies: Vec<Envelope>,
    amnesia: bool,
    demo_skip: bool,
    /// Exchange counter for recovery state transfer, scoped to this server.
    catchup_sn: u64,
    /// The recovery under way, if any: while it is `Some`, ABD traffic
    /// waits in it and crash signals are counted by it.
    catch_up: Option<CatchUp>,
    /// Its host's flight-recorder ring (`server-<pid>` for a lone
    /// replica), shared with the replicas hosted beside it.
    ring: Arc<FlightRing>,
}

/// A recovery's peer catch-up, mirroring the ABD read phase: the replica
/// has replayed its WAL and asked every peer for its state in exchange
/// `sn`; it adopts the freshest register values once `needed` peers
/// (`quorum − 1`: self completes the majority) have answered.
struct CatchUp {
    sn: u64,
    needed: usize,
    got: usize,
    /// Per-register freshest answer across the snapshots so far.
    best: BTreeMap<ObjId, (Val, Ts)>,
    /// ABD traffic that arrived meanwhile, in arrival order: served once
    /// the last recovery ends.
    buffered: Vec<Envelope>,
    /// Crash signals that arrived meanwhile: each crashes the replica
    /// again once this catch-up ends.
    crashes: u64,
    /// When the crash that started this recovery happened.
    t0: Instant,
}

/// One ABD replica: replies to queries, absorbs updates, and (under
/// amnesia) crashes and recovers on the bus's signal. Responses inherit
/// the triggering envelope's exemption so retransmitted exchanges complete
/// without consuming fault indices.
///
/// This is the worker ([`run_worker`]) with one hosted replica: every
/// protocol decision is the replica machine's, the worker only waits. Each
/// pass **drains, commits, then flushes**: it takes whatever is already
/// queued (up to 64 envelopes a pass) without blocking, and ends the pass —
/// the WAL records the pass appended are group-committed (the acks that
/// releases join the pass's replies), and the replies go to the transport
/// as one [`Transport::send_batch`]: one frame and one `write` on the
/// socket tier, one contiguous run on the bus. A lone request waits for
/// nothing: its pass ends as soon as the mailbox is empty. The replica
/// therefore never blocks — idle, waiting for catch-up answers, or for
/// good — with a record unsynced, an ack withheld or a reply buffered.
///
/// `rx` is any [`Inbox`]: a `Receiver<Envelope>` in process, a
/// `blunt_net::ServerInbox` in a server process — there the worker itself
/// reads the driver's socket, "already queued" means whole in the read
/// buffer, and a pass ends when the wire runs dry. The loop returns when
/// the inbox reports the end of its input (every sender gone; the driver's
/// `Shutdown` frame) or, at an idle timeout, when `stop` is set; either one
/// first aborts a catch-up under way.
///
/// The replica is **keyed throughout** ([`StoreState`]/[`MultiWal`]): every
/// ABD message names its [`ObjId`], so the same loop serves the classic
/// single-register workload and a sharded keyed store (`blunt-store`)
/// without a mode switch.
///
/// `group` is the replica group this server belongs to (including `me`):
/// recovery catch-up queries exactly these peers and derives its quorum
/// from the group size, so a sharded store passes one shard's replicas and
/// a recovering server never wastes catch-up rounds on servers that hold
/// none of its keys.
#[allow(clippy::too_many_arguments)] // a thread entry point, not an API
pub fn server_loop(
    me: Pid,
    group: Vec<Pid>,
    mode: RecoveryMode,
    rx: impl Inbox,
    bus: &dyn Transport,
    stop: &AtomicBool,
    sink: &RecoverySink,
    recorder: &FlightRecorder,
) {
    let name = format!("server-{}", me.0);
    let mut host = Host::new(&name, &[me], &group, mode, bus, sink, recorder);
    run_worker(
        rx,
        std::slice::from_mut(&mut host),
        &mut [],
        &mut [],
        Some(stop),
        recorder,
    );
}

/// The replicas `hosted` of one replica `group`, as the worker steps them.
///
/// Which thread runs a replica's step is the scheduler's business, not
/// ABD's: the replicas share nothing but the thread, each keeps its own
/// state, WAL and catch-up, and state transfer between two of them goes
/// through the transport and back into the worker's mailbox like any
/// peer's. The host records into one flight ring labeled `name`, sized for
/// `hosted.len()` rings' worth of events; its events carry the replica's
/// pid, so lanes stay per replica.
pub struct Host<'a> {
    replicas: Vec<Replica<'a>>,
    ring: Arc<FlightRing>,
}

impl<'a> Host<'a> {
    /// Fresh replicas `hosted` of `group`, recovering as `mode` says,
    /// sending through `bus` and counting crashes and recoveries on `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `hosted` is empty or names a pid outside `group`.
    #[must_use]
    pub fn new(
        name: &str,
        hosted: &[Pid],
        group: &[Pid],
        mode: RecoveryMode,
        bus: &'a dyn Transport,
        sink: &'a RecoverySink,
        recorder: &FlightRecorder,
    ) -> Host<'a> {
        assert!(!hosted.is_empty(), "a host runs at least one replica");
        assert!(
            hosted.iter().all(|me| group.contains(me)),
            "a replica group includes its own pid"
        );
        let ring = recorder.register_lanes(name, hosted.len());
        let (amnesia, fsync_interval, demo_skip) = match mode {
            RecoveryMode::Stable => (false, 1, false),
            RecoveryMode::Amnesia {
                fsync_interval,
                demo_skip_recovery,
            } => (true, fsync_interval, demo_skip_recovery),
        };
        let replicas = hosted
            .iter()
            .map(|&me| Replica {
                me,
                group: group.to_vec(),
                bus,
                sink,
                state: StoreState::new(Val::Nil),
                wal: MultiWal::new(fsync_interval),
                pending_acks: Vec::new(),
                replies: Vec::new(),
                amnesia,
                demo_skip,
                catchup_sn: 0,
                catch_up: None,
                ring: Arc::clone(&ring),
            })
            .collect();
        Host { replicas, ring }
    }

    /// The hosted replicas' pids, in hosting order.
    pub(crate) fn hosted(&self) -> impl ExactSizeIterator<Item = Pid> + '_ {
        self.replicas.iter().map(|r| r.me)
    }

    pub(crate) fn ring(&self) -> &Arc<FlightRing> {
        &self.ring
    }

    /// One envelope for the `r`-th hosted replica.
    pub(crate) fn on_envelope(&mut self, r: usize, env: Envelope) {
        self.replicas[r].on_envelope(env);
    }

    /// Every replica's pass end: commit, then flush.
    pub(crate) fn end_pass(&mut self) {
        self.replicas.iter_mut().for_each(Replica::end_pass);
    }

    pub(crate) fn catching_up(&self) -> bool {
        self.replicas.iter().any(|r| r.catch_up.is_some())
    }

    /// Ends every catch-up under way; whether any was.
    pub(crate) fn abort_catch_ups(&mut self) -> bool {
        let mut aborted = false;
        for r in &mut self.replicas {
            aborted |= r.end_catch_up(true);
        }
        aborted
    }

    pub(crate) fn debug_assert_nothing_held(&self) {
        self.replicas
            .iter()
            .for_each(Replica::debug_assert_nothing_held);
    }
}

impl Replica<'_> {
    /// One envelope off the mailbox: flight event, then the replica's one
    /// dispatch. During a catch-up, ABD traffic waits and crash signals
    /// are counted; state transfer is served either way — another server
    /// recovering concurrently needs an answer, or the two recoveries
    /// deadlock.
    fn on_envelope(&mut self, env: Envelope) {
        self.ring.record_span(
            FlightKind::BusDeliver,
            self.me.0,
            u64::from(env.src.0),
            env.msg.flight_label(),
            env.span.flight_word(),
        );
        match (&env.msg, &mut self.catch_up) {
            (Payload::Abd(_), Some(c)) => c.buffered.push(env),
            (Payload::Crash { .. }, Some(c)) => c.crashes += 1,
            _ => match env.msg {
                Payload::Abd(msg) => {
                    self.handle_abd(env.src, msg, env.exempt, env.reply_to, env.span);
                }
                // Stable-mode replicas keep their memory across crash
                // windows; a stray signal (e.g. a driver misconfigured
                // relative to its servers in multi-process mode) is
                // ignorable, not fatal.
                Payload::Crash { .. } if !self.amnesia => {}
                Payload::Crash { .. } => self.crash(Vec::new(), 0),
                Payload::StateQuery { sn } => self.answer_state_query(env.src, sn, env.reply_to),
                Payload::StateReply { sn, snap } => self.on_state_reply(sn, snap),
            },
        }
    }

    /// Pass end is the commit point: one fsync covers every record the
    /// pass left unsynced, and the acks it releases leave with the pass's
    /// other replies.
    fn end_pass(&mut self) {
        self.flush_wal();
        self.flush_replies();
    }

    /// What must hold wherever the replica is about to wait (idle, for
    /// catch-up answers) or return: every appended record synced, every
    /// ack released, every reply handed to the transport. A pass commits
    /// and flushes at its end and a crash clears all three, so nothing can
    /// sit here until a timer or the next arrival.
    fn debug_assert_nothing_held(&self) {
        debug_assert_eq!(self.wal.unsynced_len(), 0, "blocking on an unsynced record");
        debug_assert!(self.pending_acks.is_empty(), "blocking on a withheld ack");
        debug_assert!(self.replies.is_empty(), "blocking on a buffered reply");
    }

    /// Hands the buffered protocol replies to the transport as one batch,
    /// in the order they were produced. Nothing may stay buffered while
    /// the server blocks, crashes or exits: every such point calls this
    /// first. Control traffic (state transfer) never enters the buffer —
    /// a snapshot can be large, and it leaves on its own frame.
    fn flush_replies(&mut self) {
        if self.replies.is_empty() {
            return;
        }
        blunt_obs::static_counter!("runtime.server.reply_flushes").inc();
        blunt_obs::static_counter!("runtime.server.reply_envelopes").add(self.replies.len() as u64);
        // `send_batch` takes the batch by value; size its successor like
        // the pass just flushed — a lone reply should not cost a
        // pass-sized allocation, a busy server should not regrow from
        // empty every pass.
        let next = Vec::with_capacity(self.replies.len());
        self.bus
            .send_batch(std::mem::replace(&mut self.replies, next));
    }

    fn handle_abd(&mut self, src: Pid, msg: AbdMsg, exempt: bool, re: u64, span: SpanCtx) {
        match msg {
            AbdMsg::Query { obj, sn } => {
                // Queries may serve volatile (unsynced) state: a reader that
                // returns it first re-makes it durable at an ack-quorum via
                // its own write-back, so a later crash here cannot un-happen
                // an observed read (docs/RUNTIME.md).
                let reply = self.state.reply(obj, sn);
                self.replies.push(
                    Envelope::abd(self.me, src, reply, exempt)
                        .in_reply_to(re)
                        .with_span(span.reply()),
                );
            }
            AbdMsg::Update { obj, sn, val, ts } => {
                if !self.amnesia {
                    self.state.absorb(obj, val, ts);
                    self.ring.record_span(
                        FlightKind::ServerAck,
                        self.me.0,
                        u64::from(src.0),
                        u64::from(sn),
                        span.flight_word(),
                    );
                    self.replies.push(
                        Envelope::abd(self.me, src, AbdMsg::Ack { obj, sn }, exempt)
                            .in_reply_to(re)
                            .with_span(span.reply()),
                    );
                    return;
                }
                // Amnesia-mode acks are always exempt: group commit makes
                // an ack's timing — and, when a crash clears a withheld
                // ack, its very existence — depend on flush scheduling, so
                // routing acks through the per-link schedule would make
                // `TransportStats::offered` timing-dependent and break replay.
                // The injector still exercises this exchange through the
                // update leg, which drives the same retransmission path.
                self.state.absorb(obj, val.clone(), ts);
                if self.wal.durable_ts(obj) >= ts {
                    // A durable record already covers this timestamp —
                    // replay would restore state at least this new, so the
                    // ack is safe immediately.
                    self.ring.record_span(
                        FlightKind::ServerAck,
                        self.me.0,
                        u64::from(src.0),
                        u64::from(sn),
                        span.flight_word(),
                    );
                    self.replies.push(
                        Envelope::abd(self.me, src, AbdMsg::Ack { obj, sn }, true)
                            .in_reply_to(re)
                            .with_span(span.reply()),
                    );
                } else {
                    // Write-ahead ack discipline: log first, ack after the
                    // covering fsync. (Re-appending a retransmitted update
                    // whose record is still unsynced is harmless — the
                    // checkpoint keeps the max.)
                    self.wal.append(obj, val, ts);
                    self.pending_acks.push(PendingAck {
                        ts,
                        dst: src,
                        obj,
                        sn,
                        re,
                        span,
                        parked_at: Instant::now(),
                    });
                    if self.wal.batch_full() {
                        self.flush_wal();
                    }
                }
            }
            // Replies and acks are client-bound; a misrouted one is
            // ignorable.
            AbdMsg::Reply { .. } | AbdMsg::Ack { .. } => {}
        }
    }

    /// Group commit: one fsync covers every register's pending records
    /// (the shards share the storage file), then release every
    /// acknowledgment the new per-register durable frontiers cover —
    /// which is all of them, since each frontier is that register's max
    /// appended timestamp. The single fsync amortizes across keys: that
    /// is the batched-WAL half of the store's group commit. Called at the
    /// end of every pass, so a pass that appended nothing returns before
    /// it touches the clock.
    fn flush_wal(&mut self) {
        if self.wal.unsynced_len() == 0 && self.pending_acks.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let durable = self.wal.fsync();
        let synced = Instant::now();
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let took = micros(synced.duration_since(t0));
        if durable > 0 {
            self.sink.on_fsync(took);
        }
        self.ring.record(
            FlightKind::WalFlush,
            self.me.0,
            self.pending_acks.len() as u64,
            took,
        );
        let parked_us = blunt_obs::static_histogram!("runtime.storage.ack_parked_us");
        let mut i = 0;
        while i < self.pending_acks.len() {
            if self.pending_acks[i].ts <= self.wal.durable_ts(self.pending_acks[i].obj) {
                let a = self.pending_acks.swap_remove(i);
                parked_us.record(micros(synced.duration_since(a.parked_at)));
                self.ring.record_span(
                    FlightKind::ServerAck,
                    self.me.0,
                    u64::from(a.dst.0),
                    u64::from(a.sn),
                    a.span.flight_word(),
                );
                // Exempt like every amnesia-mode ack (see `handle_abd`).
                self.replies.push(
                    Envelope::abd(
                        self.me,
                        a.dst,
                        AbdMsg::Ack {
                            obj: a.obj,
                            sn: a.sn,
                        },
                        true,
                    )
                    .in_reply_to(a.re)
                    .with_span(a.span.reply()),
                );
            } else {
                i += 1;
            }
        }
    }

    fn answer_state_query(&self, peer: Pid, sn: u64, re: u64) {
        self.bus.send(Envelope {
            src: self.me,
            dst: peer,
            msg: Payload::StateReply {
                sn,
                snap: self.state.snapshot_all(),
            },
            exempt: true,
            reply_to: re,
            span: SpanCtx::NONE,
        });
    }

    /// The amnesia signal: crash, then recover — replay the WAL and start a
    /// catch-up, which ends here at once when the group has no peer to
    /// ask. `buffered` and `crashes` are what the catch-up this crash
    /// interrupted had collected: the new one inherits them.
    fn crash(&mut self, buffered: Vec<Envelope>, crashes: u64) {
        // Replies produced before the signal left before the crash when
        // each had its own send; they still do.
        self.flush_replies();
        // The crash: unsynced WAL suffix and all volatile state are gone.
        // Withheld acks die with their records — the clients retransmit and
        // the updates are re-logged.
        let lost = self.wal.lose_unsynced();
        self.pending_acks.clear();
        self.state.forget();
        self.sink.on_crash(lost as u64);
        self.ring
            .record(FlightKind::ServerCrash, self.me.0, lost as u64, 0);

        if self.demo_skip {
            // The intentionally-broken recovery: no replay, no catch-up —
            // and storage itself wiped, modeling a server that comes back
            // blank and immediately serves timestamp (0, 0). The monitor
            // must flag the stale reads this produces.
            self.wal.wipe();
            return;
        }
        let t0 = Instant::now();

        // Phase 1 — WAL replay: restore every register's newest durable
        // record. Every acknowledged update is covered by this (write-ahead
        // ack discipline), so the replica is already *sound* here; what it
        // may lack is freshness.
        let checkpoints = self.wal.replay();
        if !checkpoints.is_empty() {
            for (obj, val, ts) in checkpoints {
                self.state.restore(obj, val, ts);
            }
            self.sink.on_replay();
        }

        // Phase 2 — peer catch-up: ask every peer, adopt the newest of
        // `quorum − 1` answers. Exempt traffic: recovery never perturbs the
        // fault schedule.
        let needed = self.group.len() / 2;
        if needed > 0 {
            self.catchup_sn += 1;
            for &peer in self.group.iter().filter(|&&p| p != self.me) {
                self.bus.send(Envelope {
                    src: self.me,
                    dst: peer,
                    msg: Payload::StateQuery {
                        sn: self.catchup_sn,
                    },
                    exempt: true,
                    reply_to: 0,
                    span: SpanCtx::NONE,
                });
            }
            self.sink.on_state_queries(self.group.len() as u64 - 1);
        }
        self.catch_up = Some(CatchUp {
            sn: self.catchup_sn,
            needed,
            got: 0,
            best: BTreeMap::new(),
            buffered,
            crashes,
            t0,
        });
        self.end_catch_up(false);
    }

    /// A peer's answer to catch-up exchange `sn`. One to an exchange that
    /// already ended (or was aborted) is stale, ignorable.
    fn on_state_reply(&mut self, sn: u64, snap: Vec<(ObjId, Val, Ts)>) {
        let Some(c) = self.catch_up.as_mut().filter(|c| c.sn == sn) else {
            return;
        };
        c.got += 1;
        for (obj, val, ts) in snap {
            if c.best.get(&obj).is_none_or(|(_, best)| ts > *best) {
                c.best.insert(obj, (val, ts));
            }
        }
        self.end_catch_up(false);
    }

    /// Ends the catch-up under way once `needed` peers have answered — or
    /// at once when `abort`: the replayed checkpoint stands, and truncating
    /// catch-up costs freshness, never soundness. The recovery is then
    /// complete. A crash signal that arrived meanwhile crashes the replica
    /// again, handing the buffered traffic on; otherwise that traffic is
    /// served, in arrival order. Returns whether a catch-up ended.
    fn end_catch_up(&mut self, abort: bool) -> bool {
        let Some(c) = self.catch_up.take_if(|c| abort || c.got >= c.needed) else {
            return false;
        };
        if abort {
            self.sink.on_catchup_aborted();
        }
        for (obj, (val, ts)) in c.best {
            // Freshness only: install iff newer than the replayed
            // checkpoint (absorb's own rule), register by register.
            self.state.absorb(obj, val, ts);
        }
        let recovery_us = u64::try_from(c.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.sink.on_recovery(recovery_us);
        self.ring
            .record(FlightKind::ServerRecover, self.me.0, recovery_us, 0);
        if c.crashes > 0 {
            self.crash(c.buffered, c.crashes - 1);
        } else {
            for env in c.buffered {
                if let Payload::Abd(msg) = env.msg {
                    self.handle_abd(env.src, msg, env.exempt, env.reply_to, env.span);
                }
            }
        }
        true
    }
}
