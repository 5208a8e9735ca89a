//! The op-path replay: the benchmark itself walks keyed ops, on one thread,
//! through each layer's public functions in the workload's shape, and wraps
//! every call in a span.
//!
//! The runs say how fast the store is; they cannot say where the time goes
//! without timers inside the program. The replay can, from outside: it is
//! the pipelined client loop of `blunt_store::run` and the replica of
//! `blunt_runtime::server_loop` written out single-threaded over the same
//! public pieces — `HashRing`, `ActiveOp`, `BatchingTransport`, `Injector`,
//! `Frame`/`write_frame`/`read_frame` over a connected socket pair,
//! `DedupWindow`/`ReplyRouter`, `Bus`, `StoreState`, `MultiWal`,
//! `OnlineMonitor`, `FlightRing` — with the same seeded key and read/write
//! sequence client 0 of the run draws. What it leaves out is what only
//! threads have: hand-offs, timers, backoff and degraded mode. Ahead of the
//! walk, probes through a real `server_loop` thread price one such hand-off.
//!
//! Reads are checked: ops on one key never overlap in the replay, so every
//! read must return the last value the replay wrote to its key, and the
//! per-shard monitors must stay clean.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use blunt_abd::client::{AckEffect, ActiveOp, OpKind, ReplyEffect};
use blunt_abd::msg::AbdMsg;
use blunt_abd::server::StoreState;
use blunt_abd::ts::Ts;
use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::frame::{read_frame, write_frame};
use blunt_net::rpc::{DedupWindow, ReplyRouter, TagGen};
use blunt_net::{
    Coverage, Envelope, Fate, FaultConfig, Frame, Injector, Payload, SpanCtx, Stream, TaggedEnv,
    Transport, TransportStats,
};
use blunt_obs::flight::encode_val;
use blunt_obs::{FlightKind, FlightRecorder, FlightRing};
use blunt_runtime::{server_loop, Bus, MultiWal, OnlineMonitor, RecoveryMode, RecoverySink};
use blunt_sim::rng::{RandomSource, SplitMix64};
use blunt_store::{BatchingTransport, HashRing};

use crate::metrics::Layer;
use crate::span::{Span, SpanCost, Tracer};
use crate::workloads::{Tier, Workload, CLIENTS, REPLICAS, SHARDS};

/// Ops one replay walks.
pub const REPLAY_OPS: u32 = 20_000;
/// Walked ops per pair of query and update round trips through the probe
/// server. The probes come before the walk, not between its ops: a thread
/// that sleeps and wakes twice per op leaves caches and clocks in no state
/// to time calls of a hundred nanoseconds.
const OPS_PER_PROBE: u32 = 10;

const SERVERS: u32 = SHARDS * REPLICAS;
/// The replayed client: client 0 of the run.
const ME: Pid = Pid(SERVERS);
const QUORUM: u32 = REPLICAS / 2 + 1;
const BURST: u32 = 8;

/// Ops per chunk of the walk. Each layer's cost is taken per chunk and the
/// median over chunks reported, so that a spell of a slow host, which on a
/// shared box doubles every number for a second, does not set the result.
pub const CHUNK_OPS: u32 = 1000;

/// What one replay produced.
pub struct Replayed {
    pub ops: u32,
    /// Wall time of each chunk of the walk.
    pub chunk_wall_ns: Vec<u64>,
    /// Empty when the replay ran untraced.
    pub spans: Vec<Span>,
    /// What a span cost when this replay ran.
    pub span_cost: SpanCost,
}

/// The sink under the client's `BatchingTransport`: keeps every flushed
/// batch for the replay to carry to the servers itself.
#[derive(Default)]
struct Capture(Mutex<Vec<Vec<Envelope>>>);

impl Capture {
    fn take(&self) -> Vec<Vec<Envelope>> {
        std::mem::take(&mut *self.0.lock().expect("capture lock"))
    }
}

impl Transport for Capture {
    fn send(&self, env: Envelope) {
        self.send_batch(vec![env]);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        self.0.lock().expect("capture lock").push(envs);
    }

    fn flush(&self) {}

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn coverage(&self) -> Coverage {
        Coverage::default()
    }
}

/// A stream whose every `read` and `write` is a `net.conn.write_read` span,
/// so that `write_frame` and `read_frame` around it keep only the codec's
/// time as their own.
struct TracedIo<'a> {
    io: &'a mut Stream,
    t: &'a mut Tracer,
    op: u32,
}

impl Write for TracedIo<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let id = self.t.open(Layer::ConnWriteRead, self.op, 1);
        let n = self.io.write(buf);
        self.t.close(id);
        n
    }

    fn flush(&mut self) -> io::Result<()> {
        self.io.flush()
    }
}

impl Read for TracedIo<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let id = self.t.open(Layer::ConnWriteRead, self.op, 1);
        let n = self.io.read(buf);
        self.t.close(id);
        n
    }
}

/// The medium between client and replicas.
#[allow(clippy::large_enum_variant)] // one per replay, never moved
enum Medium {
    /// A real `Bus`, used for its mailbox hop only: envelopes cross it
    /// exempt, because the replay draws fates from its own injector.
    Bus {
        bus: Bus,
        mailboxes: Vec<Receiver<Envelope>>,
    },
    Uds(Sockets),
}

/// One connected socket pair per replica plus the tagged-RPC state of both
/// ends.
struct Sockets {
    /// `(client end, server end)`, index = replica pid.
    pairs: Vec<(Stream, Stream)>,
    client_tags: TagGen,
    server_tags: TagGen,
    router: ReplyRouter,
    /// The client's dedup window per server connection.
    client_dedup: Vec<DedupWindow>,
    /// Each server's dedup window on its driver connection.
    server_dedup: Vec<DedupWindow>,
}

impl Medium {
    fn is_bus(&self) -> bool {
        matches!(self, Medium::Bus { .. })
    }

    /// The socket side, on the code paths only the socket shapes take.
    fn sockets(&mut self) -> &mut Sockets {
        match self {
            Medium::Uds(sockets) => sockets,
            Medium::Bus { .. } => unreachable!("frames only cross sockets"),
        }
    }
}

struct PendingAck {
    ts: Ts,
    obj: ObjId,
    sn: u32,
    re: u64,
    span: SpanCtx,
}

/// One replica, as `server_loop` keeps it.
struct Replica {
    state: StoreState,
    wal: MultiWal,
    pending_acks: Vec<PendingAck>,
}

struct OpSpec {
    idx: u32,
    key: ObjId,
    is_read: bool,
}

struct InFlight {
    spec: OpSpec,
    inv: InvId,
    span: SpanCtx,
    shard: u32,
    op: ActiveOp,
}

/// A real `server_loop` thread fed through its mailbox, its replies caught
/// by a benchmark-side transport: the price of a server step with one
/// thread hand-off each way.
struct ServerProbe {
    tx: Sender<Envelope>,
    replies: Receiver<Envelope>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

struct ProbeSink(Sender<Envelope>);

impl Transport for ProbeSink {
    fn send(&self, env: Envelope) {
        let _ = self.0.send(env);
    }

    fn flush(&self) {}

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn coverage(&self) -> Coverage {
        Coverage::default()
    }
}

impl ServerProbe {
    fn start(mode: RecoveryMode) -> ServerProbe {
        let (tx, rx) = mpsc::channel();
        let (reply_tx, replies) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let sink = ProbeSink(reply_tx);
            server_loop(
                Pid(0),
                vec![Pid(0)],
                mode,
                rx,
                &sink,
                &thread_stop,
                &RecoverySink::default(),
                &FlightRecorder::new(4096),
            );
        });
        ServerProbe {
            tx,
            replies,
            stop,
            handle,
        }
    }

    /// One request through the server thread and its answer back. Exempt, so
    /// an amnesia-mode replica group-commits at once instead of parking the
    /// ack until its 20 ms idle flush.
    fn round_trip(&self, msg: AbdMsg) {
        self.tx
            .send(Envelope::abd(ME, Pid(0), msg, true))
            .expect("probe server is running");
        self.replies
            .recv_timeout(Duration::from_secs(10))
            .expect("probe server answers");
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        drop(self.tx);
        self.handle.join().expect("probe server thread");
    }
}

struct Replay<'a> {
    w: &'a Workload,
    t: Tracer,
    ring_map: HashRing,
    injector: Injector,
    medium: Medium,
    replicas: Vec<Replica>,
    monitors: Vec<OnlineMonitor>,
    flight: Arc<FlightRing>,
    /// The client's mailbox.
    inbox: VecDeque<Envelope>,
    sn_counter: u32,
    /// The value of the last completed write per key.
    last_written: HashMap<u32, Val>,
    /// The op whose handling is under way; spans without an envelope of
    /// their own (a flush, a frame of several ops) are filed under it.
    cur_op: u32,
}

/// Walks [`REPLAY_OPS`] ops of workload `w` through every layer.
///
/// # Errors
///
/// A read that returned anything but the last value written to its key, a
/// monitor violation, or a stalled op.
pub fn replay(w: &Workload, seed: u64, traced: bool) -> Result<Replayed, String> {
    let recorder = Arc::new(FlightRecorder::new(4096));
    let flight = recorder.register_current("replay");
    let nodes = SERVERS + CLIENTS;
    let medium = match w.tier {
        Tier::Bus => {
            let (bus, mailboxes) = Bus::new(
                seed,
                FaultConfig::none(),
                SERVERS,
                nodes,
                false,
                Arc::clone(&recorder),
            )
            .expect("no faults is a valid fault config");
            Medium::Bus { bus, mailboxes }
        }
        Tier::Uds => Medium::Uds(Sockets {
            pairs: (0..SERVERS)
                .map(|_| {
                    let (a, b) = UnixStream::pair().expect("socket pair");
                    (Stream::Uds(a), Stream::Uds(b))
                })
                .collect(),
            client_tags: TagGen::new(),
            server_tags: TagGen::new(),
            router: ReplyRouter::new(CLIENTS as usize),
            client_dedup: (0..SERVERS).map(|_| DedupWindow::new(1024)).collect(),
            server_dedup: (0..SERVERS).map(|_| DedupWindow::new(1024)).collect(),
        }),
    };
    let fsync_interval = match w.recovery() {
        RecoveryMode::Amnesia { fsync_interval, .. } => fsync_interval,
        RecoveryMode::Stable => 1,
    };
    let mut r = Replay {
        w,
        // About 150 spans an op on the socket shapes.
        t: Tracer::new(traced, REPLAY_OPS as usize * 160),
        ring_map: HashRing::new(seed, SHARDS),
        injector: Injector::new(seed, w.faults(), SERVERS, nodes, w.amnesia)
            .expect("the workload's fault config is valid"),
        medium,
        replicas: (0..SERVERS)
            .map(|_| Replica {
                state: StoreState::new(Val::Nil),
                wal: MultiWal::new(fsync_interval),
                pending_acks: Vec::new(),
            })
            .collect(),
        monitors: (0..SHARDS)
            .map(|_| OnlineMonitor::new(Val::Nil, nodes as usize))
            .collect(),
        flight,
        inbox: VecDeque::new(),
        sn_counter: 0,
        last_written: HashMap::new(),
        cur_op: 0,
    };

    let span_cost = if traced {
        r.probe_server();
        SpanCost::measure()
    } else {
        SpanCost::NONE
    };

    let capture = Capture::default();
    let bt = BatchingTransport::new(&capture, w.batch_max);
    // The run's client 0 seeds its generator exactly so.
    let mut rng = SplitMix64::new(seed ^ 0x5704_E000_0000_0000);
    let mut chunk_started = Instant::now();
    let mut chunk_wall_ns = Vec::new();
    let mut outcome = Ok(());
    let mut next = 0u32;
    while next < REPLAY_OPS && outcome.is_ok() {
        let n = BURST.min(REPLAY_OPS - next);
        let specs: VecDeque<OpSpec> = (next..next + n)
            .map(|idx| {
                let key = ObjId(u32::try_from(rng.draw(w.keys as usize)).expect("key fits u32"));
                let is_read = rng.draw(1000) < usize::from(w.read_per_mille);
                OpSpec { idx, key, is_read }
            })
            .collect();
        let root = r.t.open(Layer::Op, next, n);
        outcome = r.burst(&bt, &capture, specs);
        r.t.close(root);
        next += n;
        if next.is_multiple_of(CHUNK_OPS) {
            let now = Instant::now();
            let wall = now.duration_since(chunk_started).as_nanos();
            chunk_wall_ns.push(u64::try_from(wall).expect("a short chunk"));
            chunk_started = now;
        }
    }

    if let Medium::Bus { bus, .. } = &r.medium {
        bus.flush();
    }
    outcome?;
    for (shard, m) in r.monitors.into_iter().enumerate() {
        let report = m.finish();
        if !report.clean() {
            return Err(format!(
                "replay: shard {shard} monitor found {} violations",
                report.violations.len()
            ));
        }
    }
    Ok(Replayed {
        ops: REPLAY_OPS,
        chunk_wall_ns,
        spans: r.t.into_spans(),
        span_cost,
    })
}

impl Replay<'_> {
    /// The hand-off probes: a query and an update, each through a real
    /// server thread and back, filed under every tenth op.
    fn probe_server(&mut self) {
        let probe = ServerProbe::start(self.w.recovery());
        for i in (0..REPLAY_OPS).step_by(OPS_PER_PROBE as usize) {
            let obj = ObjId(i % self.w.keys);
            self.t.span(Layer::ServerQueryRtt, i, || {
                probe.round_trip(AbdMsg::Query { obj, sn: i });
            });
            self.t.span(Layer::ServerUpdateRtt, i, || {
                probe.round_trip(AbdMsg::Update {
                    obj,
                    sn: i,
                    val: Val::Int(i64::from(i)),
                    ts: Ts::new(i64::from(i) + 1, ME),
                });
            });
        }
        probe.stop();
    }

    fn record(&mut self, kind: FlightKind, pid: u32, a: u64, b: u64, span: SpanCtx, key: u64) {
        let flight = &self.flight;
        self.t.span(Layer::FlightRecord, self.cur_op, || {
            flight.record_span_key(kind, pid, a, b, span.flight_word(), key);
        });
    }

    fn record_deliver(&mut self, at: Pid, env: &Envelope) {
        self.record(
            FlightKind::BusDeliver,
            at.0,
            u64::from(env.src.0),
            env.msg.flight_label(),
            env.span,
            blunt_obs::flight::KEY_NONE,
        );
    }

    fn shard_for(&mut self, key: ObjId) -> u32 {
        let ring_map = &self.ring_map;
        self.t
            .span(Layer::RingShardFor, self.cur_op, || ring_map.shard_for(key))
    }

    fn observe(&mut self, shard: u32, action: Action) -> bool {
        let m = &mut self.monitors[shard as usize];
        self.t
            .span(Layer::MonitorObserve, self.cur_op, || m.observe(action))
    }

    fn broadcast(
        &mut self,
        bt: &BatchingTransport<'_>,
        shard: u32,
        msg: &AbdMsg,
        exempt: bool,
        span: SpanCtx,
    ) {
        let dsts: Vec<Pid> = (shard * REPLICAS..(shard + 1) * REPLICAS)
            .map(Pid)
            .collect();
        self.t.span(Layer::BatchSendFlush, self.cur_op, || {
            bt.broadcast_span(ME, &dsts, msg, exempt, span);
        });
    }

    /// One burst of the client loop: fill the pipeline, flush, carry what
    /// left to the replicas, handle one answer, and again.
    fn burst(
        &mut self,
        bt: &BatchingTransport<'_>,
        capture: &Capture,
        mut pending: VecDeque<OpSpec>,
    ) -> Result<(), String> {
        self.t
            .span(Layer::BatchSendFlush, self.cur_op, || bt.on_op_start(ME));
        if let Medium::Uds(sockets) = &self.medium {
            self.t.span(Layer::RpcAdmitRoute, self.cur_op, || {
                sockets.router.begin_op(0);
            });
        }
        let mut active: BTreeMap<u32, InFlight> = BTreeMap::new();
        let mut active_keys: HashSet<u32> = HashSet::new();
        let mut idle_rounds = 0;
        loop {
            while active.len() < self.w.pipeline_depth as usize {
                // First startable spec front to back, as the client scans:
                // one ring lookup per spec it looks at.
                let mut pos = None;
                for (i, s) in pending.iter().enumerate() {
                    if active_keys.contains(&s.key.0) {
                        continue;
                    }
                    self.cur_op = s.idx;
                    self.shard_for(s.key);
                    pos = Some(i);
                    break;
                }
                let Some(pos) = pos else { break };
                let spec = pending.remove(pos).expect("position from this deque");
                let fl = self.start_op(bt, spec);
                active_keys.insert(fl.spec.key.0);
                active.insert(self.sn_counter, fl);
            }
            if active.is_empty() {
                return Ok(());
            }
            self.t
                .span(Layer::BatchSendFlush, self.cur_op, || bt.flush_pending());
            for batch in capture.take() {
                self.carry_to_servers(batch);
            }
            let Some(env) = self.inbox.pop_front() else {
                // Nothing came back. What a running system's timers would do
                // next: replicas group-commit on idle and release the acks
                // they withheld; if that frees nothing, the client's
                // retransmission timeout fires.
                idle_rounds += 1;
                if idle_rounds > 3 {
                    return Err(format!(
                        "replay: op {} made no progress",
                        active
                            .values()
                            .next()
                            .expect("active is not empty")
                            .spec
                            .idx
                    ));
                }
                for pid in 0..SERVERS {
                    self.flush_wal(Pid(pid));
                }
                if self.inbox.is_empty() {
                    let stalled: Vec<(u32, AbdMsg, SpanCtx, u32)> = active
                        .values()
                        .filter_map(|fl| {
                            let msg = fl.op.retransmission()?;
                            Some((fl.shard, msg, fl.span, fl.spec.idx))
                        })
                        .collect();
                    for (shard, msg, span, idx) in stalled {
                        self.cur_op = idx;
                        self.broadcast(bt, shard, &msg, true, span);
                    }
                }
                continue;
            };
            idle_rounds = 0;
            self.on_client_message(bt, env, &mut active, &mut active_keys)?;
        }
    }

    fn start_op(&mut self, bt: &BatchingTransport<'_>, spec: OpSpec) -> InFlight {
        self.cur_op = spec.idx;
        self.sn_counter += 1;
        let sn = self.sn_counter;
        let inv = InvId(u64::from(ME.0) * 10_000_000 + u64::from(spec.idx));
        let shard = self.shard_for(spec.key);
        let (method, arg) = if spec.is_read {
            (MethodId::READ, Val::Nil)
        } else {
            (MethodId::WRITE, Val::Int(i64::from(spec.idx)))
        };
        self.observe(
            shard,
            Action::Call {
                inv,
                pid: ME,
                obj: spec.key,
                method,
                arg: arg.clone(),
            },
        );
        let span = SpanCtx::request(ME.0, inv.0);
        self.record(
            if spec.is_read {
                FlightKind::OpStartRead
            } else {
                FlightKind::OpStartWrite
            },
            ME.0,
            inv.0,
            encode_val(match &arg {
                Val::Int(v) => Some(*v),
                _ => None,
            }),
            span,
            u64::from(spec.key.0),
        );
        let kind = if spec.is_read {
            OpKind::Read
        } else {
            OpKind::Write(arg)
        };
        let key = spec.key;
        let op = self.t.span(Layer::ClientStep, spec.idx, || {
            ActiveOp::start(inv, key, kind, 1, sn)
        });
        self.broadcast(bt, shard, &AbdMsg::Query { obj: key, sn }, false, span);
        InFlight {
            spec,
            inv,
            span,
            shard,
            op,
        }
    }

    /// The client's half of `store_client_loop`'s receive arm.
    fn on_client_message(
        &mut self,
        bt: &BatchingTransport<'_>,
        env: Envelope,
        active: &mut BTreeMap<u32, InFlight>,
        active_keys: &mut HashSet<u32>,
    ) -> Result<(), String> {
        self.record_deliver(ME, &env);
        let Payload::Abd(msg) = env.msg else {
            return Ok(());
        };
        // A stale round's answer finds no op under its sn and ends here.
        let Some(mut fl) = active.remove(&msg.sn()) else {
            return Ok(());
        };
        self.cur_op = fl.spec.idx;
        match msg {
            AbdMsg::Reply { obj, sn, val, ts } => {
                let (op, sn_counter) = (&mut fl.op, &mut self.sn_counter);
                let effect = self.t.span(Layer::ClientStep, fl.spec.idx, || {
                    op.on_reply(env.src, sn, &val, ts, QUORUM, ME, sn_counter)
                });
                match effect {
                    ReplyEffect::StartUpdate {
                        sn: new_sn,
                        val,
                        ts,
                        ..
                    } => {
                        let update = AbdMsg::Update {
                            obj,
                            sn: new_sn,
                            val,
                            ts,
                        };
                        self.broadcast(bt, fl.shard, &update, false, fl.span);
                        active.insert(new_sn, fl);
                    }
                    ReplyEffect::Ignored | ReplyEffect::Counted => {
                        active.insert(sn, fl);
                    }
                    ReplyEffect::NextQuery { .. } | ReplyEffect::NeedChoice { .. } => {
                        unreachable!("the store runs plain ABD, k = 1")
                    }
                }
            }
            AbdMsg::Ack { sn, .. } => {
                let op = &mut fl.op;
                let effect = self.t.span(Layer::ClientStep, fl.spec.idx, || {
                    op.on_ack(env.src, sn, QUORUM)
                });
                match effect {
                    AckEffect::Complete { ret } => {
                        active_keys.remove(&fl.spec.key.0);
                        self.complete(&fl, ret)?;
                    }
                    AckEffect::Ignored | AckEffect::Counted => {
                        active.insert(sn, fl);
                    }
                }
            }
            AbdMsg::Query { .. } | AbdMsg::Update { .. } => {}
        }
        Ok(())
    }

    fn complete(&mut self, fl: &InFlight, ret: Val) -> Result<(), String> {
        let kind = if fl.spec.is_read {
            FlightKind::OpCompleteRead
        } else {
            FlightKind::OpCompleteWrite
        };
        self.record(
            kind,
            ME.0,
            fl.inv.0,
            encode_val(match &ret {
                Val::Int(v) => Some(*v),
                _ => None,
            }),
            fl.span,
            u64::from(fl.spec.key.0),
        );
        let key = fl.spec.key.0;
        if fl.spec.is_read {
            let expected = self.last_written.get(&key).unwrap_or(&Val::Nil);
            if ret != *expected {
                return Err(format!(
                    "replay: op {} read {ret:?} from key {key}, last write was {expected:?}",
                    fl.spec.idx
                ));
            }
        } else {
            self.last_written
                .insert(key, Val::Int(i64::from(fl.spec.idx)));
        }
        if !self.observe(
            fl.shard,
            Action::Return {
                inv: fl.inv,
                val: ret,
            },
        ) {
            return Err(format!(
                "replay: op {} closed a segment that does not linearize",
                fl.spec.idx
            ));
        }
        Ok(())
    }

    /// Draws the fate of one first transmission and says how many copies of
    /// it arrive. A crash window's exit crashes and recovers its replica
    /// first, as the amnesia signal ahead of the message would.
    fn copies(&mut self, env: &Envelope) -> usize {
        if env.exempt {
            return 1;
        }
        let (injector, src, dst) = (&mut self.injector, env.src, env.dst);
        let (fate, signal) = self.t.span(Layer::InjectorDecide, self.cur_op, || {
            injector.decide(src, dst)
        });
        if let Some((crashed, _window)) = signal {
            self.crash_and_recover(crashed);
        }
        match fate {
            // One thread has no concurrent message to overtake or to wait
            // behind: a reordered or delayed message simply arrives.
            Fate::Deliver | Fate::Reorder | Fate::Delay(_) => 1,
            Fate::Duplicate => 2,
            Fate::Drop | Fate::CrashDrop { .. } | Fate::PartitionDrop { .. } => 0,
        }
    }

    fn op_of(env: &Envelope, fallback: u32) -> u32 {
        if env.span.is_none() {
            fallback
        } else {
            u32::try_from(env.span.op % 10_000_000).expect("op index fits u32")
        }
    }

    /// One flushed batch from the client to the replicas: a fate per
    /// envelope in send order, then the medium — mailbox by mailbox on the
    /// bus, one `EnvBatch` frame per destination on sockets.
    fn carry_to_servers(&mut self, batch: Vec<Envelope>) {
        let mut per_dst: Vec<(Pid, Vec<TaggedEnv>)> = Vec::new();
        for env in batch {
            self.cur_op = Self::op_of(&env, self.cur_op);
            let dst = env.dst;
            if self.medium.is_bus() {
                for _ in 0..self.copies(&env) {
                    let arrived = self.bus_hop(env.clone());
                    self.on_server_message(dst, arrived);
                }
                continue;
            }
            self.record(
                FlightKind::BusSend,
                env.src.0,
                u64::from(dst.0),
                env.msg.flight_label(),
                env.span,
                blunt_obs::flight::KEY_NONE,
            );
            let sockets = self.medium.sockets();
            let tag = self.t.span(Layer::RpcAdmitRoute, self.cur_op, || {
                let tag = sockets.client_tags.next();
                sockets.router.register(0, tag);
                tag
            });
            let re = if env.exempt { env.reply_to } else { 0 };
            let copies = self.copies(&env);
            let entry = TaggedEnv {
                tag,
                re,
                env: Envelope { reply_to: 0, ..env },
            };
            let bucket = match per_dst.iter_mut().find(|(d, _)| *d == dst) {
                Some((_, b)) => b,
                None => {
                    per_dst.push((dst, Vec::new()));
                    &mut per_dst.last_mut().expect("just pushed").1
                }
            };
            for _ in 0..copies {
                bucket.push(entry.clone());
            }
        }
        for (dst, entries) in per_dst {
            if entries.is_empty() {
                continue;
            }
            let Frame::EnvBatch { entries } = self.wire(dst, true, Frame::EnvBatch { entries })
            else {
                unreachable!("a frame decodes to its own kind")
            };
            for e in entries {
                self.cur_op = Self::op_of(&e.env, self.cur_op);
                let window = &mut self.medium.sockets().server_dedup[dst.index()];
                let fresh = self
                    .t
                    .span(Layer::RpcAdmitRoute, self.cur_op, || window.admit(e.tag));
                if fresh {
                    self.on_server_message(dst, e.env.in_reply_to(e.tag));
                }
            }
        }
    }

    /// `Bus::send` into the destination's mailbox and `recv` out of it.
    fn bus_hop(&mut self, env: Envelope) -> Envelope {
        let Medium::Bus { bus, mailboxes } = &self.medium else {
            unreachable!("only the bus medium hops mailboxes")
        };
        let (exempt, dst) = (env.exempt, env.dst);
        let mut arrived = self.t.span(Layer::BusSendRecv, self.cur_op, || {
            bus.send(Envelope {
                exempt: true,
                ..env
            });
            mailboxes[dst.index()]
                .try_recv()
                .expect("an exempt envelope is enqueued at once")
        });
        arrived.exempt = exempt;
        arrived
    }

    /// One frame over replica `peer`'s socket pair, towards the server or
    /// back: `write_frame` on one end, `read_frame` on the other.
    fn wire(&mut self, peer: Pid, to_server: bool, frame: Frame) -> Frame {
        let units = match &frame {
            Frame::EnvBatch { entries } => u32::try_from(entries.len()).expect("a small batch"),
            _ => 1,
        };
        let (client_end, server_end) = &mut self.medium.sockets().pairs[peer.index()];
        let (from, to) = if to_server {
            (client_end, server_end)
        } else {
            (server_end, client_end)
        };
        let op = self.cur_op;
        let id = self.t.open(Layer::FrameEncode, op, units);
        write_frame(
            &mut TracedIo {
                io: from,
                t: &mut self.t,
                op,
            },
            &frame,
        )
        .expect("write to a connected socket pair");
        self.t.close(id);
        let id = self.t.open(Layer::FrameDecode, op, units);
        let arrived = read_frame(&mut TracedIo {
            io: to,
            t: &mut self.t,
            op,
        })
        .expect("read from a connected socket pair")
        .expect("the frame just written");
        self.t.close(id);
        arrived
    }

    /// `server_loop`'s handling of one protocol message at replica `me`.
    fn on_server_message(&mut self, me: Pid, env: Envelope) {
        self.record_deliver(me, &env);
        let (src, exempt, re, span) = (env.src, env.exempt, env.reply_to, env.span);
        let Payload::Abd(msg) = env.msg else { return };
        let answer = |msg: AbdMsg, exempt: bool| {
            Envelope::abd(me, src, msg, exempt)
                .in_reply_to(re)
                .with_span(span.reply())
        };
        let op = self.cur_op;
        match msg {
            AbdMsg::Query { obj, sn } => {
                let state = &self.replicas[me.index()].state;
                let reply = self.t.span(Layer::ServerStep, op, || state.reply(obj, sn));
                self.carry_to_client(answer(reply, exempt));
            }
            AbdMsg::Update { obj, sn, val, ts } => {
                let replica = &mut self.replicas[me.index()];
                let state = &mut replica.state;
                let logged = val.clone();
                self.t
                    .span(Layer::ServerStep, op, || state.absorb(obj, val, ts));
                if !self.w.amnesia {
                    self.record_ack(me, src, sn, span);
                    self.carry_to_client(answer(AbdMsg::Ack { obj, sn }, exempt));
                } else if replica.wal.durable_ts(obj) >= ts {
                    // Amnesia-mode acks are always exempt.
                    self.record_ack(me, src, sn, span);
                    self.carry_to_client(answer(AbdMsg::Ack { obj, sn }, true));
                } else {
                    // Write-ahead: log first, ack after the covering fsync.
                    let wal = &mut replica.wal;
                    self.t
                        .span(Layer::StorageAppend, op, || wal.append(obj, logged, ts));
                    replica.pending_acks.push(PendingAck {
                        ts,
                        obj,
                        sn,
                        re,
                        span,
                    });
                    if replica.wal.batch_full() {
                        self.flush_wal(me);
                    }
                }
            }
            AbdMsg::Reply { .. } | AbdMsg::Ack { .. } => {}
        }
    }

    fn record_ack(&mut self, me: Pid, dst: Pid, sn: u32, span: SpanCtx) {
        self.record(
            FlightKind::ServerAck,
            me.0,
            u64::from(dst.0),
            u64::from(sn),
            span,
            blunt_obs::flight::KEY_NONE,
        );
    }

    /// Group commit at replica `me`, then every ack the new durable
    /// frontier covers.
    fn flush_wal(&mut self, me: Pid) {
        let replica = &mut self.replicas[me.index()];
        if replica.pending_acks.is_empty() {
            return;
        }
        let wal = &mut replica.wal;
        self.t
            .span(Layer::StorageFsync, self.cur_op, || wal.fsync());
        let wal = &replica.wal;
        let (covered, parked): (Vec<_>, Vec<_>) = std::mem::take(&mut replica.pending_acks)
            .into_iter()
            .partition(|a| a.ts <= wal.durable_ts(a.obj));
        replica.pending_acks = parked;
        for a in covered {
            self.record_ack(me, ME, a.sn, a.span);
            self.carry_to_client(
                Envelope::abd(
                    me,
                    ME,
                    AbdMsg::Ack {
                        obj: a.obj,
                        sn: a.sn,
                    },
                    true,
                )
                .in_reply_to(a.re)
                .with_span(a.span.reply()),
            );
        }
    }

    /// A replica's answer on its way back: a fate unless exempt, then the
    /// medium — the client's mailbox on the bus, one `Env` frame, the
    /// client's dedup window and the reply router on sockets.
    fn carry_to_client(&mut self, env: Envelope) {
        let src = env.src;
        if self.medium.is_bus() {
            for _ in 0..self.copies(&env) {
                let arrived = self.bus_hop(env.clone());
                self.inbox.push_back(arrived);
            }
            return;
        }
        self.record(
            FlightKind::BusSend,
            src.0,
            u64::from(env.dst.0),
            env.msg.flight_label(),
            env.span,
            blunt_obs::flight::KEY_NONE,
        );
        let frame = Frame::Env {
            tag: self.medium.sockets().server_tags.next(),
            re: env.reply_to,
            env: Envelope {
                reply_to: 0,
                ..env.clone()
            },
        };
        for _ in 0..self.copies(&env) {
            let Frame::Env { tag, re, env } = self.wire(src, false, frame.clone()) else {
                unreachable!("a frame decodes to its own kind")
            };
            let sockets = self.medium.sockets();
            let lane = self.t.span(Layer::RpcAdmitRoute, self.cur_op, || {
                if sockets.client_dedup[src.index()].admit(tag) {
                    sockets.router.route(re)
                } else {
                    None
                }
            });
            if lane.is_some() {
                self.inbox.push_back(env.in_reply_to(tag));
            }
        }
    }

    /// An amnesia crash of replica `me` and its recovery, as `server_loop`
    /// runs it: the unsynced WAL suffix, the withheld acks and all volatile
    /// state are gone; WAL replay restores what was acknowledged, and the
    /// shard's other replicas supply what is newer. Not priced by a span:
    /// the runs count recoveries, the replay only has to survive them.
    fn crash_and_recover(&mut self, me: Pid) {
        let base = me.0 / REPLICAS * REPLICAS;
        let peers: Vec<_> = (base..base + REPLICAS)
            .filter(|p| *p != me.0)
            .flat_map(|p| self.replicas[p as usize].state.snapshot_all())
            .collect();
        let replica = &mut self.replicas[me.index()];
        replica.wal.lose_unsynced();
        replica.pending_acks.clear();
        replica.state.forget();
        for (obj, val, ts) in replica.wal.replay() {
            replica.state.restore(obj, val, ts);
        }
        for (obj, val, ts) in peers {
            replica.state.absorb(obj, val, ts);
        }
        if let Medium::Uds(sockets) = &mut self.medium {
            sockets.server_dedup[me.index()].reset();
        }
    }
}
