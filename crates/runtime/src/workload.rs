//! The workload driver: real OS threads running the ABD client/server step
//! machines over a fault-injecting [`Transport`] (the in-process [`Bus`] or
//! the socket tier — see `crate::netrun`), observed by the
//! [`OnlineMonitor`].
//!
//! Topology: pids `0..servers` are server threads, `servers..servers+clients`
//! are client threads. Clients issue `ops_per_client` sequential register
//! operations each, reporting `Call` before the first broadcast and `Return`
//! after the quorum completes; per-op latency goes into a thread-local
//! [`Histogram`] that is [`Histogram::merge`]d into the shared one exactly
//! once at thread exit (no hot-path contention).
//!
//! Liveness under faults comes from retransmission: when a client waits
//! longer than its current backoff for a response, it rebroadcasts the
//! in-flight exchange ([`ActiveOp::retransmission`]) as an *exempt* message
//! that bypasses the injector. The backoff is deterministic exponential —
//! starting at `retransmit_after`, doubling per consecutive timeout, capped
//! at `retransmit_cap`, reset by any received message — so a crashed or
//! slow quorum is probed geometrically rather than hammered. Exempt traffic
//! consumes no fault-schedule indices, keeping the schedule a pure function
//! of the seed.
//!
//! **Crash recovery.** Under [`RecoveryMode::Amnesia`] every server keeps a
//! write-ahead log ([`MultiWal`]) and obeys the *write-ahead ack discipline*: an
//! update is acknowledged only once a WAL record with a timestamp covering
//! it is fsynced (group commit: a batch fills, the server goes idle, or an
//! exempt retransmission applies pressure). When the bus raises the amnesia
//! signal ([`Payload::Crash`]) at a crash window's exit, the server erases
//! its volatile state and its unsynced WAL suffix, then recovers — the
//! blackout window models the outage itself; the power loss materializes at
//! the reboot, when peers are reachable again for catch-up and the
//! recovered (or, under `--demo-amnesia`, unrecovered) state is actually
//! observable by clients. Recovery: replay the durable checkpoint, then
//! catch up from `quorum − 1` peers via exempt [`Payload::StateQuery`]
//! state transfer (mirroring the ABD read phase) before serving buffered
//! traffic. The discipline makes replay alone sound — every *acked* update
//! is durable, and unacked state a reader observed is re-made durable by
//! that reader's own write-back quorum — so concurrent recoveries need no
//! coordination; the catch-up phase only restores freshness. The argument
//! lives in `docs/RUNTIME.md`.
//!
//! Clients run in barrier-separated **bursts** of `burst` ops: at each
//! barrier every in-flight operation has returned, so the monitor is
//! guaranteed a cut at least every `clients × burst` invocations — kept
//! under the checker's 64-invocation window by construction (asserted).

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use blunt_abd::client::{AckEffect, ActiveOp, OpKind, ReplyEffect};
use blunt_abd::msg::AbdMsg;
use blunt_abd::server::StoreState;
use blunt_abd::ts::Ts;
use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_obs::flight::{encode_val, KEY_NONE};
use blunt_obs::{
    FlightDump, FlightKind, FlightRecorder, FlightRing, Histogram, HistogramSnapshot,
    QuantileSketch,
};
use blunt_sim::rng::{RandomSource, SplitMix64};

use blunt_net::{SpanCtx, Transport};

use crate::bus::{Bus, BusStats, Envelope, Payload};
use crate::coverage::Coverage;
use crate::fault::{FaultConfig, FaultConfigError};
use crate::monitor::{MonitorReport, OnlineMonitor};
use crate::recovery::{RecoveryMode, RecoverySink, RecoveryStats};
use crate::storage::MultiWal;

/// Configuration of one chaos run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of ABD server threads (replicas). Quorum is `⌊n/2⌋ + 1`.
    pub servers: u32,
    /// Number of client threads.
    pub clients: u32,
    /// Operations issued by each client.
    pub ops_per_client: u64,
    /// Preamble iterations (`k = 1` is plain ABD; `k = 2` is O² of
    /// Algorithm 2).
    pub k: u32,
    /// Ops per client between barriers. `clients × burst ≤ 64` is required
    /// (the monitor's window bound).
    pub burst: u64,
    /// Number of distinct registers (keys) the clients operate on, drawn
    /// uniformly per op from the client's seeded stream. `keys = 1` is the
    /// classic single-register workload and consumes **no** extra rng
    /// draws, so pre-keyed seeds replay byte-identically.
    pub keys: u32,
    /// ‰ of operations that are reads.
    pub read_per_mille: u16,
    /// The run seed: fault schedule, op mix, and object random choices all
    /// derive from it.
    pub seed: u64,
    /// Fault mix.
    pub faults: FaultConfig,
    /// Replace reads with the intentionally-broken single-server fast read
    /// (no quorum, no write-back) — the monitor must catch this.
    pub broken_reads: bool,
    /// Initial client wait for a response before retransmitting; doubles
    /// per consecutive timeout.
    pub retransmit_after: Duration,
    /// Upper bound on the exponential backoff.
    pub retransmit_cap: Duration,
    /// What a crash means for server state (see [`RecoveryMode`]).
    pub recovery: RecoveryMode,
    /// Emit a live progress snapshot to stderr every interval (`None` =
    /// silent). Read-only observation: never perturbs the fault schedule.
    pub watch: Option<Duration>,
    /// Mirror the watch snapshots as machine-readable JSONL to this path
    /// (schema-versioned; one `watch_tick` record per tick). Works with or
    /// without the stderr `watch` line; ticks use the `watch` interval when
    /// set, the default cadence otherwise.
    pub watch_out: Option<PathBuf>,
    /// Watchdog: if no operation completes for this long, mark the run
    /// stalled and capture a flight dump (written under
    /// [`RuntimeConfig::flight_dump_dir`] when set).
    pub stall_after: Option<Duration>,
    /// Directory for watchdog stall dumps (`stall.flight.jsonl` plus a
    /// rendered `stall.diagram.txt`). `None` keeps the stall in-memory only.
    pub flight_dump_dir: Option<PathBuf>,
}

impl RuntimeConfig {
    /// A small smoke configuration: faults on, a few thousand ops.
    #[must_use]
    pub fn smoke(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            servers: 3,
            clients: 4,
            ops_per_client: 500,
            k: 1,
            burst: 8,
            keys: 1,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::chaos(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            watch: None,
            watch_out: None,
            stall_after: Some(Duration::from_secs(60)),
            flight_dump_dir: None,
        }
    }

    /// The acceptance soak shape: ≥ 8 clients, ≥ 100k total ops, full fault
    /// mix.
    #[must_use]
    pub fn soak(seed: u64, k: u32) -> RuntimeConfig {
        RuntimeConfig {
            servers: 3,
            clients: 8,
            ops_per_client: 13_000,
            k,
            burst: 4,
            keys: 1,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::chaos(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            watch: None,
            watch_out: None,
            stall_after: Some(Duration::from_secs(60)),
            flight_dump_dir: None,
        }
    }

    /// The smoke shape with amnesia crashes and sound recovery.
    #[must_use]
    pub fn smoke_amnesia(seed: u64) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::smoke(seed);
        cfg.recovery = RecoveryMode::amnesia();
        cfg
    }

    /// The acceptance soak shape with amnesia crashes and sound recovery.
    #[must_use]
    pub fn soak_amnesia(seed: u64, k: u32) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::soak(seed, k);
        cfg.recovery = RecoveryMode::amnesia();
        cfg
    }
}

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
    /// the frontier (timing-dependent).
    pub lag_ops_hwm: u64,
}

/// Live counters shared with the watch/watchdog thread. Pure observation:
/// nothing here feeds back into scheduling or the fault plan.
pub(crate) struct Telemetry {
    /// Operations completed so far.
    ops: AtomicU64,
    /// Operations invoked but not yet returned.
    in_flight: AtomicU64,
    /// Actions enqueued to the monitor channel.
    actions_sent: AtomicU64,
    /// Actions the monitor has observed.
    actions_seen: AtomicU64,
    /// Streaming per-op latency (µs), mergeable across threads.
    sketch: QuantileSketch,
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        Telemetry {
            ops: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            actions_sent: AtomicU64::new(0),
            actions_seen: AtomicU64::new(0),
            sketch: QuantileSketch::new(),
        }
    }

    /// Actions the monitor has observed (for the report's overhead block).
    pub(crate) fn actions_seen(&self) -> u64 {
        self.actions_seen.load(Ordering::Relaxed)
    }
}

/// The outcome of a chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// Operations completed (= `clients × ops_per_client`).
    pub ops: u64,
    /// Deterministic fault counters from the bus.
    pub bus: BusStats,
    /// Which fault patterns the schedule actually exercised, per link
    /// (deterministic for a fixed seed and configuration).
    pub coverage: Coverage,
    /// The monitor's verdict.
    pub monitor: MonitorReport,
    /// What the monitor cost (`actions` deterministic, times not).
    pub monitor_overhead: MonitorOverhead,
    /// The flight-recorder window captured at the *first* monitor
    /// violation (`None` on clean runs).
    pub violation_dump: Option<FlightDump>,
    /// `true` iff the watchdog saw no completed operation for
    /// [`RuntimeConfig::stall_after`].
    pub stalled: bool,
    /// Crash-recovery counters (`crashes`/`recoveries` deterministic, the
    /// WAL-shaped ones timing-dependent — see [`RecoveryStats`]).
    pub recovery: RecoveryStats,
    /// Exempt rebroadcasts issued (timing-dependent; excluded from
    /// regression gating).
    pub retransmissions: u64,
    /// Merged per-op latency distribution, in microseconds.
    pub latency_us: HistogramSnapshot,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-server remote state — clock offset, last telemetry snapshot,
    /// goodbye-piggybacked dump — in multi-process runs (index = server
    /// pid). Empty for in-process runs, where no state is remote.
    pub remote_servers: Vec<blunt_net::RemoteServer>,
    /// The cross-process merged flight dump (driver events plus every
    /// remote server's dump, clock-aligned and process-labeled).
    /// `None` for in-process runs — the ordinary flight recorder already
    /// sees every event there.
    pub merged_flight: Option<FlightDump>,
}

impl ChaosReport {
    /// Throughput in completed operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }
}

fn client_rng(seed: u64, client: u32) -> SplitMix64 {
    SplitMix64::new(
        seed ^ 0xC11E_4775_0000_0000 ^ u64::from(client).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Runs one seeded chaos configuration to completion.
///
/// # Errors
///
/// Returns a [`FaultConfigError`] when `cfg.faults` is unusable for this
/// topology (overlapping crash stagger, zero periods, oversubscribed
/// rates) — the numbers are in the error.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no servers/clients/ops) or if
/// `clients × burst` exceeds the monitor's 64-invocation window bound —
/// programmer errors, unlike the recoverable fault-config validation.
pub fn run_chaos(cfg: &RuntimeConfig) -> Result<ChaosReport, FaultConfigError> {
    assert!(cfg.servers >= 1 && cfg.clients >= 1 && cfg.ops_per_client >= 1);
    assert!(cfg.k >= 1, "ABD^k requires k ≥ 1");
    assert!(cfg.burst >= 1);
    assert!(
        cfg.keys >= 1,
        "the keyed workload needs at least one register"
    );
    assert!(
        u64::from(cfg.clients) * cfg.burst <= 64,
        "clients × burst must fit the monitor's 64-invocation window"
    );
    let started = Instant::now();
    let nodes = cfg.servers + cfg.clients;
    let quorum = cfg.servers / 2 + 1;
    let recorder = Arc::new(FlightRecorder::new(4096));
    let (bus, receivers) = Bus::new(
        cfg.seed,
        cfg.faults,
        cfg.servers,
        nodes,
        cfg.recovery.is_amnesia(),
        Arc::clone(&recorder),
    )?;
    let bus = Arc::new(bus);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.clients as usize));
    let retransmissions = Arc::new(AtomicU64::new(0));
    let recovery_sink = Arc::new(RecoverySink::default());
    let latency = Histogram::unregistered();
    let telemetry = Arc::new(Telemetry::new());

    let (mon_tx, mon_rx) = mpsc::channel::<Action>();
    let monitor = spawn_monitor(
        Arc::clone(&recorder),
        Arc::clone(&telemetry),
        nodes as usize,
        mon_rx,
    );

    let (watch_stop_tx, watch_stop_rx) = mpsc::channel::<()>();
    let stalled = Arc::new(AtomicBool::new(false));
    let watcher = if cfg.watch.is_some() || cfg.watch_out.is_some() || cfg.stall_after.is_some() {
        let telemetry = Arc::clone(&telemetry);
        let recorder = Arc::clone(&recorder);
        let sink = Arc::clone(&recovery_sink);
        let stalled = Arc::clone(&stalled);
        let cfg = cfg.clone();
        Some(thread::spawn(move || {
            watch_loop(
                &cfg,
                started,
                &telemetry,
                &recorder,
                &sink,
                &stalled,
                &watch_stop_rx,
                None,
            );
        }))
    } else {
        None
    };

    let mut rx_iter = receivers.into_iter();
    let mut servers = Vec::new();
    for s in 0..cfg.servers {
        let rx = rx_iter.next().expect("one receiver per node");
        let bus = Arc::clone(&bus);
        let stop = Arc::clone(&stop);
        let sink = Arc::clone(&recovery_sink);
        let recorder = Arc::clone(&recorder);
        let mode = cfg.recovery;
        // Single-shard topology: every server replicates with every other.
        let group: Vec<Pid> = (0..cfg.servers).map(Pid).collect();
        servers.push(thread::spawn(move || {
            server_loop(
                Pid(s),
                group,
                mode,
                rx,
                bus.as_ref(),
                &stop,
                &sink,
                &recorder,
            );
        }));
    }
    let mut clients = Vec::new();
    for c in 0..cfg.clients {
        let rx = rx_iter.next().expect("one receiver per node");
        let bus = Arc::clone(&bus);
        let barrier = Arc::clone(&barrier);
        let retransmissions = Arc::clone(&retransmissions);
        let latency = latency.clone();
        let mon_tx = mon_tx.clone();
        let recorder = Arc::clone(&recorder);
        let telemetry = Arc::clone(&telemetry);
        let cfg = cfg.clone();
        clients.push(thread::spawn(move || {
            client_loop(
                c,
                &cfg,
                quorum,
                rx,
                bus.as_ref(),
                &barrier,
                &mon_tx,
                &retransmissions,
                &latency,
                &recorder,
                &telemetry,
            );
        }));
    }
    drop(mon_tx);

    for c in clients {
        c.join().expect("client thread");
    }
    // Every amnesia signal is enqueued synchronously inside a client's send,
    // so by this point all crash events are in server mailboxes; servers
    // drain them before honoring `stop`, which keeps the recovery counters
    // deterministic.
    stop.store(true, Ordering::Relaxed);
    for s in servers {
        s.join().expect("server thread");
    }
    bus.flush();
    let (monitor, observe_ns, lag_ops_hwm, violation_dump) =
        monitor.join().expect("monitor thread");
    drop(watch_stop_tx);
    if let Some(w) = watcher {
        w.join().expect("watch thread");
    }

    let ops = u64::from(cfg.clients) * cfg.ops_per_client;
    blunt_obs::static_counter!("runtime.ops.completed").add(ops);
    Ok(ChaosReport {
        ops,
        bus: bus.stats(),
        coverage: bus.coverage(),
        monitor,
        monitor_overhead: MonitorOverhead {
            actions: telemetry.actions_seen.load(Ordering::Relaxed),
            observe_ns,
            lag_ops_hwm,
        },
        violation_dump,
        stalled: stalled.load(Ordering::Relaxed),
        recovery: recovery_sink.snapshot(),
        retransmissions: retransmissions.load(Ordering::Relaxed),
        latency_us: latency.snapshot(),
        elapsed: started.elapsed(),
        remote_servers: Vec::new(),
        merged_flight: None,
    })
}

/// Spawns the online-monitor thread: it consumes the action stream, feeds
/// the incremental checker, and captures a flight dump at the first
/// violation. Returns `(report, observe_ns, lag_hwm, dump)` on join.
/// Shared by the in-process and multi-process drivers.
pub(crate) fn spawn_monitor(
    recorder: Arc<FlightRecorder>,
    telemetry: Arc<Telemetry>,
    lanes: usize,
    mon_rx: Receiver<Action>,
) -> thread::JoinHandle<(MonitorReport, u64, u64, Option<FlightDump>)> {
    thread::spawn(move || {
        let ring = recorder.register_current("monitor");
        let mon_pid = u32::try_from(lanes).expect("node count fits u32");
        let mut m = OnlineMonitor::new(Val::Nil, lanes);
        let mut observe_ns: u64 = 0;
        let mut lag_hwm: u64 = 0;
        let mut cuts: u64 = 0;
        let mut dump: Option<FlightDump> = None;
        while let Ok(a) = mon_rx.recv() {
            let t0 = Instant::now();
            let ok = m.observe(a);
            observe_ns = observe_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let seen = telemetry.actions_seen.fetch_add(1, Ordering::Relaxed) + 1;
            let lag = telemetry
                .actions_sent
                .load(Ordering::Relaxed)
                .saturating_sub(seen);
            lag_hwm = lag_hwm.max(lag);
            let checked = m.segments_checked();
            if checked > cuts {
                cuts = checked;
                ring.record(FlightKind::MonitorCut, mon_pid, checked, 0);
            }
            if !ok {
                if dump.is_none() {
                    // A lagging monitor may flag a window whose op
                    // events the clients' bounded rings have already
                    // evicted — replay the window into this ring so
                    // the dump always carries its own evidence.
                    if let Some(v) = m.violations().last() {
                        replay_window(&ring, v.window.actions());
                    }
                }
                ring.record(
                    FlightKind::MonitorViolation,
                    mon_pid,
                    m.violations_found().saturating_sub(1),
                    0,
                );
                if dump.is_none() {
                    // Capture now, while the offending ops are still
                    // in the rings.
                    dump = Some(recorder.dump());
                }
            }
        }
        (m.finish(), observe_ns, lag_hwm, dump)
    })
}

/// Re-records a violation window's actions into the monitor's ring,
/// attributed to their original client pids. By the time a lagging monitor
/// closes and rejects a segment, the clients may have recorded thousands
/// of newer events — enough to evict the offending ops from their bounded
/// rings — so the dump taken at detection replays the window itself
/// (≤ 64 invocations) immediately before the `monitor_violation` marker.
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

/// Schema version of the `--watch-out` JSONL mirror: a `chaos_watch`
/// header record followed by one `watch_tick` record per tick.
pub const WATCH_SCHEMA_VERSION: u64 = 1;

/// The combined watch/watchdog thread: prints a progress line every
/// [`RuntimeConfig::watch`] interval, mirrors it as JSONL to
/// [`RuntimeConfig::watch_out`], and captures a flight dump if no
/// operation completes for [`RuntimeConfig::stall_after`]. Exits when the
/// run drops its end of `stop_rx`. `remote_recoveries` lets multi-process
/// drivers fold live server-side telemetry into the recovery count (the
/// driver's own sink never sees a remote server's crashes).
#[allow(clippy::too_many_arguments)] // a thread entry point, not an API
pub(crate) fn watch_loop(
    cfg: &RuntimeConfig,
    started: Instant,
    t: &Telemetry,
    recorder: &FlightRecorder,
    sink: &RecoverySink,
    stalled: &AtomicBool,
    stop_rx: &Receiver<()>,
    remote_recoveries: Option<&(dyn Fn() -> u64 + Send + Sync)>,
) {
    let tick = cfg.watch.unwrap_or(Duration::from_millis(250));
    let mut last_ops: u64 = 0;
    let mut last_tick = started;
    let mut progressed_at = Instant::now();
    let mut dumped = false;
    let mut watch_file = cfg.watch_out.as_ref().and_then(|p| {
        let mut f = std::fs::File::create(p).ok()?;
        writeln!(
            f,
            "{{\"type\":\"chaos_watch\",\"schema_version\":{WATCH_SCHEMA_VERSION},\"seed\":{}}}",
            cfg.seed
        )
        .ok()?;
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
        let lag = t
            .actions_sent
            .load(Ordering::Relaxed)
            .saturating_sub(t.actions_seen.load(Ordering::Relaxed));
        let recoveries = sink.snapshot().recoveries + remote_recoveries.map_or(0, |f| f());
        if cfg.watch.is_some() {
            eprintln!(
                "chaos[watch] t={:.1}s ops={ops} (+{rate:.0}/s) in_flight={} \
                 lat p50/p99={}µs/{}µs recoveries={recoveries} monitor_lag={lag}",
                now.duration_since(started).as_secs_f64(),
                t.in_flight.load(Ordering::Relaxed),
                t.sketch.quantile(0.5),
                t.sketch.quantile(0.99),
            );
        }
        if let Some(f) = watch_file.as_mut() {
            let write_tick = writeln!(
                f,
                "{{\"type\":\"watch_tick\",\"t_ms\":{},\"ops\":{ops},\"ops_per_sec\":{},\
                 \"in_flight\":{},\"lat_p50_us\":{},\"lat_p99_us\":{},\
                 \"recoveries\":{recoveries},\"monitor_lag\":{lag}}}",
                now.duration_since(started).as_millis(),
                rate.round().max(0.0) as u64,
                t.in_flight.load(Ordering::Relaxed),
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
        if let Some(limit) = cfg.stall_after {
            if !dumped && now.duration_since(progressed_at) >= limit {
                dumped = true;
                stalled.store(true, Ordering::Relaxed);
                eprintln!(
                    "chaos[watchdog] no operation completed for {limit:?}; capturing flight dump"
                );
                let dump = recorder.dump();
                if let Some(dir) = &cfg.flight_dump_dir {
                    let lanes = (cfg.servers + cfg.clients + 1) as usize;
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
}

/// One ABD replica with its durable storage and recovery machinery.
struct Server<'a> {
    me: Pid,
    /// The replica group `me` belongs to (including `me`): recovery
    /// catch-up queries exactly these peers, and the catch-up quorum is
    /// derived from the group size. In single-shard runs this is all
    /// servers; in the sharded store it is one shard's replicas.
    group: Vec<Pid>,
    bus: &'a dyn Transport,
    stop: &'a AtomicBool,
    sink: &'a RecoverySink,
    state: StoreState,
    wal: MultiWal,
    pending_acks: Vec<PendingAck>,
    /// Protocol replies of the drain pass under way, in send order; they
    /// leave together in [`Server::flush_replies`].
    replies: Vec<Envelope>,
    amnesia: bool,
    demo_skip: bool,
    /// Exchange counter for recovery state transfer, scoped to this server.
    catchup_sn: u64,
    /// This thread's flight-recorder ring (`server-<pid>`).
    ring: Arc<FlightRing>,
}

/// Most envelopes one drain pass takes off the mailbox before its replies
/// are flushed: bounds both how long the first reply of a pass waits for
/// the last and how many envelopes share one `EnvBatch` frame.
const DRAIN_PASS: usize = 64;

/// One ABD replica: replies to queries, absorbs updates, and (under
/// amnesia) crashes and recovers on the bus's signal. Responses inherit
/// the triggering envelope's exemption so retransmitted exchanges complete
/// without consuming fault indices.
///
/// The loop **drains, then flushes**: it blocks for one envelope, takes
/// whatever else is already queued (up to 64 envelopes a pass) without
/// blocking, and hands the pass's protocol replies to the transport as one
/// [`Transport::send_batch`] — one frame and one `write` on the socket
/// tier, the plain send loop on the bus. A lone request is answered
/// exactly as fast as before: its pass ends as soon as the mailbox is
/// empty.
///
/// The replica is **keyed throughout** ([`StoreState`]/[`MultiWal`]): every
/// ABD message names its [`ObjId`], so the same loop serves the classic
/// single-register workload and a sharded keyed store (`blunt-store`)
/// without a mode switch. Public so store runners can reuse it as-is.
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
    rx: Receiver<Envelope>,
    bus: &dyn Transport,
    stop: &AtomicBool,
    sink: &RecoverySink,
    recorder: &FlightRecorder,
) {
    assert!(group.contains(&me), "a replica group includes its own pid");
    let ring = recorder.register_current(&format!("server-{}", me.0));
    let (amnesia, fsync_interval, demo_skip) = match mode {
        RecoveryMode::Stable => (false, 1, false),
        RecoveryMode::Amnesia {
            fsync_interval,
            demo_skip_recovery,
        } => (true, fsync_interval, demo_skip_recovery),
    };
    let mut srv = Server {
        me,
        group,
        bus,
        stop,
        sink,
        state: StoreState::new(Val::Nil),
        wal: MultiWal::new(fsync_interval),
        pending_acks: Vec::new(),
        replies: Vec::new(),
        amnesia,
        demo_skip,
        catchup_sn: 0,
        ring,
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(first) => {
                srv.deliver(first, &rx);
                for _ in 1..DRAIN_PASS {
                    match rx.try_recv() {
                        Ok(env) => srv.deliver(env, &rx),
                        Err(_) => break,
                    }
                }
                srv.flush_replies();
            }
            Err(RecvTimeoutError::Timeout) => {
                if srv.amnesia {
                    // Idle flush: no batch will fill soon, sync what's
                    // pending so withheld acks go out.
                    srv.flush_wal();
                    srv.flush_replies();
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

impl Server<'_> {
    /// One envelope off the mailbox: flight event, step, and (under
    /// amnesia) the group commit an exempt arrival asks for.
    fn deliver(&mut self, env: Envelope, rx: &Receiver<Envelope>) {
        let exempt = env.exempt;
        self.ring.record_span(
            FlightKind::BusDeliver,
            self.me.0,
            u64::from(env.src.0),
            env.msg.flight_label(),
            env.span.flight_word(),
        );
        self.handle(env, rx);
        if exempt && self.amnesia {
            // Retransmission pressure: an exempt arrival means some
            // client is stuck waiting, plausibly on a withheld ack —
            // group-commit now.
            self.flush_wal();
        }
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

    fn handle(&mut self, env: Envelope, rx: &Receiver<Envelope>) {
        match env.msg {
            Payload::Abd(msg) => self.handle_abd(env.src, msg, env.exempt, env.reply_to, env.span),
            Payload::Crash { .. } => self.handle_crash(rx),
            Payload::StateQuery { sn } => self.answer_state_query(env.src, sn, env.reply_to),
            // A reply to a catch-up exchange that already completed (or was
            // aborted): stale, ignorable.
            Payload::StateReply { .. } => {}
        }
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
                // `BusStats::offered` timing-dependent and break replay.
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
    /// is the batched-WAL half of the store's group commit.
    fn flush_wal(&mut self) {
        let t0 = Instant::now();
        self.wal.fsync();
        let fsync_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        if self.pending_acks.is_empty() {
            return;
        }
        self.ring.record(
            FlightKind::WalFlush,
            self.me.0,
            self.pending_acks.len() as u64,
            fsync_us,
        );
        let mut i = 0;
        while i < self.pending_acks.len() {
            if self.pending_acks[i].ts <= self.wal.durable_ts(self.pending_acks[i].obj) {
                let a = self.pending_acks.swap_remove(i);
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

    /// The amnesia signal arrived: crash, recover, and only then serve the
    /// traffic that queued up behind the recovery. Crashes that land
    /// *during* a recovery's catch-up are counted and processed iteratively
    /// here rather than recursively.
    fn handle_crash(&mut self, rx: &Receiver<Envelope>) {
        if !self.amnesia {
            // Stable-mode replicas keep their memory across crash windows;
            // a stray signal (e.g. a driver misconfigured relative to its
            // servers in multi-process mode) is ignorable, not fatal.
            return;
        }
        // Replies produced before the signal left before the crash when
        // each had its own send; they still do.
        self.flush_replies();
        let mut crashes: u64 = 1;
        let mut buffered: Vec<Envelope> = Vec::new();
        while crashes > 0 {
            crashes -= 1;
            crashes += self.crash_and_recover(rx, &mut buffered);
        }
        // FIFO-replay the protocol traffic that arrived mid-recovery.
        for env in buffered {
            let re = env.reply_to;
            let span = env.span;
            if let Payload::Abd(msg) = env.msg {
                self.handle_abd(env.src, msg, env.exempt, re, span);
            }
        }
    }

    /// One crash + recovery cycle. Returns the number of *further* crash
    /// signals that arrived while catching up; protocol envelopes received
    /// meanwhile are pushed to `buffered` in arrival order.
    fn crash_and_recover(&mut self, rx: &Receiver<Envelope>, buffered: &mut Vec<Envelope>) -> u64 {
        // The crash: unsynced WAL suffix and all volatile state are gone.
        // Withheld acks die with their records — the clients retransmit and
        // the updates are re-logged.
        let lost = self.wal.lose_unsynced();
        self.pending_acks.clear();
        self.state.forget();
        // Volatile transport-side state (socket dedup windows) dies with
        // the server too; the in-process bus keeps none and no-ops this.
        self.bus.on_crash();
        self.sink.on_crash(lost as u64);
        self.ring
            .record(FlightKind::ServerCrash, self.me.0, lost as u64, 0);

        if self.demo_skip {
            // The intentionally-broken recovery: no replay, no catch-up —
            // and storage itself wiped, modeling a server that comes back
            // blank and immediately serves timestamp (0, 0). The monitor
            // must flag the stale reads this produces.
            self.wal.wipe();
            return 0;
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

        // Phase 2 — peer catch-up, mirroring the ABD read phase: ask every
        // peer, wait for quorum−1 answers (self completes the majority),
        // adopt the newest. Exempt traffic: recovery never perturbs the
        // fault schedule.
        let mut nested: u64 = 0;
        let peers: Vec<Pid> = self
            .group
            .iter()
            .copied()
            .filter(|p| *p != self.me)
            .collect();
        let quorum = u32::try_from(self.group.len()).expect("group fits u32") / 2 + 1;
        let needed = (quorum.saturating_sub(1) as usize).min(peers.len());
        if needed > 0 {
            self.catchup_sn += 1;
            let sn = self.catchup_sn;
            for p in &peers {
                self.bus.send(Envelope {
                    src: self.me,
                    dst: *p,
                    msg: Payload::StateQuery { sn },
                    exempt: true,
                    reply_to: 0,
                    span: SpanCtx::NONE,
                });
            }
            self.sink.on_state_queries(peers.len() as u64);
            let mut got = 0usize;
            // Per-register freshest answer across the quorum of snapshots.
            let mut best: BTreeMap<ObjId, (Val, Ts)> = BTreeMap::new();
            while got < needed {
                match rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(env) => match env.msg {
                        Payload::StateReply { sn: rsn, snap } if rsn == sn => {
                            got += 1;
                            for (obj, val, ts) in snap {
                                match best.entry(obj) {
                                    std::collections::btree_map::Entry::Vacant(e) => {
                                        e.insert((val, ts));
                                    }
                                    std::collections::btree_map::Entry::Occupied(mut e) => {
                                        if ts > e.get().1 {
                                            e.insert((val, ts));
                                        }
                                    }
                                }
                            }
                        }
                        Payload::StateReply { .. } => {}
                        // Another server recovering concurrently: answer
                        // inline or the two recoveries deadlock.
                        Payload::StateQuery { sn: qsn } => {
                            self.answer_state_query(env.src, qsn, env.reply_to);
                        }
                        Payload::Crash { .. } => nested += 1,
                        Payload::Abd(_) => buffered.push(env),
                    },
                    Err(RecvTimeoutError::Timeout) => {
                        if self.stop.load(Ordering::Relaxed) {
                            // Shutdown: peers may already be gone. The
                            // replayed checkpoint stands — truncating
                            // catch-up costs freshness, never soundness.
                            self.sink.on_catchup_aborted();
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        self.sink.on_catchup_aborted();
                        break;
                    }
                }
            }
            for (obj, (val, ts)) in best {
                // Freshness only: install iff newer than the replayed
                // checkpoint (absorb's own rule), register by register.
                self.state.absorb(obj, val, ts);
            }
        }
        let recovery_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.sink.on_recovery(recovery_us);
        self.ring
            .record(FlightKind::ServerRecover, self.me.0, recovery_us, 0);
        nested
    }
}

#[allow(clippy::too_many_arguments)] // a thread entry point, not an API
pub(crate) fn client_loop(
    c: u32,
    cfg: &RuntimeConfig,
    quorum: u32,
    rx: Receiver<Envelope>,
    bus: &dyn Transport,
    barrier: &Barrier,
    mon_tx: &Sender<Action>,
    retransmissions: &AtomicU64,
    latency: &Histogram,
    recorder: &FlightRecorder,
    telemetry: &Telemetry,
) {
    let me = Pid(cfg.servers + c);
    let dsts: Vec<Pid> = server_pids(cfg).collect();
    let ring = recorder.register_current(&format!("client-{}", me.0));
    let mut rng = client_rng(cfg.seed, c);
    let mut sn_counter: u32 = 0;
    let local = Histogram::unregistered();
    let mut retrans: u64 = 0;

    for op_idx in 0..cfg.ops_per_client {
        if op_idx > 0 && op_idx % cfg.burst == 0 {
            barrier.wait();
        }
        // Retire the previous op's reply tags so late replies to finished
        // rounds count as tag mismatches, not deliveries (socket backends).
        bus.on_op_start(me);
        let inv = InvId(u64::from(c) * 10_000_000 + op_idx);
        // The key draw comes before the read/write draw and is *skipped
        // entirely* at `keys = 1`: a single-register config consumes the
        // exact rng stream it did before keys existed, so historical seeds
        // (and their gated baselines) replay byte-identically.
        let obj = if cfg.keys > 1 {
            ObjId(u32::try_from(rng.draw(cfg.keys as usize)).expect("key fits u32"))
        } else {
            ObjId(0)
        };
        let is_read = rng.draw(1000) < usize::from(cfg.read_per_mille);
        let (method, arg) = if is_read {
            (MethodId::READ, Val::Nil)
        } else {
            // Unique write values keep the checker's search shallow and
            // make stale reads unambiguous.
            let v = i64::from(c) * 1_000_000 + i64::try_from(op_idx).expect("op index fits i64");
            (MethodId::WRITE, Val::Int(v))
        };
        telemetry.actions_sent.fetch_add(1, Ordering::Relaxed);
        let _ = mon_tx.send(Action::Call {
            inv,
            pid: me,
            obj,
            method,
            arg: arg.clone(),
        });
        telemetry.in_flight.fetch_add(1, Ordering::Relaxed);
        // Every message this op sends — and every server-side event it
        // triggers, across process boundaries — carries this span.
        let span = SpanCtx::request(me.0, inv.0);
        // Op events carry their target register in keyed runs; the
        // single-register default stays `KEY_NONE` so pre-keyed dumps
        // serialize byte-identically (the field is elided).
        let key = if cfg.keys > 1 {
            u64::from(obj.0)
        } else {
            KEY_NONE
        };
        ring.record_span_key(
            if is_read {
                FlightKind::OpStartRead
            } else {
                FlightKind::OpStartWrite
            },
            me.0,
            inv.0,
            encode_val(match &arg {
                Val::Int(v) => Some(*v),
                _ => None,
            }),
            span.flight_word(),
            key,
        );
        let t0 = Instant::now();
        let ret = if cfg.broken_reads && is_read {
            broken_read(
                me,
                obj,
                op_idx,
                cfg,
                &rx,
                bus,
                &mut sn_counter,
                &mut retrans,
                &ring,
                span,
            )
        } else {
            let kind = if is_read {
                OpKind::Read
            } else {
                OpKind::Write(arg)
            };
            abd_op(
                me,
                obj,
                inv,
                kind,
                cfg,
                quorum,
                &rx,
                bus,
                &dsts,
                &mut rng,
                &mut sn_counter,
                &mut retrans,
                &ring,
                span,
            )
        };
        let lat_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        local.record(lat_us);
        telemetry.sketch.record(lat_us);
        ring.record_span_key(
            if is_read {
                FlightKind::OpCompleteRead
            } else {
                FlightKind::OpCompleteWrite
            },
            me.0,
            inv.0,
            encode_val(match &ret {
                Val::Int(v) => Some(*v),
                _ => None,
            }),
            span.flight_word(),
            key,
        );
        telemetry.in_flight.fetch_sub(1, Ordering::Relaxed);
        telemetry.ops.fetch_add(1, Ordering::Relaxed);
        telemetry.actions_sent.fetch_add(1, Ordering::Relaxed);
        let _ = mon_tx.send(Action::Return { inv, val: ret });
    }
    latency.merge(&local);
    retransmissions.fetch_add(retrans, Ordering::Relaxed);
}

fn server_pids(cfg: &RuntimeConfig) -> impl Iterator<Item = Pid> {
    (0..cfg.servers).map(Pid)
}

/// The client's deterministic exponential backoff: doubles per consecutive
/// timeout from `retransmit_after`, saturating at `retransmit_cap`; any
/// received message resets it (evidence of progress). Returns the next wait
/// and bumps the saturation counter on the transition to the cap.
fn next_backoff(wait: Duration, cfg: &RuntimeConfig) -> Duration {
    let next = wait.saturating_mul(2).min(cfg.retransmit_cap);
    if next == cfg.retransmit_cap && wait < cfg.retransmit_cap {
        blunt_obs::static_counter!("runtime.client.backoff_max_reached").inc();
    }
    next
}

/// Drives one full ABD (or ABD^k) operation through the client step machine
/// to completion, retransmitting with exponential backoff on timeout.
#[allow(clippy::too_many_arguments)] // mirrors the thread context it runs in
fn abd_op(
    me: Pid,
    obj: ObjId,
    inv: InvId,
    kind: OpKind,
    cfg: &RuntimeConfig,
    quorum: u32,
    rx: &Receiver<Envelope>,
    bus: &dyn Transport,
    dsts: &[Pid],
    rng: &mut SplitMix64,
    sn_counter: &mut u32,
    retrans: &mut u64,
    ring: &FlightRing,
    span: SpanCtx,
) -> Val {
    *sn_counter += 1;
    let sn = *sn_counter;
    let mut op = ActiveOp::start(inv, obj, kind, cfg.k, sn);
    bus.broadcast_span(me, dsts, &AbdMsg::Query { obj, sn }, false, span);
    let mut wait = cfg.retransmit_after.min(cfg.retransmit_cap);
    loop {
        match rx.recv_timeout(wait) {
            Ok(env) => {
                wait = cfg.retransmit_after.min(cfg.retransmit_cap);
                ring.record_span(
                    FlightKind::BusDeliver,
                    me.0,
                    u64::from(env.src.0),
                    env.msg.flight_label(),
                    env.span.flight_word(),
                );
                let Payload::Abd(msg) = env.msg else {
                    continue; // control traffic never targets clients
                };
                match msg {
                    AbdMsg::Reply {
                        obj: o,
                        sn: msg_sn,
                        val,
                        ts,
                    } if o == obj => {
                        match op.on_reply(env.src, msg_sn, &val, ts, quorum, me, sn_counter) {
                            ReplyEffect::NextQuery { sn, .. } => {
                                bus.broadcast_span(
                                    me,
                                    dsts,
                                    &AbdMsg::Query { obj, sn },
                                    false,
                                    span,
                                );
                            }
                            ReplyEffect::NeedChoice { choices, .. } => {
                                // The object random step, drawn from the
                                // client's seeded stream: one draw per op, so
                                // the stream position is schedule-independent.
                                let choice = rng.draw(choices as usize);
                                let (sn, val, ts) = op.choose(choice, me, sn_counter);
                                bus.broadcast_span(
                                    me,
                                    dsts,
                                    &AbdMsg::Update { obj, sn, val, ts },
                                    false,
                                    span,
                                );
                            }
                            ReplyEffect::StartUpdate { sn, val, ts, .. } => {
                                bus.broadcast_span(
                                    me,
                                    dsts,
                                    &AbdMsg::Update { obj, sn, val, ts },
                                    false,
                                    span,
                                );
                            }
                            ReplyEffect::Ignored | ReplyEffect::Counted => {}
                        }
                    }
                    AbdMsg::Ack { obj: o, sn: msg_sn } if o == obj => {
                        if let AckEffect::Complete { ret } = op.on_ack(env.src, msg_sn, quorum) {
                            return ret;
                        }
                    }
                    _ => {}
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if let Some(msg) = op.retransmission() {
                    *retrans += 1;
                    blunt_obs::static_counter!("runtime.client.retransmissions").inc();
                    let rsn = match &msg {
                        AbdMsg::Query { sn, .. }
                        | AbdMsg::Reply { sn, .. }
                        | AbdMsg::Update { sn, .. }
                        | AbdMsg::Ack { sn, .. } => *sn,
                    };
                    ring.record_span(
                        FlightKind::OpRetransmit,
                        me.0,
                        u64::from(rsn),
                        0,
                        span.flight_word(),
                    );
                    bus.broadcast_span(me, dsts, &msg, true, span);
                }
                wait = next_backoff(wait, cfg);
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("bus closed while an operation was in flight")
            }
        }
    }
}

/// The intentionally-broken read: query ONE server (rotating), return the
/// first reply's value, skip the write-back. Under drops a replica can miss
/// an update forever, so a client that writes and then fast-reads a stale
/// replica observes a new-old inversion in its own program order — exactly
/// what the monitor exists to catch.
#[allow(clippy::too_many_arguments)] // mirrors the thread context it runs in
fn broken_read(
    me: Pid,
    obj: ObjId,
    op_idx: u64,
    cfg: &RuntimeConfig,
    rx: &Receiver<Envelope>,
    bus: &dyn Transport,
    sn_counter: &mut u32,
    retrans: &mut u64,
    ring: &FlightRing,
    span: SpanCtx,
) -> Val {
    *sn_counter += 1;
    let sn = *sn_counter;
    let target = Pid(u32::try_from(op_idx % u64::from(cfg.servers)).expect("server index"));
    let msg = AbdMsg::Query { obj, sn };
    bus.send(Envelope::abd(me, target, msg.clone(), false).with_span(span));
    let mut wait = cfg.retransmit_after.min(cfg.retransmit_cap);
    loop {
        match rx.recv_timeout(wait) {
            Ok(env) => {
                wait = cfg.retransmit_after.min(cfg.retransmit_cap);
                ring.record_span(
                    FlightKind::BusDeliver,
                    me.0,
                    u64::from(env.src.0),
                    env.msg.flight_label(),
                    env.span.flight_word(),
                );
                if let Payload::Abd(AbdMsg::Reply {
                    obj: o,
                    sn: msg_sn,
                    val,
                    ..
                }) = env.msg
                {
                    if o == obj && msg_sn == sn {
                        return val;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                *retrans += 1;
                ring.record_span(
                    FlightKind::OpRetransmit,
                    me.0,
                    u64::from(sn),
                    0,
                    span.flight_word(),
                );
                bus.send(Envelope::abd(me, target, msg.clone(), true).with_span(span));
                wait = next_backoff(wait, cfg);
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("bus closed while a read was in flight")
            }
        }
    }
}
