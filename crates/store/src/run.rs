//! The one client driver: sharded servers, per-shard monitors, pipelined
//! batched clients — over the in-process bus or the socket tier.
//!
//! [`run_store_with`] is the single entry. In process it builds one
//! [`blunt_runtime::Bus`] spanning every shard's servers plus the clients,
//! with one mailbox for all of them, read through a [`BusInbox`]; given
//! addresses it points the same client side at already-listening `chaos
//! serve` processes through a [`NetClient`], whose replies arrive in one
//! inbox too. Either way one `worker` thread steps every machine the
//! process owns over that inbox ([`run_worker`]), and draws and realises
//! every fate of the run: every client, and on the bus every shard's
//! unmodified [`Replica`] machines; the clients call every shard's
//! monitor on that thread too. Every client is a `StoreClient` — the only
//! client in the workspace — so the two tiers
//! exercise identical protocol logic and differ only in transport. The
//! client is a state machine that never blocks and takes its deadline
//! decisions at a `now` it is handed; the worker steps it as a [`Client`]
//! and takes its tallies back when the run ends.
//! The classic single-register workload is this driver at one shard, one
//! key, depth 1, batch 1 ([`StoreConfig::register`]).
//!
//! Determinism contract: the per-client rng stream is a pure function of
//! `(seed, client)` and is consumed in *program order* at burst setup — per
//! op the key (skipped at `keys = 1`), read/write, then ABD^k's object
//! random choice (iff `k > 1`) — never in reply-arrival order, so the draw
//! sequence is schedule-independent. Pipelining changes only
//! *when* messages leave relative to each other, and batching changes only
//! how they are framed; fault fates are drawn per logical envelope in send
//! order either way (see [`crate::batch`]).
//!
//! The shard monitors hear of every `Call` and `Return` at the program point
//! it happens — a call of the shard's [`ShardMonitor::observe`] — and check
//! it inside that call, so a violation is flagged, and its flight dump
//! taken, at the op that exhibits it (`docs/STORE.md` § *Per-shard
//! monitors*). Clients never wait for each other: the monitor's zone check
//! needs no quiescent point, so a burst is only a client's own draw size.
//!
//! Loss recovery has two triggers and one rebroadcast routine. The *deadline*
//! fires when a whole shard has been silent for its backoff window
//! (`ShardHealth`); the *reply gap* fires the moment the replies themselves
//! prove an exchange's quorum out of reach (`quorum_out_of_reach`): links and
//! replicas are FIFO, so a replica that has answered a later exchange of
//! this client will never answer an earlier one from its first transmission.
//! Either way the rebroadcast is exempt from fault fates, so neither can
//! move the schedule, and safety rests on neither — handlers are idempotent
//! per exchange.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use blunt_abd::client::{AckEffect, ActiveOp, OpKind, ReplyEffect};
use blunt_abd::msg::AbdMsg;
use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::{
    Addr, Coverage, Envelope, FaultConfig, FaultConfigError, Inbox, NetClient, NetClientCfg,
    Payload, RemoteServer, SpanCtx, Transport, TransportStats,
};
use blunt_obs::flight::encode_val;
use blunt_obs::{FlightDump, FlightKind, FlightRecorder, FlightRing, Histogram, HistogramSnapshot};
use blunt_runtime::{
    run_worker, watch_loop, Bus, BusInbox, Client, MonitorReport, RecoveryMode, RecoverySink,
    RecoveryStats, Replica, ShardMonitor, Telemetry, MAX_OPS_PER_CLIENT,
};
use blunt_sim::rng::{RandomSource, SplitMix64};

use crate::batch::BatchingTransport;
use crate::ring::HashRing;

/// One store run: topology, workload shape, and chaos knobs.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Independent ABD shards the keyspace maps onto.
    pub shards: u32,
    /// Replicas per shard; each shard's quorum is a majority of these.
    pub servers_per_shard: u32,
    /// Clients.
    pub clients: u32,
    /// Operations each client completes.
    pub ops_per_client: u64,
    /// Distinct keys (registers) the workload draws from.
    pub keys: u32,
    /// Max operations one client keeps in flight at once.
    pub pipeline_depth: u32,
    /// Envelopes a client buffers **for one destination** before a forced
    /// flush of everything it has buffered (`1` ⇒ batching off; see
    /// [`BatchingTransport`]). Per destination because that is what a flush
    /// produces — one frame, one mailbox run: a pipeline fill spread over
    /// its replicas leaves as one flush, and a flush may carry more than
    /// `batch_max` envelopes in all.
    pub batch_max: usize,
    /// Ops a client draws at a time. It drains one burst before drawing
    /// the next.
    pub burst: u64,
    /// Read fraction in per-mille (500 = half reads).
    pub read_per_mille: u16,
    /// The run seed — fixes the fault schedule, the key sequence, and the
    /// ring layout.
    pub seed: u64,
    /// Fault injection profile for the transport.
    pub faults: FaultConfig,
    /// Replace quorum reads with the intentionally-broken single-server
    /// read (no write-back) — the monitor must catch it.
    pub broken_reads: bool,
    /// First retransmission timeout.
    pub retransmit_after: Duration,
    /// Backoff ceiling for retransmission timeouts.
    pub retransmit_cap: Duration,
    /// What a crash means for shard replicas: [`RecoveryMode::Stable`]
    /// keeps crashes as pure message blackouts; an amnesia mode arms the
    /// bus's crash signal and every replica runs the WAL-replay +
    /// peer-catch-up recovery protocol within its own shard's group.
    pub recovery: RecoveryMode,
    /// Intentionally break ONE shard's recovery
    /// ([`RecoveryMode::demo_amnesia`]: no replay, no catch-up) while the
    /// others recover soundly — that shard's monitor must catch the stale
    /// keyed reads. Requires an amnesia [`StoreConfig::recovery`].
    pub demo_shard: Option<u32>,
}

impl StoreConfig {
    /// A small faulted smoke configuration: 4 shards × 3 replicas, 4
    /// pipelined clients, light faults. CI-sized.
    #[must_use]
    pub fn smoke(seed: u64) -> StoreConfig {
        StoreConfig {
            shards: 4,
            servers_per_shard: 3,
            clients: 4,
            ops_per_client: 500,
            keys: 64,
            pipeline_depth: 4,
            batch_max: 8,
            burst: 8,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::light(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            demo_shard: None,
        }
    }

    /// The throughput configuration: 8 shards × 3 replicas, 8 clients ×
    /// 125k ops = 1M operations, fault-free, deep pipeline, fat batches.
    #[must_use]
    pub fn bench(seed: u64) -> StoreConfig {
        StoreConfig {
            shards: 8,
            servers_per_shard: 3,
            clients: 8,
            ops_per_client: 125_000,
            keys: 1024,
            pipeline_depth: 8,
            batch_max: 16,
            burst: 8,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::none(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            demo_shard: None,
        }
    }

    /// The single-register workload as a store shape: one shard × 3
    /// replicas, one key, 4 sequential unbatched clients, the full chaos
    /// fault mix.
    #[must_use]
    pub fn register(seed: u64) -> StoreConfig {
        StoreConfig {
            shards: 1,
            servers_per_shard: 3,
            clients: 4,
            ops_per_client: 500,
            keys: 1,
            pipeline_depth: 1,
            batch_max: 1,
            burst: 8,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::chaos(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            demo_shard: None,
        }
    }

    /// Total server processes: `shards × servers_per_shard`.
    #[must_use]
    pub fn servers_total(&self) -> u32 {
        self.shards * self.servers_per_shard
    }

    fn validate(&self) {
        assert!(self.shards >= 1, "the store needs at least one shard");
        assert!(self.servers_per_shard >= 1, "a shard needs a replica");
        assert!(
            self.servers_total() <= 64,
            "server pids must fit the 64-bit responder masks"
        );
        assert!(self.clients >= 1 && self.ops_per_client >= 1);
        assert!(
            self.ops_per_client <= MAX_OPS_PER_CLIENT,
            "write values stay unique only up to MAX_OPS_PER_CLIENT ops per client"
        );
        assert!(self.keys >= 1, "the store needs at least one key");
        assert!(
            self.pipeline_depth >= 1,
            "pipeline depth 0 makes no progress"
        );
        assert!(self.burst >= 1);
        assert!(
            u64::from(self.pipeline_depth) <= self.burst,
            "in-flight ops beyond the burst size can never materialize"
        );
        assert!(self.batch_max >= 1, "a batch holds at least one envelope");
        if let Some(d) = self.demo_shard {
            assert!(d < self.shards, "demo shard must be one of 0..shards");
            assert!(
                self.recovery.is_amnesia(),
                "a demo shard needs amnesia recovery — stable crashes never \
                 erase state, so skipping recovery would be inert"
            );
        }
    }
}

/// What travels beside a [`StoreConfig`]: the preamble depth and the
/// watch/watchdog settings. The default is plain ABD, unobserved.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Preamble iterations (`k = 1` is plain ABD; `k = 2` is O² of
    /// Algorithm 2).
    pub k: u32,
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
    /// [`RunOpts::flight_dump_dir`] when set).
    pub stall_after: Option<Duration>,
    /// Directory for watchdog stall dumps (`stall.flight.jsonl` plus a
    /// rendered `stall.diagram.txt`). `None` keeps the stall in-memory only.
    pub flight_dump_dir: Option<PathBuf>,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts {
            k: 1,
            watch: None,
            watch_out: None,
            stall_after: None,
            flight_dump_dir: None,
        }
    }
}

/// What one store run produced.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// Operations completed (`clients × ops_per_client`).
    pub ops: u64,
    /// Transport-level message statistics.
    pub stats: TransportStats,
    /// Fault-schedule coverage actually exercised.
    pub coverage: Coverage,
    /// The merged verdict across all per-shard monitors, shard-major.
    pub monitor: MonitorReport,
    /// Call/return actions observed across all shard monitors (= `2 ×
    /// ops`; deterministic).
    pub monitor_actions: u64,
    /// Wall time inside the shard monitors' checkers, summed over shards
    /// (timing-dependent).
    pub monitor_observe_ns: u64,
    /// The flight-recorder window captured when the monitor of
    /// `monitor.violations[0]`'s shard first fired (`None` on clean runs).
    pub violation_dump: Option<FlightDump>,
    /// `true` iff the watchdog saw no completed operation for
    /// [`RunOpts::stall_after`].
    pub stalled: bool,
    /// Client retransmissions, whichever trigger sent them: a shard silent
    /// past its deadline, or the reply gap.
    pub retransmissions: u64,
    /// The [`StoreReport::retransmissions`] the reply gap triggered: the
    /// exchange's quorum was provably out of reach of first transmissions,
    /// so it was rebroadcast without waiting for the deadline.
    /// Timing-dependent, like the total.
    pub gap_retransmissions: u64,
    /// Operations whose pipeline start was deferred because their shard
    /// was degraded (recovering) with its in-flight cap reached.
    /// Timing-dependent; excluded from regression gating.
    pub degraded_ops: u64,
    /// Aggregate crash-recovery counters across every shard replica
    /// (`crashes`/`recoveries` deterministic for a seed; the WAL-shaped
    /// ones timing-dependent). All zero under stable recovery.
    pub recovery: RecoveryStats,
    /// Per-shard `(crashes, recoveries)`, index = shard. Deterministic for
    /// a seed: crash windows live in link-index space and every crash runs
    /// exactly one recovery. Both tiers fill it.
    pub shard_recoveries: Vec<(u64, u64)>,
    /// End-to-end per-op latency distribution (µs).
    pub latency_us: HistogramSnapshot,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-server remote state — clock offset, last telemetry snapshot,
    /// goodbye-piggybacked dump — in multi-process runs (index = server
    /// pid). Empty for in-process runs, where no state is remote.
    pub remote_servers: Vec<RemoteServer>,
    /// The cross-process merged flight dump (driver events plus every
    /// remote server's dump, clock-aligned and process-labeled).
    /// `None` for in-process runs — the ordinary flight recorder already
    /// sees every event there.
    pub merged_flight: Option<FlightDump>,
}

impl StoreReport {
    /// Completed operations per wall-clock second.
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

/// [`run_store_with`] on the in-process bus with the default [`RunOpts`].
///
/// # Errors
///
/// As [`run_store_with`].
pub fn run_store(cfg: &StoreConfig) -> Result<StoreReport, FaultConfigError> {
    run_store_with(cfg, &RunOpts::default(), None)
}

/// [`run_store_with`] against the replicas at `addrs` with the default
/// [`RunOpts`].
///
/// # Errors
///
/// As [`run_store_with`].
pub fn run_store_net(cfg: &StoreConfig, addrs: &[Addr]) -> Result<StoreReport, FaultConfigError> {
    run_store_with(cfg, &RunOpts::default(), Some(addrs))
}

/// How long the driver waits for server `Goodbye`s after `Shutdown`.
const GOODBYE_WAIT: Duration = Duration::from_secs(10);

/// Runs one seeded configuration to completion. With `remote = None` every
/// shard's replicas run on the worker beside the clients, all on one
/// in-process [`Bus`]; with `Some(addrs)` the client side runs against
/// already-listening `chaos serve` processes, `addrs` listing every
/// replica shard-major (`addrs[s·R..(s+1)·R]` is shard `s`'s replica set,
/// matching pid order).
///
/// # Errors
///
/// Returns a [`FaultConfigError`] when `cfg.faults` is unusable for this
/// topology (overlapping crash stagger, zero periods, oversubscribed
/// rates) — the numbers are in the error.
///
/// # Panics
///
/// Panics on an invalid topology (see [`StoreConfig`] field docs), on
/// `opts.k = 0`, if `addrs` doesn't match the topology, on connection
/// failure, or if a worker thread dies.
pub fn run_store_with(
    cfg: &StoreConfig,
    opts: &RunOpts,
    remote: Option<&[Addr]>,
) -> Result<StoreReport, FaultConfigError> {
    cfg.validate();
    assert!(opts.k >= 1, "ABD^k requires k ≥ 1");
    let started = Instant::now();
    let recorder = Arc::new(FlightRecorder::new(4096));
    let mut report = match remote {
        None => run_on_bus(cfg, opts, started, recorder)?,
        Some(addrs) => run_on_sockets(cfg, opts, addrs, started, recorder)?,
    };
    blunt_obs::static_counter!("store.recovery.crashes").add(report.recovery.crashes);
    blunt_obs::static_counter!("store.recovery.recoveries").add(report.recovery.recoveries);
    // Stamped last: on the socket tier the run's wall time includes bringing
    // the tracing plane home, as it always has for register net runs.
    report.elapsed = started.elapsed();
    Ok(report)
}

/// The socket tier of [`run_store_with`].
fn run_on_sockets(
    cfg: &StoreConfig,
    opts: &RunOpts,
    addrs: &[Addr],
    started: Instant,
    recorder: Arc<FlightRecorder>,
) -> Result<StoreReport, FaultConfigError> {
    assert_eq!(
        addrs.len(),
        cfg.servers_total() as usize,
        "one address per shard replica, shard-major"
    );
    let (net, mut inbox) = NetClient::connect(
        &NetClientCfg {
            seed: cfg.seed,
            faults: cfg.faults,
            servers: addrs.to_vec(),
            clients: cfg.clients,
            // The driver owns every client→server link, so crash-window
            // exits are signaled from here as exempt frames ahead of the
            // triggering frame — exactly as the in-process bus enqueues
            // them.
            signal_crashes: cfg.recovery.is_amnesia(),
        },
        Arc::clone(&recorder),
    )?;
    let mut report = drive_clients(
        cfg,
        opts,
        &*net,
        &mut inbox,
        &recorder,
        started,
        &Replicas::Remote(&net),
    );
    // Each server's last telemetry, sent right before its goodbye, is its
    // report of the whole run; one that died without a goodbye leaves its
    // last periodic one. Pids are shard-major, so pid / replicas-per-shard
    // is the shard. A server's replies all precede its goodbye on one FIFO
    // connection, and `shutdown` draws their fates until the goodbye and
    // then consumes the inbox: the counters are final.
    let remote = net.shutdown(inbox, GOODBYE_WAIT);
    report.stats = net.stats();
    report.coverage = net.coverage();
    let per_shard = cfg.servers_per_shard as usize;
    fold_recoveries(
        &mut report,
        remote
            .iter()
            .enumerate()
            .filter_map(|(pid, r)| Some((pid / per_shard, r.telemetry?.recovery))),
    );
    // Merge every server's goodbye-piggybacked dump into the driver's own,
    // clock-aligned by the Hello/HelloAck offset estimates and labeled
    // `s<pid>` — one cross-process space-time view of the whole run.
    let mut merged = recorder.dump();
    merged.merge_remotes(
        remote
            .iter()
            .enumerate()
            .filter_map(|(pid, r)| Some((format!("s{pid}"), r.offset_us, r.dump.as_ref()?))),
    );
    report.merged_flight = Some(merged);
    report.remote_servers = remote;
    Ok(report)
}

/// Adds each `(shard, counters)` pair into the run's totals and into its
/// shard's `(crashes, recoveries)`: how both tiers fill
/// [`StoreReport::recovery`] and [`StoreReport::shard_recoveries`].
fn fold_recoveries(
    report: &mut StoreReport,
    per_shard: impl IntoIterator<Item = (usize, RecoveryStats)>,
) {
    for (shard, r) in per_shard {
        report.recovery += r;
        let (crashes, recoveries) = &mut report.shard_recoveries[shard];
        *crashes += r.crashes;
        *recoveries += r.recoveries;
    }
}

/// The in-process tier of [`run_store_with`].
fn run_on_bus(
    cfg: &StoreConfig,
    opts: &RunOpts,
    started: Instant,
    recorder: Arc<FlightRecorder>,
) -> Result<StoreReport, FaultConfigError> {
    let (bus, mailbox) = shard_bus(cfg, &recorder)?;
    // One sink per shard: crash/recovery counters stay attributable to the
    // shard whose replicas produced them.
    let sinks: Vec<RecoverySink> = (0..cfg.shards).map(|_| RecoverySink::default()).collect();
    // The worker returns once every client has finished and the mailbox
    // has run dry: every crash signal, enqueued synchronously inside a
    // send, has been served, which keeps the recovery counters
    // deterministic. Every fate was drawn on the worker, so the fault
    // counters are final too; what a hold or a timer still keeps, nobody
    // reads.
    let mut report = drive_clients(
        cfg,
        opts,
        &bus,
        &mut BusInbox { bus: &bus, mailbox },
        &recorder,
        started,
        &Replicas::Local(&sinks),
    );
    report.stats = bus.stats();
    report.coverage = bus.coverage();
    fold_recoveries(
        &mut report,
        sinks.iter().map(RecoverySink::snapshot).enumerate(),
    );
    Ok(report)
}

/// The in-process bus for `cfg`'s topology, with one mailbox that every
/// node — every replica, every client — reads through the worker.
fn shard_bus(
    cfg: &StoreConfig,
    recorder: &Arc<FlightRecorder>,
) -> Result<(Bus, Receiver<Envelope>), FaultConfigError> {
    let servers = cfg.servers_total();
    Bus::shared(
        cfg.seed,
        cfg.faults,
        servers,
        servers + cfg.clients,
        cfg.recovery.is_amnesia(),
        Arc::clone(recorder),
    )
}

/// Where a run's replicas live.
enum Replicas<'a> {
    /// On the worker, each counting its crashes and recoveries on its
    /// shard's sink.
    Local(&'a [RecoverySink]),
    /// In serve processes, whose crashes the driver hears of through their
    /// telemetry.
    Remote(&'a NetClient),
}

/// Shard `shard`'s replicas, in pid order. The replica is key-agnostic
/// (its store is a per-key map), so shard membership is purely a property
/// of who clients address: replica s serves shard s / servers_per_shard.
/// Recovery catch-up stays within the shard — only these replicas hold
/// the keys.
fn shard_replicas<'a>(
    cfg: &StoreConfig,
    shard: u32,
    transport: &'a dyn Transport,
    sink: &'a RecoverySink,
    recorder: &FlightRecorder,
) -> Vec<Replica<'a>> {
    let group: Vec<Pid> = (shard * cfg.servers_per_shard..(shard + 1) * cfg.servers_per_shard)
        .map(Pid)
        .collect();
    let mode = match cfg.demo_shard {
        Some(d) if d == shard => RecoveryMode::demo_amnesia(),
        _ => cfg.recovery,
    };
    group
        .iter()
        .map(|&me| Replica::new(me, group.clone(), mode, transport, sink, recorder))
        .collect()
}

/// The `worker` thread's body: builds every machine of the run — the
/// clients, the shard monitors and, on the bus, the shard replicas — runs
/// them over `inbox` to the end, and reports what they counted; the tiers
/// fill in the rest.
fn work(
    cfg: &StoreConfig,
    k: u32,
    transport: &dyn Transport,
    inbox: &mut impl Inbox,
    recorder: &FlightRecorder,
    telemetry: &Telemetry,
    sinks: Option<&[RecoverySink]>,
) -> StoreReport {
    let nodes = (cfg.servers_total() + cfg.clients) as usize;
    let monitors: Vec<ShardMonitor<'_>> = (0..cfg.shards)
        .map(|s| ShardMonitor::new(s, recorder, nodes))
        .collect();
    // Shard-major: the order in which the worker ends their passes.
    let mut replicas: Vec<Replica<'_>> = sinks.map_or_else(Vec::new, |sinks| {
        (0..cfg.shards)
            .flat_map(|s| shard_replicas(cfg, s, transport, &sinks[s as usize], recorder))
            .collect()
    });
    let mut clients: Vec<StoreClient<'_>> = (0..cfg.clients)
        .map(|c| StoreClient::new(c, cfg, k, transport, &monitors, telemetry, recorder))
        .collect();
    let mut stepped: Vec<&mut dyn Client> =
        clients.iter_mut().map(|c| c as &mut dyn Client).collect();
    run_worker(inbox, &mut replicas, &mut stepped, None, recorder);

    let latency = Histogram::unregistered();
    let (mut retransmissions, mut gap_retransmissions, mut degraded_ops) = (0, 0, 0);
    for c in &clients {
        latency.merge(&c.latency);
        retransmissions += c.retransmissions;
        gap_retransmissions += c.gap_retransmissions;
        degraded_ops += c.degraded_ops;
    }
    // The clients borrow the monitors.
    drop(clients);
    // Shard-major merge: `violations[0]` belongs to the first shard that
    // flagged anything, and so does the dump kept.
    let mut monitor = MonitorReport::default();
    let (mut monitor_actions, mut monitor_observe_ns) = (0, 0);
    let mut violation_dump = None;
    for m in monitors {
        let (shard_report, actions, observe_ns, dump) = m.finish();
        monitor.checked += shard_report.checked;
        monitor.violations.extend(shard_report.violations);
        monitor_actions += actions;
        monitor_observe_ns += observe_ns;
        violation_dump = violation_dump.or(dump);
    }
    StoreReport {
        ops: u64::from(cfg.clients) * cfg.ops_per_client,
        stats: TransportStats::default(),
        coverage: Coverage::default(),
        monitor,
        monitor_actions,
        monitor_observe_ns,
        violation_dump,
        stalled: false,
        retransmissions,
        gap_retransmissions,
        degraded_ops,
        recovery: RecoveryStats::default(),
        shard_recoveries: vec![(0, 0); cfg.shards as usize],
        latency_us: latency.snapshot(),
        elapsed: Duration::ZERO,
        remote_servers: Vec::new(),
        merged_flight: None,
    }
}

/// Runs the `worker` thread over `inbox` and, when asked for, the
/// watch/watchdog on the calling thread until the worker is done, joins
/// the worker, and reports. Shared by both tiers, which fill in what only
/// they know (`stats`, `coverage`, the recovery counters, the remote
/// sections) afterwards; the entry stamps `elapsed` last. The watch stays
/// off the worker, so a worker that hangs still leaves its stall dump.
fn drive_clients(
    cfg: &StoreConfig,
    opts: &RunOpts,
    transport: &dyn Transport,
    inbox: &mut (impl Inbox + Send),
    recorder: &FlightRecorder,
    started: Instant,
    replicas: &Replicas<'_>,
) -> StoreReport {
    let lanes = (cfg.servers_total() + cfg.clients + cfg.shards) as usize;
    let telemetry = &Telemetry::default();
    let recoveries = || match replicas {
        Replicas::Local(sinks) => sinks.iter().map(|s| s.snapshot().recoveries).sum(),
        Replicas::Remote(net) => net.remote_recoveries(),
    };
    let sinks = match replicas {
        Replicas::Local(sinks) => Some(*sinks),
        Replicas::Remote(_) => None,
    };
    let watched = opts.watch.is_some() || opts.watch_out.is_some() || opts.stall_after.is_some();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (mut report, stalled) = thread::scope(|s| {
        // The thread's name is its role, so a per-thread profile can tell
        // it apart (`examples/thread_profile.rs`).
        let worker = thread::Builder::new()
            .name("worker".into())
            .spawn_scoped(s, move || {
                // Dropped as the worker returns or unwinds: the watch then
                // writes its last tick — after every op has completed, so
                // that tick carries the run's totals — and returns.
                let _done = done_tx;
                work(cfg, opts.k, transport, inbox, recorder, telemetry, sinks)
            })
            .expect("spawn the worker");
        let stalled = watched
            && watch_loop(
                opts.watch,
                opts.watch_out.as_deref(),
                opts.stall_after,
                opts.flight_dump_dir.as_deref(),
                cfg.seed,
                lanes,
                started,
                telemetry,
                recorder,
                &recoveries,
                &done_rx,
            );
        (worker.join().expect("worker thread"), stalled)
    });
    report.stalled = stalled;
    blunt_obs::static_counter!("store.ops.completed").add(report.ops);
    report
}

/// One operation drawn at burst setup, before any message moves.
struct OpSpec {
    idx: u64,
    key: ObjId,
    /// The key's shard, looked up once here rather than per fill pass.
    shard: u32,
    is_read: bool,
    /// ABD^k's object random choice (which preamble iteration's result the
    /// update phase uses); `0` and undrawn at `k = 1`.
    choice: usize,
    /// Already counted toward `store.degraded_ops` (each deferred op
    /// counts once, however many fill passes skip it).
    deferred: bool,
}

/// Max ops a client keeps in flight on a *degraded* (recovering) shard.
/// One probe op keeps retransmission pressure on the shard — enough to
/// notice the moment it comes back — while the rest of the pipeline depth
/// serves healthy shards instead of head-of-line blocking behind the
/// recovery window.
const DEGRADED_INFLIGHT_CAP: u32 = 1;

/// Consecutive whole-backoff-window silences from a shard before the
/// client treats it as degraded. One silence is routine under light
/// faults (a dropped reply); two in a row — with a retransmission already
/// outstanding — means the shard is really not answering (crash window or
/// recovery in progress).
const DEGRADED_AFTER_STRIKES: u32 = 2;

/// Per-shard client-side liveness state: a deterministic exponential
/// backoff clock (doubling per silent window from `retransmit_after` up to
/// `retransmit_cap`, reset by any message from the shard's replicas) and
/// the degraded flag that caps pipeline fill. Purely timing-local: none of
/// this feeds the fault schedule, and deferral never changes which
/// envelopes an op sends — only when it starts — so per-link message
/// counts (and with them stats, coverage, and crash/recovery counts) stay
/// seed-deterministic.
struct ShardHealth {
    wait: Duration,
    /// When this shard's stalled ops are next retransmitted; `None` while
    /// the client has nothing in flight there.
    due: Option<Instant>,
    in_flight: u32,
    strikes: u32,
    degraded: bool,
}

impl ShardHealth {
    fn new(initial: Duration) -> ShardHealth {
        ShardHealth {
            wait: initial,
            due: None,
            in_flight: 0,
            strikes: 0,
            degraded: false,
        }
    }

    /// A message from one of this shard's replicas: evidence of progress.
    fn on_message(&mut self, initial: Duration, now: Instant) {
        self.wait = initial;
        self.strikes = 0;
        self.degraded = false;
        self.due = (self.in_flight > 0).then(|| now + self.wait);
    }

    /// The shard was silent for its whole window: a strike toward
    /// degraded status, and the window doubles up to `cap`.
    fn on_silence(&mut self, cap: Duration, now: Instant) {
        self.strikes += 1;
        if self.strikes >= DEGRADED_AFTER_STRIKES {
            self.degraded = true;
        }
        let next = self.wait.saturating_mul(2).min(cap);
        if next == cap && self.wait < cap {
            blunt_obs::static_counter!("store.client.backoff_max_reached").inc();
        }
        self.wait = next;
        self.due = Some(now + self.wait);
    }
}

/// The per-op protocol state: either the real quorum machine or the
/// intentionally-broken single-server read.
enum Machine {
    Abd(ActiveOp),
    Broken { target: Pid },
}

/// One in-flight operation, keyed in the active map by its current `sn`.
struct InFlight {
    spec: OpSpec,
    inv: InvId,
    span: SpanCtx,
    machine: Machine,
    t0: Instant,
    /// The exchange the reply-gap rule has already rebroadcast: it fires
    /// once per exchange, then the deadline is the backstop.
    gap_sn: Option<u32>,
}

/// What sent a retransmission; the value is `OpRetransmit`'s `b` word.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// The shard was silent for its whole backoff window.
    Deadline = 0,
    /// [`quorum_out_of_reach`] held.
    Gap = 1,
}

/// The reply-gap rule: can `op`'s current exchange no longer gather `quorum`
/// responses from first transmissions? `answered[r]` is the highest exchange
/// number this client has seen any response to from replica `r` (indexed
/// like the responder masks, by [`Pid::index`]).
///
/// A client sends its exchanges in `sn` order over FIFO links to replicas
/// that answer in arrival order, so a replica of the op's shard that has
/// answered a later exchange and not this one is *lost* to it: its response
/// was dropped, is held by a delay fault, died with a crash, or was never
/// solicited. The exchange is out of reach when the replicas not lost are
/// fewer than a quorum. A replica that is merely silent counts as reachable
/// — one proved loss beside a slow replica is a guess, and guesses wait for
/// the deadline. Only precision rests on the FIFO argument, never safety:
/// handlers are idempotent per exchange ([`ActiveOp::retransmission`]).
fn quorum_out_of_reach(op: &ActiveOp, replicas: &[Pid], answered: &[u32], quorum: u32) -> bool {
    let (Some(sn), Some(responders)) = (op.current_sn(), op.responders()) else {
        return false; // awaiting its choice: nothing is in flight
    };
    let reachable = replicas
        .iter()
        .filter(|r| responders & (1u64 << r.index()) != 0 || answered[r.index()] <= sn)
        .count();
    reachable < quorum as usize
}

/// The per-client rng stream: a pure function of `(seed, client)`, one salt
/// for every run shape.
fn client_rng(seed: u64, c: u32) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x5704_E000_0000_0000 ^ u64::from(c).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Draws the next `n` ops of a client's program, in program order: per op
/// the key (skipped at `keys = 1`), read/write, then the object random
/// choice iff `k > 1`. Everything random about an op is fixed here, before
/// any message moves, so the stream position never depends on reply
/// scheduling — in particular the choice is *not* drawn when the last
/// preamble quorum completes, which under pipelining happens in arrival
/// order. The fault injector never sees the choice, so drawing it early is
/// unobservable.
fn draw_burst(
    rng: &mut SplitMix64,
    cfg: &StoreConfig,
    k: u32,
    ring_map: &HashRing,
    first_idx: u64,
    n: u64,
) -> VecDeque<OpSpec> {
    (first_idx..first_idx + n)
        .map(|idx| {
            let key = if cfg.keys > 1 {
                ObjId(u32::try_from(rng.draw(cfg.keys as usize)).expect("key fits u32"))
            } else {
                ObjId(0)
            };
            let is_read = rng.draw(1000) < usize::from(cfg.read_per_mille);
            let choice = if k > 1 { rng.draw(k as usize) } else { 0 };
            OpSpec {
                idx,
                key,
                shard: ring_map.shard_for(key),
                is_read,
                choice,
                deferred: false,
            }
        })
        .collect()
}

/// One pipelined client's whole state between two steps. It draws a burst
/// of op specs in program order, keeps up to `pipeline_depth` of them in
/// flight (never two on the same key), and multiplexes every reply/ack back
/// to its op by `sn`. All protocol sends go through a per-client
/// [`BatchingTransport`]. Every `Call` and `Return` goes to its shard's
/// [`ShardMonitor`] at the program point it happens, and is checked there.
///
/// Liveness is **per shard** ([`ShardHealth`]): each shard has its own
/// backoff clock, timeouts retransmit only that shard's stalled ops, and a
/// shard that stays silent for [`DEGRADED_AFTER_STRIKES`] windows is
/// *degraded* — pipeline fill then keeps at most
/// [`DEGRADED_INFLIGHT_CAP`] ops in flight there (counted as
/// `store.degraded_ops` deferrals) so one recovering shard never
/// head-of-line blocks the others. A shard that *is* answering while one
/// exchange's responses were lost never reaches that deadline: the
/// reply-gap rule ([`quorum_out_of_reach`]) rebroadcasts the exchange at
/// the end of the pass that proves the loss.
///
/// The machine never blocks and takes every deadline decision at a `now`
/// it is handed, so a test can step it through a fake [`Transport`] with
/// no thread and no wall clock; the worker steps it as a [`Client`]. Only
/// an op's latency reads the clock, at completion.
struct StoreClient<'a> {
    c: u32,
    me: Pid,
    cfg: &'a StoreConfig,
    k: u32,
    ring_map: HashRing,
    monitors: &'a [ShardMonitor<'a>],
    telemetry: &'a Telemetry,
    /// This client's flight ring (`client-<pid>`).
    ring: Arc<FlightRing>,
    rng: SplitMix64,
    bt: BatchingTransport<'a>,
    quorum: u32,
    shard_servers: Vec<Vec<Pid>>,
    initial_wait: Duration,
    sn_counter: u32,
    /// Ops drawn so far: the next burst's first op index.
    drawn: u64,
    /// Per replica, the highest exchange number any of its responses to
    /// this client has carried: the reply-gap rule's evidence. Exchange
    /// numbers only grow, so it outlives the bursts.
    answered: Vec<u32>,
    pending: VecDeque<OpSpec>,
    /// The ops in flight by their current `sn`; ordered, so timeout
    /// retransmission order is deterministic.
    active: BTreeMap<u32, InFlight>,
    active_keys: HashSet<u32>,
    health: Vec<ShardHealth>,
    latency: Histogram,
    retransmissions: u64,
    gap_retransmissions: u64,
    degraded_ops: u64,
    /// Replies refused because their `sn` names no exchange in flight.
    stale_replies: u64,
    /// Every op has completed and every buffered request has left.
    finished: bool,
}

impl<'a> StoreClient<'a> {
    fn new(
        c: u32,
        cfg: &'a StoreConfig,
        k: u32,
        transport: &'a dyn Transport,
        monitors: &'a [ShardMonitor<'a>],
        telemetry: &'a Telemetry,
        recorder: &FlightRecorder,
    ) -> StoreClient<'a> {
        let spr = cfg.servers_per_shard;
        let me = Pid(cfg.servers_total() + c);
        let initial_wait = cfg.retransmit_after.min(cfg.retransmit_cap);
        StoreClient {
            c,
            me,
            cfg,
            k,
            ring_map: HashRing::new(cfg.seed, cfg.shards),
            monitors,
            telemetry,
            ring: recorder.register(&format!("client-{}", me.0)),
            rng: client_rng(cfg.seed, c),
            bt: BatchingTransport::new(transport, cfg.batch_max),
            quorum: spr / 2 + 1,
            shard_servers: (0..cfg.shards)
                .map(|s| (s * spr..(s + 1) * spr).map(Pid).collect())
                .collect(),
            initial_wait,
            sn_counter: 0,
            drawn: 0,
            answered: vec![0; cfg.servers_total() as usize],
            pending: VecDeque::new(),
            active: BTreeMap::new(),
            active_keys: HashSet::new(),
            health: (0..cfg.shards)
                .map(|_| ShardHealth::new(initial_wait))
                .collect(),
            latency: Histogram::unregistered(),
            retransmissions: 0,
            gap_retransmissions: 0,
            degraded_ops: 0,
            stale_replies: 0,
            finished: false,
        }
    }

    /// Draws the next burst, every shard's backoff clock fresh.
    fn start_burst(&mut self) {
        let n = self.cfg.burst.min(self.cfg.ops_per_client - self.drawn);
        self.pending = draw_burst(
            &mut self.rng,
            self.cfg,
            self.k,
            &self.ring_map,
            self.drawn,
            n,
        );
        self.drawn += n;
        for h in &mut self.health {
            *h = ShardHealth::new(self.initial_wait);
        }
    }

    /// Fills the pipeline: first startable spec front-to-back, skipping
    /// keys already in flight and shards that are degraded with their
    /// in-flight cap reached. A skipped spec's key stays pending, and any
    /// later same-key spec shares both its key-active and shard-degraded
    /// status — per-key program order holds. Returns whether any op is in
    /// flight: `false` ends the burst.
    fn fill(&mut self) -> bool {
        while self.active.len() < self.cfg.pipeline_depth as usize {
            let startable = self.pending.iter_mut().position(|s| {
                let h = &self.health[s.shard as usize];
                if self.active_keys.contains(&s.key.0) {
                    return false;
                }
                if h.degraded && h.in_flight >= DEGRADED_INFLIGHT_CAP {
                    if !s.deferred {
                        s.deferred = true;
                        self.degraded_ops += 1;
                        blunt_obs::static_counter!("store.degraded_ops").inc();
                    }
                    return false;
                }
                true
            });
            let Some(pos) = startable else {
                break;
            };
            let spec = self.pending.remove(pos).expect("position from this deque");
            self.start(spec);
        }
        debug_assert!(
            !self.active.is_empty() || self.pending.is_empty(),
            "startable ops exist while idle"
        );
        !self.active.is_empty()
    }

    /// Starts one op: its `Call` to the shard monitor, its first exchange
    /// to the shard's replicas.
    fn start(&mut self, spec: OpSpec) {
        self.sn_counter += 1;
        let sn = self.sn_counter;
        let me = self.me;
        let inv = InvId(u64::from(me.0) * (10 * MAX_OPS_PER_CLIENT) + spec.idx);
        let (method, arg) = if spec.is_read {
            (MethodId::READ, Val::Nil)
        } else {
            // Unique write values keep the checker's search shallow and
            // make stale reads unambiguous.
            let v = u64::from(self.c) * MAX_OPS_PER_CLIENT + spec.idx;
            (
                MethodId::WRITE,
                Val::Int(i64::try_from(v).expect("write value fits i64")),
            )
        };
        self.telemetry.op_started();
        self.monitors[spec.shard as usize].observe(Action::Call {
            inv,
            pid: me,
            obj: spec.key,
            method,
            arg: arg.clone(),
        });
        let span = SpanCtx::request(me.0, inv.0);
        self.ring.record_span_key(
            if spec.is_read {
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
            u64::from(spec.key.0),
        );
        let t0 = Instant::now();
        let dsts = &self.shard_servers[spec.shard as usize];
        let machine = if self.cfg.broken_reads && spec.is_read {
            // The broken read queries ONE replica (rotating) and returns
            // its value with no write-back — the per-shard monitor must
            // flag the resulting inversions.
            let target = dsts[usize::try_from(spec.idx).expect("op index") % dsts.len()];
            self.bt.send(
                Envelope::abd(me, target, AbdMsg::Query { obj: spec.key, sn }, false)
                    .with_span(span),
            );
            Machine::Broken { target }
        } else {
            let kind = if spec.is_read {
                OpKind::Read
            } else {
                OpKind::Write(arg)
            };
            let op = ActiveOp::start(inv, spec.key, kind, self.k, sn);
            self.bt
                .broadcast_span(me, dsts, &AbdMsg::Query { obj: spec.key, sn }, false, span);
            Machine::Abd(op)
        };
        self.active_keys.insert(spec.key.0);
        let h = &mut self.health[spec.shard as usize];
        h.in_flight += 1;
        if h.due.is_none() {
            h.due = Some(t0 + h.wait);
        }
        self.active.insert(
            sn,
            InFlight {
                spec,
                inv,
                span,
                machine,
                t0,
                gap_sn: None,
            },
        );
    }

    /// One envelope off the mailbox, handled at the pass's `now`: progress for
    /// its shard, evidence for the reply-gap rule, and a step of the op
    /// whose exchange it answers — which completes the op, or moves it to
    /// its next exchange, or leaves it waiting.
    fn on_envelope(&mut self, env: Envelope, now: Instant) {
        self.ring.record_span(
            FlightKind::BusDeliver,
            self.me.0,
            u64::from(env.src.0),
            env.msg.flight_label(),
            env.span.flight_word(),
        );
        // Any frame from a shard's replica is progress: reset that shard's
        // backoff and clear its degraded flag.
        if env.src.0 < self.cfg.servers_total() {
            let shard = env.src.0 / self.cfg.servers_per_shard;
            self.health[shard as usize].on_message(self.initial_wait, now);
        }
        let Payload::Abd(msg) = env.msg else {
            return; // control traffic never targets clients
        };
        let (AbdMsg::Reply { obj, sn, .. } | AbdMsg::Ack { obj, sn }) = &msg else {
            return;
        };
        let (obj, sn) = (*obj, *sn);
        // Every response is evidence for the reply-gap rule, a stale or
        // duplicate one as much as any.
        let seen = &mut self.answered[env.src.index()];
        *seen = (*seen).max(sn);
        let Some(mut fl) = self.active.remove(&sn) else {
            // A stale round, already finished: on a fault-free op, the
            // last replica's answer in each exchange.
            self.stale_replies += 1;
            return;
        };
        let mut key = sn;
        let ret = match (msg, &mut fl.machine) {
            _ if fl.spec.key != obj => None,
            (AbdMsg::Reply { val, .. }, Machine::Broken { .. }) => Some(val),
            (AbdMsg::Reply { val, ts, .. }, Machine::Abd(op)) => {
                // The exchange the reply moved the op into, if any: its sn
                // and opening broadcast.
                let next = match op.on_reply(
                    env.src,
                    sn,
                    &val,
                    ts,
                    self.quorum,
                    self.me,
                    &mut self.sn_counter,
                ) {
                    ReplyEffect::NextQuery { sn, .. } => Some((sn, AbdMsg::Query { obj, sn })),
                    ReplyEffect::StartUpdate { sn, val, ts, .. } => {
                        Some((sn, AbdMsg::Update { obj, sn, val, ts }))
                    }
                    ReplyEffect::NeedChoice { .. } => {
                        // The object random step, drawn at burst setup
                        // (`draw_burst`).
                        let (sn, val, ts) =
                            op.choose(fl.spec.choice, self.me, &mut self.sn_counter);
                        Some((sn, AbdMsg::Update { obj, sn, val, ts }))
                    }
                    ReplyEffect::Ignored | ReplyEffect::Counted => None,
                };
                if let Some((sn, msg)) = next {
                    let dsts = &self.shard_servers[fl.spec.shard as usize];
                    self.bt.broadcast_span(self.me, dsts, &msg, false, fl.span);
                    key = sn;
                }
                None
            }
            (AbdMsg::Ack { .. }, Machine::Abd(op)) => match op.on_ack(env.src, sn, self.quorum) {
                AckEffect::Complete { ret } => Some(ret),
                AckEffect::Ignored | AckEffect::Counted => None,
            },
            _ => None,
        };
        match ret {
            Some(ret) => self.complete(&fl, ret),
            None => {
                self.active.insert(key, fl);
            }
        }
    }

    /// Seals one finished operation: latency, flight event, its `Return`
    /// to the shard's monitor, key and shard slot released.
    fn complete(&mut self, fl: &InFlight, ret: Val) {
        let lat_us = u64::try_from(fl.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.latency.record(lat_us);
        self.telemetry.op_completed(lat_us);
        self.ring.record_span_key(
            if fl.spec.is_read {
                FlightKind::OpCompleteRead
            } else {
                FlightKind::OpCompleteWrite
            },
            self.me.0,
            fl.inv.0,
            encode_val(match &ret {
                Val::Int(v) => Some(*v),
                _ => None,
            }),
            fl.span.flight_word(),
            u64::from(fl.spec.key.0),
        );
        self.monitors[fl.spec.shard as usize].observe(Action::Return {
            inv: fl.inv,
            val: ret,
        });
        self.active_keys.remove(&fl.spec.key.0);
        let h = &mut self.health[fl.spec.shard as usize];
        h.in_flight -= 1;
        if h.in_flight == 0 {
            h.due = None;
        }
    }

    /// The end of a pass: both rebroadcast triggers, judged at the pass's
    /// `now`.
    ///
    /// Reply gap first (a reordered or parked response lands within its
    /// batch, so a verdict per envelope would be early): an exchange whose
    /// quorum first transmissions can no longer complete is rebroadcast at
    /// once, and once — after that the deadline is its backstop. Not a
    /// strike, and the shard's `due` and `wait` stand: the shard is
    /// demonstrably answering.
    ///
    /// Then the deadline: every shard whose `due` is not after `now` gets
    /// its stalled ops rebroadcast, its backoff doubled, and a strike
    /// toward degraded status. Other shards' clocks are untouched: one
    /// silent shard never triggers retransmission storms across the
    /// healthy ones.
    fn sweep(&mut self, now: Instant) {
        let mut active = std::mem::take(&mut self.active);
        for (&sn, fl) in &mut active {
            let Machine::Abd(op) = &fl.machine else {
                continue;
            };
            let replicas = &self.shard_servers[fl.spec.shard as usize];
            if fl.gap_sn != Some(sn)
                && quorum_out_of_reach(op, replicas, &self.answered, self.quorum)
            {
                fl.gap_sn = Some(sn);
                self.rebroadcast(sn, fl, Trigger::Gap);
            }
        }
        for shard in 0..self.health.len() {
            let h = &self.health[shard];
            if h.in_flight == 0 || h.due.is_none_or(|due| due > now) {
                continue;
            }
            for (&sn, fl) in &active {
                if fl.spec.shard as usize == shard {
                    self.rebroadcast(sn, fl, Trigger::Deadline);
                }
            }
            self.health[shard].on_silence(self.cfg.retransmit_cap, now);
        }
        self.active = active;
    }

    /// The one rebroadcast routine, whichever trigger calls it: exempt from
    /// fault fates, so recovery traffic never consumes schedule indices. A
    /// broken read re-asks its one replica; the quorum machine rebroadcasts
    /// whatever exchange it is in.
    fn rebroadcast(&mut self, sn: u32, fl: &InFlight, trigger: Trigger) {
        let (msg, target) = match &fl.machine {
            Machine::Abd(op) => (op.retransmission(), None),
            Machine::Broken { target } => (
                Some(AbdMsg::Query {
                    obj: fl.spec.key,
                    sn,
                }),
                Some(*target),
            ),
        };
        let Some(msg) = msg else {
            return;
        };
        self.retransmissions += 1;
        blunt_obs::static_counter!("store.client.retransmissions").inc();
        if trigger == Trigger::Gap {
            self.gap_retransmissions += 1;
            blunt_obs::static_counter!("store.client.gap_retransmissions").inc();
        }
        self.ring.record_span(
            FlightKind::OpRetransmit,
            self.me.0,
            u64::from(sn),
            trigger as u64,
            fl.span.flight_word(),
        );
        match target {
            Some(t) => self
                .bt
                .send(Envelope::abd(self.me, t, msg, true).with_span(fl.span)),
            None => self.bt.broadcast_span(
                self.me,
                &self.shard_servers[fl.spec.shard as usize],
                &msg,
                true,
                fl.span,
            ),
        }
    }

    /// When the driver must step the client even if nothing arrives: the
    /// earliest shard retransmission deadline — each shard's backoff runs
    /// on its own clock.
    fn next_deadline(&self, now: Instant) -> Instant {
        self.health
            .iter()
            .filter_map(|h| h.due)
            .min()
            .unwrap_or(now + self.initial_wait)
    }
}

/// The worker steps a client pass by pass (`blunt_runtime::worker`).
///
/// Each pass **drains, then flushes**: the worker hands the client every
/// reply the pass took, and the requests those replies produce wait in the
/// batch buffer for the next pass's step, which fills the pipeline and
/// flushes them together — so batches fill toward `batch_max`, and nothing
/// is delayed, because a request buffered here could not have been
/// answered within the pass anyway. One clock reading serves the whole
/// pass: backoff deadlines are milliseconds, a pass is microseconds.
impl Client for StoreClient<'_> {
    fn pid(&self) -> Pid {
        self.me
    }

    fn ring(&self) -> &Arc<FlightRing> {
        &self.ring
    }

    /// A burst is over when no op is in flight: the client draws the next
    /// one, or finishes after the last.
    fn step(&mut self) {
        if self.finished {
            return;
        }
        if !self.fill() {
            if self.drawn == self.cfg.ops_per_client {
                // An op completes at its quorum, which can be while the
                // batch layer still holds its request to the last replica:
                // that envelope is owed to the link like every other, or
                // the link's offered count would depend on whether some
                // later flush happened to carry it.
                self.bt.flush_pending();
                self.finished = true;
                blunt_obs::static_counter!("store.client.stale_replies").add(self.stale_replies);
                return;
            }
            self.start_burst();
            self.fill();
        }
        // The replies being waited on can't arrive until the requests
        // actually leave.
        self.bt.flush_pending();
    }

    fn on_envelope(&mut self, env: Envelope, now: Instant) {
        StoreClient::on_envelope(self, env, now);
    }

    fn sweep(&mut self, now: Instant) -> bool {
        let before = self.retransmissions;
        StoreClient::sweep(self, now);
        self.retransmissions > before
    }

    fn deadline(&self, now: Instant) -> Option<Instant> {
        (!self.finished).then(|| self.next_deadline(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_abd::client::OpKind;
    use blunt_abd::ts::Ts;

    /// A read in exchange `sn` that `responders` have answered (fed with a
    /// quorum nobody reaches, so the exchange stays open).
    fn op_in_exchange(sn: u32, responders: &[u32]) -> ActiveOp {
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 1, sn);
        for &r in responders {
            let effect = op.on_reply(Pid(r), sn, &Val::Nil, Ts::ZERO, 64, Pid(9), &mut 0);
            assert_eq!(effect, ReplyEffect::Counted);
        }
        op
    }

    #[test]
    fn the_reply_gap_rule_fires_on_proof_and_on_nothing_less() {
        // Shard 1 of a 2 × 3 topology; the op is in exchange 10.
        let shard: Vec<Pid> = (3..6).map(Pid).collect();
        let rule = |responders: &[u32], answered: [u32; 6]| {
            quorum_out_of_reach(&op_in_exchange(10, responders), &shard, &answered, 2)
        };
        // No evidence: nobody has answered anything later.
        assert!(!rule(&[], [0; 6]));
        assert!(!rule(&[], [0, 0, 0, 9, 10, 4]));
        // Another shard's replicas are no evidence either.
        assert!(!rule(&[], [50, 50, 50, 0, 0, 0]));
        // One replica proved lost beside a merely silent one is a guess.
        assert!(!rule(&[], [0, 0, 0, 11, 0, 0]));
        assert!(!rule(&[5], [0, 0, 0, 11, 0, 10]));
        // Two proved lost: the third alone is no quorum, answered or not.
        assert!(rule(&[], [0, 0, 0, 11, 12, 0]));
        assert!(rule(&[5], [0, 0, 0, 11, 12, 10]));
        // A replica that answered this exchange is never lost, whatever
        // else it answered since.
        assert!(!rule(&[3], [0, 0, 0, 14, 12, 0]));
        assert!(!rule(&[], [0, 0, 0, 10, 12, 0]));
        // A quorum already met has nothing out of reach.
        assert!(!rule(&[3, 4], [0, 0, 0, 14, 12, 13]));

        // Five replicas, quorum 3: three must be proved lost.
        let five: Vec<Pid> = (0..5).map(Pid).collect();
        let op = op_in_exchange(10, &[0]);
        assert!(!quorum_out_of_reach(&op, &five, &[10, 11, 12, 0, 0], 3));
        assert!(quorum_out_of_reach(&op, &five, &[10, 11, 12, 13, 0], 3));

        // The update exchange is held to the same rule; an op awaiting its
        // object random choice has nothing in flight to lose.
        let update = ActiveOp::start_sw_write(InvId(0), ObjId(0), Val::Int(1), Ts::ZERO, 10);
        assert!(quorum_out_of_reach(
            &update,
            &shard,
            &[0, 0, 0, 11, 12, 0],
            2
        ));
        let mut choosing = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 2, 9);
        let mut sn_counter = 9;
        for sn in [9, 10] {
            for r in [3, 4] {
                choosing.on_reply(Pid(r), sn, &Val::Nil, Ts::ZERO, 2, Pid(9), &mut sn_counter);
            }
        }
        assert_eq!(choosing.current_sn(), None);
        assert!(!quorum_out_of_reach(&choosing, &shard, &[99; 6], 2));
    }

    /// A fault-free bus that swallows the first transmissions `lose` picks
    /// (by destination and message): scripted loss where the injector's is
    /// drawn. Retransmissions are exempt from it as from any fate.
    struct Lossy {
        bus: Bus,
        lose: fn(Pid, &AbdMsg) -> bool,
    }

    impl Transport for Lossy {
        fn send(&self, env: Envelope) {
            let lost = match &env.msg {
                Payload::Abd(msg) => !env.exempt && (self.lose)(env.dst, msg),
                _ => false,
            };
            if !lost {
                self.bus.send(env);
            }
        }

        fn flush(&self) {
            self.bus.flush();
        }

        fn stats(&self) -> TransportStats {
            self.bus.stats()
        }

        fn coverage(&self) -> Coverage {
            self.bus.coverage()
        }
    }

    /// One client at depth 8 runs `ops` ops (one burst when `ops ≤ 8`)
    /// against one shard of three replicas, both behind [`Lossy`];
    /// `deadline` is the first retransmission timeout and its cap.
    fn scripted(ops: u64, deadline: Duration, lose: fn(Pid, &AbdMsg) -> bool) -> StoreReport {
        let mut cfg = StoreConfig::bench(0x6A9);
        cfg.shards = 1;
        cfg.clients = 1;
        cfg.ops_per_client = ops;
        cfg.retransmit_after = deadline;
        cfg.retransmit_cap = deadline;
        let recorder = Arc::new(FlightRecorder::new(4096));
        let (bus, mut mailbox) = shard_bus(&cfg, &recorder).expect("no faults to misconfigure");
        let started = Instant::now();
        let mut report = drive_clients(
            &cfg,
            &RunOpts::default(),
            &Lossy { bus, lose },
            &mut mailbox,
            &recorder,
            started,
            &Replicas::Local(&[RecoverySink::default()]),
        );
        report.elapsed = started.elapsed();
        assert!(
            report.monitor.clean(),
            "scripted loss broke linearizability"
        );
        assert_eq!(report.ops, ops);
        report
    }

    /// The first op's opening query reaches replica 0 only.
    fn first_query_reaches_one_replica(dst: Pid, msg: &AbdMsg) -> bool {
        dst.0 != 0 && matches!(msg, AbdMsg::Query { sn: 1, .. })
    }

    #[test]
    fn a_proved_loss_is_rebroadcast_at_once_not_at_the_deadline() {
        // Seven later exchanges are in flight to the same replicas: the two
        // that never heard exchange 1 answer those, which proves the loss
        // one round trip after it happened. The 10 s deadline never runs.
        let r = scripted(8, Duration::from_secs(10), first_query_reaches_one_replica);
        assert_eq!((r.retransmissions, r.gap_retransmissions), (1, 1));
        assert!(r.elapsed < Duration::from_secs(2), "took {:?}", r.elapsed);
    }

    #[test]
    fn a_tail_exchange_has_no_successor_and_waits_for_the_deadline() {
        let deadline = Duration::from_millis(30);
        let r = scripted(1, deadline, first_query_reaches_one_replica);
        assert_eq!((r.retransmissions, r.gap_retransmissions), (1, 0));
        assert!(r.elapsed >= deadline, "took {:?}", r.elapsed);
    }

    #[test]
    fn one_proved_loss_beside_a_silent_replica_waits_for_the_deadline() {
        // Replica 2 hears no first transmission at all, so it answers
        // nothing and proves nothing; replica 1 misses exchange 1 and its
        // later answers prove that. One replica lost of three leaves a
        // quorum in reach on paper: a rule that rebroadcast here would be
        // guessing that the silent replica is gone rather than slow.
        let deadline = Duration::from_millis(30);
        let r = scripted(8, deadline, |dst, msg| {
            dst.0 == 2 || first_query_reaches_one_replica(dst, msg)
        });
        assert_eq!(r.gap_retransmissions, 0);
        assert!(r.retransmissions >= 1);
        assert!(r.elapsed >= deadline, "took {:?}", r.elapsed);
    }

    /// Keeps what a client hands its transport, for the test to take.
    #[derive(Default)]
    struct Sent(std::sync::Mutex<Vec<Envelope>>);

    impl Sent {
        /// `(dst, sn, exempt)` of every query sent since the last take.
        fn queries(&self) -> Vec<(u32, u32, bool)> {
            let sent = std::mem::take(&mut *self.0.lock().unwrap());
            sent.into_iter()
                .map(|e| match e.msg {
                    Payload::Abd(AbdMsg::Query { sn, .. }) => (e.dst.0, sn, e.exempt),
                    other => panic!("expected a query, got {other:?}"),
                })
                .collect()
        }
    }

    impl Transport for Sent {
        fn send(&self, env: Envelope) {
            self.0.lock().unwrap().push(env);
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
    fn a_deadline_fires_at_due_not_a_nanosecond_before_and_once_per_window() {
        // One client, one op, one shard of three; windows of 1 ms doubling
        // to a 4 ms cap. The client is stepped by hand: no server threads,
        // and every deadline decision is taken at a `now` the test picks.
        let mut cfg = StoreConfig::register(0xDEAD);
        cfg.clients = 1;
        cfg.ops_per_client = 1;
        cfg.retransmit_after = Duration::from_millis(1);
        cfg.retransmit_cap = Duration::from_millis(4);
        let recorder = Arc::new(FlightRecorder::new(256));
        let telemetry = Telemetry::default();
        let monitors = [ShardMonitor::new(0, &recorder, 4)];
        let sent = Sent::default();
        let mut client = StoreClient::new(0, &cfg, 1, &sent, &monitors, &telemetry, &recorder);
        client.start_burst();
        assert!(client.fill());
        let first: Vec<_> = (0..3).map(|r| (r, 1, false)).collect();
        assert_eq!(sent.queries(), first, "the opening query, fated");
        let rebroadcast: Vec<_> = (0..3).map(|r| (r, 1, true)).collect();

        let ns = Duration::from_nanos(1);
        let mut due = client.next_deadline(Instant::now());
        for (fired, window_ms) in (1..=4).zip([2, 4, 4, 4]) {
            client.sweep(due - ns);
            assert_eq!(sent.queries(), [], "fired a nanosecond early");
            client.sweep(due);
            assert_eq!(sent.queries(), rebroadcast, "exempt, to the whole shard");
            client.sweep(due);
            assert_eq!(sent.queries(), [], "fired twice in one window");
            assert_eq!(client.retransmissions, fired);
            let next = client.next_deadline(due);
            assert_eq!(next - due, Duration::from_millis(window_ms), "backoff");
            due = next;
        }
        assert_eq!(client.gap_retransmissions, 0);

        // A reply from one replica is progress: the window starts over at
        // 1 ms from the pass that carried it.
        let reply = |src: u32, now: Instant, client: &mut StoreClient<'_>| {
            let msg = AbdMsg::Reply {
                obj: ObjId(0),
                sn: 1,
                val: Val::Nil,
                ts: Ts::ZERO,
            };
            client.on_envelope(Envelope::abd(Pid(src), Pid(3), msg, false), now);
        };
        let now = due - Duration::from_millis(3);
        reply(0, now, &mut client);
        assert_eq!(client.next_deadline(now), now + Duration::from_millis(1));
        client.sweep(now + Duration::from_millis(1) - ns);
        assert_eq!(sent.queries(), []);

        // A second reply completes the query phase; the op moves on to its
        // update exchange, and a quorum of acks completes it.
        reply(1, now, &mut client);
        let updates = std::mem::take(&mut *sent.0.lock().unwrap());
        assert_eq!(updates.len(), 3);
        assert!(updates
            .iter()
            .all(|e| matches!(e.msg, Payload::Abd(AbdMsg::Update { sn: 2, .. }))));
        for src in [2, 0] {
            let ack = AbdMsg::Ack {
                obj: ObjId(0),
                sn: 2,
            };
            client.on_envelope(Envelope::abd(Pid(src), Pid(3), ack, false), now);
        }
        assert!(!client.fill(), "the op completed");
        assert_eq!(client.latency.snapshot().count, 1);
        assert_eq!(client.next_deadline(now), now + Duration::from_millis(1));

        // The shard monitor checked the op's `Call` and `Return` as they
        // happened.
        drop(client);
        let [monitor] = monitors;
        let (report, actions, _, dump) = monitor.finish();
        assert!(report.clean() && dump.is_none());
        assert_eq!((report.checked, actions), (1, 2));
    }

    fn draws(cfg: &StoreConfig, k: u32, client: u32, bursts: &[u64]) -> Vec<(u32, bool, usize)> {
        let ring_map = HashRing::new(cfg.seed, cfg.shards);
        let mut rng = client_rng(cfg.seed, client);
        let mut out = Vec::new();
        let mut done = 0;
        for &n in bursts {
            let burst = draw_burst(&mut rng, cfg, k, &ring_map, done, n);
            done += n;
            out.extend(burst.iter().map(|s| (s.key.0, s.is_read, s.choice)));
        }
        out
    }

    #[test]
    fn the_draw_order_is_key_then_read_write_then_choice() {
        let cfg = StoreConfig::smoke(0x5709_D4A7);
        // Pinned twice over — against the raw stream (a reordering of the
        // three draws, or a fourth one, moves every later op of every seed)
        // and against literals (so does a second salt).
        let mut rng = client_rng(cfg.seed, 0);
        let raw: Vec<(u32, bool, usize)> = (0..4)
            .map(|_| {
                let key = u32::try_from(rng.draw(64)).expect("key fits u32");
                (key, rng.draw(1000) < 500, rng.draw(2))
            })
            .collect();
        assert_eq!(draws(&cfg, 2, 0, &[4]), raw);
        assert_eq!(
            raw,
            [(26, false, 1), (54, true, 0), (7, false, 0), (51, true, 1)]
        );
        // The same stream at any depth, however the program is cut into
        // bursts, and for any client but only that client.
        let mut deep = cfg.clone();
        deep.pipeline_depth = 8;
        let mut serial = cfg.clone();
        serial.pipeline_depth = 1;
        assert_eq!(
            draws(&deep, 2, 3, &[8, 8]),
            draws(&serial, 2, 3, &[3, 8, 5])
        );
        assert_ne!(draws(&cfg, 2, 3, &[16]), draws(&cfg, 2, 2, &[16]));
    }

    #[test]
    fn a_draw_the_shape_does_not_need_is_not_taken() {
        // k = 1 draws no choice: the k = 2 stream minus every third draw
        // is a different stream, but its first op agrees on key and kind.
        let cfg = StoreConfig::smoke(0x5709_D4A7);
        let (k1, k2) = (draws(&cfg, 1, 0, &[4]), draws(&cfg, 2, 0, &[4]));
        assert_eq!((k1[0].0, k1[0].1), (k2[0].0, k2[0].1));
        assert!(k1.iter().all(|&(_, _, choice)| choice == 0));
        // keys = 1 draws no key: every op lands on register 0, and the
        // read/write draw is the stream's first.
        let mut one = StoreConfig::register(0x5709_D4A7);
        one.seed = cfg.seed;
        let reg = draws(&one, 1, 0, &[4]);
        assert!(reg.iter().all(|&(key, _, _)| key == 0));
        let mut rng = client_rng(cfg.seed, 0);
        assert_eq!(reg[0].1, rng.draw(1000) < 500);
    }
}
