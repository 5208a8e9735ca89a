//! chaos — seeded soak runner for the chaos runtime (`blunt_runtime`
//! replicas under the one client driver in `blunt_store`): ABD and O^k step
//! machines on one worker per run process under fault injection, plus the
//! Vitányi–Awerbuch register stepped in a seeded order, with the online
//! linearizability monitor as the oracle. Every mode plans named
//! `(StoreConfig, RunOpts)` runs for that one driver — the register set is
//! the store at one shard and one key.
//!
//! ```sh
//! cargo run --release -p blunt-bench --bin chaos                 # full soak set
//! cargo run --release -p blunt-bench --bin chaos -- --smoke      # CI-sized
//! cargo run --release -p blunt-bench --bin chaos -- --seed 7
//! cargo run --release -p blunt-bench --bin chaos -- --fault-profile amnesia
//! cargo run --release -p blunt-bench --bin chaos -- --smoke --watch 1s
//! cargo run --release -p blunt-bench --bin chaos -- --demo-broken
//! cargo run --release -p blunt-bench --bin chaos -- --demo-amnesia
//! cargo run --release -p blunt-bench --bin chaos -- --store --smoke --fault-profile amnesia
//! cargo run --release -p blunt-bench --bin chaos -- --store --smoke --k 2
//! cargo run --release -p blunt-bench --bin chaos -- --store --demo-amnesia
//! chaos serve --listen s0.sock --server-id 0 --servers 3 \
//!     --fault-profile light &               # … one per server, then:
//! chaos --smoke --connect s0.sock,s1.sock,s2.sock --fault-profile light --seed 7
//! ```
//!
//! **One command line.** The driver and `chaos serve` parse through one
//! argument loop; a flag of the other mode is a usage error. Over sockets
//! the driver draws every fate of the run — requests' as it sends them,
//! replies' as its readers take them off the wire — and a serve process
//! holds no fault schedule: it takes only the flags that decide the
//! recovery mode (`--fault-profile`, `--recovery`), and both sides read
//! that mode through the one `blunt_bench::FaultFlags::recovery_mode`, so the
//! same two flags agree on it. `--seed`, `--crash-len` and
//! `--crash-period` are the driver's alone. `serve` requires
//! `--fault-profile`: it has no run shape to take a default mix from.
//!
//! `--fault-profile none|light|heavy|amnesia` narrows the run to the two
//! ABD shapes (k = 1, 2) under the named fault mix; `amnesia` additionally
//! turns crashes into full volatile-state loss with WAL + peer-catch-up
//! recovery. `--k N` sets the preamble depth wherever a single
//! configuration runs (`--store`, `--connect`, `--sweep`, the demos); the
//! side-by-side register set rejects it. `--crash-len`/`--crash-period` override the crash window
//! shape; an unusable combination (windows that cannot stagger disjointly,
//! rates past 1000‰) is a *usage* error: the offending numbers go to
//! stderr and the exit status is 2, distinct from a soundness failure.
//!
//! **Live telemetry.** `--watch <interval>` (e.g. `1s`, `250ms`) streams a
//! progress line to stderr every interval: ops/sec, in-flight operations,
//! streaming latency percentiles (a mergeable quantile sketch, not the
//! end-of-run histogram), recoveries, and the monitor's backlog in
//! ops-behind-frontier. Watching is read-only — it never perturbs the
//! fault schedule, so a watched run and a silent run of the same seed
//! produce identical deterministic results. `--watch`, `--watch-out` and
//! the stall watchdog apply in every mode.
//!
//! **Flight recorder.** Every run keeps a bounded per-machine event window
//! (bus sends, fault decisions, op boundaries, acks, WAL flushes, crashes,
//! monitor violations). On a monitor violation the window is captured *at the
//! moment of detection* and written under `--dump-dir` (default
//! `target/chaos/flight/`) as JSONL plus a rendered
//! space-time diagram; a stall (no completed op for 60 s) does the same.
//! The demo modes emit `broken_fast_read.*` / `broken_amnesia.*` /
//! `broken_store_amnesia.*` dumps (a keyed `--demo-broken` uses its config
//! name) and nothing else: no results, no summary.
//!
//! Each configuration records the deterministic counters
//! `runtime.chaos.<cfg>.ops`, `.violations`, `.monitor_actions`, and (for
//! message-passing configs) `.recoveries`; the full counter snapshot plus
//! per-config wall-times — including the monitor-overhead phase
//! `monitor.<cfg>` (time inside `observe`) —
//! goes to `BENCH_results.json` (default
//! `target/chaos/BENCH_results.json`, `--results-out` to redirect) for the
//! `bench-report` gate — the committed baseline pins every `violations`
//! counter at 0, so a single violation fails `--check`. A machine-readable
//! run summary with per-link fault-schedule **coverage** goes to
//! `--summary-out` (default `target/chaos/RUN_summary.json`); it contains
//! only seed-deterministic fields, so two same-seed runs write identical
//! summaries.
//!
//! Every JSON file the binary writes — results, summary or sweep, batch
//! histogram, watch mirror, flight dump — opens with the same header: its
//! `type` and the one `blunt_obs::SCHEMA_VERSION`. They stay separate
//! files because only the summary is byte-identical for a seed.
//!
//! Exit status: `0` when every configuration is violation-free (or, under
//! the demo modes, when the intentionally-broken implementation IS caught);
//! `1` on a soundness failure; `2` on a usage error (including an
//! unwritable `--results-out`/`--summary-out`/`--dump-dir` path, reported
//! fail-fast before any run starts).
//!
//! `--demo-broken` replaces the quorum read with an unsound single-server
//! fast read; `--demo-amnesia` makes crash recovery skip WAL replay and
//! peer catch-up — with `--store`, on exactly one shard, whose per-shard
//! monitor must then be the one that fires. All demo modes print the
//! monitor's first violation window as a space-time diagram — the "show
//! me it actually catches bugs" modes.

use blunt_bench::{parallel_map, FaultFlags, FaultProfile};
use blunt_runtime::{
    run_net_server, run_shm_chaos, Addr, FaultConfig, NetServeConfig, RecoveryMode, ShmChaosConfig,
    MAX_OPS_PER_CLIENT,
};
use blunt_store::{run_store_with, RunOpts, StoreConfig, StoreReport};
use blunt_trace::regress::BenchResults;
use blunt_trace::{flight_space_time, DiagramOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: chaos [--smoke] [--store] [--sweep N] [--demo-broken | --demo-amnesia] [FLAGS]
       chaos serve --listen ADDR --server-id N --servers N --fault-profile P [FLAGS]
  both:   --fault-profile none|light|heavy|amnesia  --recovery stable|amnesia  --dump-dir DIR
  driver: --seed N  --crash-len N  --crash-period N  --results-out PATH  --summary-out PATH
          --watch DUR  --watch-out PATH  --ops-per-client N  --connect ADDR,...  --k N
  store:  --keys N  --shards N  --pipeline-depth N  --batch N  --batch-hist-out PATH
  serve:  --shard-size N
ADDR is host:port (TCP) or a filesystem path (Unix-domain socket); the driver draws every fate,
and a serve process takes only the flags that decide the recovery mode. --batch N caps what a client buffers per destination
replica before a forced flush (1 = no batching); a flush carries every destination's envelopes";

const DEFAULT_DUMP_DIR: &str = "target/chaos/flight";

/// Parsed command line, driver and `serve` alike. The fault flags apply on
/// top of whatever fault mix the selected configurations carry.
#[derive(Default)]
struct Cli {
    /// `chaos serve`: host one server process for a `--connect` driver.
    serve: bool,
    smoke: bool,
    demo_broken: bool,
    demo_amnesia: bool,
    seed: u64,
    results_out: PathBuf,
    summary_out: PathBuf,
    /// `--dump-dir`. The driver defaults to [`DEFAULT_DUMP_DIR`]; a serve
    /// process without it writes no local flight dump.
    dump_dir: Option<PathBuf>,
    watch: Option<Duration>,
    /// `--watch-out p`: mirror the watch snapshots as schema-versioned
    /// JSONL to `p`, independent of whether `--watch` streams to stderr.
    watch_out: Option<PathBuf>,
    ops_per_client: Option<u64>,
    /// `--fault-profile`, `--crash-len`, `--crash-period`, `--recovery`.
    faults: FaultFlags,
    /// `--connect a,b,c`: drive external `chaos serve` processes at these
    /// addresses instead of in-process replicas.
    connect: Option<Vec<Addr>>,
    /// `--k N`: preamble depth (ABD^k) wherever one configuration runs —
    /// `--store`, `--connect`, `--sweep`, the demos. The default register
    /// set runs k = 1 and 2 side by side and rejects it.
    k: Option<u32>,
    /// `--store`: run the sharded keyed store (`blunt-store`) instead of
    /// the single-register sets.
    store: bool,
    /// `--sweep N`: run N consecutive seeds in parallel and emit a
    /// machine-readable per-seed pass/fail summary.
    sweep: Option<u64>,
    /// Store workload shape overrides (apply with `--store` only).
    keys: Option<u32>,
    shards: Option<u32>,
    pipeline_depth: Option<u32>,
    batch: Option<usize>,
    /// `--batch-hist-out p`: where the store run writes its batch-size
    /// histogram artifact.
    batch_hist_out: PathBuf,
    /// The serve process's own address, pid, and the run's server count.
    listen: Option<Addr>,
    server_id: Option<u32>,
    servers: Option<u32>,
    /// Replicas per shard of a keyed (`--store`) run; its presence marks
    /// the serve process as sharded.
    shard_size: Option<u32>,
}

impl Cli {
    /// The preamble depth of a single-configuration run: `--k`, or plain
    /// ABD.
    fn k(&self) -> u32 {
        self.k.unwrap_or(1)
    }

    fn dump_dir(&self) -> &Path {
        self.dump_dir
            .as_deref()
            .unwrap_or(Path::new(DEFAULT_DUMP_DIR))
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// The argument stream, read one flag value at a time.
struct Args(std::iter::Skip<std::vec::IntoIter<String>>);

impl Args {
    fn value(&mut self, flag: &str) -> String {
        self.0
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    }

    /// The next value as a `T` that `ok` accepts, or a usage error naming
    /// the flag, the value and `what` it should have been.
    fn parse<T: FromStr>(&mut self, flag: &str, what: &str, ok: impl Fn(&T) -> bool) -> T {
        let v = self.value(flag);
        v.parse()
            .ok()
            .filter(ok)
            .unwrap_or_else(|| usage_error(&format!("{flag}: `{v}` is not {what}")))
    }

    /// A positive integer.
    fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str) -> T {
        self.parse(flag, "a positive integer", |n| *n > T::from(0))
    }

    /// A comma-separated address list: `host:port` or socket paths, one
    /// per server, index = server pid.
    fn addrs(&mut self, flag: &str) -> Vec<Addr> {
        let v = self.value(flag);
        let addrs: Vec<Addr> = v
            .split(',')
            .filter(|s| !s.is_empty())
            .map(Addr::parse)
            .collect();
        if addrs.is_empty() {
            usage_error(&format!("{flag}: `{v}` has no addresses"));
        }
        addrs
    }

    /// `1s`, `250ms`, or a bare number of seconds.
    fn duration(&mut self, flag: &str) -> Duration {
        let v = self.value(flag);
        let parsed = if let Some(ms) = v.strip_suffix("ms") {
            ms.parse().ok().map(Duration::from_millis)
        } else if let Some(s) = v.strip_suffix('s') {
            s.parse().ok().map(Duration::from_secs)
        } else {
            v.parse().ok().map(Duration::from_secs)
        };
        parsed.filter(|d| !d.is_zero()).unwrap_or_else(|| {
            usage_error(&format!(
                "{flag}: `{v}` is not a duration (try `1s` or `250ms`)"
            ))
        })
    }
}

/// Fail-fast output-path validation: create the directory (or the file's
/// parent) now, so a typo'd path is a usage error naming the path — not a
/// panic after minutes of soaking.
fn ensure_dir(flag: &str, dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        usage_error(&format!("{flag}: cannot create `{}`: {e}", dir.display()));
    }
}

fn ensure_parent(flag: &str, file: &Path) {
    if let Some(parent) = file.parent().filter(|p| !p.as_os_str().is_empty()) {
        ensure_dir(flag, parent);
    }
}

/// The one argument loop: `chaos [flags]` and `chaos serve [flags]` fill
/// the same [`Cli`]; a flag of the other mode is a usage error.
fn parse_cli() -> Cli {
    let mut cli = Cli {
        seed: 0x0B1D_5EED,
        results_out: PathBuf::from("target/chaos/BENCH_results.json"),
        summary_out: PathBuf::from("target/chaos/RUN_summary.json"),
        batch_hist_out: PathBuf::from("target/chaos/store_batch_hist.json"),
        ..Cli::default()
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli.serve = argv.first().is_some_and(|a| a == "serve");
    let mut args = Args(argv.into_iter().skip(usize::from(cli.serve)));
    while let Some(a) = args.0.next() {
        let flag = a.as_str();
        match flag {
            "--smoke" => cli.smoke = true,
            "--demo-broken" => cli.demo_broken = true,
            "--demo-amnesia" => cli.demo_amnesia = true,
            "--store" => cli.store = true,
            "--seed" => cli.seed = args.parse(flag, "a u64", |_| true),
            "--results-out" => cli.results_out = args.value(flag).into(),
            "--summary-out" => cli.summary_out = args.value(flag).into(),
            "--dump-dir" => cli.dump_dir = Some(args.value(flag).into()),
            "--batch-hist-out" => cli.batch_hist_out = args.value(flag).into(),
            "--watch-out" => cli.watch_out = Some(args.value(flag).into()),
            "--watch" => cli.watch = Some(args.duration(flag)),
            "--ops-per-client" => {
                let what = format!("an integer in 1..={MAX_OPS_PER_CLIENT}");
                let ok = |n: &u64| (1..=MAX_OPS_PER_CLIENT).contains(n);
                cli.ops_per_client = Some(args.parse(flag, &what, ok));
            }
            "--fault-profile" => {
                cli.faults.profile =
                    Some(args.parse(flag, "one of none|light|heavy|amnesia", |_| true));
            }
            "--crash-len" => cli.faults.crash_len = Some(args.parse(flag, "a u64", |_| true)),
            "--crash-period" => cli.faults.crash_period = Some(args.parse(flag, "a u64", |_| true)),
            "--recovery" => {
                let v = args.value(flag);
                cli.faults.recovery = Some(match v.as_str() {
                    "stable" => RecoveryMode::Stable,
                    "amnesia" => RecoveryMode::amnesia(),
                    _ => usage_error(&format!("--recovery: `{v}` is not one of stable|amnesia")),
                });
            }
            "--connect" => cli.connect = Some(args.addrs(flag)),
            "--k" => {
                cli.k =
                    Some(args.parse(flag, "an integer in 1..=4", |n: &u32| (1..=4).contains(n)));
            }
            "--sweep" => cli.sweep = Some(args.positive(flag)),
            "--keys" => cli.keys = Some(args.positive(flag)),
            "--shards" => cli.shards = Some(args.positive(flag)),
            "--pipeline-depth" => cli.pipeline_depth = Some(args.positive(flag)),
            "--batch" => cli.batch = Some(args.positive(flag)),
            "--listen" => cli.listen = Some(Addr::parse(&args.value(flag))),
            "--server-id" => cli.server_id = Some(args.parse(flag, "a u32", |_| true)),
            "--servers" => cli.servers = Some(args.positive(flag)),
            "--shard-size" => cli.shard_size = Some(args.positive(flag)),
            other => usage_error(&format!("unknown flag {other}")),
        }
        // Both modes take the flags that decide the recovery mode, so the
        // two sides of a socket run agree on it; every other flag is one
        // mode's.
        let shared = matches!(flag, "--fault-profile" | "--recovery" | "--dump-dir");
        let serve_only = matches!(
            flag,
            "--listen" | "--server-id" | "--servers" | "--shard-size"
        );
        if !shared && serve_only != cli.serve {
            usage_error(&if serve_only {
                format!("{flag} only applies to `chaos serve`")
            } else {
                format!("{flag} does not apply to `chaos serve`")
            });
        }
    }
    if cli.serve {
        check_serve(&cli);
    } else {
        check_driver(&cli);
    }
    cli
}

/// The driver's cross-flag rules, then every output path, before the first
/// run starts.
fn check_driver(cli: &Cli) {
    if cli.demo_broken && cli.demo_amnesia {
        usage_error("--demo-broken and --demo-amnesia are mutually exclusive");
    }
    if !cli.store {
        for (flag, set) in [
            ("--keys", cli.keys.is_some()),
            ("--shards", cli.shards.is_some()),
            ("--pipeline-depth", cli.pipeline_depth.is_some()),
            ("--batch", cli.batch.is_some()),
        ] {
            if set {
                usage_error(&format!("{flag} only applies with --store"));
            }
        }
    }
    if cli.demo_amnesia && cli.connect.is_some() {
        // The demo pins shard 0's recovery to the broken mode, which only
        // the in-process spawner can arrange.
        usage_error("--demo-amnesia runs in-process; it does not combine with --connect");
    }
    let demo = cli.demo_broken || cli.demo_amnesia;
    if cli.sweep.is_some() && (demo || cli.connect.is_some() || cli.watch_out.is_some()) {
        // Parallel seeds would all truncate the one mirror file.
        usage_error("--sweep does not combine with the demo modes, --connect or --watch-out");
    }
    if cli.k.is_some() && !(cli.store || cli.connect.is_some() || cli.sweep.is_some() || demo) {
        usage_error(
            "--k: the register set runs k = 1 and 2 side by side; \
             --k applies with --store, --connect, --sweep or a demo mode",
        );
    }
    ensure_parent("--results-out", &cli.results_out);
    ensure_parent("--summary-out", &cli.summary_out);
    ensure_dir("--dump-dir", cli.dump_dir());
    if let Some(p) = &cli.watch_out {
        ensure_parent("--watch-out", p);
    }
    if cli.store {
        ensure_parent("--batch-hist-out", &cli.batch_hist_out);
    }
}

/// A serve process's required flags and topology. `--fault-profile` is
/// required: the driver's default mix depends on its run shape, which a
/// serve process cannot see.
fn check_serve(cli: &Cli) {
    for (flag, set) in [
        ("--listen", cli.listen.is_some()),
        ("--server-id", cli.server_id.is_some()),
        ("--servers", cli.servers.is_some()),
        ("--fault-profile", cli.faults.profile.is_some()),
    ] {
        if !set {
            usage_error(&format!("serve needs {flag}"));
        }
    }
    let servers = cli.servers.unwrap_or_default();
    let id = cli.server_id.unwrap_or_default();
    if id >= servers {
        usage_error(&format!("--server-id: {id} is not in 0..{servers}"));
    }
    if let Some(s) = cli.shard_size.filter(|s| !servers.is_multiple_of(*s)) {
        usage_error(&format!(
            "--shard-size: {s} does not evenly divide {servers} servers"
        ));
    }
    if let Some(dir) = &cli.dump_dir {
        ensure_dir("--dump-dir", dir);
    }
}

/// One named run: the configuration and what travels beside it.
struct Run {
    name: String,
    cfg: StoreConfig,
    opts: RunOpts,
}

impl Run {
    /// Runs it — in process, or against `--connect`'s servers. An unusable
    /// fault shape (e.g. a --crash-len/--crash-period pair whose windows
    /// cannot stagger disjointly) is a usage error, not a soundness
    /// failure: echo the offending numbers and exit 2.
    fn execute(&self, cli: &Cli) -> StoreReport {
        run_store_with(&self.cfg, &self.opts, cli.connect.as_deref())
            .unwrap_or_else(|e| usage_error(&e.to_string()))
    }

    /// Diagram lanes: every node, then one monitor per shard.
    fn lanes(&self) -> usize {
        (self.cfg.servers_total() + self.cfg.clients + self.cfg.shards) as usize
    }
}

/// What travels beside every configuration this invocation runs: ABD^k,
/// the watch flags, and a stall watchdog that dumps under `--dump-dir`.
fn run_opts(cli: &Cli, k: u32) -> RunOpts {
    RunOpts {
        k,
        watch: cli.watch,
        watch_out: cli.watch_out.clone(),
        stall_after: Some(Duration::from_secs(60)),
        flight_dump_dir: Some(cli.dump_dir().to_path_buf()),
    }
}

/// Finishes a run from its base shape: the shape flags applied on top, the
/// faults resolved by [`FaultFlags::resolve`] (`default` is the shape's
/// own mix; its recovery half is the one a serve process reads), the
/// watch/watchdog settings beside it.
fn finish_run(cli: &Cli, name: String, mut cfg: StoreConfig, k: u32, default: FaultProfile) -> Run {
    // `check_driver` rejects the four shape flags without --store.
    cfg.keys = cli.keys.unwrap_or(cfg.keys);
    cfg.shards = cli.shards.unwrap_or(cfg.shards);
    cfg.pipeline_depth = cli.pipeline_depth.unwrap_or(cfg.pipeline_depth);
    cfg.batch_max = cli.batch.unwrap_or(cfg.batch_max);
    cfg.ops_per_client = cli.ops_per_client.unwrap_or(cfg.ops_per_client);
    (cfg.faults, cfg.recovery) = cli.faults.resolve(default, cfg.servers_total(), cli.store);
    // Turn the config asserts that a CLI user can actually trip into
    // usage errors naming the offending numbers.
    if u64::from(cfg.pipeline_depth) > cfg.burst {
        usage_error(&format!(
            "--pipeline-depth: {} exceeds the burst size {}",
            cfg.pipeline_depth, cfg.burst
        ));
    }
    if cfg.servers_total() > 64 {
        usage_error(&format!(
            "--shards: {} shards × {} replicas = {} servers exceeds the 64-pid ceiling",
            cfg.shards,
            cfg.servers_per_shard,
            cfg.servers_total()
        ));
    }
    Run {
        name,
        cfg,
        opts: run_opts(cli, k),
    }
}

/// The register shape — the store at one shard and one key, under the
/// heavy mix by default. `smoke` picks the CI-sized one; the acceptance
/// soak shape is ≥ 8 clients and ≥ 100k total ops. Over `--connect` the
/// one shard is exactly the servers listed.
fn register_shape(cli: &Cli, seed: u64, smoke: bool) -> StoreConfig {
    let mut cfg = StoreConfig::register(seed);
    if !smoke {
        cfg.clients = 8;
        cfg.ops_per_client = 13_000;
    }
    if let Some(addrs) = &cli.connect {
        cfg.servers_per_shard = u32::try_from(addrs.len()).expect("server count fits u32");
    }
    cfg
}

/// A register run at preamble depth `k`, named `<prefix>.abd_k<k>_<profile>`.
fn register_run(cli: &Cli, prefix: &str, seed: u64, k: u32, smoke: bool) -> Run {
    let suffix = cli.faults.profile.map_or("chaos", FaultProfile::name);
    let name = format!("{prefix}.abd_k{k}_{suffix}");
    finish_run(
        cli,
        name,
        register_shape(cli, seed, smoke),
        k,
        FaultProfile::Heavy,
    )
}

/// The keyed-store run: the CI smoke shape (light faults by default) or the
/// 1M-op bench shape (fault-free), named `smoke.store_light`,
/// `bench.store_none`, … — with a `k<N>` infix when `--k` asks for ABD^k
/// beyond plain ABD.
fn store_run(cli: &Cli, seed: u64) -> Run {
    let k = cli.k();
    let (mode, cfg, default) = if cli.smoke {
        ("smoke", StoreConfig::smoke(seed), FaultProfile::Light)
    } else {
        ("bench", StoreConfig::bench(seed), FaultProfile::None)
    };
    let suffix = cli.faults.profile.unwrap_or(default).name();
    let infix = if k == 1 {
        String::new()
    } else {
        format!("k{k}_")
    };
    finish_run(
        cli,
        format!("{mode}.store_{infix}{suffix}"),
        cfg,
        k,
        default,
    )
}

/// What this invocation runs. `--store` and `--connect` run one
/// configuration at `--k`. Otherwise it is the register set: the chaos mix
/// (or the named `--fault-profile`) at k = 1 and 2 side by side, plus —
/// without a profile — a fault-free control at k = 1 (with one, the control
/// and the shm configs are skipped: the profile IS the variable under
/// study). Smoke mode shrinks ops, not shape variety.
fn plan(cli: &Cli) -> Vec<Run> {
    if cli.store {
        return vec![store_run(cli, cli.seed)];
    }
    if cli.connect.is_some() {
        return vec![register_run(cli, "net", cli.seed, cli.k(), cli.smoke)];
    }
    let mode = if cli.smoke { "smoke" } else { "soak" };
    let mut runs: Vec<Run> = [1u32, 2]
        .into_iter()
        .map(|k| register_run(cli, mode, cli.seed ^ u64::from(k), k, cli.smoke))
        .collect();
    if cli.faults.profile.is_none() {
        // The fault-free control: the protocol with no fault injected.
        let quiet = register_shape(cli, cli.seed ^ 0x71, cli.smoke);
        let name = format!("{mode}.abd_k1_quiet");
        runs.push(finish_run(cli, name, quiet, 1, FaultProfile::None));
    }
    runs
}

fn shm_configs(smoke: bool, seed: u64) -> Vec<(String, ShmChaosConfig)> {
    let mode = if smoke { "smoke" } else { "soak" };
    [1u32, 2]
        .into_iter()
        .map(|k| {
            let mut cfg = ShmChaosConfig::small(seed ^ 0x5113 ^ u64::from(k), k);
            if !smoke {
                cfg.ops_per_process = 2_000;
            }
            (format!("{mode}.va_k{k}"), cfg)
        })
        .collect()
}

/// The summary fields that are also gated counters: each one an entry
/// carries is recorded as `runtime.chaos.<name>.<field>`.
const GATED: [&str; 4] = ["ops", "violations", "monitor_actions", "recoveries"];

/// Records one configuration's outcome — the gated counters, read off its
/// summary entry — and appends the entry to the run summary.
fn record(entry: blunt_obs::Json, summaries: &mut Vec<blunt_obs::Json>) {
    let name = entry
        .get("name")
        .and_then(blunt_obs::Json::as_str)
        .expect("entry name");
    for field in GATED {
        if let Some(n) = entry.get(field).and_then(blunt_obs::Json::as_u64) {
            blunt_obs::counter(&format!("runtime.chaos.{name}.{field}")).add(n);
        }
    }
    summaries.push(entry);
}

/// The fields every summary entry opens with, shm configs included.
fn entry_head(
    name: &str,
    transport: &str,
    ops: u64,
    violations: usize,
) -> Vec<(String, blunt_obs::Json)> {
    use blunt_obs::Json;
    vec![
        ("name".into(), Json::Str(name.into())),
        ("transport".into(), Json::Str(transport.into())),
        ("ops".into(), Json::UInt(ops)),
        ("violations".into(), Json::UInt(violations as u64)),
    ]
}

fn print_report(name: &str, r: &StoreReport, run: &Run) {
    let cfg = &run.cfg;
    let pad = "";
    println!(
        "{name:<24} ops {:>8}  {:>9.0} ops/s  lat p50/p99 {:>4}/{:>5} µs  \
         retrans {:>6} (gap {})  violations {}",
        r.ops,
        r.ops_per_sec(),
        r.latency_us.p50(),
        r.latency_us.percentile(0.99),
        r.retransmissions,
        r.gap_retransmissions,
        r.monitor.violations.len(),
    );
    println!(
        "{pad:<24} shape: ABD^{}, {} shards × {} replicas, {} keys, {} clients, \
         pipeline {}, batch {}",
        run.opts.k,
        cfg.shards,
        cfg.servers_per_shard,
        cfg.keys,
        cfg.clients,
        cfg.pipeline_depth,
        cfg.batch_max,
    );
    println!(
        "{pad:<24} net: offered {} dropped {} dup {} reorder {} delayed {} \
         crash {} partition {}",
        r.stats.offered,
        r.stats.dropped,
        r.stats.duplicated,
        r.stats.reordered,
        r.stats.delayed,
        r.stats.crash_dropped,
        r.stats.partition_dropped,
    );
    if cfg.batch_max > 1 {
        let h = batch_histogram();
        println!(
            "{pad:<24} batching: {} flushes carried {} envelopes — per-flush \
             p50/p99/max {}/{}/{} (mean {:.1})",
            h.count,
            h.sum,
            h.p50(),
            h.percentile(0.99),
            h.max,
            h.mean(),
        );
    }
    println!(
        "{pad:<24} coverage: fates [{}] over {} links  monitors: {} actions \
         across {} shards, {:.1} ms observe",
        r.coverage.fates_exercised().join(" "),
        r.coverage.links.len(),
        r.monitor_actions,
        cfg.shards,
        r.monitor_observe_ns as f64 / 1e6,
    );
    if r.recovery.crashes > 0 {
        println!(
            "{pad:<24} recovery: crashes {} recovered {} wal lost/replayed {}/{} \
             state queries {}  degraded ops {}",
            r.recovery.crashes,
            r.recovery.recoveries,
            r.recovery.wal_records_lost,
            r.recovery.wal_records_replayed,
            r.recovery.state_queries,
            r.degraded_ops,
        );
        let per: Vec<String> = r
            .shard_recoveries
            .iter()
            .enumerate()
            .map(|(s, (c, rec))| format!("s{s} {c}/{rec}"))
            .collect();
        println!("{pad:<24} per-shard crashes/recoveries: {}", per.join("  "));
    }
}

/// Writes one flight dump (JSONL + rendered diagram) under `dump_dir`:
/// a violation or demo capture, or a socket run's merged dump.
fn write_flight_dump_files(
    dump_dir: &Path,
    stem: &str,
    dump: &blunt_obs::FlightDump,
    lanes: usize,
    opts: &DiagramOptions,
) {
    let _ = std::fs::create_dir_all(dump_dir);
    // Process-unique stem: a second dump under the same name (e.g. two
    // dirty configs in one run, or a demo retried across seeds) gets a
    // monotonic `.2`, `.3`, … suffix instead of clobbering the first.
    let stem = blunt_obs::flight::unique_dump_stem(stem);
    let jsonl = dump_dir.join(format!("{stem}.flight.jsonl"));
    let diagram = dump_dir.join(format!("{stem}.diagram.txt"));
    let rendered = flight_space_time(&dump.last_n(800), lanes, opts);
    std::fs::write(&jsonl, dump.to_jsonl()).expect("write flight dump");
    std::fs::write(&diagram, rendered).expect("write flight diagram");
    println!(
        "flight dump written to {} (+ {})",
        jsonl.display(),
        diagram.display()
    );
}

/// One config's deterministic summary entry. Timing-dependent numbers
/// (latency, retransmissions, monitor observe time, `degraded_ops`)
/// are deliberately excluded so two same-seed in-process runs write
/// byte-identical summaries. `transport` labels which tier carried the
/// run's messages (`in-process`, `tcp`, or `uds`).
///
/// For stable-recovery runs at depth 1 every field is seed-deterministic.
/// Pipelined amnesia runs narrow that set: acks leave the per-link
/// schedule (they are exempt), so the reply legs' counts start depending
/// on how the pipelined clients interleave queries and updates —
/// `bus.offered`/`delivered` and the server→client link coverage become
/// timing-dependent (docs/STORE.md § determinism). What stays exact for a
/// seed, and what the tests pin byte-for-byte: `ops`, `violations`,
/// `monitor_actions`, `recoveries`, `shard_recoveries`,
/// `bus.crash_events`, and every client→server link.
///
/// Socket runs add the `servers` sections: their fsync p99 and
/// clock offsets are timing-dependent, and net entries are already outside
/// the byte-determinism contract (their transport timing is wall-clock
/// state); in-process entries never carry the section.
fn summary_entry(name: &str, r: &StoreReport, transport: &str) -> blunt_obs::Json {
    use blunt_obs::Json;
    let shard_recoveries = r
        .shard_recoveries
        .iter()
        .map(|&(crashes, recoveries)| {
            Json::Obj(vec![
                ("crashes".into(), Json::UInt(crashes)),
                ("recoveries".into(), Json::UInt(recoveries)),
            ])
        })
        .collect();
    let mut fields = entry_head(name, transport, r.ops, r.monitor.violations.len());
    fields.extend([
        ("monitor_actions".into(), Json::UInt(r.monitor_actions)),
        ("recoveries".into(), Json::UInt(r.recovery.recoveries)),
        ("shard_recoveries".into(), Json::Arr(shard_recoveries)),
        (
            "bus".into(),
            Json::Obj(vec![
                ("offered".into(), Json::UInt(r.stats.offered)),
                ("dropped".into(), Json::UInt(r.stats.dropped)),
                ("duplicated".into(), Json::UInt(r.stats.duplicated)),
                ("reordered".into(), Json::UInt(r.stats.reordered)),
                ("delayed".into(), Json::UInt(r.stats.delayed)),
                ("crash_dropped".into(), Json::UInt(r.stats.crash_dropped)),
                (
                    "partition_dropped".into(),
                    Json::UInt(r.stats.partition_dropped),
                ),
                ("crash_events".into(), Json::UInt(r.stats.crash_events)),
            ]),
        ),
        ("coverage".into(), r.coverage.to_json()),
    ]);
    if !r.remote_servers.is_empty() {
        fields.push(("servers".into(), servers_json(&r.remote_servers)));
    }
    Json::Obj(fields)
}

/// The per-server telemetry sections of a net-transport config entry: one
/// object per remote `chaos serve` process, carrying the
/// tracing-plane counters it shipped back plus the driver's clock-offset
/// estimate. The fsync p99 and clock offset are timing-dependent; net
/// entries are already excluded from the byte-determinism contract (their
/// transport timing is wall-clock state), in-process entries never carry
/// this section.
fn servers_json(remote: &[blunt_runtime::RemoteServer]) -> blunt_obs::Json {
    use blunt_obs::Json;
    Json::Arr(
        remote
            .iter()
            .enumerate()
            .map(|(sid, r)| {
                let t = r.telemetry.unwrap_or_default();
                Json::Obj(vec![
                    ("proc".into(), Json::Str(format!("s{sid}"))),
                    ("recoveries".into(), Json::UInt(t.recovery.recoveries)),
                    ("crashes".into(), Json::UInt(t.recovery.crashes)),
                    ("fsync_count".into(), Json::UInt(t.fsync_count)),
                    ("fsync_p99_us".into(), Json::UInt(t.fsync_p99_us)),
                    ("span_events".into(), Json::UInt(t.span_events)),
                    ("events".into(), Json::UInt(t.events)),
                    ("clock_offset_us".into(), Json::Int(r.offset_us)),
                ])
            })
            .collect(),
    )
}

/// Runs one `chaos serve` process to completion. The driver draws every
/// fate of the run, so the serve process reads only the recovery mode its
/// fault flags name, through the same [`FaultFlags::recovery_mode`] the
/// driver's [`FaultFlags::resolve`] calls.
fn run_serve(cli: &Cli) -> ExitCode {
    // `check_serve` made these present and consistent.
    let servers = cli.servers.expect("--servers");
    let server_id = cli.server_id.expect("--server-id");
    let cfg = NetServeConfig {
        listen: cli.listen.clone().expect("--listen"),
        server_id,
        servers,
        shard_size: cli.shard_size,
        recovery: cli
            .faults
            .recovery_mode(cli.faults.profile.expect("--fault-profile")),
        dump_dir: cli.dump_dir.clone(),
        // Unread by `run_net_server`; see their doc comments.
        peers: Vec::new(),
        clients: 0,
        seed: 0,
        faults: FaultConfig::none(),
    };
    eprintln!(
        "chaos serve: server {server_id}/{servers} on {}",
        cfg.listen
    );
    match run_net_server(&cfg) {
        Ok(r) => {
            eprintln!(
                "chaos serve: server {server_id} done — crashes {} recoveries {} aborted {}",
                r.recovery.crashes, r.recovery.recoveries, r.recovery.catchup_aborted
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chaos serve: server {server_id} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The store run's batch-size histogram.
fn batch_histogram() -> blunt_obs::HistogramSnapshot {
    blunt_obs::histogram("store.batch.envelopes_per_flush").snapshot()
}

/// The CI batch-size artifact: the full per-flush histogram plus its
/// summary statistics and the run's throughput, as one JSON document.
fn write_batch_hist(path: &Path, name: &str, r: &StoreReport) {
    use blunt_obs::Json;
    let h = batch_histogram();
    let buckets = h
        .buckets
        .iter()
        .map(|&(lo, c)| {
            Json::Obj(vec![
                ("ge".into(), Json::UInt(lo)),
                ("count".into(), Json::UInt(c)),
            ])
        })
        .collect();
    let doc = blunt_obs::json::doc(
        "store_batch_histogram",
        vec![
            ("config".into(), Json::Str(name.into())),
            ("flushes".into(), Json::UInt(h.count)),
            ("envelopes".into(), Json::UInt(h.sum)),
            ("per_flush_p50".into(), Json::UInt(h.p50())),
            ("per_flush_p99".into(), Json::UInt(h.percentile(0.99))),
            ("per_flush_max".into(), Json::UInt(h.max)),
            ("per_flush_mean".into(), Json::Float(h.mean())),
            ("ops".into(), Json::UInt(r.ops)),
            ("ops_per_sec".into(), Json::Float(r.ops_per_sec())),
            ("buckets".into(), Json::Arr(buckets)),
        ],
    );
    std::fs::write(path, format!("{doc}\n")).expect("write batch histogram artifact");
    println!("batch histogram written to {}", path.display());
}

/// The run a demo mode makes at `seed`, named after its flight-dump stem.
fn demo_run(cli: &Cli, seed: u64) -> Run {
    let k = cli.k();
    if !cli.demo_amnesia {
        let mut run = if cli.store {
            store_run(cli, seed)
        } else {
            let mut run = register_run(cli, "demo", seed, k, true);
            run.name = "broken_fast_read".into();
            run
        };
        run.cfg.broken_reads = true;
        // Go write-heavy and (keyed) concentrate the keyspace: replicas
        // that miss a dropped update stay stale, and the single-server fast
        // read exposes them quickly.
        run.cfg.read_per_mille = 400;
        if cli.store && cli.keys.is_none() {
            run.cfg.keys = 8;
        }
        return run;
    }
    // The proven catch configuration (mirrors the store's
    // `a_shard_recovery_that_forgets_…` tests): shard 0's recovery is
    // intentionally broken — no WAL replay, no peer catch-up — while any
    // other shard recovers soundly, and the register demo is the one-shard
    // case. Two clients, so per-link crash-window phases stay
    // unsynchronized — an acknowledged write can die in a wipe — while the
    // real-time order stays tight enough that the resulting stale read is
    // provably non-linearizable.
    let (name, mut cfg) = if cli.store {
        let mut cfg = StoreConfig::smoke(seed);
        cfg.shards = 2;
        cfg.keys = cli.keys.unwrap_or(4);
        ("broken_store_amnesia", cfg)
    } else {
        ("broken_amnesia", StoreConfig::register(seed))
    };
    cfg.clients = 2;
    cfg.ops_per_client = 2000;
    cfg.read_per_mille = 400;
    cfg.recovery = RecoveryMode::amnesia();
    cfg.demo_shard = Some(0);
    cfg.faults = FaultConfig::chaos();
    cfg.faults.drop_per_mille = 200;
    cfg.faults.delay_per_mille = 100;
    cfg.faults.crash_len = 2;
    // Windows exactly fill the period: servers × (len + 1).
    cfg.faults.crash_period = 3 * u64::from(cfg.servers_total());
    Run {
        name: name.into(),
        cfg,
        opts: run_opts(cli, k),
    }
}

/// The demo modes, register and keyed alike: run the intentionally-broken
/// implementation, write the flight dump captured at the first violation,
/// and print that violation's window. `--demo-broken` is one run;
/// whether a `--demo-amnesia` run trips the coincidence it needs is
/// scheduling-sensitive (the clients' real-time overlap is wall-clock
/// state), so it sweeps a few seeds and demands the catch within the
/// budget.
fn run_demo(cli: &Cli) -> ExitCode {
    let (intro, what) = match (cli.demo_amnesia, cli.store) {
        (false, false) => (
            "ABD with an unsound single-server fast read (no quorum, no write-back)",
            "the unsound read",
        ),
        (false, true) => (
            "keyed store with an unsound single-server fast read (no quorum, no write-back)",
            "the unsound keyed read",
        ),
        (true, false) => (
            "amnesia crashes with a recovery that skips WAL replay and peer catch-up",
            "the recovery that skips replay and catch-up",
        ),
        (true, true) => (
            "keyed store where shard 0's recovery skips WAL replay and peer catch-up",
            "the shard that forgot",
        ),
    };
    println!("demo: {intro}\n");
    let attempts = if cli.demo_amnesia { 8 } else { 1 };
    let mut last = None;
    for attempt in 0..attempts {
        let seed = cli.seed + attempt;
        let run = demo_run(cli, seed);
        let report = run.execute(cli);
        print_report(&format!("{}[{seed}]", run.name), &report, &run);
        if cli.demo_amnesia && report.recovery.crashes == 0 {
            eprintln!("\nchaos: no crash events fired — demo config is inert");
            return ExitCode::FAILURE;
        }
        let caught = !report.monitor.violations.is_empty();
        last = Some((run, report));
        if caught {
            break;
        }
    }
    let (run, report) = last.expect("at least one attempt runs");
    if let Some(dump) = &report.violation_dump {
        let opts = DiagramOptions::default();
        write_flight_dump_files(cli.dump_dir(), &run.name, dump, run.lanes(), &opts);
    }
    // Print the first violation window; exit 0 iff the monitor caught the
    // intentionally-broken implementation.
    let Some(v) = report.monitor.violations.first() else {
        eprintln!("\nchaos: {what} was NOT caught — monitor bug");
        return ExitCode::FAILURE;
    };
    println!(
        "\nfirst violation window (object {:?}, action {}):\n\n{}",
        v.obj, v.at, v.rendered
    );
    println!(
        "the monitor caught {what}: {} violation window(s) total",
        report.monitor.violations.len()
    );
    ExitCode::SUCCESS
}

/// The cross-process tracing artifacts of a socket run: the merged dump —
/// the driver's window plus every server's goodbye window, shifted onto the
/// driver clock — as JSONL plus a diagram with remote-process lanes and
/// span tags. Written unconditionally (clean runs included): this is the
/// net tier's telemetry artifact, not a violation capture. Returns the
/// per-op latency phase medians from the span-attributed timeline as
/// informational bench phases (timing-dependent, never gated).
fn write_merged_flight(cli: &Cli, merged: &blunt_obs::FlightDump, run: &Run) -> Vec<(String, f64)> {
    let opts = DiagramOptions {
        lane_width: 40,
        ..DiagramOptions::default()
    };
    write_flight_dump_files(cli.dump_dir(), "net.merged", merged, run.lanes(), &opts);
    let b = blunt_trace::latency_breakdown(merged);
    if b.ops == 0 {
        return Vec::new();
    }
    println!(
        "latency breakdown ({} ops): client queue {}µs → wire {}µs → \
         server ack {}µs → fsync {}µs → quorum complete {}µs",
        b.ops, b.client_queue_us, b.wire_us, b.server_ack_us, b.fsync_us, b.quorum_complete_us,
    );
    [
        ("client_queue_us", b.client_queue_us),
        ("wire_us", b.wire_us),
        ("server_ack_us", b.server_ack_us),
        ("fsync_us", b.fsync_us),
        ("quorum_complete_us", b.quorum_complete_us),
    ]
    .into_iter()
    .map(|(phase, us)| (format!("breakdown.{phase}.{}", run.name), us as f64))
    .collect()
}

/// Runs the invocation's [`plan`] — every configuration through the one
/// driver — then the shm register configs where they belong, and writes
/// the gate input, the run summary and (with `--store`) the batch-size
/// artifact.
fn run_plan(cli: &Cli) -> ExitCode {
    let seed = cli.seed;
    let transport = cli.connect.as_ref().map_or("in-process", |a| a[0].kind());
    let mode = match (cli.smoke, cli.store) {
        (true, _) => "smoke",
        (false, true) => "bench",
        (false, false) => "soak",
    };
    let what = if cli.store {
        "keyed store"
    } else {
        "register set"
    };
    let profile = cli
        .faults
        .profile
        .map_or(String::new(), |p| format!(", fault profile {}", p.name()));
    println!(
        "chaos: {mode} {what} ({transport}){profile}, seed {seed:#x} (replay with --seed {seed})\n"
    );
    let mut phases: Vec<(String, f64)> = Vec::new();
    let mut dirty: Vec<String> = Vec::new();
    let mut summaries: Vec<blunt_obs::Json> = Vec::new();

    for run in plan(cli) {
        let name = &run.name;
        let t0 = Instant::now();
        let report = run.execute(cli);
        phases.push((name.clone(), t0.elapsed().as_secs_f64() * 1000.0));
        // The monitor-overhead phase for the bench gate: wall time inside
        // `observe`. Timing-dependent, so informational unless bench-report
        // runs with --strict-times.
        let mut extra = vec![("monitor", report.monitor_observe_ns as f64 / 1e6)];
        print_report(name, &report, &run);
        if cli.store {
            // Throughput and the batch-size distribution ride as phases
            // too, and the full histogram as its own artifact.
            let h = batch_histogram();
            extra.extend([
                ("store_ops_per_sec", report.ops_per_sec()),
                ("store_batch_per_flush_p50", h.p50() as f64),
                ("store_batch_per_flush_p99", h.percentile(0.99) as f64),
                ("store_batch_per_flush_mean", h.mean()),
            ]);
            write_batch_hist(&cli.batch_hist_out, name, &report);
            // How long this process's amnesia replicas withheld acks for
            // their covering fsync (none in stable mode or over sockets).
            let parked = blunt_obs::histogram("runtime.storage.ack_parked_us").snapshot();
            if parked.count > 0 {
                extra.extend([
                    ("ack_parked_us_p50", parked.p50() as f64),
                    ("ack_parked_us_p90", parked.p90() as f64),
                    ("ack_parked_us_mean", parked.mean()),
                ]);
            }
            // How often the clients rebroadcast, and how many of those the
            // reply gap sent ahead of the deadline. Timing-dependent, so
            // phases and never summary fields (see `summary_entry`).
            if report.retransmissions > 0 {
                extra.extend([
                    ("retransmissions", report.retransmissions as f64),
                    ("gap_retransmissions", report.gap_retransmissions as f64),
                ]);
            }
        }
        phases.extend(extra.into_iter().map(|(k, v)| (format!("{k}.{name}"), v)));
        if let Some(merged) = &report.merged_flight {
            phases.extend(write_merged_flight(cli, merged, &run));
        }
        record(summary_entry(name, &report, transport), &mut summaries);
        if !report.monitor.clean() {
            if let Some(dump) = &report.violation_dump {
                let opts = DiagramOptions::default();
                write_flight_dump_files(cli.dump_dir(), name, dump, run.lanes(), &opts);
            }
            dirty.push(name.clone());
        }
    }
    if !cli.store && cli.connect.is_none() && cli.faults.profile.is_none() {
        for (name, cfg) in shm_configs(cli.smoke, seed) {
            let t0 = Instant::now();
            let report = run_shm_chaos(&cfg);
            phases.push((name.clone(), t0.elapsed().as_secs_f64() * 1000.0));
            let violations = report.monitor.violations.len();
            println!("{name:<24} ops {:>8}  violations {violations}", report.ops);
            let head = entry_head(&name, "in-process", report.ops, violations);
            record(blunt_obs::Json::Obj(head), &mut summaries);
            if !report.monitor.clean() {
                dirty.push(name);
            }
        }
    }

    // The gate input (docs/OBS_SCHEMA.md): per-config
    // wall-times plus the `runtime.chaos.*` counters, seed echoed for
    // replay. Only those counters are kept — they are deterministic for a
    // seed, unlike e.g. the client retransmission counts, and they cannot
    // collide with the experiments baseline's shared `lincheck.*` totals.
    let mut results = BenchResults::from_snapshot(phases, &blunt_obs::snapshot());
    results
        .counters
        .retain(|(name, _)| name.starts_with("runtime.chaos."));
    results.seed = Some(seed);
    std::fs::write(&cli.results_out, format!("{}\n", results.to_json()))
        .expect("write BENCH_results.json");
    println!("\nbench results written to {}", cli.results_out.display());

    // The machine-readable `chaos_summary` run summary: deterministic
    // fields only (see summary_entry), so replaying a seed reproduces it
    // byte-for-byte.
    let summary = blunt_obs::json::doc(
        "chaos_summary",
        vec![
            ("seed".into(), blunt_obs::Json::UInt(seed)),
            ("mode".into(), blunt_obs::Json::Str(mode.into())),
            ("configs".into(), blunt_obs::Json::Arr(summaries)),
        ],
    );
    std::fs::write(&cli.summary_out, format!("{summary}\n")).expect("write run summary");
    println!("run summary written to {}", cli.summary_out.display());

    if dirty.is_empty() {
        println!("verdict: all configurations linearizable (0 violations)");
        ExitCode::SUCCESS
    } else {
        eprintln!("verdict: VIOLATIONS in {}", dirty.join(", "));
        ExitCode::FAILURE
    }
}

/// The `--sweep N` driver: N consecutive seeds of one configuration — the
/// smoke-sized register shape at `--k`, or the store with `--store` — run
/// in parallel via [`parallel_map`], with a machine-readable per-seed
/// pass/fail summary at `--summary-out`. Exit 1 if ANY seed fails.
fn run_sweep(cli: &Cli, n: u64) -> ExitCode {
    use blunt_obs::Json;
    let k = cli.k();
    let seeds: Vec<u64> = (0..n).map(|i| cli.seed.wrapping_add(i)).collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(seeds.len());
    let workload = if cli.store {
        "store".to_string()
    } else {
        format!("abd_k{k}")
    };
    println!(
        "chaos: sweeping {n} seed(s) from {:#x} on {threads} thread(s) ({workload})\n",
        cli.seed
    );
    let reports: Vec<(u64, StoreReport)> = parallel_map(seeds, threads, |seed| {
        let run = if cli.store {
            store_run(cli, seed)
        } else {
            register_run(cli, "sweep", seed, k, true)
        };
        (seed, run.execute(cli))
    });
    let mut entries = Vec::with_capacity(reports.len());
    let mut failed: u64 = 0;
    for (seed, r) in &reports {
        let violations = r.monitor.violations.len() as u64;
        let pass = violations == 0;
        failed += u64::from(!pass);
        println!(
            "seed {seed:#018x}  ops {:>7}  offered {:>8}  dropped {:>6}  \
             recoveries {:>3}  violations {violations:>2}  {}",
            r.ops,
            r.stats.offered,
            r.stats.dropped,
            r.recovery.recoveries,
            if pass { "pass" } else { "FAIL" },
        );
        entries.push(Json::Obj(vec![
            ("seed".into(), Json::UInt(*seed)),
            ("ops".into(), Json::UInt(r.ops)),
            ("violations".into(), Json::UInt(violations)),
            ("offered".into(), Json::UInt(r.stats.offered)),
            ("dropped".into(), Json::UInt(r.stats.dropped)),
            ("recoveries".into(), Json::UInt(r.recovery.recoveries)),
            ("pass".into(), Json::Bool(pass)),
        ]));
    }
    // Per-run `recoveries` (docs/OBS_SCHEMA.md): amnesia configs report
    // how many crash-recoveries each seed exercised, so a sweep that never
    // recovered is visible as hollow coverage.
    let doc = blunt_obs::json::doc(
        "chaos_sweep",
        vec![
            ("workload".into(), Json::Str(workload)),
            ("base_seed".into(), Json::UInt(cli.seed)),
            ("seeds".into(), Json::UInt(n)),
            ("failed".into(), Json::UInt(failed)),
            ("runs".into(), Json::Arr(entries)),
        ],
    );
    std::fs::write(&cli.summary_out, format!("{doc}\n")).expect("write sweep summary");
    println!("\nsweep summary written to {}", cli.summary_out.display());
    if failed == 0 {
        println!("verdict: {n}/{n} seeds linearizable");
        ExitCode::SUCCESS
    } else {
        eprintln!("verdict: {failed}/{n} seeds FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = parse_cli();
    if cli.serve {
        return run_serve(&cli);
    }
    if let Some(n) = cli.sweep {
        return run_sweep(&cli, n);
    }
    if cli.demo_broken || cli.demo_amnesia {
        return run_demo(&cli);
    }
    run_plan(&cli)
}
