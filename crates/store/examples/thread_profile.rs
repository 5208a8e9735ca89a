//! Where a run's CPU time and its thread sleeps go, by thread class.
//!
//! One run of the benchmark's topology (2 shards × 3 replicas, 2 clients,
//! bursts of 8) in a shape given on the command line, while the main thread
//! samples `/proc/self/task/*/{comm,schedstat,status}` every 10 ms. A run's
//! threads are spawned for it and named for their role (`client-6`,
//! `server-0`, `monitor-s1`, `net-reader-3`, `bus-delayer`, `net-accept`, …),
//! so a thread's last sample is what it cost and its name says what it was.
//! Printed per class: CPU µs per op, voluntary context switches per op (the
//! thread slept: a futex wait, a blocking read), involuntary ones (it was
//! preempted) and run-queue wait µs per op (runnable, no CPU to run on).
//!
//! ```sh
//! cargo run --release -p blunt-store --example thread_profile -- uds
//! cargo run --release -p blunt-store --example thread_profile -- bus --keys 8
//! cargo run --release -p blunt-store --example thread_profile -- \
//!     bus --faults amnesia --reads 200 --ops 20000
//! cargo run --release -p blunt-store --example thread_profile -- \
//!     uds --depth 1 --batch 1 --ops 10000
//! ```
//!
//! Those four are the benchmark's `uds_pipelined`, `bus_hotkeys`,
//! `bus_amnesia` and `uds_serial`; the defaults (`--depth 8 --batch 16
//! --keys 1024 --faults none --reads 500 --ops 50000 --seed 48879`) on `bus`
//! are `bus_pipelined`. Linux only: the numbers come from `/proc`. A thread
//! that exits between two samples loses at most 10 ms of its record, and
//! the box's scheduling regime matters (`.claude/skills/verify/SKILL.md`):
//! let it idle a minute after a build before trusting a number.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::thread;
use std::time::Duration;

use blunt_net::FaultConfig;
use blunt_runtime::RecoveryMode;
use blunt_store::{run_store, RunOpts, StoreConfig};

// One named `run_net_server` thread per replica behind its own Unix socket,
// the store driver against them: the integration tests' helper.
#[path = "../tests/common/mod.rs"]
mod common;

const SHARDS: u32 = 2;
const REPLICAS: u32 = 3;
const CLIENTS: u32 = 2;

const USAGE: &str = "usage: thread_profile <bus|uds> [--depth N] [--batch N] [--keys N] \
     [--faults none|amnesia] [--reads PER_MILLE] [--ops PER_CLIENT] [--seed N]";

/// What `/proc` says one thread has cost so far.
#[derive(Clone, Copy, Default)]
struct Cost {
    cpu_ns: u64,
    runqueue_ns: u64,
    voluntary: u64,
    involuntary: u64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.cpu_ns += other.cpu_ns;
        self.runqueue_ns += other.runqueue_ns;
        self.voluntary += other.voluntary;
        self.involuntary += other.involuntary;
    }
}

/// One thread's cost so far, or `None` if it exited mid-read.
fn read_cost(task: &Path) -> Option<Cost> {
    // schedstat: time on a CPU (ns), time runnable but waiting (ns), slices.
    let schedstat = std::fs::read_to_string(task.join("schedstat")).ok()?;
    let mut sched = schedstat.split_whitespace().map(str::parse::<u64>);
    let status = std::fs::read_to_string(task.join("status")).ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = status.lines().find_map(|l| l.strip_prefix(name))?;
        line.trim_start_matches(':').trim().parse().ok()
    };
    Some(Cost {
        cpu_ns: sched.next()?.ok()?,
        runqueue_ns: sched.next()?.ok()?,
        voluntary: field("voluntary_ctxt_switches")?,
        involuntary: field("nonvoluntary_ctxt_switches")?,
    })
}

/// The latest reading of every thread of this process, by thread id; a
/// thread's name is read when it is first seen (the run's threads are named
/// before they start).
fn sample(into: &mut BTreeMap<u64, (String, Cost)>) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let path = task.path();
        let Some(cost) = read_cost(&path) else {
            continue;
        };
        match into.get_mut(&tid) {
            Some(seen) => seen.1 = cost,
            None => {
                if let Ok(comm) = std::fs::read_to_string(path.join("comm")) {
                    into.insert(tid, (comm.trim().to_string(), cost));
                }
            }
        }
    }
}

/// `client-6` → `client`, `monitor-s1` → `monitor`, `net-reader-3` →
/// `net-reader`; names without an index stand for themselves.
fn class(comm: &str) -> &str {
    comm.trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches("-s")
        .trim_end_matches('-')
}

struct Shape {
    uds: bool,
    cfg: StoreConfig,
}

fn parse_args(argv: &[String]) -> Result<Shape, String> {
    let mut it = argv.iter();
    let uds = match it.next().map(String::as_str) {
        Some("bus") => false,
        Some("uds") => true,
        _ => return Err("the first argument is the tier: bus or uds".into()),
    };
    let mut cfg = StoreConfig::bench(48879);
    cfg.shards = SHARDS;
    cfg.servers_per_shard = REPLICAS;
    cfg.clients = CLIENTS;
    cfg.ops_per_client = 50_000;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        let narrow = |n: u64| u32::try_from(n).map_err(|_| format!("{flag} {n} is too large"));
        match flag.as_str() {
            "--depth" => cfg.pipeline_depth = narrow(number()?)?,
            "--batch" => cfg.batch_max = number()? as usize,
            "--keys" => cfg.keys = narrow(number()?)?,
            "--reads" => cfg.read_per_mille = u16::try_from(number()?.min(1000)).expect("≤ 1000"),
            "--ops" => cfg.ops_per_client = number()?,
            "--seed" => cfg.seed = number()?,
            "--faults" => match value.as_str() {
                "none" => {}
                // The benchmark's `bus_amnesia` mix: chaos faults, the crash
                // cadence `chaos --store` uses for sharded amnesia runs.
                "amnesia" => {
                    cfg.faults = FaultConfig::chaos();
                    cfg.faults.crash_len = 4;
                    cfg.faults.crash_period = 20 * u64::from(SHARDS * REPLICAS);
                    cfg.recovery = RecoveryMode::amnesia();
                }
                other => return Err(format!("--faults takes none or amnesia, not `{other}`")),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Shape { uds, cfg })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let shape = match parse_args(&argv) {
        Ok(shape) => shape,
        Err(e) => {
            eprintln!("thread_profile: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Whoever is here before the run (this thread) is charged only for what
    // it does from now on: the sampling.
    let mut before = BTreeMap::new();
    sample(&mut before);

    let Shape { uds, cfg } = shape;
    let run_cfg = cfg.clone();
    let run = thread::Builder::new()
        .name("run".into())
        .spawn(move || {
            if uds {
                common::run_over_uds(&run_cfg, &RunOpts::default(), "thread-profile").0
            } else {
                run_store(&run_cfg).expect("a usable fault configuration")
            }
        })
        .expect("spawn the run thread");
    let mut latest = BTreeMap::new();
    while !run.is_finished() {
        sample(&mut latest);
        thread::sleep(Duration::from_millis(10));
    }
    let report = run.join().expect("the run");
    sample(&mut latest);

    let mut classes: BTreeMap<String, (u64, Cost)> = BTreeMap::new();
    for (tid, (comm, mut cost)) in latest {
        if let Some((_, base)) = before.get(&tid) {
            cost.cpu_ns -= base.cpu_ns;
            cost.runqueue_ns -= base.runqueue_ns;
            cost.voluntary -= base.voluntary;
            cost.involuntary -= base.involuntary;
        }
        let entry = classes.entry(class(&comm).to_string()).or_default();
        entry.0 += 1;
        entry.1.add(cost);
    }

    let ops = report.ops as f64;
    println!(
        "{} tier, depth {}, batch {}, {} keys, {}: {} ops in {:.2} s = {:.0} ops/s, \
         {} violations, monitors woken {} times ({:.3}/op)",
        if uds { "uds" } else { "bus" },
        cfg.pipeline_depth,
        cfg.batch_max,
        cfg.keys,
        if cfg.recovery.is_amnesia() {
            "chaos faults + amnesia"
        } else {
            "no faults"
        },
        report.ops,
        report.elapsed.as_secs_f64(),
        report.ops_per_sec(),
        report.monitor.violations.len(),
        report.monitor_overhead.wakeups,
        report.monitor_overhead.wakeups as f64 / ops,
    );
    println!(
        "{:<16} {:>7} {:>11} {:>13} {:>15} {:>13}",
        "class", "threads", "cpu µs/op", "sleeps/op", "preemptions/op", "runq µs/op"
    );
    let row = |name: &str, threads: u64, c: Cost| {
        println!(
            "{name:<16} {threads:>7} {:>11.2} {:>13.3} {:>15.3} {:>13.2}",
            c.cpu_ns as f64 / 1e3 / ops,
            c.voluntary as f64 / ops,
            c.involuntary as f64 / ops,
            c.runqueue_ns as f64 / 1e3 / ops,
        );
    };
    let mut total = (0, Cost::default());
    for (name, (threads, cost)) in &classes {
        row(name, *threads, *cost);
        total.0 += threads;
        total.1.add(*cost);
    }
    row("total", total.0, total.1);
    if report.monitor.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
