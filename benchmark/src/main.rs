//! The keyed-store benchmark: five workloads through the public run drivers
//! (`blunt_store::run_store` / `run_store_net`), every run checked, every
//! metric printed by name with its unit, plus a traced op-path replay that
//! prices each layer. See `README.md` beside `Cargo.toml`.

mod metrics;
mod rep;
mod replay;
mod report;
mod span;
mod workloads;

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use blunt_obs::Json;

use crate::rep::Slice;
use crate::report::{Measured, Tally};
use crate::workloads::{Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
usage: blunt-benchmark [--workload <name|all>] [--seed N] [--seconds S] [--reps N]
                       [--trace 0|1] [--runs-only | --replay-only] [--metric NAME]...
                       [--out PATH] [--check-repeat]

  --workload      one of bus_pipelined bus_hotkeys bus_amnesia uds_pipelined
                  uds_serial, or all (default)
  --seed          fixes ring layout, key and op sequence, fault schedule (default 48879)
  --seconds       timed run time per workload, shared among the reps (default 20)
  --reps          child processes per workload; each sets up, warms up, and runs
                  timed slices for its share of --seconds (default 5)
  --trace 0       runs only; the last line is one JSON object with the end-to-end metrics
  --trace 1       runs and replay; the last line holds the per-layer metrics
                  (without --trace: one JSON document with both)
  --runs-only     skip the op-path replay
  --replay-only   skip the runs
  --metric        print only the named metric (may repeat)
  --out           also write the JSON to PATH
  --check-repeat  measure twice back to back and compare the end-to-end medians
                  against their bounds; exit 1 if any differs by more
";

/// How long a rep child may run before it is killed and counted as failed.
const WATCHDOG: Duration = Duration::from_secs(120);

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    reps: u32,
    trace: Option<bool>,
    runs: bool,
    replay: bool,
    metrics: Vec<String>,
    out: Option<PathBuf>,
    check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        reps: 5,
        trace: None,
        runs: true,
        replay: true,
        metrics: Vec::new(),
        out: None,
        check_repeat: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = workloads::find(name).ok_or(format!("unknown workload {name:?}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--reps" => {
                args.reps = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--reps takes a whole number, at least 1")?;
            }
            "--trace" => {
                args.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--runs-only" => args.replay = false,
            "--replay-only" => args.runs = false,
            "--metric" => {
                let name = value()?;
                if !report::metric_names().iter().any(|n| n == name) {
                    return Err(format!("unknown metric {name:?}"));
                }
                args.metrics.push(name.to_string());
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.runs && !args.replay {
        return Err("--runs-only and --replay-only exclude each other".into());
    }
    match args.trace {
        // The end-to-end metrics need no replay; the per-layer ones need both.
        Some(false) => args.replay = false,
        Some(true) if !(args.runs && args.replay) => {
            return Err(
                "--trace 1 reports every per-layer metric: it needs runs and replay".into(),
            );
        }
        _ => {}
    }
    if args.check_repeat {
        // Only the runs are compared.
        args.replay = false;
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace takes one --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--rep") {
        return rep_child(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("blunt-benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        return check_repeat(&args);
    }
    let measured = measure(&args);
    if let Some(m) = measured
        .iter()
        .find(|m| args.runs && m.end_to_end.is_empty())
    {
        eprintln!(
            "blunt-benchmark: {}: not one clean rep, nothing to report",
            m.workload.name
        );
        return ExitCode::FAILURE;
    }
    let doc = match args.trace {
        Some(trace) => report::contract_line(&measured[0], trace, &args.metrics),
        None => report::document(args.seed, &measured, &args.metrics),
    };
    let text = doc.to_string();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("blunt-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{text}");
    if measured.iter().all(Measured::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--rep <workload> <seed> <budget_ms>`: the child side of one rep.
fn rep_child(argv: &[String]) -> ExitCode {
    let parsed = match argv {
        [w, seed, budget_ms] => workloads::find(w)
            .zip(seed.parse().ok())
            .zip(budget_ms.parse().ok()),
        _ => None,
    };
    let Some(((w, seed), budget_ms)) = parsed else {
        eprintln!("blunt-benchmark: --rep is the benchmark's own child mode");
        return ExitCode::from(2);
    };
    rep::run_rep(w, seed, Duration::from_millis(budget_ms));
    ExitCode::SUCCESS
}

/// Runs and replays as `args` ask, one [`Measured`] per workload.
fn measure(args: &Args) -> Vec<Measured> {
    let mut tallies: Vec<Tally> = args.workloads.iter().map(|w| Tally::new(w)).collect();
    if args.runs {
        let budget = Duration::from_secs_f64(args.seconds / f64::from(args.reps));
        // Round-robin over the workloads, so that a noisy spell on the box
        // does not land on every rep of one of them.
        for rep in 0..args.reps {
            for tally in &mut tallies {
                let outcome = spawn_rep(tally.workload, args.seed, budget);
                eprintln!(
                    "{} rep {}/{}: {}",
                    tally.workload.name,
                    rep + 1,
                    args.reps,
                    outcome.describe()
                );
                tally.add_rep(outcome);
            }
        }
    }
    if args.replay {
        for tally in &mut tallies {
            // Untraced first: it doubles as the traced walk's warm-up.
            let untraced = replay::replay(tally.workload, args.seed, false);
            let traced = replay::replay(tally.workload, args.seed, true);
            if let Ok(t) = &traced {
                write_spans(tally.workload, &t.spans);
            }
            tally.add_replay(untraced.and_then(|u| Ok((u, traced?))));
        }
    }
    tallies.into_iter().map(Tally::finish).collect()
}

/// Writes the first thousand ops' spans beside the executable, overwriting
/// the previous trace of the same workload.
fn write_spans(w: &Workload, spans: &[span::Span]) {
    let path = rep::exe_dir().join(format!("spans-{}.csv", w.name));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        span::write_csv(spans, 1000, &mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => eprintln!(
            "{}: spans of the first 1000 ops in {}",
            w.name,
            path.display()
        ),
        Err(e) => eprintln!("{}: cannot write {}: {e}", w.name, path.display()),
    }
}

/// What the parent learned from one rep child.
pub struct RepOutcome {
    pub slices: Vec<Slice>,
    /// Child wall time, start to exit, less the slices' own run time.
    pub setup: Duration,
    /// Why the child's work is lost, if it is.
    pub lost: Option<String>,
}

impl RepOutcome {
    fn describe(&self) -> String {
        match &self.lost {
            Some(why) => format!("lost ({why})"),
            None => format!(
                "{} slices, set-up {:.3} s",
                self.slices.len(),
                self.setup.as_secs_f64()
            ),
        }
    }
}

/// Starts one rep child, reads its slices, and waits for it — or kills it
/// when the watchdog runs out. The child's run directory is removed either
/// way.
fn spawn_rep(w: &Workload, seed: u64, budget: Duration) -> RepOutcome {
    let started = Instant::now();
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut child = Command::new(exe)
        .args(["--rep", w.name, &seed.to_string()])
        .arg(budget.as_millis().max(1).to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a rep child");
    let pid = child.id();
    let mut stdout = child.stdout.take().expect("piped stdout");
    // Drained on its own thread: a long rep prints more than a pipe holds.
    let reader = thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait().expect("wait for a rep child") {
            Some(status) => break Some(status),
            None if started.elapsed() > WATCHDOG => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => thread::sleep(Duration::from_millis(2)),
        }
    };
    let wall = started.elapsed();
    let text = reader.join().expect("stdout reader thread");
    let _ = std::fs::remove_dir_all(rep::run_dir(pid));

    let slices: Option<Vec<Slice>> = text.ok().and_then(|t| {
        t.lines()
            .map(|l| Slice::from_json(&Json::parse(l).ok()?))
            .collect()
    });
    let lost = match (status, &slices) {
        (None, _) => Some(format!("killed after {} s", WATCHDOG.as_secs())),
        (Some(s), _) if !s.success() => Some(format!("child ended with {s}")),
        (_, None) => Some("child output does not parse".into()),
        (_, Some(s)) if s.is_empty() => Some("child ran no slice".into()),
        _ => None,
    };
    let slices = slices.unwrap_or_default();
    let run_time: Duration = slices
        .iter()
        .map(|s| Duration::from_nanos(s.elapsed_ns))
        .sum();
    RepOutcome {
        slices,
        setup: wall.saturating_sub(run_time),
        lost,
    }
}

/// Measures everything twice and holds the two sets of end-to-end medians
/// against the bounds.
fn check_repeat(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for round in 1..=2 {
        eprintln!("check-repeat: set {round} of 2");
        sets.push(measure(args));
    }
    let (table, ok) = report::compare(&sets[0], &sets[1]);
    print!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
