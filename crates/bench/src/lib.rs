//! Shared helpers for the experiment harness and benchmarks.
//!
//! The `experiments` binary (`cargo run --release -p blunt-bench --bin
//! experiments`) regenerates every quantitative claim indexed in
//! `DESIGN.md`/`EXPERIMENTS.md`; the benches under `benches/` measure the
//! cost of the moving parts (exploration, checking, per-operation protocol
//! cost) using the self-contained [`timing`] harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use blunt_core::history::History;
use blunt_core::ids::ObjId;
use blunt_runtime::{FaultConfig, RecoveryMode};
use blunt_sim::kernel::{run, RunReport};
use blunt_sim::rng::SplitMix64;
use blunt_sim::sched::RandomScheduler;
use blunt_sim::system::System;

/// Runs `sys` under a seeded random schedule and returns the report.
///
/// # Panics
///
/// Panics if the run errors (these systems always complete).
pub fn seeded_run<S: System>(sys: S, seed: u64, max_steps: usize) -> RunReport {
    run(
        sys,
        &mut RandomScheduler::new(seed),
        &mut SplitMix64::new(seed ^ 0x5EED),
        true,
        max_steps,
    )
    .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// Extracts the history of one object from a seeded run.
///
/// # Panics
///
/// Panics if the run errors.
pub fn seeded_history<S: System>(sys: S, seed: u64, obj: ObjId, max_steps: usize) -> History {
    seeded_run(sys, seed, max_steps)
        .trace
        .history()
        .project(obj)
}

/// Maps `f` over `items` on up to `threads` OS threads, preserving input
/// order in the output. With `threads <= 1` this degenerates to a plain
/// sequential map — callers don't need a separate code path.
///
/// Used by the seeded sweeps in the `experiments` binary (`--threads`):
/// each seed is an independent simulator run, so the sweep is embarrassingly
/// parallel.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers).
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::collections::VecDeque;
    use std::sync::Mutex;

    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = work.lock().expect("work queue").pop_front();
                let Some((i, item)) = next else { break };
                let r = f(item);
                slots.lock().expect("result slots")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// A named fault mix for `chaos --fault-profile`. `Heavy` is the full
/// [`FaultConfig::chaos`] mix; `Amnesia` is the same mix with
/// volatile-state-losing crashes and WAL + peer-catch-up recovery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultProfile {
    /// [`FaultConfig::none`].
    None,
    /// [`FaultConfig::light`].
    Light,
    /// [`FaultConfig::chaos`].
    Heavy,
    /// [`FaultConfig::chaos`] under [`RecoveryMode::amnesia`].
    Amnesia,
}

impl FaultProfile {
    /// Every profile, in `--fault-profile` order.
    pub const ALL: [FaultProfile; 4] = [
        FaultProfile::None,
        FaultProfile::Light,
        FaultProfile::Heavy,
        FaultProfile::Amnesia,
    ];

    /// The `--fault-profile` value naming this profile.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Light => "light",
            FaultProfile::Heavy => "heavy",
            FaultProfile::Amnesia => "amnesia",
        }
    }
}

impl std::str::FromStr for FaultProfile {
    type Err = String;

    /// The profile a `--fault-profile` value names.
    fn from_str(s: &str) -> Result<FaultProfile, String> {
        FaultProfile::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("`{s}` is not a fault profile"))
    }
}

/// The fault flags of `chaos`: `--fault-profile`, `--crash-len`,
/// `--crash-period` and `--recovery`. Over sockets the driver draws every
/// fate of the run, and `chaos serve` takes only the two flags that decide
/// the recovery mode; both sides read that mode through the one
/// [`FaultFlags::recovery_mode`], so they agree on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultFlags {
    /// `--fault-profile`; `None` leaves the run shape's default mix.
    pub profile: Option<FaultProfile>,
    /// `--crash-len`: crash-window length override.
    pub crash_len: Option<u64>,
    /// `--crash-period`: crash-cycle period override.
    pub crash_period: Option<u64>,
    /// `--recovery`: crash-semantics override, applied after the profile.
    pub recovery: Option<RecoveryMode>,
}

impl FaultFlags {
    /// The fault mix and crash semantics of a run over `servers` server
    /// processes: the profile (`default` when `--fault-profile` is absent),
    /// then — for a `sharded` keyed store under `amnesia` — crash windows
    /// scaled to the topology, then the explicit overrides.
    ///
    /// The register shapes' amnesia windows (8 in every 200 link events)
    /// assume a handful of servers; a sharded topology runs dozens, and
    /// crash windows must stagger disjointly across all of them. So the
    /// store's amnesia period grows with the server count (and its
    /// blackout shortens) until every store shape admits a valid layout.
    #[must_use]
    pub fn resolve(
        &self,
        default: FaultProfile,
        servers: u32,
        sharded: bool,
    ) -> (FaultConfig, RecoveryMode) {
        let profile = self.profile.unwrap_or(default);
        let mut faults = match profile {
            FaultProfile::None => FaultConfig::none(),
            FaultProfile::Light => FaultConfig::light(),
            FaultProfile::Heavy | FaultProfile::Amnesia => FaultConfig::chaos(),
        };
        if sharded && profile == FaultProfile::Amnesia {
            faults.crash_len = 4;
            faults.crash_period = 20 * u64::from(servers);
        }
        faults.crash_len = self.crash_len.unwrap_or(faults.crash_len);
        faults.crash_period = self.crash_period.unwrap_or(faults.crash_period);
        (faults, self.recovery_mode(default))
    }

    /// What a crash means under these flags: `--recovery`, else amnesia
    /// for the `amnesia` profile (`default` when `--fault-profile` is
    /// absent) and stable storage for the rest. It is all a serve process
    /// reads of its flags.
    #[must_use]
    pub fn recovery_mode(&self, default: FaultProfile) -> RecoveryMode {
        let profile_mode = match self.profile.unwrap_or(default) {
            FaultProfile::Amnesia => RecoveryMode::amnesia(),
            _ => RecoveryMode::Stable,
        };
        self.recovery.unwrap_or(profile_mode)
    }
}

/// A minimal self-contained wall-clock benchmark harness.
///
/// The container has no external benchmark framework, so the `benches/`
/// binaries (`harness = false`) drive this instead: warm up, calibrate an
/// iteration count for a fixed time budget, measure, and print one line per
/// benchmark. Each measurement is also recorded under the global
/// `blunt-obs` timer `bench.<name>` so a metrics snapshot taken after a
/// bench run carries the numbers.
pub mod timing {
    use std::time::{Duration, Instant};

    /// One benchmark result.
    #[derive(Clone, Debug)]
    pub struct Measurement {
        /// Benchmark name as printed.
        pub name: String,
        /// Measured iterations (after warmup).
        pub iters: u64,
        /// Mean wall time per iteration, in nanoseconds.
        pub ns_per_iter: f64,
    }

    /// Runs `f` with the default ~200 ms measurement budget.
    pub fn bench(name: &str, f: impl FnMut()) -> Measurement {
        bench_with_budget(name, Duration::from_millis(200), f)
    }

    /// Warm up, calibrate an iteration count that fills `budget`, measure,
    /// print one aligned line, and record the span under `bench.<name>`.
    pub fn bench_with_budget(name: &str, budget: Duration, mut f: impl FnMut()) -> Measurement {
        // Warmup + calibration: time a single iteration.
        f();
        let t0 = Instant::now();
        f();
        let one = t0.elapsed().max(Duration::from_nanos(50));
        let iters = (budget.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as u64;

        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let total = start.elapsed();
        blunt_obs::timer(&format!("bench.{name}")).record(total / iters as u32);

        let ns_per_iter = total.as_nanos() as f64 / iters as f64;
        let (scaled, unit) = if ns_per_iter >= 1e6 {
            (ns_per_iter / 1e6, "ms")
        } else if ns_per_iter >= 1e3 {
            (ns_per_iter / 1e3, "µs")
        } else {
            (ns_per_iter, "ns")
        };
        println!("{name:<52} {iters:>8} iters  {scaled:>10.3} {unit}/iter");
        Measurement {
            name: name.to_string(),
            iters,
            ns_per_iter,
        }
    }
}

/// Simple aligned-table printer for experiment outputs.
#[derive(Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    #[must_use]
    pub fn new<I: IntoIterator<Item = &'static str>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().collect());
    }

    /// Renders as GitHub-flavored markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }

    /// Renders as an aligned plain-text table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_abd::scenarios::weakener_abd;

    #[test]
    fn seeded_runs_are_deterministic() {
        let a = seeded_run(weakener_abd(1), 3, 100_000);
        let b = seeded_run(weakener_abd(1), 3, 100_000);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn seeded_history_projects_single_object() {
        let h = seeded_history(weakener_abd(1), 5, ObjId(0), 100_000);
        assert!(h.is_well_formed());
        assert_eq!(h.objects(), vec![ObjId(0)]);
    }

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0usize, 1, 3, 8, 64] {
            assert_eq!(
                parallel_map(items.clone(), threads, |x| x * x),
                expect,
                "threads = {threads}"
            );
        }
        assert!(parallel_map(Vec::<u64>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn parallel_map_matches_a_sequential_seeded_sweep() {
        let seeds: Vec<u64> = (0..6).collect();
        let seq: Vec<usize> = seeds
            .iter()
            .map(|&s| seeded_run(weakener_abd(1), s, 100_000).steps)
            .collect();
        let par = parallel_map(seeds, 3, |s| seeded_run(weakener_abd(1), s, 100_000).steps);
        assert_eq!(par, seq);
    }

    #[test]
    fn fault_profiles_round_trip_their_names() {
        for p in FaultProfile::ALL {
            assert_eq!(p.name().parse(), Ok(p));
        }
        assert!("chaos".parse::<FaultProfile>().is_err());
    }

    /// The driver resolves from its run shape (`--store` ⇒ sharded, the
    /// shape's server count); a serve process from its own flags (`--shard-size`
    /// given ⇒ sharded, one server per `--peers` address). Identical fault
    /// flags must give both sides one schedule.
    #[test]
    fn driver_and_serve_resolve_identical_flags_to_one_schedule() {
        use blunt_store::StoreConfig;
        let overrides = [
            FaultFlags::default(),
            FaultFlags {
                crash_len: Some(6),
                crash_period: Some(600),
                ..FaultFlags::default()
            },
            FaultFlags {
                recovery: Some(RecoveryMode::amnesia()),
                crash_len: Some(2),
                ..FaultFlags::default()
            },
        ];
        for profile in FaultProfile::ALL {
            for base in overrides {
                let flags = FaultFlags {
                    profile: Some(profile),
                    ..base
                };
                for store in [false, true] {
                    for shards in [1u32, 4, 8] {
                        let mut cfg = if store {
                            StoreConfig::smoke(0)
                        } else {
                            StoreConfig::register(0)
                        };
                        cfg.shards = shards;
                        let driver = flags.resolve(FaultProfile::Light, cfg.servers_total(), store);
                        let peers = vec!["s.sock"; (shards * cfg.servers_per_shard) as usize];
                        let shard_size = store.then_some(cfg.servers_per_shard);
                        let serve = flags.resolve(
                            profile,
                            u32::try_from(peers.len()).unwrap(),
                            shard_size.is_some(),
                        );
                        assert_eq!(driver, serve, "{flags:?}, store {store}, {shards} shards");
                    }
                }
            }
        }
    }

    #[test]
    fn store_amnesia_admits_every_sharded_topology() {
        let flags = FaultFlags {
            profile: Some(FaultProfile::Amnesia),
            ..FaultFlags::default()
        };
        // 8 shards × 3 replicas: the register windows (8 in 200) need 216.
        let (faults, recovery) = flags.resolve(FaultProfile::None, 24, true);
        assert_eq!((faults.crash_len, faults.crash_period), (4, 480));
        assert!(recovery.is_amnesia());
        assert_eq!(faults.validate(24), Ok(()));
        assert!(flags
            .resolve(FaultProfile::None, 24, false)
            .0
            .validate(24)
            .is_err());
        for servers in 1..=64 {
            assert_eq!(
                flags
                    .resolve(FaultProfile::None, servers, true)
                    .0
                    .validate(servers),
                Ok(())
            );
        }
    }

    #[test]
    fn table_renders_both_formats() {
        let mut t = Table::new(["k", "bound"]);
        t.row(["1".into(), "1".into()]);
        t.row(["2".into(), "7/8".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| k | bound |"));
        assert!(md.lines().count() == 4);
        let txt = t.to_text();
        assert!(txt.contains("7/8"));
    }
}
