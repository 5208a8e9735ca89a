//! The `BENCH_results.json` format and the baseline comparison behind the
//! `bench-report` regression gate.
//!
//! The `experiments` binary writes a [`BenchResults`] snapshot (per-phase
//! wall-clock times plus the final `blunt-obs` counter totals, which include
//! the expectimax node counts). `bench-report` parses a committed baseline
//! and a fresh run, prints a delta table, and — in `--check` mode — exits
//! nonzero when a *counter* grew past the configured threshold. Wall-clock
//! times are reported but gate only under `strict_times`, since they are
//! machine-dependent; counters are deterministic for a fixed experiment set.

use std::fmt::Write as _;

use blunt_obs::{json, Json, Snapshot};

/// One benchmark run: phase wall-times and counter totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchResults {
    /// `(phase name, wall-clock milliseconds)`, in execution order.
    pub phases: Vec<(String, f64)>,
    /// `(counter name, total)`, sorted by name (as produced by
    /// [`Snapshot`]).
    pub counters: Vec<(String, u64)>,
    /// The run seed, when the producing binary was seeded (`experiments
    /// --seed`, `chaos --seed`). Echoed for replay; never gated on.
    pub seed: Option<u64>,
}

impl BenchResults {
    /// Builds results from recorded phase times and a metrics snapshot.
    #[must_use]
    pub fn from_snapshot(phases: Vec<(String, f64)>, snap: &Snapshot) -> BenchResults {
        BenchResults {
            phases,
            counters: snap.counters.clone(),
            seed: None,
        }
    }

    /// The wall-time of phase `name`, if present.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<f64> {
        self.phases.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The value of counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Serializes to the `bench_results` JSON record (see
    /// `docs/OBS_SCHEMA.md`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|(name, ms)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("wall_ms".into(), Json::Float(*ms)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("value".into(), Json::UInt(*v)),
                ])
            })
            .collect();
        let mut fields = Vec::new();
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), Json::UInt(seed)));
        }
        fields.push(("phases".into(), Json::Arr(phases)));
        fields.push(("counters".into(), Json::Arr(counters)));
        json::doc("bench_results", fields)
    }

    /// Parses a `bench_results` record.
    ///
    /// # Errors
    ///
    /// The [`json::open`] message for a wrong header, or a note that the
    /// body does not have the `bench_results` shape.
    pub fn from_json(j: &Json) -> Result<BenchResults, String> {
        json::open(j, "bench_results")?;
        BenchResults::body(j).ok_or_else(|| "malformed bench_results record".to_string())
    }

    fn body(j: &Json) -> Option<BenchResults> {
        let mut phases = Vec::new();
        for p in j.get("phases")?.as_arr()? {
            phases.push((
                p.get("name")?.as_str()?.to_owned(),
                p.get("wall_ms")?.as_f64()?,
            ));
        }
        let mut counters = Vec::new();
        for c in j.get("counters")?.as_arr()? {
            counters.push((
                c.get("name")?.as_str()?.to_owned(),
                c.get("value")?.as_u64()?,
            ));
        }
        let seed = j.get("seed").and_then(Json::as_u64);
        Some(BenchResults {
            phases,
            counters,
            seed,
        })
    }
}

/// Gate configuration for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct CompareOptions {
    /// Allowed relative increase before a row counts as regressed: `0.25`
    /// means "up to +25% is fine".
    pub threshold: f64,
    /// Also gate on wall-clock phase times (off by default: times are
    /// machine-dependent).
    pub strict_times: bool,
}

impl Default for CompareOptions {
    fn default() -> CompareOptions {
        CompareOptions {
            threshold: 0.25,
            strict_times: false,
        }
    }
}

/// What kind of quantity a [`DeltaRow`] compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowKind {
    /// A phase wall-clock time in milliseconds.
    Time,
    /// A deterministic counter total.
    Count,
}

/// One baseline-vs-current comparison row.
#[derive(Clone, Debug)]
pub struct DeltaRow {
    /// Phase or counter name.
    pub name: String,
    /// Whether this row is a time or a counter.
    pub kind: RowKind,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// True when the row trips the gate under the options used.
    pub regressed: bool,
}

impl DeltaRow {
    /// Relative change in percent (`+∞` when the baseline is zero and the
    /// current value is not).
    #[must_use]
    pub fn delta_pct(&self) -> f64 {
        if self.base == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.current - self.base) / self.base * 100.0
        }
    }
}

/// The outcome of [`compare`].
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Per-quantity rows, phases first, then counters.
    pub rows: Vec<DeltaRow>,
    /// Names present in the baseline but absent from the current run
    /// (informational).
    pub missing_in_current: Vec<String>,
    /// Names present only in the current run (informational).
    pub only_in_current: Vec<String>,
}

impl CompareReport {
    /// The rows that tripped the gate.
    #[must_use]
    pub fn regressions(&self) -> Vec<&DeltaRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// True when `bench-report --check` should exit nonzero.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Renders the aligned delta table plus a one-line verdict.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<6} {:<44} {:>14} {:>14} {:>9}",
            "kind", "name", "baseline", "current", "delta"
        );
        for r in &self.rows {
            let kind = match r.kind {
                RowKind::Time => "time",
                RowKind::Count => "count",
            };
            let fmt_v = |v: f64| {
                if r.kind == RowKind::Time {
                    format!("{v:.1}ms")
                } else {
                    format!("{v:.0}")
                }
            };
            let delta = if r.delta_pct().is_infinite() {
                "   new>0".to_owned()
            } else {
                format!("{:>+7.1}%", r.delta_pct())
            };
            let _ = writeln!(
                s,
                "{:<6} {:<44} {:>14} {:>14} {:>9}{}",
                kind,
                r.name,
                fmt_v(r.base),
                fmt_v(r.current),
                delta,
                if r.regressed { "  REGRESSED" } else { "" }
            );
        }
        if !self.missing_in_current.is_empty() {
            let _ = writeln!(
                s,
                "missing in current: {}",
                self.missing_in_current.join(", ")
            );
        }
        if !self.only_in_current.is_empty() {
            let _ = writeln!(s, "new in current: {}", self.only_in_current.join(", "));
        }
        let _ = writeln!(
            s,
            "verdict: {}",
            if self.has_regressions() {
                "REGRESSION"
            } else {
                "OK"
            }
        );
        s
    }
}

/// Compares `current` against `baseline` under `opts`.
///
/// Counters gate when they grow past `base * (1 + threshold)`; phase times
/// do the same only under [`CompareOptions::strict_times`] (with half a
/// millisecond of absolute slack). Quantities present on only one side are
/// listed but never gate — adding or retiring an experiment is not a
/// regression.
#[must_use]
pub fn compare(
    baseline: &BenchResults,
    current: &BenchResults,
    opts: &CompareOptions,
) -> CompareReport {
    let mut report = CompareReport::default();
    for (name, base) in &baseline.phases {
        match current.phase(name) {
            Some(cur) => report.rows.push(DeltaRow {
                name: name.clone(),
                kind: RowKind::Time,
                base: *base,
                current: cur,
                regressed: opts.strict_times && cur > base * (1.0 + opts.threshold) + 0.5,
            }),
            None => report.missing_in_current.push(name.clone()),
        }
    }
    for (name, base) in &baseline.counters {
        match current.counter(name) {
            Some(cur) => {
                let (b, c) = (*base as f64, cur as f64);
                report.rows.push(DeltaRow {
                    name: name.clone(),
                    kind: RowKind::Count,
                    base: b,
                    current: c,
                    regressed: c > b * (1.0 + opts.threshold) + 1e-9,
                });
            }
            None => report.missing_in_current.push(name.clone()),
        }
    }
    for (name, _) in &current.phases {
        if baseline.phase(name).is_none() {
            report.only_in_current.push(name.clone());
        }
    }
    for (name, _) in &current.counters {
        if baseline.counter(name).is_none() {
            report.only_in_current.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `bench_results` record with the current header over `body`'s
    /// fields.
    fn parse(body: &str) -> BenchResults {
        let Json::Obj(fields) = Json::parse(body).expect("valid json") else {
            panic!("fixture body is an object");
        };
        BenchResults::from_json(&json::doc("bench_results", fields)).expect("valid schema")
    }

    const BASELINE: &str = r#"{
        "phases":[{"name":"e1_game_values","wall_ms":120.0}],
        "counters":[{"name":"sim.explore.states","value":1000},
                    {"name":"sim.kernel.steps","value":400}]}"#;

    #[test]
    fn json_round_trips() {
        let r = parse(BASELINE);
        assert_eq!(r.counter("sim.explore.states"), Some(1000));
        assert_eq!(r.phase("e1_game_values"), Some(120.0));
        let back = BenchResults::from_json(&Json::parse(&r.to_json().to_string()).unwrap());
        assert_eq!(back, Ok(r));
    }

    #[test]
    fn seed_round_trips_and_never_gates() {
        // Seeded runs echo the seed (replay affordance); files without one
        // still parse — `seed` is optional.
        let mut seeded = parse(BASELINE);
        assert_eq!(seeded.seed, None);
        seeded.seed = Some(0x0B1D_5EED);
        let back = BenchResults::from_json(&Json::parse(&seeded.to_json().to_string()).unwrap())
            .expect("round trip");
        assert_eq!(back.seed, Some(0x0B1D_5EED));
        // Two runs differing only in seed compare clean.
        let report = compare(&parse(BASELINE), &seeded, &CompareOptions::default());
        assert!(!report.has_regressions());
    }

    #[test]
    fn doctored_regression_trips_the_gate() {
        // Current run doubled an expectimax node counter: past the default
        // +25% threshold, so --check must fail.
        let baseline = parse(BASELINE);
        let doctored = parse(
            r#"{
                "phases":[{"name":"e1_game_values","wall_ms":480.0}],
                "counters":[{"name":"sim.explore.states","value":2000},
                            {"name":"sim.kernel.steps","value":400}]}"#,
        );
        let report = compare(&baseline, &doctored, &CompareOptions::default());
        assert!(report.has_regressions());
        let regs: Vec<&str> = report
            .regressions()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            regs,
            vec!["sim.explore.states"],
            "times do not gate by default"
        );
        assert!(report.to_text().contains("REGRESSED"));
        assert!(report.to_text().contains("verdict: REGRESSION"));

        // A generous threshold lets the same run pass.
        let lax = compare(
            &baseline,
            &doctored,
            &CompareOptions {
                threshold: 1.5,
                strict_times: false,
            },
        );
        assert!(!lax.has_regressions(), "{}", lax.to_text());
    }

    #[test]
    fn strict_times_gates_on_wall_clock() {
        let baseline = parse(BASELINE);
        let mut current = baseline.clone();
        current.phases[0].1 = 480.0;
        let opts = CompareOptions {
            threshold: 0.25,
            strict_times: true,
        };
        assert!(compare(&baseline, &current, &opts).has_regressions());
        assert!(!compare(&baseline, &current, &CompareOptions::default()).has_regressions());
    }

    #[test]
    fn missing_counters_are_listed_but_do_not_gate() {
        let baseline = parse(BASELINE);
        let mut slimmer = baseline.clone();
        slimmer.counters.retain(|(k, _)| k != "sim.kernel.steps");
        let report = compare(&baseline, &slimmer, &CompareOptions::default());
        assert!(!report.has_regressions());
        assert_eq!(report.missing_in_current, vec!["sim.kernel.steps"]);
        assert!(report.to_text().contains("missing in current"));
    }

    #[test]
    fn equal_runs_are_clean() {
        let baseline = parse(BASELINE);
        let report = compare(&baseline, &baseline.clone(), &CompareOptions::default());
        assert!(!report.has_regressions());
        assert!(report.missing_in_current.is_empty() && report.only_in_current.is_empty());
        assert!(report.to_text().contains("verdict: OK"));
    }
}
