//! From reps and replays to reported metrics: the per-workload tally, the
//! JSON it is printed as, and the comparison of two sets of runs.

use std::fmt::Write as _;

use blunt_obs::Json;

use crate::metrics::{
    self, per_layer_defs, percentile, Better, Layer, Summary, END_TO_END, RUN_METRICS,
};
use crate::rep::Slice;
use crate::replay::{Replayed, CHUNK_OPS, REPLAY_OPS};
use crate::span::layer_totals;
use crate::workloads::{Workload, CLIENTS};
use crate::RepOutcome;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Summary,
}

/// Everything measured for one workload.
pub struct Measured {
    pub workload: &'static Workload,
    /// Ops asked of the store and of the replay.
    pub attempted: u64,
    /// Ops that did not complete under a clean verdict.
    pub failed: u64,
    /// Why, one line per failed slice, lost rep or failed replay.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// 1 − (ops completed under a clean verdict ÷ ops attempted).
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    fn end_to_end(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    fn per_layer(&self, name: &str) -> Option<&Metric> {
        self.per_layer.iter().find(|m| m.name == name)
    }
}

/// Collects one workload's reps and replay.
pub struct Tally {
    pub workload: &'static Workload,
    clean: Vec<Slice>,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    replay: Option<(Replayed, Replayed)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    pub fn new(workload: &'static Workload) -> Tally {
        Tally {
            workload,
            clean: Vec::new(),
            setup_s: Vec::new(),
            peak_rss_mb: Vec::new(),
            replay: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn add_rep(&mut self, rep: RepOutcome) {
        let slice_ops = u64::from(CLIENTS) * self.workload.ops_per_client;
        let peak_rss_kb = rep.slices.last().map(|s| s.peak_rss_kb);
        for slice in rep.slices {
            self.attempted += slice_ops;
            match slice.failure(self.workload) {
                Some(why) => {
                    self.failed += slice_ops;
                    self.failures.push(why);
                }
                None => self.clean.push(slice),
            }
        }
        match rep.lost {
            // A lost rep was at least one slice that never reported.
            Some(why) => {
                self.attempted += slice_ops;
                self.failed += slice_ops;
                self.failures.push(why);
            }
            None => {
                self.setup_s.push(rep.setup.as_secs_f64());
                let peak = peak_rss_kb.expect("a rep that is not lost ran a slice");
                self.peak_rss_mb.push(peak as f64 / 1024.0);
            }
        }
    }

    /// `(untraced, traced)` walks, or why the replay failed.
    pub fn add_replay(&mut self, replay: Result<(Replayed, Replayed), String>) {
        self.attempted += u64::from(REPLAY_OPS);
        match replay {
            Ok(pair) => self.replay = Some(pair),
            Err(why) => {
                self.failed += u64::from(REPLAY_OPS);
                self.failures.push(why);
            }
        }
    }

    /// Turns the tally into metrics. Run-sourced metrics need at least one
    /// clean slice from a rep that ended well; without one there is nothing
    /// to take a median of, and they are left out.
    pub fn finish(self) -> Measured {
        for why in &self.failures {
            eprintln!("{}: FAILED: {why}", self.workload.name);
        }
        let mut m = Measured {
            workload: self.workload,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        let over_slices = |of: fn(&Slice) -> f64| Summary::of(self.clean.iter().map(of).collect());
        // Per-layer values by name; names, order and units come from the table.
        let mut values: Vec<(String, Summary)> = Vec::new();
        let mut cpu_ns_per_op = None;
        if !self.clean.is_empty() && !self.setup_s.is_empty() {
            for def in &END_TO_END {
                let value = match def.name {
                    metrics::OPS_PER_S => {
                        over_slices(|s| s.ops as f64 / (s.elapsed_ns as f64 / 1e9))
                    }
                    metrics::P50_US => over_slices(|s| percentile(&s.latency_us, 0.50)),
                    metrics::SETUP_S => Summary::of(self.setup_s.clone()),
                    other => unreachable!("no rule for end-to-end metric {other}"),
                };
                m.end_to_end.push(Metric {
                    name: def.name.to_string(),
                    unit: def.unit,
                    value,
                });
            }
            values.push((
                metrics::FAILED_OPS_SHARE.into(),
                Summary::single(m.failed_ops_share()),
            ));
            values.extend(
                RUN_METRICS
                    .iter()
                    .map(|def| (def.name.to_string(), over_slices(def.of))),
            );
            values.push((metrics::PEAK_RSS_MB.into(), Summary::of(self.peak_rss_mb)));
            let cpu_us = |name: &str| {
                let found = values.iter().find(|(n, _)| n == name);
                found.expect("a CPU metric").1.median
            };
            cpu_ns_per_op = Some(1000.0 * (cpu_us(metrics::CPU_USER) + cpu_us(metrics::CPU_SYS)));
        }
        if let Some((untraced, traced)) = &self.replay {
            values.extend(replay_values(untraced, traced, cpu_ns_per_op));
        }
        m.per_layer = per_layer_defs()
            .into_iter()
            .filter_map(|(name, unit, _)| {
                let value = values.iter().find(|(n, _)| *n == name)?.1;
                Some(Metric { name, unit, value })
            })
            .collect();
        m
    }
}

/// The replay-sourced per-layer values by name. `cpu_ns_per_op` is what the
/// runs burned per op; without runs there is no coverage share to give.
fn replay_values(
    untraced: &Replayed,
    traced: &Replayed,
    cpu_ns_per_op: Option<f64>,
) -> Vec<(String, Summary)> {
    let chunks = layer_totals(&traced.spans, CHUNK_OPS, traced.span_cost);
    let ops = f64::from(traced.ops);
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut op_total_ns = 0.0;
    for layer in Layer::REPORTED {
        let of_chunks: Vec<_> = chunks.iter().map(|c| c[layer as usize]).collect();
        let units: u64 = of_chunks.iter().map(|t| t.units).sum();
        let per_unit: Vec<f64> = of_chunks
            .iter()
            .filter(|t| t.units > 0)
            .map(|t| t.self_ns / t.units as f64)
            .collect();
        // A layer the workload bypasses has no calls and costs nothing.
        let ns = if per_unit.is_empty() {
            0.0
        } else {
            Summary::of(per_unit).median
        };
        let units_per_op = units as f64 / ops;
        out.push((format!("{}_ns", layer.name()), ns));
        out.push((format!("{}_calls_per_op", layer.name()), units_per_op));
        if layer.in_op_total() {
            op_total_ns += ns * units_per_op;
        }
    }
    out.push((metrics::REPLAY_OP_TOTAL.into(), op_total_ns));
    if let Some(cpu) = cpu_ns_per_op.filter(|c| *c > 0.0) {
        out.push((metrics::REPLAY_CPU_COVERAGE.into(), op_total_ns / cpu));
    }
    let chunk_ns =
        |r: &Replayed| Summary::of(r.chunk_wall_ns.iter().map(|&ns| ns as f64).collect()).median;
    out.push((
        metrics::REPLAY_TRACE_OVERHEAD.into(),
        chunk_ns(traced) / chunk_ns(untraced) - 1.0,
    ));
    out.into_iter()
        .map(|(name, v)| (name, Summary::single(v)))
        .collect()
}

/// Every metric name the benchmark can print.
pub fn metric_names() -> Vec<String> {
    END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .chain(per_layer_defs().into_iter().map(|d| d.0))
        .collect()
}

fn wanted<'a>(metrics: &'a [Metric], only: &'a [String]) -> impl Iterator<Item = &'a Metric> {
    metrics
        .iter()
        .filter(move |m| only.is_empty() || only.contains(&m.name))
}

/// `{"value": median, "unit": …}`, with `min`, `max` and `samples` beside
/// them when `spread` is asked for.
fn metric_obj(m: &Metric, spread: bool) -> Json {
    let mut fields = vec![
        ("value".into(), Json::Float(m.value.median)),
        ("unit".into(), Json::Str(m.unit.into())),
    ];
    if spread {
        fields.push(("min".into(), Json::Float(m.value.min)));
        fields.push(("max".into(), Json::Float(m.value.max)));
        fields.push(("samples".into(), Json::UInt(m.value.samples as u64)));
    }
    Json::Obj(fields)
}

/// The one line the benchmark contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding the end-to-end
/// metrics (`trace` off) or the per-layer ones (`trace` on).
pub fn contract_line(m: &Measured, trace: bool, only: &[String]) -> Json {
    let set = if trace { &m.per_layer } else { &m.end_to_end };
    let metrics = wanted(set, only)
        .map(|metric| (metric.name.clone(), metric_obj(metric, false)))
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(m.correct())),
        ("attempted".into(), Json::UInt(m.attempted)),
        ("failed".into(), Json::UInt(m.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// The full document: every workload, both metric sets, each value the
/// median over its samples with minimum, maximum and sample count beside it.
pub fn document(seed: u64, measured: &[Measured], only: &[String]) -> Json {
    let set = |metrics: &[Metric]| {
        Json::Obj(
            wanted(metrics, only)
                .map(|m| (m.name.clone(), metric_obj(m, true)))
                .collect(),
        )
    };
    let workloads = measured
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::Str(m.workload.name.into())),
                ("correct".into(), Json::Bool(m.correct())),
                ("attempted".into(), Json::UInt(m.attempted)),
                ("failed".into(), Json::UInt(m.failed)),
                (
                    "failures".into(),
                    Json::Arr(m.failures.iter().cloned().map(Json::Str).collect()),
                ),
                ("end_to_end".into(), set(&m.end_to_end)),
                ("per_layer".into(), set(&m.per_layer)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), Json::UInt(seed)),
        ("workloads".into(), Json::Arr(workloads)),
    ])
}

/// Holds two sets of runs of the same commit against each other: per
/// workload and end-to-end metric both medians, how much worse the second
/// is than the first as a share of the first, and the bound. Also demands
/// zero failed ops and, under amnesia, crash and recovery counts that repeat
/// exactly. Returns the table and whether everything held.
pub fn compare(first: &[Measured], second: &[Measured]) -> (String, bool) {
    let mut table = String::new();
    let mut ok = true;
    let _ = writeln!(
        table,
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for def in &END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end(def.name), b.end_to_end(def.name)) else {
                continue;
            };
            let (x, y) = (x.value.median, y.value.median);
            let worse = match def.better {
                Better::Higher => (x - y) / x,
                Better::Lower => (y - x) / x,
            };
            let held = worse <= def.bound;
            ok &= held;
            let _ = writeln!(
                table,
                "{:<14} {:<18} {:>12.2} {:>12.2} {:>+7.1}% {:>5.0}%{}",
                a.workload.name,
                def.name,
                x,
                y,
                100.0 * worse,
                100.0 * def.bound,
                if held { "" } else { "  OVER" }
            );
        }
        for m in [a, b] {
            if !m.correct() {
                ok = false;
                let _ = writeln!(
                    table,
                    "{:<14} failed_ops_share {:.4} ({} of {} ops)  FAILED",
                    m.workload.name,
                    m.failed_ops_share(),
                    m.failed,
                    m.attempted
                );
            }
        }
        if a.workload.amnesia {
            for name in ["runtime.recovery.crashes", "runtime.recovery.recoveries"] {
                let (Some(x), Some(y)) = (a.per_layer(name), b.per_layer(name)) else {
                    continue;
                };
                let same = x.value.min == x.value.max
                    && y.value.min == y.value.max
                    && x.value.median == y.value.median;
                ok &= same;
                let _ = writeln!(
                    table,
                    "{:<14} {:<28} {:>6} {:>6}{}",
                    a.workload.name,
                    name,
                    x.value.median,
                    y.value.median,
                    if same { "  repeats" } else { "  DIFFERS" }
                );
            }
        }
    }
    (table, ok)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use blunt_obs::HistogramSnapshot;

    use super::*;
    use crate::span::SpanCost;
    use crate::workloads::{self, WORKLOADS};

    /// A slice of workload `w` that passes every check.
    fn clean_slice(w: &Workload) -> Slice {
        let ops = u64::from(CLIENTS) * w.ops_per_client;
        let crashes = if w.amnesia { 12 } else { 0 };
        Slice {
            ops,
            elapsed_ns: 250_000_000,
            latency_us: HistogramSnapshot {
                count: ops,
                sum: 300 * ops,
                min: 90,
                max: 4000,
                buckets: vec![(128, ops / 2), (256, ops - ops / 2)],
            },
            violations: 0,
            overflowed: false,
            monitor_actions: 2 * ops,
            retransmissions: 3,
            degraded_ops: 0,
            offered: 12 * ops,
            faulted: 0,
            crashes,
            recoveries: crashes,
            wal_records_lost: 0,
            shard_recoveries: vec![(crashes / 2, crashes / 2); 2],
            batch_flushes: 4 * ops,
            batch_envelopes: 12 * ops,
            frames_sent: 0,
            bytes_sent: 0,
            dedup_drops: 0,
            tag_mismatch_drops: 0,
            wal_appends: 0,
            fsyncs: 0,
            cpu_user_ticks: 20,
            cpu_sys_ticks: 25,
            peak_rss_kb: 40_000,
        }
    }

    fn rep_of(slices: Vec<Slice>) -> RepOutcome {
        RepOutcome {
            slices,
            setup: Duration::from_millis(60),
            lost: None,
        }
    }

    fn tally_of(w: &'static Workload, rep: RepOutcome) -> Measured {
        let mut t = Tally::new(w);
        t.add_rep(rep);
        t.finish()
    }

    #[test]
    fn a_clean_rep_fails_no_ops() {
        for w in &WORKLOADS {
            let m = tally_of(w, rep_of(vec![clean_slice(w)]));
            assert!(m.correct(), "{}: {:?}", w.name, m.failures);
            assert_eq!(m.failed_ops_share(), 0.0);
        }
    }

    #[test]
    fn every_failure_condition_fails_the_whole_slice() {
        type Doctor = fn(&mut Slice);
        let doctors: [(&str, Doctor); 6] = [
            ("a monitor violation", |s| s.violations = 1),
            ("monitor overflow", |s| s.overflowed = true),
            ("an op short", |s| s.ops -= 1),
            ("a monitor action short", |s| s.monitor_actions -= 1),
            ("a crash without recovery", |s| s.crashes += 1),
            ("a shard that never recovered", |s| {
                s.shard_recoveries[1] = (0, 0)
            }),
        ];
        let w = workloads::find("bus_amnesia").expect("the amnesia workload");
        for (what, doctor) in doctors {
            let mut slice = clean_slice(w);
            doctor(&mut slice);
            let m = tally_of(w, rep_of(vec![slice]));
            assert!(!m.correct(), "{what} passed");
            assert_eq!(m.failed_ops_share(), 1.0, "{what}");
        }
    }

    #[test]
    fn recovery_counts_only_matter_under_amnesia() {
        let w = workloads::find("bus_pipelined").expect("a stable workload");
        let mut slice = clean_slice(w);
        slice.shard_recoveries = vec![(0, 0); 2];
        assert!(tally_of(w, rep_of(vec![slice])).correct());
    }

    #[test]
    fn a_panicked_or_killed_rep_counts_wholly_failed() {
        let w = &WORKLOADS[0];
        for why in ["child ended with exit status: 101", "killed after 120 s"] {
            let m = tally_of(
                w,
                RepOutcome {
                    slices: Vec::new(),
                    setup: Duration::ZERO,
                    lost: Some(why.into()),
                },
            );
            assert_eq!(m.failed_ops_share(), 1.0);
            assert_eq!(m.failures, [why]);
            assert!(m.end_to_end.is_empty(), "nothing to take a median of");
        }
    }

    #[test]
    fn one_bad_slice_among_clean_ones_fails_its_share() {
        let w = &WORKLOADS[0];
        let mut bad = clean_slice(w);
        bad.violations = 2;
        let m = tally_of(
            w,
            rep_of(vec![clean_slice(w), bad, clean_slice(w), clean_slice(w)]),
        );
        assert_eq!(m.failed_ops_share(), 0.25);
        assert!(!m.end_to_end.is_empty(), "the clean slices still report");
    }

    fn walk() -> Replayed {
        Replayed {
            ops: CHUNK_OPS,
            chunk_wall_ns: vec![5_000_000],
            spans: Vec::new(),
            span_cost: SpanCost::NONE,
        }
    }

    fn names_of(line: &Json) -> Vec<(String, String)> {
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("a contract line has metrics")
        };
        metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                (name.clone(), unit.to_string())
            })
            .collect()
    }

    /// `(name, unit)` of every entry of one of `BENCHMARK.json`'s lists.
    fn listed(benchmark: &Json, list: &str) -> Vec<(String, String)> {
        benchmark
            .get(list)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|e| {
                let field = |k| {
                    e.get(k)
                        .and_then(Json::as_str)
                        .expect("a string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_json_names_exactly_what_benchmark_json_lists() {
        let benchmark =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");

        let listed_workloads: Vec<(String, String)> = benchmark
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k| {
                    w.get(k)
                        .and_then(Json::as_str)
                        .expect("a string")
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed_workloads, ours);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));

        for w in &WORKLOADS {
            let mut t = Tally::new(w);
            t.add_rep(rep_of(vec![clean_slice(w), clean_slice(w)]));
            t.add_replay(Ok((walk(), walk())));
            let m = t.finish();

            let end_to_end = names_of(&contract_line(&m, false, &[]));
            assert_eq!(end_to_end, listed(&benchmark, "end_to_end"), "{}", w.name);
            let per_layer = names_of(&contract_line(&m, true, &[]));
            assert_eq!(per_layer, listed(&benchmark, "per_layer"), "{}", w.name);

            let mut all: Vec<&String> = end_to_end.iter().chain(&per_layer).map(|n| &n.0).collect();
            let emitted = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), emitted, "every name once");
            let known = metric_names();
            assert!(all.iter().all(|n| known.contains(n)));
            assert_eq!(known.len(), emitted);
        }
    }

    #[test]
    fn benchmark_json_carries_the_directions_and_bounds_of_the_tables() {
        let benchmark =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let entries = |list| benchmark.get(list).and_then(Json::as_arr).expect("a list");
        for (def, e) in END_TO_END.iter().zip(entries("end_to_end")) {
            assert_eq!(
                e.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(e.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        for (def, e) in per_layer_defs().iter().zip(entries("per_layer")) {
            assert_eq!(e.get("name").and_then(Json::as_str), Some(def.0.as_str()));
            assert_eq!(e.get("better").and_then(Json::as_str), Some(def.2.as_str()));
        }
    }

    #[test]
    fn compare_flags_a_median_that_got_worse_by_more_than_its_bound() {
        let w = &WORKLOADS[0];
        let fast = tally_of(w, rep_of(vec![clean_slice(w)]));
        let mut slow_slice = clean_slice(w);
        slow_slice.elapsed_ns = slow_slice.elapsed_ns * 3 / 2;
        let slow = tally_of(w, rep_of(vec![slow_slice]));
        let (table, ok) = compare(&[fast], &[slow]);
        assert!(!ok);
        assert!(table.contains("OVER"), "{table}");
        let again = tally_of(w, rep_of(vec![clean_slice(w)]));
        let same = tally_of(w, rep_of(vec![clean_slice(w)]));
        assert!(compare(&[again], &[same]).1);
    }
}
