//! Diffs a fresh `BENCH_results.json` against the committed baseline and
//! prints the delta table (see `blunt_trace::regress`).
//!
//! ```sh
//! cargo run -p blunt-bench --bin bench-report                  # report only
//! cargo run -p blunt-bench --bin bench-report -- --check       # gate: exit 1
//! cargo run -p blunt-bench --bin bench-report -- \
//!     --baseline crates/bench/baseline.json \
//!     --current target/experiments/BENCH_results.json \
//!     --threshold 0.25 --strict-times
//! ```
//!
//! Exit status: `0` clean (or `--check` not given), `1` when `--check` finds
//! a regression past the threshold, `2` on unreadable or malformed input —
//! including a file of another type or schema version, which cannot be
//! compared at all.

use blunt_trace::regress::{compare, BenchResults, CompareOptions};
use std::process::ExitCode;

fn load(path: &str) -> Result<BenchResults, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = blunt_obs::Json::parse(&text).map_err(|e| format!("{path}: bad JSON: {e}"))?;
    BenchResults::from_json(&json).map_err(|e| format!("{path}: {e} (see docs/OBS_SCHEMA.md)"))
}

fn main() -> ExitCode {
    let mut baseline_path = String::from("crates/bench/baseline.json");
    let mut current_path = String::from("target/experiments/BENCH_results.json");
    let mut opts = CompareOptions::default();
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        let parsed = match a.as_str() {
            "--baseline" => value("--baseline").map(|v| baseline_path = v),
            "--current" => value("--current").map(|v| current_path = v),
            "--threshold" => value("--threshold").and_then(|v| {
                v.parse()
                    .map(|t| opts.threshold = t)
                    .map_err(|e| format!("--threshold: {e}"))
            }),
            "--strict-times" => {
                opts.strict_times = true;
                Ok(())
            }
            "--check" => {
                check = true;
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("bench-report: {e}");
            return ExitCode::from(2);
        }
    }

    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench-report: {e}");
            }
            return ExitCode::from(2);
        }
    };

    let report = compare(&baseline, &current, &opts);
    println!(
        "bench-report: {} vs baseline {} (threshold +{:.0}%{})",
        current_path,
        baseline_path,
        opts.threshold * 100.0,
        if opts.strict_times {
            ", strict times"
        } else {
            ""
        }
    );
    print!("{}", report.to_text());
    if check && report.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
