//! End-to-end test of the `bench-report` regression gate: the compiled
//! binary must exit nonzero under `--check` when fed a doctored
//! `BENCH_results.json` whose counters regressed past the threshold, and
//! cleanly otherwise.

use std::path::PathBuf;
use std::process::Command;

use blunt_obs::{json, Json, SCHEMA_VERSION};

const BASELINE: &str = r#"{
    "phases":[{"name":"e1","wall_ms":100.0}],
    "counters":[{"name":"sim.explore.states","value":1000}]}"#;

const DOCTORED: &str = r#"{
    "phases":[{"name":"e1","wall_ms":100.0}],
    "counters":[{"name":"sim.explore.states","value":2000}]}"#;

/// A `bench_results` file: the current header over `body`'s fields.
fn results(body: &str) -> String {
    let Json::Obj(fields) = Json::parse(body).expect("fixture body") else {
        panic!("fixture body is an object");
    };
    json::doc("bench_results", fields).to_string()
}

/// Writes `body` under the current `bench_results` header.
fn write_fixture(name: &str, body: &str) -> PathBuf {
    write_raw(name, &results(body))
}

fn write_raw(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blunt-bench-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

fn bench_report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(args)
        .output()
        .expect("bench-report runs")
}

#[test]
fn check_fails_on_a_doctored_regression() {
    let baseline = write_fixture("baseline.json", BASELINE);
    let doctored = write_fixture("doctored.json", DOCTORED);
    let out = bench_report(&[
        "--check",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        doctored.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "--check must exit nonzero on a 2x counter regression: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("verdict: REGRESSION"), "{stdout}");
}

#[test]
fn identical_results_pass_and_report_only_mode_never_fails() {
    let baseline = write_fixture("clean-baseline.json", BASELINE);
    let same = write_fixture("clean-current.json", BASELINE);
    let paths = [
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        same.to_str().unwrap(),
    ];
    let out = bench_report(&[&["--check"], &paths[..]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: OK"));

    // Without --check a regression is reported but does not gate.
    let doctored = write_fixture("report-only.json", DOCTORED);
    let out = bench_report(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        doctored.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: REGRESSION"));
}

#[test]
fn unreadable_input_exits_with_usage_error() {
    let out = bench_report(&["--baseline", "/nonexistent/baseline.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = bench_report(&["--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn another_schema_version_is_unreadable_not_a_regression() {
    let baseline = write_fixture("ver-baseline.json", BASELINE);
    let stamp = format!("\"schema_version\":{SCHEMA_VERSION}");
    let old = SCHEMA_VERSION - 1;
    let stale = write_raw(
        "ver-stale.json",
        &results(BASELINE).replace(&stamp, &format!("\"schema_version\":{old}")),
    );
    let out = bench_report(&[
        "--check",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        stale.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "a file that cannot be compared");
    assert!(out.stdout.is_empty(), "no delta table is printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(stale.to_str().unwrap())
            && stderr.contains(&format!("v{old}"))
            && stderr.contains(&format!("v{SCHEMA_VERSION}")),
        "the error names the file and both versions: {stderr}"
    );
}

/// A baseline with the chaos runner's monitor-overhead quantities: the
/// deterministic `monitor_actions` counter (blocking) and the
/// timing-dependent `monitor.*` observe-time phase (gates only under
/// `--strict-times`).
const MONITOR_BASELINE: &str = r#"{
    "phases":[{"name":"smoke.abd_k1_chaos","wall_ms":400.0},
              {"name":"monitor.smoke.abd_k1_chaos","wall_ms":2.0},
              {"name":"monitor_lag_ops.smoke.abd_k1_chaos","wall_ms":40.0}],
    "counters":[{"name":"runtime.chaos.smoke.abd_k1_chaos.ops","value":2000},
                {"name":"runtime.chaos.smoke.abd_k1_chaos.violations","value":0},
                {"name":"runtime.chaos.smoke.abd_k1_chaos.monitor_actions","value":4000}]}"#;

#[test]
fn monitor_actions_counter_regression_blocks() {
    let baseline = write_fixture("mon-baseline.json", MONITOR_BASELINE);
    // The monitor silently observing twice per op more than it should —
    // e.g. duplicated action reporting — doubles the deterministic counter.
    let doctored = write_fixture(
        "mon-doctored.json",
        &MONITOR_BASELINE.replace(
            r#"monitor_actions","value":4000"#,
            r#"monitor_actions","value":8000"#,
        ),
    );
    let out = bench_report(&[
        "--check",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        doctored.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("monitor_actions") && stdout.contains("REGRESSED"),
        "{stdout}"
    );

    // The regenerated baseline compared against itself is clean.
    let same = write_fixture("mon-same.json", MONITOR_BASELINE);
    let out = bench_report(&[
        "--check",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        same.to_str().unwrap(),
    ]);
    assert!(out.status.success());
}

#[test]
fn monitor_observe_phase_gates_only_under_strict_times() {
    let baseline = write_fixture("mon-phase-baseline.json", MONITOR_BASELINE);
    // Monitor observe time blowing up 10x: a real overhead regression, but
    // wall-time, so informational by default.
    let doctored = write_fixture(
        "mon-phase-doctored.json",
        &MONITOR_BASELINE.replace(
            r#""monitor.smoke.abd_k1_chaos","wall_ms":2.0"#,
            r#""monitor.smoke.abd_k1_chaos","wall_ms":20.0"#,
        ),
    );
    let paths = [
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        doctored.to_str().unwrap(),
    ];
    let out = bench_report(&[&["--check"], &paths[..]].concat());
    assert!(
        out.status.success(),
        "times are informational without --strict-times: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = bench_report(&[&["--check", "--strict-times"], &paths[..]].concat());
    assert_eq!(
        out.status.code(),
        Some(1),
        "--strict-times gates the monitor-overhead phase"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("monitor.smoke.abd_k1_chaos"));
}

#[test]
fn threshold_flag_is_honored() {
    let baseline = write_fixture("thr-baseline.json", BASELINE);
    let doctored = write_fixture("thr-current.json", DOCTORED);
    let out = bench_report(&[
        "--check",
        "--threshold",
        "1.5",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        doctored.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "a +150% threshold tolerates a 2x counter: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
