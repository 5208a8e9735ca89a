//! Golden traces of the composed systems: one seeded run of each of
//! `weakener_abd(2)`, `weakener_va(2)` and `ghw_snapshot(2)` under the
//! random scheduler, exported to JSONL and compared byte-for-byte against a
//! checked-in file.
//!
//! The random scheduler picks an event by its index in `enabled()`, so these
//! files pin the enabled-event order as well as every trace event, including
//! where each operation's `PreamblePassed` and `ObjectRandom` control points
//! fire (Algorithm 2).
//!
//! Regenerate the golden files with `BLESS=1 cargo test --test golden_traces`.

use blunt_obs::{parse_jsonl, Recorder, VecSink};
use blunt_sim::export::{record_trace, run_summary_json, trace_from_records};
use blunt_sim::kernel::{run, RunReport};
use blunt_sim::rng::SplitMix64;
use blunt_sim::sched::RandomScheduler;
use blunt_sim::system::System;

const SEED: u64 = 7;

fn recorded_run<S: System>(sys: S) -> RunReport {
    run(
        sys,
        &mut RandomScheduler::new(SEED),
        &mut SplitMix64::new(SEED ^ 0x5eed),
        true,
        10_000,
    )
    .expect("seeded run completes")
}

fn check(name: &str, report: &RunReport) {
    let mut sink = VecSink::new();
    record_trace(&report.trace, &mut sink);
    sink.record(&run_summary_json(name, report));
    let rendered: String = sink.records.iter().map(|r| format!("{r}\n")).collect();

    let path = format!("{}/tests/golden/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file exists (BLESS=1 to create)");
    assert_eq!(rendered, golden, "{name}: trace drifted from golden file");

    let back = trace_from_records(&parse_jsonl(&golden).expect("golden parses"))
        .expect("events deserialize");
    assert_eq!(back, report.trace, "{name}: golden does not round-trip");
}

#[test]
fn abd_k2_weakener_trace_matches_golden() {
    check(
        "weakener_abd_k2",
        &recorded_run(blunt_abd::scenarios::weakener_abd(2)),
    );
}

#[test]
fn va_k2_weakener_trace_matches_golden() {
    check(
        "weakener_va_k2",
        &recorded_run(blunt_registers::scenarios::weakener_va(2)),
    );
}

#[test]
fn snapshot_k2_ghw_trace_matches_golden() {
    check(
        "ghw_snapshot_k2",
        &recorded_run(blunt_registers::scenarios::ghw_snapshot(2)),
    );
}
