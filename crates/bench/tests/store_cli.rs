//! End-to-end tests of the `chaos` binary's keyed-store and sweep modes:
//! the `--store --smoke` artifact set (bench results, run summary, batch
//! histogram, watch mirror, flight dump) and its one document header, the
//! `--sweep N` machine-readable per-seed verdict, `--k` and the watch flags
//! on store runs, and the fail-fast usage errors guarding the flags.

use std::path::PathBuf;
use std::process::Command;

use blunt_obs::{json, Json};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blunt-store-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn chaos(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("chaos runs")
}

fn read_json(path: &PathBuf) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(text.trim()).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

#[test]
fn store_smoke_writes_gated_counters_summary_and_batch_histogram() {
    let dir = tmp_dir("store-smoke");
    let results = dir.join("BENCH.json");
    let summary = dir.join("SUM.json");
    let hist = dir.join("hist.json");
    let out = chaos(&[
        "--store",
        "--smoke",
        "--seed",
        "42",
        "--ops-per-client",
        "150",
        "--results-out",
        results.to_str().unwrap(),
        "--summary-out",
        summary.to_str().unwrap(),
        "--batch-hist-out",
        hist.to_str().unwrap(),
        "--dump-dir",
        dir.join("flight").to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "store smoke must stay clean:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("verdict: all configurations linearizable"),
        "{stdout}"
    );

    // The bench results hold exactly the gateable counters: deterministic
    // runtime.chaos.* values for ops / violations / monitor_actions.
    let bench = blunt_trace::regress::BenchResults::from_json(&read_json(&results))
        .expect("bench results parse");
    // StoreConfig::smoke has 4 clients; 4 × 150 ops.
    assert_eq!(
        bench.counter("runtime.chaos.smoke.store_light.ops"),
        Some(600)
    );
    assert_eq!(
        bench.counter("runtime.chaos.smoke.store_light.violations"),
        Some(0)
    );
    assert_eq!(
        bench.counter("runtime.chaos.smoke.store_light.monitor_actions"),
        Some(1_200)
    );
    assert!(bench
        .counters
        .iter()
        .all(|(name, _)| name.starts_with("runtime.chaos.")));
    // Throughput and batch-shape ride as phases (informational unless
    // --strict-times), never as gated counters.
    assert!(bench.phase("store_ops_per_sec.smoke.store_light").is_some());
    assert!(bench
        .phase("store_batch_per_flush_p50.smoke.store_light")
        .is_some());

    let sum = read_json(&summary);
    assert_eq!(
        sum.get("type").and_then(Json::as_str),
        Some("chaos_summary")
    );
    let configs = sum
        .get("configs")
        .and_then(Json::as_arr)
        .expect("configs array");
    assert_eq!(configs.len(), 1);
    assert_eq!(
        configs[0].get("name").and_then(Json::as_str),
        Some("smoke.store_light")
    );
    assert_eq!(
        configs[0].get("transport").and_then(Json::as_str),
        Some("in-process")
    );
    assert_eq!(configs[0].get("violations").and_then(Json::as_u64), Some(0));
    assert_eq!(configs[0].get("ops").and_then(Json::as_u64), Some(600));

    // The batch-size artifact: every flushed envelope is accounted for,
    // and a flush never carries more than the configured maximum (smoke's
    // is 8) to any one of the 4 × 3 replicas.
    let h = read_json(&hist);
    json::open(&h, "store_batch_histogram").expect("batch histogram header");
    let flushes = h.get("flushes").and_then(Json::as_u64).expect("flushes");
    let envelopes = h
        .get("envelopes")
        .and_then(Json::as_u64)
        .expect("envelopes");
    assert!(flushes > 0, "batches actually formed");
    assert!(envelopes >= flushes, "each flush carries ≥ 1 envelope");
    assert!(h.get("per_flush_max").and_then(Json::as_u64).unwrap() <= 8 * 12);
    assert!(!h.get("buckets").and_then(Json::as_arr).unwrap().is_empty());
}

/// The first line of the JSON or JSONL file at `path`.
fn header(path: &PathBuf) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let first = text.lines().next().unwrap_or_default();
    Json::parse(first).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

#[test]
fn every_artifact_opens_under_the_one_schema_version() {
    let dir = tmp_dir("one-header");
    let artifact = |name: &str| dir.join(name);
    let out = chaos(&[
        "--store",
        "--smoke",
        "--ops-per-client",
        "2000",
        "--results-out",
        artifact("BENCH_results.json").to_str().unwrap(),
        "--summary-out",
        artifact("SUM.json").to_str().unwrap(),
        "--batch-hist-out",
        artifact("hist.json").to_str().unwrap(),
        "--watch-out",
        artifact("watch.jsonl").to_str().unwrap(),
        "--dump-dir",
        artifact("flight").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let demo = chaos(&[
        "--store",
        "--smoke",
        "--demo-broken",
        "--dump-dir",
        artifact("demo").to_str().unwrap(),
    ]);
    assert!(
        demo.status.success(),
        "{}",
        String::from_utf8_lossy(&demo.stdout)
    );
    for (file, ty) in [
        ("BENCH_results.json", "bench_results"),
        ("SUM.json", "chaos_summary"),
        ("hist.json", "store_batch_histogram"),
        ("watch.jsonl", "chaos_watch"),
        ("demo/smoke.store_light.flight.jsonl", "flight_dump"),
    ] {
        if let Err(e) = json::open(&header(&artifact(file)), ty) {
            panic!("{file}: {e}");
        }
    }
}

#[test]
fn sweep_small_n_reports_every_seed_and_passes() {
    let dir = tmp_dir("sweep");
    let summary = dir.join("sweep.json");
    let out = chaos(&[
        "--sweep",
        "3",
        "--smoke",
        "--seed",
        "11",
        "--ops-per-client",
        "100",
        "--summary-out",
        summary.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "all smoke seeds linearize:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("3/3 seeds linearizable"), "{stdout}");

    let doc = read_json(&summary);
    json::open(&doc, "chaos_sweep").expect("sweep header");
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("abd_k1"));
    assert_eq!(doc.get("base_seed").and_then(Json::as_u64), Some(11));
    assert_eq!(doc.get("seeds").and_then(Json::as_u64), Some(3));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 3);
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(
            run.get("seed").and_then(Json::as_u64),
            Some(11 + i as u64),
            "seeds are consecutive from the base"
        );
        assert_eq!(run.get("violations").and_then(Json::as_u64), Some(0));
        assert_eq!(run.get("pass").and_then(Json::as_bool), Some(true));
        assert!(run.get("ops").and_then(Json::as_u64).unwrap() > 0);
        assert!(run.get("offered").and_then(Json::as_u64).unwrap() > 0);
        // Stable-recovery sweeps report the field at zero; amnesia
        // sweeps fill it in (covered below for the keyed store).
        assert_eq!(run.get("recoveries").and_then(Json::as_u64), Some(0));
    }
}

#[test]
fn sweep_covers_the_keyed_store_too() {
    let dir = tmp_dir("sweep-store");
    let summary = dir.join("sweep.json");
    let out = chaos(&[
        "--sweep",
        "2",
        "--store",
        "--smoke",
        "--seed",
        "21",
        "--ops-per-client",
        "75",
        "--summary-out",
        summary.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = read_json(&summary);
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("store"));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 2);
    // StoreConfig::smoke has 4 clients; 4 × 75 ops per seed.
    for run in runs {
        assert_eq!(run.get("ops").and_then(Json::as_u64), Some(300));
    }
}

#[test]
fn sweep_accepts_amnesia_store_configs_and_reports_per_seed_recoveries() {
    let dir = tmp_dir("sweep-amnesia");
    let summary = dir.join("sweep.json");
    let out = chaos(&[
        "--sweep",
        "2",
        "--store",
        "--smoke",
        "--fault-profile",
        "amnesia",
        "--seed",
        "48879",
        "--ops-per-client",
        "500",
        "--summary-out",
        summary.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "amnesia store sweep must stay clean:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = read_json(&summary);
    json::open(&doc, "chaos_sweep").expect("sweep header");
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("store"));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 2);
    for run in runs {
        assert_eq!(run.get("violations").and_then(Json::as_u64), Some(0));
        // Crash windows fired and every crash was recovered from — a
        // sweep where no server ever forgot would vacuously pass.
        assert!(
            run.get("recoveries").and_then(Json::as_u64).unwrap() >= 1,
            "amnesia sweep run recovered nothing"
        );
    }
}

#[test]
fn store_flags_without_store_mode_are_usage_errors() {
    for flag in [
        ["--smoke", "--keys", "64"],
        ["--smoke", "--shards", "4"],
        ["--smoke", "--pipeline-depth", "2"],
        ["--smoke", "--batch", "8"],
    ] {
        let out = chaos(&flag);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`{}` without --store is a usage error",
            flag[1]
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag[1]),
            "the error names the flag {}",
            flag[1]
        );
    }
}

#[test]
fn store_mode_rejects_remote_demo_and_oversized_topologies() {
    // The keyed amnesia demo pins one shard's recovery to the broken
    // mode, which only the in-process spawner can arrange per shard.
    let out = chaos(&[
        "--store",
        "--demo-amnesia",
        "--connect",
        "/tmp/nonexistent.sock",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--store --demo-amnesia over --connect is a usage error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("in-process") && err.contains("--connect"),
        "the error explains the in-process restriction: {err}"
    );

    // 22 shards × 3 replicas = 66 > the 64-pid responder ceiling.
    let out = chaos(&["--store", "--smoke", "--shards", "22"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("64-pid"),
        "the error explains the ceiling"
    );
}

#[test]
fn store_demo_amnesia_is_caught_by_the_forgetful_shards_monitor() {
    let dir = tmp_dir("store-demo-amnesia");
    let out = chaos(&[
        "--store",
        "--demo-amnesia",
        "--seed",
        "48879",
        "--results-out",
        dir.join("BENCH.json").to_str().unwrap(),
        "--summary-out",
        dir.join("SUM.json").to_str().unwrap(),
        "--batch-hist-out",
        dir.join("hist.json").to_str().unwrap(),
        "--dump-dir",
        dir.join("flight").to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the per-shard monitor must catch the recovery that forgets:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("caught the shard that forgot"), "{stdout}");
    // The violation window renders operation intervals.
    assert!(stdout.contains('┌') && stdout.contains('└'), "{stdout}");
    // The flight dump was written at the moment of detection.
    let jsonl = dir.join("flight").join("broken_store_amnesia.flight.jsonl");
    let dump_text = std::fs::read_to_string(&jsonl).expect("flight dump written");
    assert!(blunt_obs::FlightDump::parse(&dump_text).is_ok());
}

#[test]
fn store_demo_broken_is_caught_by_the_per_shard_monitor() {
    let dir = tmp_dir("store-demo");
    let out = chaos(&[
        "--store",
        "--smoke",
        "--demo-broken",
        "--results-out",
        dir.join("BENCH.json").to_str().unwrap(),
        "--summary-out",
        dir.join("SUM.json").to_str().unwrap(),
        "--batch-hist-out",
        dir.join("hist.json").to_str().unwrap(),
        "--dump-dir",
        dir.join("flight").to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the monitor must catch the keyed broken read:\n{stdout}"
    );
    assert!(stdout.contains("caught the unsound keyed read"), "{stdout}");
    // The violation window renders operation intervals.
    assert!(stdout.contains('┌') && stdout.contains('└'), "{stdout}");
    // The flight dump was written at the moment of detection.
    let jsonl = dir.join("flight").join("smoke.store_light.flight.jsonl");
    let dump_text = std::fs::read_to_string(&jsonl).expect("flight dump written");
    assert!(blunt_obs::FlightDump::parse(&dump_text).is_ok());
}

#[test]
fn store_runs_honour_the_watch_flags_and_k() {
    let dir = tmp_dir("store-watch-k");
    let watch = dir.join("watch.jsonl");
    let summary = dir.join("SUM.json");
    let results = dir.join("BENCH.json");
    let out = chaos(&[
        "--store",
        "--smoke",
        "--k",
        "2",
        "--seed",
        "48879",
        "--ops-per-client",
        "150",
        "--watch-out",
        watch.to_str().unwrap(),
        "--results-out",
        results.to_str().unwrap(),
        "--summary-out",
        summary.to_str().unwrap(),
        "--batch-hist-out",
        dir.join("hist.json").to_str().unwrap(),
        "--dump-dir",
        dir.join("flight").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "ABD² on the store stays clean:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // `--k 2` ran ABD²: the config is named for it, and it is the run the
    // gate counters describe.
    let sum = read_json(&summary);
    let configs = sum.get("configs").and_then(Json::as_arr).expect("configs");
    assert_eq!(configs.len(), 1);
    assert_eq!(
        configs[0].get("name").and_then(Json::as_str),
        Some("smoke.store_k2_light")
    );
    let ops = configs[0].get("ops").and_then(Json::as_u64).expect("ops");
    assert_eq!(ops, 600);
    let bench = blunt_trace::regress::BenchResults::from_json(&read_json(&results))
        .expect("bench results parse");
    assert_eq!(
        bench.counter("runtime.chaos.smoke.store_k2_light.monitor_actions"),
        Some(1_200)
    );
    // The monitor-overhead phases are emitted for store configs too.
    assert!(bench.phase("monitor.smoke.store_k2_light").is_some());
    assert!(bench
        .phase("monitor_lag_ops.smoke.store_k2_light")
        .is_some());
    // The monitors are woken by rings of the bell — 4 shards × (4 clients
    // × 19 bursts + the run's last) — not by the 1 200 actions.
    let wakeups = bench
        .phase("monitor_wakeups.smoke.store_k2_light")
        .expect("monitor_wakeups phase");
    assert!((1.0..=308.0).contains(&wakeups), "{wakeups} wake-ups");

    // `--watch-out` wrote its mirror: a `chaos_watch` header, then ticks,
    // the last of which carries the run's total.
    let text = std::fs::read_to_string(&watch).expect("watch mirror written");
    let docs: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad line `{l}`: {e}")))
        .collect();
    assert_eq!(
        docs[0].get("type").and_then(Json::as_str),
        Some("chaos_watch")
    );
    let ticks: Vec<&Json> = docs
        .iter()
        .filter(|d| d.get("type").and_then(Json::as_str) == Some("watch_tick"))
        .collect();
    assert_eq!(ticks.len(), docs.len() - 1, "a header, then only ticks");
    let last = ticks.last().expect("at least one tick");
    assert_eq!(last.get("ops").and_then(Json::as_u64), Some(ops));
}

#[test]
fn an_explicit_k_on_the_side_by_side_register_set_is_a_usage_error() {
    let out = chaos(&["--smoke", "--k", "2"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "the default set runs k = 1 and 2 itself; --k must not be silently dropped"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--k") && err.contains("--store"),
        "the error names the flag and where it applies: {err}"
    );
}
