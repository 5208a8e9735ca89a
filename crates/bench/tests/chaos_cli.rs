//! End-to-end tests of the `chaos` binary's observability surface: flight
//! dumps from the demo modes, deterministic `--watch` summaries, and
//! fail-fast usage errors for unwritable output paths.

use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blunt-chaos-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn chaos(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("chaos runs")
}

/// `ret <int>` and `ret ⊥` tokens in the rendered violation window after
/// `marker` — the concrete values the violating operations returned.
fn returned_values(stdout: &str, marker: &str) -> Vec<String> {
    let window = match stdout.split_once(marker) {
        Some((_, rest)) => rest,
        None => return Vec::new(),
    };
    let mut vals = Vec::new();
    let mut rest = window;
    while let Some(at) = rest.find("ret ") {
        rest = &rest[at + 4..];
        // `Val::Nil` renders as `⊥` in the window and the diagram alike.
        let val: String = if rest.starts_with('⊥') {
            "⊥".into()
        } else {
            rest.chars().take_while(char::is_ascii_digit).collect()
        };
        if !val.is_empty() && !vals.contains(&val) {
            vals.push(val);
        }
    }
    vals
}

#[test]
fn unwritable_results_out_is_a_fail_fast_usage_error() {
    let dir = tmp_dir("unwritable");
    // A *file* used as a parent directory makes create_dir_all fail.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a dir").expect("write blocker");
    let bad = blocker.join("sub").join("BENCH_results.json");
    let out = chaos(&["--smoke", "--results-out", bad.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unwritable --results-out is a usage error, not a panic"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--results-out") && stderr.contains(blocker.join("sub").to_str().unwrap()),
        "the error names the flag and the path: {stderr}"
    );

    // Same discipline for the flight-dump directory.
    let bad_dump = blocker.join("flight");
    let out = chaos(&["--smoke", "--dump-dir", bad_dump.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dump-dir"));

    // And for the watch JSONL mirror.
    let bad_watch = blocker.join("sub").join("watch.jsonl");
    let out = chaos(&["--smoke", "--watch-out", bad_watch.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unwritable --watch-out parent is a usage error, not a silent drop"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--watch-out") && stderr.contains(blocker.join("sub").to_str().unwrap()),
        "the error names the flag and the path: {stderr}"
    );
}

#[test]
fn watch_out_writes_a_schema_versioned_jsonl_mirror() {
    let dir = tmp_dir("watch-out");
    let watch_path = dir.join("watch.jsonl");
    let out = chaos(&[
        "--smoke",
        "--watch",
        "50ms",
        "--watch-out",
        watch_path.to_str().unwrap(),
        "--seed",
        "7",
        "--ops-per-client",
        "200",
        "--results-out",
        dir.join("BENCH.json").to_str().unwrap(),
        "--summary-out",
        dir.join("SUM.json").to_str().unwrap(),
        "--dump-dir",
        dir.join("flight").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&watch_path).expect("watch JSONL written");
    let mut lines = text.lines();
    // Header line: document type, schema version, and the run seed. Each
    // in-process config reopens the file, so take the first header and
    // check every line parses as JSON of a known type.
    let header = blunt_obs::Json::parse(lines.next().expect("header line")).expect("header JSON");
    blunt_obs::json::open(&header, "chaos_watch").expect("chaos_watch header");
    assert!(header
        .get("seed")
        .and_then(blunt_obs::Json::as_u64)
        .is_some());
    let mut ticks = 0u64;
    for line in text.lines() {
        let doc = blunt_obs::Json::parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        match doc.get("type").and_then(blunt_obs::Json::as_str) {
            Some("chaos_watch") => {}
            Some("watch_tick") => {
                ticks += 1;
                for key in [
                    "t_ms",
                    "ops",
                    "in_flight",
                    "lat_p50_us",
                    "lat_p99_us",
                    "recoveries",
                ] {
                    assert!(
                        doc.get(key).and_then(blunt_obs::Json::as_u64).is_some(),
                        "tick missing {key}: {line}"
                    );
                }
            }
            other => panic!("unknown record type {other:?}: {line}"),
        }
    }
    assert!(ticks > 0, "at least one tick was mirrored:\n{text}");
}

#[test]
fn zero_watch_is_a_usage_error_naming_the_flag() {
    let out = chaos(&["--smoke", "--watch", "0"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--watch 0 is a usage error, not a hang or a silent default"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--watch"), "error names the flag: {stderr}");

    let out = chaos(&["--smoke", "--watch", "0ms"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--watch"));
}

#[test]
fn zero_ops_per_client_is_a_usage_error_naming_the_flag() {
    // Past 10⁶ ops per client, client 0's last write value would be
    // client 1's first.
    for n in ["0", "1000001"] {
        let out = chaos(&["--smoke", "--ops-per-client", n]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--ops-per-client {n} is a usage error, not a degenerate run"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--ops-per-client"),
            "error names the flag: {stderr}"
        );
    }
}

/// A serve process has no run shape to take a default fault mix from, so
/// it must be given the driver's `--fault-profile` verbatim; it holds no
/// fault schedule, so the schedule's flags are the driver's alone; it talks
/// only to the driver, so it takes the server count, not its peers'
/// addresses; and the one argument loop keeps each mode's flags to that
/// mode.
#[test]
fn serve_flags_and_driver_flags_stay_in_their_own_mode() {
    let dir = tmp_dir("serve-flags");
    let sock = dir.join("s0.sock");
    let sock = sock.to_str().unwrap();
    let serve = [
        "serve",
        "--listen",
        sock,
        "--server-id",
        "0",
        "--servers",
        "1",
    ];
    for (args, flag) in [
        (serve.to_vec(), "--fault-profile"),
        (
            [&serve[..], &["--fault-profile", "light", "--smoke"]].concat(),
            "--smoke",
        ),
        (
            [&serve[..], &["--fault-profile", "light", "--peers", sock]].concat(),
            "--peers",
        ),
        (
            [&serve[..], &["--fault-profile", "light", "--clients", "4"]].concat(),
            "--clients",
        ),
        (
            [&serve[..], &["--fault-profile", "light", "--seed", "7"]].concat(),
            "--seed",
        ),
        (
            [
                &serve[..],
                &["--fault-profile", "light", "--crash-len", "6"],
            ]
            .concat(),
            "--crash-len",
        ),
        (
            [
                &serve[..],
                &["--fault-profile", "light", "--crash-period", "60"],
            ]
            .concat(),
            "--crash-period",
        ),
        (vec!["--smoke", "--servers", "3"], "--servers"),
        (vec!["--smoke", "--shard-size", "3"], "--shard-size"),
    ] {
        let out = chaos(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "{args:?}: error names {flag}: {stderr}"
        );
    }
}

#[test]
fn demo_broken_emits_a_flight_dump_whose_diagram_contains_the_violating_ops() {
    let dir = tmp_dir("demo-broken");
    let dump_dir = dir.join("flight");
    let out = chaos(&[
        "--demo-broken",
        "--seed",
        "195911405", // 0x0BAD_5EED, the proven catch seed
        "--dump-dir",
        dump_dir.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the monitor must catch the broken read:\n{stdout}"
    );

    let jsonl = dump_dir.join("broken_fast_read.flight.jsonl");
    let diagram = dump_dir.join("broken_fast_read.diagram.txt");
    let dump_text = std::fs::read_to_string(&jsonl).expect("flight dump written");
    let dump = blunt_obs::FlightDump::parse(&dump_text).expect("dump parses");
    assert!(!dump.is_empty());
    let rendered = std::fs::read_to_string(&diagram).expect("diagram written");
    assert!(rendered.contains("VIOLATION #"), "{rendered}");

    // The ops of the printed violation window are in the rendered flight
    // window: the dump was captured at the moment of detection.
    let vals = returned_values(&stdout, "first violation window");
    assert!(
        !vals.is_empty(),
        "violation window returns values:\n{stdout}"
    );
    for v in &vals {
        assert!(
            rendered.contains(&format!("ret {v}")),
            "violating op returning {v} missing from {}",
            diagram.display()
        );
    }
}

#[test]
fn demo_amnesia_emits_a_flight_dump_whose_diagram_contains_the_violating_ops() {
    let dir = tmp_dir("demo-amnesia");
    let dump_dir = dir.join("flight");
    let out = chaos(&["--demo-amnesia", "--dump-dir", dump_dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the monitor must catch the broken recovery:\n{stdout}"
    );
    let rendered = std::fs::read_to_string(dump_dir.join("broken_amnesia.diagram.txt"))
        .expect("diagram written");
    assert!(rendered.contains("VIOLATION #"), "{rendered}");
    let vals = returned_values(&stdout, "first violation window");
    assert!(
        !vals.is_empty(),
        "violation window returns values:\n{stdout}"
    );
    for v in &vals {
        assert!(
            rendered.contains(&format!("ret {v}")),
            "violating op returning {v} missing from the amnesia diagram"
        );
    }
    // The dump parses and includes crash/recovery lifecycle events.
    let dump_text = std::fs::read_to_string(dump_dir.join("broken_amnesia.flight.jsonl"))
        .expect("flight dump written");
    let dump = blunt_obs::FlightDump::parse(&dump_text).expect("dump parses");
    assert!(dump
        .events
        .iter()
        .any(|e| e.kind == blunt_obs::FlightKind::ServerCrash));
}

#[test]
fn watched_smoke_runs_reproduce_identical_summaries_and_coverage() {
    let dir = tmp_dir("watch-determinism");
    let run = |tag: &str| {
        let summary = dir.join(format!("SUM_{tag}.json"));
        let out = chaos(&[
            "--smoke",
            "--watch",
            "100ms",
            "--seed",
            "7",
            "--ops-per-client",
            "120",
            "--results-out",
            dir.join(format!("BENCH_{tag}.json")).to_str().unwrap(),
            "--summary-out",
            summary.to_str().unwrap(),
            "--dump-dir",
            dir.join(format!("flight_{tag}")).to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("chaos[watch]"),
            "watch lines stream to stderr"
        );
        std::fs::read_to_string(summary).expect("summary written")
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a, b, "same-seed watched runs write identical summaries");
    assert!(a.contains("\"type\":\"chaos_summary\""));
    assert!(a.contains("\"coverage\""));
    assert!(a.contains("\"monitor_actions\""));
    assert!(a.contains("\"window_shape\""));
    // The summary round-trips through the JSON parser.
    assert!(blunt_obs::Json::parse(a.trim()).is_ok());
}
