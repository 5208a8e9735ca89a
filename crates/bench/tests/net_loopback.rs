//! The multi-process acceptance run, end-to-end through the real binary:
//! three `chaos serve` processes on loopback Unix-domain sockets plus a
//! `chaos --connect` driver, light faults with amnesia crash windows. The
//! run must complete ≥ 10k operations with zero violations, survive
//! server crashes and recoveries mid-run, and write a summary labeled with
//! the socket transport and carrying per-server telemetry sections. The
//! driver must also write the merged cross-process flight dump
//! (span-attributed events from all three server processes) plus its
//! rendered diagram, and each serve process must leave its own
//! `serve-<id>.flight.jsonl` under `--dump-dir` at shutdown.
//!
//! This is the same topology the `net-smoke` CI job runs; keeping it as a
//! test too means `cargo test` alone exercises the process boundary.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use blunt_obs::{json, Json};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blunt-net-loop-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Waits up to `limit` for `child`; kills it and panics on timeout.
fn wait_with_timeout(child: &mut Child, what: &str, limit: Duration) {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("poll child") {
            Some(status) => {
                assert!(status.success(), "{what} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("{what} still running after {limit:?}");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[test]
fn three_serve_processes_and_a_driver_survive_crashes_with_zero_violations() {
    let dir = tmp_dir("uds");
    let socks: Vec<String> = (0..3)
        .map(|i| dir.join(format!("s{i}.sock")).to_str().unwrap().to_string())
        .collect();
    let peers = socks.join(",");
    let fault_args = [
        "--fault-profile",
        "light",
        "--crash-len",
        "6",
        "--crash-period",
        "60",
        "--recovery",
        "amnesia",
        "--seed",
        "48879",
    ];

    let serve_dumps = dir.join("serve-dumps");
    let mut servers: Vec<Child> = (0..3)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_chaos"))
                .arg("serve")
                .args(["--listen", &socks[i]])
                .args(["--server-id", &i.to_string()])
                .args(["--clients", "4"])
                .args(["--peers", &peers])
                .args(["--dump-dir", serve_dumps.to_str().unwrap()])
                .args(fault_args)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn chaos serve")
        })
        .collect();

    let summary_path = dir.join("SUM.json");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--smoke", "--connect", &peers])
        .args(fault_args)
        .args(["--ops-per-client", "2600"]) // 4 clients × 2 600 = 10 400 ops
        .args(["--summary-out", summary_path.to_str().unwrap()])
        .args(["--results-out", dir.join("BENCH.json").to_str().unwrap()])
        .args(["--dump-dir", dir.join("flight").to_str().unwrap()])
        .output()
        .expect("chaos driver runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "driver failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    for (i, s) in servers.iter_mut().enumerate() {
        wait_with_timeout(s, &format!("server {i}"), Duration::from_secs(30));
    }

    let text = std::fs::read_to_string(&summary_path).expect("summary");
    let doc = Json::parse(text.trim()).expect("summary is JSON");
    let summary = json::open(&doc, "chaos_summary").expect("summary opens");
    let u64_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_u64);
    let str_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_owned);
    assert_eq!(u64_of(summary, "seed"), Some(48879));
    let configs = summary
        .get("configs")
        .and_then(Json::as_arr)
        .expect("configs");
    assert_eq!(configs.len(), 1);
    let cfg = &configs[0];
    assert_eq!(str_of(cfg, "name").as_deref(), Some("net.abd_k1_light"));
    assert_eq!(
        str_of(cfg, "transport").as_deref(),
        Some("uds"),
        "loopback sockets are labeled uds"
    );
    assert_eq!(u64_of(cfg, "ops"), Some(10_400), "≥ 10k ops completed");
    assert_eq!(
        u64_of(cfg, "violations"),
        Some(0),
        "linearizable over real sockets"
    );
    assert!(
        u64_of(cfg, "recoveries").is_some_and(|r| r >= 1),
        "at least one server crashed and recovered mid-run: {cfg}"
    );
    assert!(stdout.contains("verdict: all configurations linearizable"));

    // Every server process shipped a telemetry section with span-attributed
    // flight events.
    let servers = cfg.get("servers").and_then(Json::as_arr).expect("servers");
    assert_eq!(servers.len(), 3, "one telemetry section per server");
    for s in servers {
        let proc = str_of(s, "proc").expect("proc");
        for key in ["recoveries", "crashes", "fsync_p99_us"] {
            assert!(u64_of(s, key).is_some(), "server {proc} missing {key}");
        }
        assert!(
            u64_of(s, "events").is_some_and(|n| n > 0),
            "server {proc} telemetry counted no events"
        );
        assert!(
            u64_of(s, "span_events").is_some_and(|n| n > 0),
            "server {proc} counted no span-attributed events"
        );
    }

    // The merged cross-process dump and its rendered diagram: events from
    // all three remote processes, span-attributed, on one timeline.
    let merged_text = std::fs::read_to_string(dir.join("flight").join("net.merged.flight.jsonl"))
        .expect("merged flight dump written");
    let merged = blunt_obs::FlightDump::parse(&merged_text).expect("merged dump parses");
    for sid in 0..3 {
        let proc = format!("s{sid}");
        assert!(
            merged
                .events
                .iter()
                .any(|e| e.proc == proc && e.span != blunt_obs::flight::SPAN_NONE),
            "merged dump has no span-attributed events from process {proc}"
        );
    }
    let diagram = std::fs::read_to_string(dir.join("flight").join("net.merged.diagram.txt"))
        .expect("merged diagram written");
    assert!(
        diagram.contains("[s0]"),
        "remote lanes are labeled:\n{diagram}"
    );

    // Satellite: each serve process drained its flight ring into
    // `serve-<id>.flight.jsonl` before exiting on Shutdown.
    for sid in 0..3 {
        let path = serve_dumps.join(format!("serve-{sid}.flight.jsonl"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("serve dump {} missing: {e}", path.display()));
        let dump = blunt_obs::FlightDump::parse(&text).expect("serve dump parses");
        assert!(!dump.is_empty(), "serve {sid} dump is empty");
    }
}
