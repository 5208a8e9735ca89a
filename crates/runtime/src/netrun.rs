//! The server half of multi-process runs over the socket transport.
//!
//! An in-process run puts every node on a thread sharing one
//! [`crate::bus::Bus`]. A multi-process run splits the same run across OS
//! processes: each server runs [`run_net_server`] (the `chaos serve`
//! subcommand) — the *same* `server_loop` step machine, WAL, and amnesia
//! recovery, but its inbox is a [`blunt_net::ServerInbox`] — the replica
//! thread reads the driver's socket itself — and its replies leave through
//! [`blunt_net::NetServer`] — while the driver process runs
//! the store's one client driver (`blunt_store::run_store_with`) over
//! [`blunt_net::NetClient`]: the same client loop, shard monitors, flight
//! recorder, and watchdog as in process.
//!
//! A serve process holds no fault schedule. The driver's worker draws
//! every fate of the run, as the bus run's does in process: a request's as
//! it sends it, a reply's as it takes the frame its reader decoded. Both
//! consume the same per-link SplitMix64 streams they would in process, so
//! a seed exercises the same fault pattern whether the run is threaded or
//! distributed, and each fate has the same effect on either medium: a
//! duplicated request is two frames with one tag over sockets and two
//! mailbox deliveries on the bus, and the replica answers both either way.
//! `docs/TRANSPORT.md` has the full comparison.
//!
//! The driver is the hub: a serve process's one connection is the
//! driver's. A recovering replica's catch-up queries, and its peers'
//! answers, cross the driver, which relays them without a fate, as the
//! bus delivers them in process. So a serve process needs only its own
//! address, its pid and the server count.
//!
//! Recovery counters live in the server processes. Each one sends all of
//! them, with its fsync and flight-event counts, in every `Telemetry`
//! frame; the last one goes right before its `Goodbye`, so the driver
//! folds each server's final telemetry into its totals, every counter
//! included. The `Goodbye` carries only the flight-dump tail.

use std::io;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use blunt_core::ids::Pid;
use blunt_net::{Addr, FaultConfig, NetServer, NetServerCfg, RecoveryStats, ServerTelemetry};
use blunt_obs::FlightRecorder;

use crate::recovery::{RecoveryMode, RecoverySink};
use crate::workload::server_loop;

/// Configuration for one server process (`chaos serve`).
#[derive(Clone, Debug)]
pub struct NetServeConfig {
    /// Where this server listens.
    pub listen: Addr,
    /// This server's pid (`0..servers`).
    pub server_id: u32,
    /// Total number of servers in the run.
    pub servers: u32,
    /// Unread: the driver draws every fate. Kept only because the
    /// benchmark's struct literal names it.
    pub clients: u32,
    /// Unread, like `clients`, and kept for the same reason: catch-up
    /// traffic crosses the driver, so no server dials another.
    pub peers: Vec<Addr>,
    /// Unread, like `clients`, and kept for the same reason.
    pub seed: u64,
    /// Unread, like `clients`, and kept for the same reason.
    pub faults: FaultConfig,
    /// What a crash means for this server's state.
    pub recovery: RecoveryMode,
    /// Replicas per shard for sharded (keyed-store) runs: server pids are
    /// shard-major, so this server's replica group is the `shard_size`
    /// consecutive pids containing `server_id`, and recovery catch-up asks
    /// only those peers. `None` means unsharded — the group is all servers.
    pub shard_size: Option<u32>,
    /// Directory for this process's own flight dump
    /// (`serve-<id>.flight.jsonl`), written when the serve loop exits —
    /// whether by the driver's `Shutdown` or by losing the driver
    /// connection. `None` skips the local file; the bounded dump still
    /// goes back piggybacked on `Goodbye`.
    pub dump_dir: Option<PathBuf>,
}

/// How often a serve process ships a cumulative [`ServerTelemetry`]
/// snapshot to its driver.
const TELEMETRY_TICK: Duration = Duration::from_millis(500);

/// How many trailing flight events a serve process piggybacks on its
/// `Goodbye` frame (bounded so a goodbye stays one modest frame).
const GOODBYE_DUMP_EVENTS: usize = 1024;

/// The server's cumulative report so far, every number counted where it
/// happens: flight events at their rings, fsyncs where the WAL syncs.
fn telemetry(sink: &RecoverySink, recorder: &FlightRecorder) -> ServerTelemetry {
    let (events, span_events) = recorder.recorded();
    let (fsync_count, fsync_p99_us) = sink.fsyncs();
    ServerTelemetry {
        recovery: sink.snapshot(),
        fsync_count,
        fsync_p99_us,
        span_events,
        events,
    }
}

/// What one server process did, reported after its driver says `Shutdown`
/// or its driver connection ends.
#[derive(Debug)]
pub struct NetServeReport {
    /// This server's crash-recovery counters (also sent to the driver in
    /// its final `Telemetry` frame).
    pub recovery: RecoveryStats,
}

/// Runs one server process to completion: bind and take the driver's
/// connection, serve the ABD step machine until the driver says `Shutdown`
/// or its connection ends, then report.
///
/// # Errors
///
/// I/O errors from binding the listen address or accepting on it.
pub fn run_net_server(cfg: &NetServeConfig) -> io::Result<NetServeReport> {
    assert!(
        cfg.server_id < cfg.servers,
        "server id must be one of 0..servers"
    );
    let recorder = Arc::new(FlightRecorder::new(4096));
    let ncfg = NetServerCfg {
        listen: cfg.listen.clone(),
        me: Pid(cfg.server_id),
        servers: cfg.servers,
    };
    let (srv, rx) = NetServer::bind(&ncfg, Arc::clone(&recorder))?;
    let stop = srv.stop_flag();
    let sink = Arc::new(RecoverySink::default());

    // The telemetry thread: every tick, ship a snapshot to the driver so
    // `--watch` sees live server-side numbers. Read-only observation — it
    // never touches the serve loop.
    let (tele_stop_tx, tele_stop_rx) = mpsc::channel::<()>();
    let ticker = {
        let srv = Arc::clone(&srv);
        let recorder = Arc::clone(&recorder);
        let sink = Arc::clone(&sink);
        let tick = move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                tele_stop_rx.recv_timeout(TELEMETRY_TICK)
            {
                srv.telemetry(telemetry(&sink, &recorder));
            }
        };
        thread::Builder::new()
            .name("net-telemetry".into())
            .spawn(tick)?
    };

    let shard_size = match cfg.shard_size {
        Some(s) => {
            assert!(
                s >= 1 && s <= cfg.servers && cfg.servers.is_multiple_of(s),
                "shard size must divide the server count"
            );
            s
        }
        None => cfg.servers,
    };
    let shard_base = cfg.server_id / shard_size * shard_size;
    let group: Vec<Pid> = (shard_base..shard_base + shard_size).map(Pid).collect();
    server_loop(
        Pid(cfg.server_id),
        group,
        cfg.recovery,
        rx,
        srv.as_ref(),
        &stop,
        &sink,
        &recorder,
    );

    let _ = tele_stop_tx.send(());
    ticker.join().expect("telemetry thread");

    // Drain the flight rings NOW, whatever ended the serve loop — the
    // driver's `Shutdown` or a lost driver connection. The full dump goes
    // to the local file (when configured) and a bounded tail rides the
    // `Goodbye`.
    let dump = recorder.dump();
    if let Some(dir) = &cfg.dump_dir {
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("serve-{}.flight.jsonl", cfg.server_id)),
            dump.to_jsonl(),
        );
    }
    // The server's one report, before the goodbye on the same FIFO
    // connection: the driver stores it before it sees the goodbye, so its
    // totals are complete even though the periodic tick is best-effort.
    let report = telemetry(&sink, &recorder);
    srv.telemetry(report);
    srv.goodbye(dump.last_n(GOODBYE_DUMP_EVENTS).to_jsonl());
    // Nothing follows the goodbye: the driver's reader sees the end of
    // the stream.
    srv.close();
    Ok(NetServeReport {
        recovery: report.recovery,
    })
}
