//! Crash-recovery policy and counters.
//!
//! [`RecoveryMode`] selects what a crash *means* for a server's state:
//! under [`RecoveryMode::Stable`] (the pre-existing model) a crash is a
//! pure message blackout and the replica's memory survives; under
//! [`RecoveryMode::Amnesia`] the server loses its volatile `ServerState`
//! and its unsynced WAL suffix, and must run the recovery protocol —
//! replay the durable checkpoint, then catch up from a quorum of peers —
//! before serving traffic again. The `demo_skip_recovery` knob produces the
//! intentionally-broken variant that serves straight from forgotten state,
//! which the online linearizability monitor must catch.
//!
//! [`RecoveryStats`] are accumulated across server threads through the
//! shared atomics of `RecoverySink` and reported per run in
//! `StoreReport::recovery`. The sink also counts WAL fsyncs and their
//! latency, which a serve process ships in its telemetry. `crashes` and
//! `recoveries` are deterministic for a seed (they follow the bus's
//! crash-event detection, which lives in link-index space); the
//! WAL-shaped counters depend on flush timing and are excluded from
//! regression gating (see `docs/OBS_SCHEMA.md`).

use std::sync::atomic::{AtomicU64, Ordering};

use blunt_obs::QuantileSketch;

// Defined in `blunt-net` because a serve process sends it in `Telemetry` frames.
use blunt_net::RecoveryStats;

/// What happens to a server's state when its crash window fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryMode {
    /// Crashes are message blackouts only; replica memory survives (the
    /// "stable storage" idealization the paper's algorithms assume).
    Stable,
    /// Crashes erase volatile state; servers keep a WAL and run the
    /// recovery protocol on restart.
    Amnesia {
        /// Group-commit batch size for the WAL: the most records a replica
        /// leaves unsynced inside a drain pass, i.e. the most a crash can
        /// take. A pass also commits at its end, so the interval never
        /// decides how long an ack waits.
        fsync_interval: u32,
        /// Broken mode: recovery skips both WAL replay and peer catch-up,
        /// serving from reset state — stale timestamps the monitor must
        /// flag.
        demo_skip_recovery: bool,
    },
}

impl RecoveryMode {
    /// The standard amnesia configuration: group commits of 4 records,
    /// sound recovery.
    #[must_use]
    pub fn amnesia() -> RecoveryMode {
        RecoveryMode::Amnesia {
            fsync_interval: 4,
            demo_skip_recovery: false,
        }
    }

    /// The intentionally-broken amnesia configuration for
    /// `--demo-amnesia`.
    #[must_use]
    pub fn demo_amnesia() -> RecoveryMode {
        RecoveryMode::Amnesia {
            fsync_interval: 4,
            demo_skip_recovery: true,
        }
    }

    /// Whether crashes erase volatile state in this mode.
    #[must_use]
    pub fn is_amnesia(&self) -> bool {
        matches!(self, RecoveryMode::Amnesia { .. })
    }
}

/// The shared accumulation point: server threads add to these atomics, the
/// workload driver snapshots them into a [`RecoveryStats`] at the end.
/// Public so external runners (the keyed store) can drive the same server
/// loop with their own sink.
#[derive(Debug, Default)]
pub struct RecoverySink {
    crashes: AtomicU64,
    recoveries: AtomicU64,
    wal_records_lost: AtomicU64,
    wal_records_replayed: AtomicU64,
    state_queries: AtomicU64,
    catchup_aborted: AtomicU64,
    /// Every WAL fsync's latency (µs); its count is the fsync count.
    fsyncs: QuantileSketch,
}

impl RecoverySink {
    /// A server crashed, losing `records_lost` unsynced WAL records.
    pub fn on_crash(&self, records_lost: u64) {
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.wal_records_lost
            .fetch_add(records_lost, Ordering::Relaxed);
        blunt_obs::static_counter!("runtime.recovery.crashes").inc();
    }

    /// A recovery restored at least one durable checkpoint by WAL replay.
    pub fn on_replay(&self) {
        self.wal_records_replayed.fetch_add(1, Ordering::Relaxed);
        blunt_obs::static_counter!("runtime.recovery.wal_replays").inc();
    }

    /// A recovering server sent `n` peer state-transfer queries.
    pub fn on_state_queries(&self, n: u64) {
        self.state_queries.fetch_add(n, Ordering::Relaxed);
        blunt_obs::static_counter!("runtime.recovery.state_queries").add(n);
    }

    /// A catch-up phase was truncated by shutdown.
    pub fn on_catchup_aborted(&self) {
        self.catchup_aborted.fetch_add(1, Ordering::Relaxed);
        blunt_obs::static_counter!("runtime.recovery.catchup_aborted").inc();
    }

    /// A recovery completed after `elapsed_us` microseconds.
    pub fn on_recovery(&self, elapsed_us: u64) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        blunt_obs::static_counter!("runtime.recovery.recoveries").inc();
        blunt_obs::histogram("runtime.recovery.latency_us").record(elapsed_us);
    }

    /// A WAL fsync that made records durable took `us` microseconds.
    pub fn on_fsync(&self, us: u64) {
        self.fsyncs.record(us);
    }

    /// WAL fsyncs so far and their p99 latency (µs).
    #[must_use]
    pub fn fsyncs(&self) -> (u64, u64) {
        (self.fsyncs.count(), self.fsyncs.quantile(0.99))
    }

    /// The accumulated counters as a value snapshot.
    #[must_use]
    pub fn snapshot(&self) -> RecoveryStats {
        RecoveryStats {
            crashes: self.crashes.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            wal_records_lost: self.wal_records_lost.load(Ordering::Relaxed),
            wal_records_replayed: self.wal_records_replayed.load(Ordering::Relaxed),
            state_queries: self.state_queries.load(Ordering::Relaxed),
            catchup_aborted: self.catchup_aborted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_constructors_and_predicates() {
        assert!(!RecoveryMode::Stable.is_amnesia());
        assert!(RecoveryMode::amnesia().is_amnesia());
        assert!(RecoveryMode::demo_amnesia().is_amnesia());
        match RecoveryMode::amnesia() {
            RecoveryMode::Amnesia {
                demo_skip_recovery, ..
            } => assert!(!demo_skip_recovery),
            RecoveryMode::Stable => unreachable!(),
        }
    }

    #[test]
    fn sink_accumulates_into_stats() {
        let sink = RecoverySink::default();
        sink.on_crash(3);
        sink.on_crash(0);
        sink.on_replay();
        sink.on_state_queries(2);
        sink.on_recovery(17);
        sink.on_recovery(21);
        sink.on_catchup_aborted();
        sink.on_fsync(5);
        sink.on_fsync(7);
        assert_eq!(sink.fsyncs(), (2, 7));
        let s = sink.snapshot();
        assert_eq!(
            s,
            RecoveryStats {
                crashes: 2,
                recoveries: 2,
                wal_records_lost: 3,
                wal_records_replayed: 1,
                state_queries: 2,
                catchup_aborted: 1,
            }
        );
    }

    #[test]
    fn stats_add_field_by_field() {
        let one = RecoveryStats {
            crashes: 1,
            recoveries: 2,
            wal_records_lost: 3,
            wal_records_replayed: 4,
            state_queries: 5,
            catchup_aborted: 6,
        };
        let mut total = one;
        total += one;
        total += RecoveryStats::default();
        assert_eq!(
            total,
            RecoveryStats {
                crashes: 2,
                recoveries: 4,
                wal_records_lost: 6,
                wal_records_replayed: 8,
                state_queries: 10,
                catchup_aborted: 12,
            }
        );
    }
}
