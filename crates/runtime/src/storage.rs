//! The simulated durable-storage layer: a per-server, checkpointing
//! write-ahead log with explicit fsync points, shared by every register the
//! server hosts.
//!
//! Real crash-recovery hinges on one distinction the message-blackout crash
//! model erases: state that has reached stable storage survives a crash,
//! state that has not does not. [`MultiWal`] models exactly that boundary.
//! A server [`MultiWal::append`]s every update it absorbs; records from all
//! its registers accumulate in one volatile *pending* suffix until
//! [`MultiWal::fsync`] folds them into the durable per-object checkpoints.
//! On an amnesia crash the fault layer calls [`MultiWal::lose_unsynced`] —
//! the pending suffix vanishes, the checkpoints survive — and recovery calls
//! [`MultiWal::replay`] to reload each register's newest durable
//! `(value, timestamp)` pair.
//!
//! Because an ABD register's recoverable state is fully described by its
//! maximum-timestamp record, the log self-compacts: `fsync` keeps only the
//! newest durable record per object rather than the full history, so replay
//! is O(objects) and memory stays bounded over arbitrarily long runs. This
//! is the checkpoint form of a WAL, not a departure from one — a full log
//! replayed from the start would reach the same pairs.
//!
//! The soundness contract consumed by `workload.rs` is the **write-ahead
//! ack discipline**: a server may acknowledge an update on `obj` with
//! timestamp `t` only once [`MultiWal::durable_ts`]`(obj) ≥ t`. Then every
//! *acknowledged* update survives any crash by replay alone, which is what
//! makes recovery sound without coordination (see `docs/RUNTIME.md`).

use blunt_abd::ts::Ts;
use blunt_core::ids::ObjId;
use blunt_core::value::Val;
use std::collections::BTreeMap;

/// One logged update: the `(value, timestamp)` pair a server absorbed.
#[derive(Clone, PartialEq, Eq, Debug)]
struct WalRecord {
    val: Val,
    ts: Ts,
}

/// A per-server write-ahead log: **per-object checkpoints** and a single
/// volatile pending suffix. Appends from all shards interleave in one
/// suffix, so a single [`MultiWal::fsync`] group-commits across shards —
/// the amortization the keyed store's write path relies on.
#[derive(Debug)]
pub struct MultiWal {
    /// Newest durable record per object; survives crashes.
    checkpoints: BTreeMap<ObjId, WalRecord>,
    /// Appended but not yet fsynced, across all objects; lost by
    /// [`MultiWal::lose_unsynced`].
    pending: Vec<(ObjId, WalRecord)>,
    /// Group-commit batch size: the server flushes once this many records
    /// are pending (and, whatever is pending, at the end of every drain
    /// pass).
    fsync_interval: u32,
}
impl MultiWal {
    /// An empty log that group-commits every `fsync_interval` appends
    /// (clamped to ≥ 1), counting appends across all objects.
    #[must_use]
    pub fn new(fsync_interval: u32) -> MultiWal {
        MultiWal {
            checkpoints: BTreeMap::new(),
            pending: Vec::new(),
            fsync_interval: fsync_interval.max(1),
        }
    }

    /// The configured group-commit batch size (shared by all objects).
    #[must_use]
    pub fn fsync_interval(&self) -> u32 {
        self.fsync_interval
    }

    /// Appends one record for `obj` to the shared volatile suffix.
    pub fn append(&mut self, obj: ObjId, val: Val, ts: Ts) {
        self.pending.push((obj, WalRecord { val, ts }));
        blunt_obs::static_counter!("runtime.storage.wal_appends").inc();
    }

    /// Number of appended-but-unsynced records, across all objects.
    #[must_use]
    pub fn unsynced_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the shared suffix has reached the group-commit batch size.
    #[must_use]
    pub fn batch_full(&self) -> bool {
        self.pending.len() >= self.fsync_interval as usize
    }

    /// One fsync point covering every object with pending records: each
    /// object's checkpoint advances to its maximum-timestamp record.
    /// Returns the number of records made durable.
    pub fn fsync(&mut self) -> usize {
        let n = self.pending.len();
        if n == 0 {
            return 0;
        }
        for (obj, rec) in self.pending.drain(..) {
            match self.checkpoints.get(&obj) {
                Some(cp) if cp.ts >= rec.ts => {}
                _ => {
                    self.checkpoints.insert(obj, rec);
                }
            }
        }
        blunt_obs::static_counter!("runtime.storage.fsyncs").inc();
        n
    }

    /// The largest timestamp known durable **for `obj`** — the per-object
    /// write-ahead ack threshold. `Ts::ZERO` if `obj` never reached an
    /// fsync point.
    #[must_use]
    pub fn durable_ts(&self, obj: ObjId) -> Ts {
        self.checkpoints.get(&obj).map_or(Ts::ZERO, |cp| cp.ts)
    }

    /// The crash: the shared unsynced suffix is gone (all objects). Returns
    /// how many records were lost.
    pub fn lose_unsynced(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        blunt_obs::static_counter!("runtime.storage.records_lost").add(n as u64);
        n
    }

    /// Recovery replay: every object's newest durable `(obj, value,
    /// timestamp)`, in `ObjId` order.
    #[must_use]
    pub fn replay(&self) -> Vec<(ObjId, Val, Ts)> {
        self.checkpoints
            .iter()
            .map(|(o, cp)| (*o, cp.val.clone(), cp.ts))
            .collect()
    }

    /// Total storage loss — checkpoints and suffix both gone (the
    /// `--demo-amnesia` broken-recovery mode).
    pub fn wipe(&mut self) {
        self.checkpoints.clear();
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_core::ids::Pid;

    const R: ObjId = ObjId(0);

    fn ts(n: i64) -> Ts {
        Ts::new(n, Pid(0))
    }

    #[test]
    fn fresh_log_is_empty_and_at_ts_zero() {
        let wal = MultiWal::new(4);
        assert_eq!(wal.unsynced_len(), 0);
        assert_eq!(wal.durable_ts(R), Ts::ZERO);
        assert_eq!(wal.replay(), vec![]);
        assert!(!wal.batch_full());
    }

    #[test]
    fn appends_stay_volatile_until_fsync() {
        let mut wal = MultiWal::new(4);
        wal.append(R, Val::Int(1), ts(1));
        wal.append(R, Val::Int(2), ts(2));
        assert_eq!(wal.unsynced_len(), 2);
        assert_eq!(wal.durable_ts(R), Ts::ZERO, "nothing synced yet");
        assert_eq!(wal.fsync(), 2);
        assert_eq!(wal.unsynced_len(), 0);
        assert_eq!(wal.durable_ts(R), ts(2));
        assert_eq!(wal.replay(), vec![(R, Val::Int(2), ts(2))]);
    }

    #[test]
    fn crash_loses_exactly_the_unsynced_suffix() {
        let mut wal = MultiWal::new(8);
        wal.append(R, Val::Int(1), ts(1));
        wal.fsync();
        wal.append(R, Val::Int(2), ts(2));
        wal.append(R, Val::Int(3), ts(3));
        assert_eq!(wal.lose_unsynced(), 2);
        assert_eq!(wal.unsynced_len(), 0);
        // The synced prefix survives: replay recovers ts 1, not ts 3.
        assert_eq!(wal.replay(), vec![(R, Val::Int(1), ts(1))]);
        assert_eq!(wal.durable_ts(R), ts(1));
    }

    #[test]
    fn checkpoint_keeps_the_max_timestamp_record() {
        // Out-of-order and duplicate appends (retransmitted updates) must
        // not regress the checkpoint.
        let mut wal = MultiWal::new(8);
        wal.append(R, Val::Int(3), ts(3));
        wal.append(R, Val::Int(1), ts(1));
        wal.fsync();
        assert_eq!(wal.replay(), vec![(R, Val::Int(3), ts(3))]);
        wal.append(R, Val::Int(2), ts(2));
        wal.fsync();
        assert_eq!(wal.replay(), vec![(R, Val::Int(3), ts(3))], "no regression");
        wal.append(R, Val::Int(4), ts(4));
        wal.fsync();
        assert_eq!(wal.replay(), vec![(R, Val::Int(4), ts(4))]);
    }

    #[test]
    fn batch_full_tracks_the_interval_and_clamps_zero() {
        let mut wal = MultiWal::new(2);
        wal.append(R, Val::Int(1), ts(1));
        assert!(!wal.batch_full());
        wal.append(R, Val::Int(2), ts(2));
        assert!(wal.batch_full());

        let zero = MultiWal::new(0);
        assert_eq!(zero.fsync_interval(), 1, "interval clamps to ≥ 1");
    }

    #[test]
    fn empty_fsync_is_a_no_op() {
        let mut wal = MultiWal::new(4);
        assert_eq!(wal.fsync(), 0);
        wal.append(R, Val::Int(1), ts(1));
        wal.fsync();
        let before = wal.replay();
        assert_eq!(wal.fsync(), 0);
        assert_eq!(wal.replay(), before);
    }

    #[test]
    fn wipe_loses_everything() {
        let mut wal = MultiWal::new(4);
        wal.append(R, Val::Int(1), ts(1));
        wal.fsync();
        wal.append(R, Val::Int(2), ts(2));
        wal.wipe();
        assert_eq!(wal.replay(), vec![]);
        assert_eq!(wal.durable_ts(R), Ts::ZERO);
        assert_eq!(wal.unsynced_len(), 0);
    }

    #[test]
    fn multiwal_checkpoints_are_per_object_with_a_shared_suffix() {
        let mut wal = MultiWal::new(3);
        wal.append(ObjId(1), Val::Int(10), ts(1));
        wal.append(ObjId(2), Val::Int(20), ts(5));
        assert_eq!(wal.unsynced_len(), 2);
        assert!(!wal.batch_full());
        wal.append(ObjId(1), Val::Int(11), ts(2));
        assert!(wal.batch_full(), "batch size counts across objects");
        assert_eq!(wal.fsync(), 3);
        assert_eq!(wal.durable_ts(ObjId(1)), ts(2));
        assert_eq!(wal.durable_ts(ObjId(2)), ts(5));
        assert_eq!(wal.durable_ts(ObjId(9)), Ts::ZERO, "unseen object");
        let replay = wal.replay();
        assert_eq!(
            replay,
            vec![
                (ObjId(1), Val::Int(11), ts(2)),
                (ObjId(2), Val::Int(20), ts(5)),
            ]
        );
    }

    #[test]
    fn multiwal_crash_loses_all_objects_unsynced_suffix() {
        let mut wal = MultiWal::new(8);
        wal.append(ObjId(1), Val::Int(1), ts(1));
        wal.fsync();
        wal.append(ObjId(1), Val::Int(2), ts(2));
        wal.append(ObjId(2), Val::Int(3), ts(3));
        assert_eq!(wal.lose_unsynced(), 2);
        assert_eq!(wal.durable_ts(ObjId(1)), ts(1));
        assert_eq!(wal.durable_ts(ObjId(2)), Ts::ZERO);
        wal.wipe();
        assert!(wal.replay().is_empty());
    }

    #[test]
    fn multiwal_checkpoint_never_regresses_per_object() {
        let mut wal = MultiWal::new(1);
        wal.append(ObjId(4), Val::Int(9), ts(9));
        wal.fsync();
        // A retransmitted older update for the same object is absorbed by
        // the checkpoint compaction, not a regression.
        wal.append(ObjId(4), Val::Int(1), ts(1));
        wal.fsync();
        assert_eq!(wal.replay(), vec![(ObjId(4), Val::Int(9), ts(9))]);
    }

    #[test]
    fn multiwal_replay_is_prefix_consistent_at_every_fsync_boundary() {
        // Crash-mid-batch soundness for the keyed write path: record a
        // keyed run's append/fsync script, then crash it at EVERY fsync
        // boundary in turn and check the replay against first principles.
        // The write-ahead ack discipline acks an update on `obj` only once
        // an fsync covers it, and one group commit spans records from many
        // keys — so a crash must never tear a multi-key batch: every
        // record covered by a completed fsync survives replay (at its
        // per-object max timestamp), and nothing appended after the last
        // completed fsync leaks in.
        #[derive(Clone)]
        enum Step {
            Append(ObjId, i64),
            Fsync,
        }

        // A deterministic keyed workload: 64 appends over 5 keys with
        // interleaved timestamps, group-committed every 4 appends exactly
        // like the server loop's batch_full pressure.
        let mut script = Vec::new();
        let mut state = 0x5709_u64;
        let mut pending = 0u32;
        for i in 0..64i64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let obj = ObjId((state >> 33) as u32 % 5);
            script.push(Step::Append(obj, i + 1));
            pending += 1;
            if pending == 4 {
                script.push(Step::Fsync);
                pending = 0;
            }
        }
        let boundaries = script.iter().filter(|s| matches!(s, Step::Fsync)).count();
        assert!(boundaries >= 8, "the script must exercise many batches");

        for boundary in 0..=boundaries {
            // Re-run the recorded script, crashing right after the
            // `boundary`-th fsync: later appends land in the volatile
            // suffix and are lost; later fsyncs never happen.
            let mut wal = MultiWal::new(4);
            let mut fsyncs = 0;
            let mut durable_prefix: std::collections::BTreeMap<ObjId, Ts> =
                std::collections::BTreeMap::new();
            let mut in_flight: Vec<(ObjId, Ts)> = Vec::new();
            for step in &script {
                match step {
                    Step::Append(obj, t) => {
                        wal.append(*obj, Val::Int(*t), ts(*t));
                        if fsyncs < boundary {
                            in_flight.push((*obj, ts(*t)));
                        }
                    }
                    Step::Fsync => {
                        if fsyncs == boundary {
                            break;
                        }
                        wal.fsync();
                        fsyncs += 1;
                        // Everything appended so far is now durable — the
                        // server may ack these records from here on.
                        for (obj, t) in in_flight.drain(..) {
                            let e = durable_prefix.entry(obj).or_insert(Ts::ZERO);
                            if t > *e {
                                *e = t;
                            }
                        }
                    }
                }
            }
            let torn = wal.lose_unsynced();
            if boundary < boundaries {
                assert!(torn > 0, "a mid-batch crash loses the open batch");
            }

            // Replay must be exactly the per-object max over the durable
            // prefix: no acked record missing (torn batch), no lost
            // record resurrected.
            let replayed: std::collections::BTreeMap<ObjId, Ts> = wal
                .replay()
                .into_iter()
                .map(|(obj, _val, t)| (obj, t))
                .collect();
            assert_eq!(
                replayed, durable_prefix,
                "replay after crashing at fsync boundary {boundary} is not \
                 prefix-consistent"
            );
            for (obj, t) in &durable_prefix {
                assert!(
                    wal.durable_ts(*obj) >= *t,
                    "acked record on {obj:?} at {t:?} torn away by the crash"
                );
            }
        }
    }
}
