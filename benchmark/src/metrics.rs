//! Metric names, units and bounds, and the arithmetic that turns slices of
//! a run into the numbers reported under those names.
//!
//! The tables here are the single source of the names: `BENCHMARK.json`
//! must list exactly these, and a test holds the two together.

use blunt_obs::HistogramSnapshot;

use crate::rep::Slice;

/// Which way a metric gets better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the store sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const OPS_PER_S: &str = "ops_per_s";
pub const P50_US: &str = "op_latency_p50_us";
pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric computed from each timed slice of the runs, reported
/// as the median over slices.
pub struct RunMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub of: fn(&Slice) -> f64,
}

fn per_op(count: u64, s: &Slice) -> f64 {
    ratio(count, s.ops)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// CPU microseconds per op from clock ticks of 1/100 s.
fn cpu_us_per_op(ticks: u64, s: &Slice) -> f64 {
    per_op(ticks * 10_000, s)
}

pub const FAILED_OPS_SHARE: &str = "failed_ops_share";
pub const PEAK_RSS_MB: &str = "proc.peak_rss_mb";
pub const CPU_USER: &str = "proc.cpu_user_us_per_op";
pub const CPU_SYS: &str = "proc.cpu_sys_us_per_op";

/// Run-sourced per-layer metrics, in report order. `failed_ops_share` and
/// `proc.peak_rss_mb` are per run and per rep, not per slice, and are filled
/// in by the caller.
pub const RUN_METRICS: [RunMetric; 21] = [
    RunMetric {
        name: "store.run.op_latency_p99_us",
        unit: "us",
        better: Better::Lower,
        of: |s| percentile(&s.latency_us, 0.99),
    },
    RunMetric {
        name: "store.run.op_latency_mean_us",
        unit: "us",
        better: Better::Lower,
        of: |s| s.latency_us.mean(),
    },
    RunMetric {
        name: "store.run.retransmits_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.retransmissions, s),
    },
    RunMetric {
        name: "store.run.degraded_ops_share",
        unit: "share",
        better: Better::Lower,
        of: |s| per_op(s.degraded_ops, s),
    },
    RunMetric {
        name: "store.batch.envelopes_per_flush",
        unit: "count",
        better: Better::Higher,
        of: |s| ratio(s.batch_envelopes, s.batch_flushes),
    },
    RunMetric {
        name: "store.batch.flushes_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.batch_flushes, s),
    },
    RunMetric {
        name: "net.injector.offered_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.offered, s),
    },
    RunMetric {
        name: "net.injector.faulted_share",
        unit: "share",
        better: Better::Lower,
        of: |s| ratio(s.faulted, s.offered),
    },
    RunMetric {
        name: "net.conn.frames_sent_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.frames_sent, s),
    },
    RunMetric {
        name: "net.conn.bytes_sent_per_op",
        unit: "bytes",
        better: Better::Lower,
        of: |s| per_op(s.bytes_sent, s),
    },
    RunMetric {
        name: "net.rpc.dedup_drops_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.dedup_drops, s),
    },
    RunMetric {
        name: "net.rpc.tag_mismatch_drops_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.tag_mismatch_drops, s),
    },
    RunMetric {
        name: "runtime.storage.wal_appends_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.wal_appends, s),
    },
    RunMetric {
        name: "runtime.storage.fsyncs_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.fsyncs, s),
    },
    RunMetric {
        name: "runtime.storage.records_per_fsync",
        unit: "count",
        better: Better::Higher,
        of: |s| ratio(s.wal_appends, s.fsyncs),
    },
    RunMetric {
        name: "runtime.recovery.crashes",
        unit: "count",
        better: Better::Lower,
        of: |s| s.crashes as f64,
    },
    RunMetric {
        name: "runtime.recovery.recoveries",
        unit: "count",
        better: Better::Lower,
        of: |s| s.recoveries as f64,
    },
    RunMetric {
        name: "runtime.recovery.wal_records_lost",
        unit: "count",
        better: Better::Lower,
        of: |s| s.wal_records_lost as f64,
    },
    RunMetric {
        name: "runtime.monitor.actions_per_op",
        unit: "count",
        better: Better::Lower,
        of: |s| per_op(s.monitor_actions, s),
    },
    RunMetric {
        name: CPU_USER,
        unit: "us",
        better: Better::Lower,
        of: |s| cpu_us_per_op(s.cpu_user_ticks, s),
    },
    RunMetric {
        name: CPU_SYS,
        unit: "us",
        better: Better::Lower,
        of: |s| cpu_us_per_op(s.cpu_sys_ticks, s),
    },
];

/// A layer call the replay wraps in spans. Two metrics come of each reported
/// layer: `<name>_ns`, self time per unit, and `<name>_calls_per_op`, units
/// per op. A unit is one call, except for `net.frame.*`, where it is one
/// envelope of the frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    RingShardFor,
    BatchSendFlush,
    ClientStep,
    ServerStep,
    InjectorDecide,
    FrameEncode,
    FrameDecode,
    ConnWriteRead,
    RpcAdmitRoute,
    BusSendRecv,
    ServerQueryRtt,
    ServerUpdateRtt,
    StorageAppend,
    StorageFsync,
    MonitorObserve,
    FlightRecord,
    /// The replay's own per-op root. Its self time is the benchmark's glue
    /// between layer calls and is reported under no layer.
    Op,
}

impl Layer {
    /// The layers that are reported, in report order.
    pub const REPORTED: [Layer; 16] = [
        Layer::RingShardFor,
        Layer::BatchSendFlush,
        Layer::ClientStep,
        Layer::ServerStep,
        Layer::InjectorDecide,
        Layer::FrameEncode,
        Layer::FrameDecode,
        Layer::ConnWriteRead,
        Layer::RpcAdmitRoute,
        Layer::BusSendRecv,
        Layer::ServerQueryRtt,
        Layer::ServerUpdateRtt,
        Layer::StorageAppend,
        Layer::StorageFsync,
        Layer::MonitorObserve,
        Layer::FlightRecord,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::RingShardFor => "store.ring.shard_for",
            Layer::BatchSendFlush => "store.batch.send_flush",
            Layer::ClientStep => "abd.client.step",
            Layer::ServerStep => "abd.server.step",
            Layer::InjectorDecide => "net.injector.decide",
            Layer::FrameEncode => "net.frame.encode",
            Layer::FrameDecode => "net.frame.decode",
            Layer::ConnWriteRead => "net.conn.write_read",
            Layer::RpcAdmitRoute => "net.rpc.admit_route",
            Layer::BusSendRecv => "runtime.bus.send_recv",
            Layer::ServerQueryRtt => "runtime.server.query_rtt",
            Layer::ServerUpdateRtt => "runtime.server.update_rtt",
            Layer::StorageAppend => "runtime.storage.append",
            Layer::StorageFsync => "runtime.storage.fsync",
            Layer::MonitorObserve => "runtime.monitor.observe",
            Layer::FlightRecord => "obs.flight.record",
            Layer::Op => "bench.replay.op",
        }
    }

    /// Whether the layer's self time is part of `bench.replay.op_total_ns`.
    /// The `runtime.server.*` probes are not: they are wall-clock round trips
    /// through a real server thread, hand-off included, not a layer's own
    /// code. Neither is the replay's glue.
    pub fn in_op_total(self) -> bool {
        !matches!(
            self,
            Layer::ServerQueryRtt | Layer::ServerUpdateRtt | Layer::Op
        )
    }
}

pub const REPLAY_OP_TOTAL: &str = "bench.replay.op_total_ns";
pub const REPLAY_CPU_COVERAGE: &str = "bench.replay.cpu_coverage_share";
pub const REPLAY_TRACE_OVERHEAD: &str = "bench.replay.trace_overhead_share";

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    let mut defs = vec![(FAILED_OPS_SHARE.to_string(), "share", Better::Lower)];
    for m in &RUN_METRICS {
        defs.push((m.name.to_string(), m.unit, m.better));
    }
    defs.push((PEAK_RSS_MB.to_string(), "MB", Better::Lower));
    for l in Layer::REPORTED {
        defs.push((format!("{}_ns", l.name()), "ns", Better::Lower));
        defs.push((format!("{}_calls_per_op", l.name()), "count", Better::Lower));
    }
    defs.push((REPLAY_OP_TOTAL.to_string(), "ns", Better::Lower));
    defs.push((REPLAY_CPU_COVERAGE.to_string(), "share", Better::Higher));
    defs.push((REPLAY_TRACE_OVERHEAD.to_string(), "share", Better::Lower));
    defs
}

/// The `q`-quantile of a log₂-bucket histogram, interpolated linearly by
/// rank inside the bucket `[lo, 2·lo)` that holds the sample of rank
/// `⌈q · count⌉`. The bucket floor alone flips by 2× when the rank crosses a
/// boundary, which is useless for a 10 % bound. 0 for an empty histogram.
pub fn percentile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((q.clamp(0.0, 1.0) * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut seen = 0u64;
    for &(lo, c) in &h.buckets {
        if seen + c >= rank {
            // The zero bucket holds only the sample 0; bucket `lo ≥ 1`
            // spans `lo` values.
            let width = lo as f64;
            return lo as f64 + width * (rank - seen) as f64 / c as f64;
        }
        seen += c;
    }
    h.max as f64
}

/// Median, minimum and maximum of the samples of one metric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Summary {
    /// A metric measured once.
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            min: v,
            max: v,
            samples: 1,
        }
    }

    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(mut values: Vec<f64>) -> Summary {
        assert!(!values.is_empty(), "a summary needs a sample");
        values.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
        let n = values.len();
        let median = if n % 2 == 1 {
            values[n / 2]
        } else {
            (values[n / 2 - 1] + values[n / 2]) / 2.0
        };
        Summary {
            median,
            min: values[0],
            max: values[n - 1],
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(buckets: &[(u64, u64)]) -> HistogramSnapshot {
        HistogramSnapshot {
            count: buckets.iter().map(|b| b.1).sum(),
            sum: 0,
            min: 0,
            max: 0,
            buckets: buckets.to_vec(),
        }
    }

    #[test]
    fn percentile_interpolates_by_rank_inside_one_bucket() {
        // 100 samples in [128, 256): rank 50 sits halfway up the bucket.
        let h = hist(&[(128, 100)]);
        assert_eq!(percentile(&h, 0.50), 128.0 + 128.0 * 0.5);
        assert_eq!(percentile(&h, 0.99), 128.0 + 128.0 * 0.99);
        assert_eq!(percentile(&h, 1.0), 256.0);
    }

    #[test]
    fn percentile_moves_smoothly_across_a_bucket_boundary() {
        // Rank 50 is the last sample of the lower bucket, rank 51 the first
        // of the upper: the floor would jump 64 → 128, the interpolation
        // moves from 128.0 to 130.56.
        let h = hist(&[(64, 50), (128, 50)]);
        assert_eq!(percentile(&h, 0.50), 128.0);
        assert_eq!(percentile(&h, 0.51), 128.0 + 128.0 / 50.0);
    }

    #[test]
    fn percentile_of_the_zero_bucket_and_of_nothing_is_zero() {
        assert_eq!(percentile(&hist(&[(0, 10)]), 0.5), 0.0);
        assert_eq!(percentile(&hist(&[]), 0.5), 0.0);
        // Past the zero bucket the first real bucket is [1, 2).
        assert_eq!(percentile(&hist(&[(0, 1), (1, 1)]), 1.0), 2.0);
    }

    #[test]
    fn summary_takes_the_median_of_odd_and_even_samples() {
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.samples), (2.0, 1.0, 3.0, 3));
        assert_eq!(Summary::of(vec![4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }
}
