//! A mergeable streaming quantile sketch for latency telemetry.
//!
//! [`QuantileSketch`] is an HDR-style log-linear sketch: values are bucketed
//! by octave (power of two) with 8 linear sub-buckets per octave, so the
//! lower bound reported for any quantile is within 12.5% of the true sample
//! value (exact below 8). Recording is one relaxed atomic increment plus a
//! saturating sum update — cheap enough for the chaos runtime's per-op hot
//! path — and sketches merge commutatively, so per-thread shards can be
//! combined into one live view without locks.
//!
//! Unlike [`Histogram`](crate::Histogram) (65 power-of-two buckets, a
//! registry metric), the sketch is a free-standing value type: the `--watch`
//! telemetry thread reads quantiles from it *while* client threads record,
//! which a registry snapshot cycle would make needlessly expensive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Linear sub-buckets per octave, as a bit count (2³ = 8 sub-buckets).
const SUB_BITS: usize = 3;

/// Total bucket count: 8 exact buckets for values `0..8`, then 8 sub-buckets
/// for each of the 61 octaves `[2^3, 2^4) ..= [2^63, 2^64)`.
pub const SKETCH_BUCKETS: usize = 8 + 61 * 8;

/// The bucket index for sample `v`. Total over all `v`: every sample lands
/// in exactly one of the [`SKETCH_BUCKETS`] buckets.
#[must_use]
pub fn sketch_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // 3..=63
        let sub = ((v >> (octave - SUB_BITS)) & 7) as usize;
        8 + (octave - SUB_BITS) * 8 + sub
    }
}

/// The smallest sample value that lands in bucket `i`.
///
/// # Panics
///
/// Panics if `i >= SKETCH_BUCKETS`.
#[must_use]
pub fn sketch_lower_bound(i: usize) -> u64 {
    assert!(i < SKETCH_BUCKETS, "bucket index {i} out of range");
    if i < 8 {
        i as u64
    } else {
        let octave = SUB_BITS + (i - 8) / 8;
        let sub = ((i - 8) % 8) as u64;
        (1u64 << octave) + (sub << (octave - SUB_BITS))
    }
}

#[derive(Debug)]
struct SketchCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A thread-safe, mergeable log-linear quantile sketch (≤ 12.5% relative
/// error on reported bucket lower bounds; exact below 8).
///
/// Cloning shares the underlying buckets, like the registry metric handles.
#[derive(Clone, Debug)]
pub struct QuantileSketch(Arc<SketchCore>);

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// A fresh, empty sketch. All buckets are allocated up front; recording
    /// never allocates.
    #[must_use]
    pub fn new() -> QuantileSketch {
        QuantileSketch(Arc::new(SketchCore {
            buckets: (0..SKETCH_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one sample (relaxed atomics; the sum saturates at
    /// `u64::MAX` instead of wrapping).
    pub fn record(&self, v: u64) {
        let core = &self.0;
        core.buckets[sketch_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        saturating_add(&core.sum, v);
        core.min.fetch_min(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Folds `other`'s samples into `self`. Merging an empty sketch is a
    /// no-op, and merge is commutative: `a.merge(&b)` and `b.merge(&a)`
    /// yield equal snapshots.
    pub fn merge(&self, other: &QuantileSketch) {
        let (dst, src) = (&self.0, &other.0);
        for (d, s) in dst.buckets.iter().zip(src.buckets.iter()) {
            let c = s.load(Ordering::Relaxed);
            if c > 0 {
                d.fetch_add(c, Ordering::Relaxed);
            }
        }
        let count = src.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        dst.count.fetch_add(count, Ordering::Relaxed);
        saturating_add(&dst.sum, src.sum.load(Ordering::Relaxed));
        dst.min
            .fetch_min(src.min.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.max
            .fetch_max(src.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy of the sketch contents.
    #[must_use]
    pub fn snapshot(&self) -> SketchSnapshot {
        let core = &self.0;
        let count = core.count.load(Ordering::Relaxed);
        SketchSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                core.min.load(Ordering::Relaxed)
            },
            max: core.max.load(Ordering::Relaxed),
            buckets: core
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let c = b.load(Ordering::Relaxed);
                    (c > 0).then(|| (sketch_lower_bound(i), c))
                })
                .collect(),
        }
    }

    /// Convenience: the lower bound of the bucket holding the `q`-quantile
    /// sample (see [`SketchSnapshot::quantile`]).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

fn saturating_add(cell: &AtomicU64, v: u64) {
    if v > 0 {
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
            Some(s.saturating_add(v))
        });
    }
}

/// A point-in-time copy of a [`QuantileSketch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (saturating at `u64::MAX`).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl SketchSnapshot {
    /// The lower bound of the bucket containing the sample of rank
    /// `⌈q · count⌉` (clamped to `[1, count]`). Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(lower, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return lower;
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_exactly_one_bucket() {
        // Bucket boundaries tile: lower_bound(i) .. lower_bound(i+1).
        for i in 0..SKETCH_BUCKETS - 1 {
            let lo = sketch_lower_bound(i);
            let hi = sketch_lower_bound(i + 1);
            assert!(lo < hi, "bucket {i} empty: [{lo}, {hi})");
            assert_eq!(sketch_index(lo), i);
            assert_eq!(sketch_index(hi - 1), i, "top of bucket {i}");
        }
        assert_eq!(sketch_index(u64::MAX), SKETCH_BUCKETS - 1);
        assert_eq!(sketch_index(0), 0);
        assert_eq!(sketch_index(7), 7);
        assert_eq!(sketch_index(8), 8);
    }

    #[test]
    fn relative_error_is_within_one_eighth() {
        for v in [8u64, 9, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let lo = sketch_lower_bound(sketch_index(v));
            assert!(lo <= v);
            assert!(v - lo <= v / 8, "bucket too wide for {v}: lower {lo}");
        }
        for v in 0..8u64 {
            assert_eq!(sketch_lower_bound(sketch_index(v)), v, "exact below 8");
        }
    }

    #[test]
    fn quantiles_track_fixtures() {
        let s = QuantileSketch::new();
        for v in 1..=100u64 {
            s.record(v);
        }
        let snap = s.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 100);
        // p50 sample is 50; its bucket lower bound is within 12.5%.
        let p50 = snap.quantile(0.50);
        assert!(p50 <= 50 && 50 - p50 <= 50 / 8, "p50 = {p50}");
        let p99 = snap.quantile(0.99);
        assert!(p99 <= 99 && 99 - p99 <= 99 / 8, "p99 = {p99}");
        assert_eq!(snap.quantile(0.0), 1, "rank clamps to the first sample");
        assert_eq!(snap.quantile(1.0), sketch_lower_bound(sketch_index(100)));
    }

    #[test]
    fn merge_with_empty_is_a_no_op() {
        let a = QuantileSketch::new();
        for v in [3u64, 900, 12] {
            a.record(v);
        }
        let before = a.snapshot();
        a.merge(&QuantileSketch::new());
        assert_eq!(a.snapshot(), before);

        // And merging *into* an empty sketch copies everything.
        let b = QuantileSketch::new();
        b.merge(&a);
        assert_eq!(b.snapshot(), before);
    }

    #[test]
    fn merge_is_commutative_on_fixtures() {
        let build = |vals: &[u64]| {
            let s = QuantileSketch::new();
            for &v in vals {
                s.record(v);
            }
            s
        };
        let ab = build(&[1, 5, 1 << 20, u64::MAX]);
        ab.merge(&build(&[0, 7, 4096, 4097]));
        let ba = build(&[0, 7, 4096, 4097]);
        ba.merge(&build(&[1, 5, 1 << 20, u64::MAX]));
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.snapshot().count, 8);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let s = QuantileSketch::new();
        s.record(u64::MAX);
        s.record(u64::MAX);
        assert_eq!(s.snapshot().sum, u64::MAX);
        let t = QuantileSketch::new();
        t.record(u64::MAX);
        t.merge(&s);
        assert_eq!(t.snapshot().sum, u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let s = QuantileSketch::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        s.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(s.count(), 4000);
        assert_eq!(
            s.snapshot().buckets.iter().map(|(_, c)| c).sum::<u64>(),
            4000
        );
    }
}
