//! `blunt-obs` — observability substrate for the blunting workspace.
//!
//! Three layers, all dependency-free:
//!
//! 1. **Metrics** ([`Counter`], [`Gauge`], [`Histogram`], [`Timer`]) in a
//!    thread-safe global [`Registry`]. Handles are atomics behind `Arc`;
//!    instrumented code caches them in `OnceLock` statics (see
//!    [`static_counter!`]) so a hot-path increment is a single relaxed
//!    atomic op — cheap enough to leave on in release builds.
//! 2. **Structured records** ([`Json`], [`Recorder`], [`JsonlSink`]):
//!    trace events, scheduler decisions, and per-run summaries serialize
//!    to JSON-Lines files per the schema in `docs/OBS_SCHEMA.md`.
//! 3. **Timing scopes** ([`timed`]): span-style wall-clock measurement
//!    around closures, aggregated per scope name.
//! 4. **Flight recording** ([`FlightRecorder`], [`flight`]): always-on,
//!    bounded per-thread event rings drained into JSONL
//!    dumps on failure, plus a mergeable [`QuantileSketch`] for streaming
//!    latency percentiles.
//!
//! A [`Snapshot`] of the registry renders as a human table
//! ([`Snapshot::to_table`]) or JSON ([`Snapshot::to_json`]).
//!
//! # Example
//!
//! ```
//! let sum = blunt_obs::timed("example.add", || 2 + 2);
//! assert_eq!(sum, 4);
//! blunt_obs::counter("example.calls").inc();
//! let snap = blunt_obs::snapshot();
//! assert!(snap.counter("example.calls").unwrap() >= 1);
//! println!("{}", snap.to_table());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sketch;

pub use flight::{FlightDump, FlightEvent, FlightKind, FlightRecorder, FlightRing};
pub use json::{Json, JsonError, SCHEMA_VERSION};
pub use metrics::{
    bucket_index, bucket_lower_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot, Timer, TimerSnapshot, HISTOGRAM_BUCKETS,
};
pub use recorder::{parse_jsonl, JsonlSink, Recorder, VecSink};
pub use sketch::{QuantileSketch, SketchSnapshot, SKETCH_BUCKETS};

use std::sync::OnceLock;
use std::time::Instant;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide metric registry.
#[must_use]
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The global counter named `name`, created on first use.
///
/// Prefer [`static_counter!`] on hot paths — it caches the handle so the
/// name lookup happens once per call site.
#[must_use]
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// The global gauge named `name`, created on first use.
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// The global histogram named `name`, created on first use.
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// The global timer named `name`, created on first use.
#[must_use]
pub fn timer(name: &str) -> Timer {
    global().timer(name)
}

/// A point-in-time copy of every global metric.
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Zeroes every global metric in place (cached handles stay valid).
pub fn reset() {
    global().reset();
}

/// Runs `f`, recording its wall-clock time under the global timer `name`.
///
/// ```
/// let v = blunt_obs::timed("doc.work", || 40 + 2);
/// assert_eq!(v, 42);
/// assert!(blunt_obs::timer("doc.work").count() >= 1);
/// ```
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t = timer(name);
    let start = Instant::now();
    let out = f();
    t.record(start.elapsed());
    out
}

/// A cached handle to a global [`Counter`]: expands to
/// `&'static Counter`, looking the name up once per call site.
///
/// ```
/// blunt_obs::static_counter!("doc.macro.hits").inc();
/// assert!(blunt_obs::counter("doc.macro.hits").get() >= 1);
/// ```
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static __OBS_C: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        __OBS_C.get_or_init(|| $crate::counter($name))
    }};
}

/// A cached handle to a global [`Gauge`] (see [`static_counter!`]).
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static __OBS_G: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        __OBS_G.get_or_init(|| $crate::gauge($name))
    }};
}

/// A cached handle to a global [`Histogram`] (see [`static_counter!`]).
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static __OBS_H: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        __OBS_H.get_or_init(|| $crate::histogram($name))
    }};
}

/// A cached handle to a global [`Timer`] (see [`static_counter!`]).
#[macro_export]
macro_rules! static_timer {
    ($name:expr) => {{
        static __OBS_T: ::std::sync::OnceLock<$crate::Timer> = ::std::sync::OnceLock::new();
        __OBS_T.get_or_init(|| $crate::timer($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_round_trip() {
        // Use names unique to this test: the global registry is shared
        // with every other test in the binary.
        super::counter("lib.test.count").add(2);
        super::gauge("lib.test.depth").record_max(9);
        let out = super::timed("lib.test.span", || 21 * 2);
        assert_eq!(out, 42);
        let snap = super::snapshot();
        assert_eq!(snap.counter("lib.test.count"), Some(2));
        assert_eq!(snap.gauge("lib.test.depth"), Some(9));
        assert!(snap
            .timers
            .iter()
            .any(|(k, t)| k == "lib.test.span" && t.count == 1));
    }

    #[test]
    fn static_macros_cache_handles() {
        for _ in 0..3 {
            crate::static_counter!("lib.test.static").inc();
        }
        crate::static_gauge!("lib.test.static.g").set(4);
        crate::static_histogram!("lib.test.static.h").record(16);
        crate::static_timer!("lib.test.static.t").record(std::time::Duration::from_nanos(5));
        assert_eq!(super::counter("lib.test.static").get(), 3);
        assert_eq!(super::gauge("lib.test.static.g").get(), 4);
        assert_eq!(super::histogram("lib.test.static.h").count(), 1);
        assert_eq!(super::timer("lib.test.static.t").count(), 1);
    }
}
