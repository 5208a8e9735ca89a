//! Causal trace analysis and adversary explainability for the blunting
//! reproduction.
//!
//! The simulator (`blunt-sim`) records executions as flat [`Trace`]s of
//! atomic steps; the adversary crate solves expectimax games over them. This
//! crate turns those raw artifacts into *explanations*:
//!
//! - [`hb`] annotates a trace with vector clocks and derives the
//!   happens-before partial order — message causality for ABD deliveries,
//!   program order per process, and conflict order for shared-memory base
//!   accesses — then reports which step pairs are concurrent, i.e. which
//!   reorderings the adversary could legally have chosen instead;
//! - [`diagram`] renders a trace as an ASCII space-time diagram (processes as
//!   vertical lanes, operations as intervals, deliveries as arrows between
//!   lanes), reproducing the paper's Figure 1 from a recorded run;
//! - [`flight`] renders the threaded runtime's flight-recorder dumps (the
//!   bounded event window captured at a violation or stall) in the same
//!   space-time language;
//! - [`pv`] pretty-prints the adversary decision artifacts produced by
//!   `blunt_sim::explore::Solver`: the principal variation (the worst-case
//!   schedule with its win probability after each move) and the recorded
//!   expectimax game tree;
//! - [`regress`] defines the `BENCH_results.json` format
//!   written by the `experiments` binary and the baseline comparison used by
//!   the `bench-report` gate.
//!
//! [`Trace`]: blunt_sim::trace::Trace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram;
pub mod flight;
pub mod hb;
pub mod pv;
pub mod regress;

pub use diagram::{history_space_time, space_time, DiagramOptions};
pub use flight::{flight_space_time, latency_breakdown, LatencyBreakdown};
pub use hb::{analyze, HbAnalysis, HbReport, Race};
pub use pv::{render_pv, render_tree};
pub use regress::{compare, BenchResults, CompareOptions, CompareReport, DeltaRow, RowKind};
