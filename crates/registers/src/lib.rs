//! Shared-memory register and snapshot constructions (Sections 5.2–5.4 of
//! the paper), with their preamble-iterated transformations.
//!
//! Three classic linearizable-but-not-strongly-linearizable constructions
//! over *atomic base registers*:
//!
//! - [`snapshot`] — the Afek–Attiya–Dolev–Gafni–Merritt–Shavit atomic
//!   snapshot from single-writer registers (Section 5.2): scans repeat
//!   collects until a clean double collect, or borrow the embedded view of
//!   an updater seen moving twice;
//! - [`vitanyi_awerbuch`] — the multi-writer multi-reader register from
//!   single-writer registers (Section 5.3): readers take the
//!   maximum-timestamp value, writers bump the maximum timestamp;
//! - [`israeli_li`] — the single-writer multi-reader register from
//!   single-reader registers (Section 5.4): readers gossip through a
//!   `Report` matrix.
//!
//! Each construction is written as a step machine implementing
//! [`twophase::ShmOp`], which splits the operation into an **effect-free
//! preamble** (its steps receive `&Shm` — read-only access is enforced by
//! the type system) and a **tail** (`&mut Shm`). The generic wrapper
//! [`twophase::IteratedOp`] applies the paper's Algorithm 2 to *any* such
//! machine: run the preamble `k` times, pick one result uniformly at
//! random, run the tail — "the transformation is mechanical, once the
//! preamble is identified" (Section 7).
//!
//! [`system::ShmLayer`] is the shared-memory object layer of the one program
//! host [`blunt_programs::host::Composed`]; [`system::ShmSystem`], the host
//! over this layer, composes a randomized program with a set of these
//! objects (or their atomic baselines, which the host executes) into a
//! [`blunt_sim::System`] for scheduling, adversary search, and exhaustive
//! exploration. The host emits each operation's lifecycle trace events from
//! the [`twophase::IterEffect`]s this layer reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod israeli_li;
pub mod scenarios;
pub mod shm;
pub mod snapshot;
pub mod system;
pub mod twophase;
pub mod vitanyi_awerbuch;

pub use shm::{CellId, Shm, ShmLayout};
pub use system::{ShmEvent, ShmLayer, ShmObjectConfig, ShmSystem, ShmSystemDef};
pub use twophase::{IteratedOp, PreambleStatus, ShmOp};
