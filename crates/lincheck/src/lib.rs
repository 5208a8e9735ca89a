//! Linearizability, strong linearizability, and tail strong linearizability
//! checkers (Sections 2.2 and 3 of the paper).
//!
//! Three related questions, in increasing strength:
//!
//! 1. **Linearizability** of a single history — answered by a Wing–Gong
//!    style search with memoization ([`wgl`]);
//! 2. **Strong linearizability** of a *set* of executions, organized as a
//!    prefix tree — is there a prefix-preserving map `f` from executions to
//!    linearizations? Answered by an AND–OR search over the tree
//!    ([`strong`]): choosing `f(e)`'s extension at a node is existential,
//!    while satisfying all of the node's futures is universal;
//! 3. **Tail strong linearizability** w.r.t. a preamble mapping `Π` — the
//!    same question restricted to the `Π`-complete executions (those where
//!    every invocation has passed its preamble). Implemented by the same
//!    search, skipping incomplete nodes ([`strong`] with completeness flags
//!    from [`tree`]).
//!
//! The checkers work on deterministic [`SequentialSpec`]s, which makes the
//! "destined" return value of a linearized-while-pending invocation unique —
//! a significant simplification over the general case.
//!
//! [`SequentialSpec`]: blunt_core::spec::SequentialSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strong;
pub mod tree;
pub mod wgl;
pub mod wsl;

pub use strong::check_strong;
pub use tree::{ExecTree, NodeId};
pub use wgl::{check_linearizable, LinResult};
pub use wsl::check_wsl;
