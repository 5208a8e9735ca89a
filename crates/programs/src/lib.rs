//! Randomized concurrent programs (Section 2.3 of the paper).
//!
//! A program `P(O)` is a set of processes that invoke methods on shared
//! objects `O`, perform local computation, and execute `random(V)` steps.
//! This crate represents programs as **data**: a tiny flat instruction set
//! ([`instr::Instr`]) over an expression language ([`expr::Expr`]),
//! interpreted by a per-process state machine ([`state::ProgState`]).
//!
//! Representing programs as data rather than as Rust control flow has two
//! payoffs:
//!
//! 1. the composed systems stay `Clone + Eq + Hash`, which the exact
//!    adversary explorer requires;
//! 2. the *same* program text runs unchanged against atomic objects,
//!    linearizable objects, and preamble-iterated objects — the paper's
//!    substitution setup (`P(O₁)` vs `P(O₂)` for equivalent objects).
//!
//! [`host::Composed`] is the one composed system: it runs a program over an
//! [`host::ObjectLayer`] — the message-passing ABD layer of `blunt-abd` or
//! the shared-memory layer of `blunt-registers` — and emits every
//! operation's lifecycle trace events.
//!
//! The concrete programs of the paper live here too:
//!
//! - [`weakener`] — Algorithm 1, the three-process distillation of the
//!   Hadzilacos–Hu–Toueg weakener;
//! - [`ghw`] — the same adversarial structure expressed against a snapshot
//!   object (the Golab–Higham–Woelfel style example of Section 6);
//! - [`round_based`] — the round-based program family of the Section 7
//!   discussion (`k > T·s`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod def;
pub mod expr;
pub mod ghw;
pub mod host;
pub mod instr;
pub mod round_based;
pub mod state;
pub mod weakener;

pub use def::ProgramDef;
pub use expr::Expr;
pub use instr::Instr;
pub use state::{ProcMode, ProgCmd, ProgState};
