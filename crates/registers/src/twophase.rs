//! The generic preamble/tail protocol shape and the preamble-iterating
//! wrapper — Algorithm 2 of the paper, as a combinator.
//!
//! A shared-memory operation implements [`ShmOp`]: a step machine whose
//! **preamble** steps receive `&Shm` (they cannot write — effect-freedom is
//! enforced by the borrow, not by convention) and whose **tail** steps
//! receive `&mut Shm`. [`IteratedOp`] lifts any such machine to its `O^k`
//! version: run the preamble `k` times, request one uniform random choice
//! among the `k` collected results, and run the tail on the chosen one.
//! For `k = 1` no random choice is requested, so `O¹ = O` exactly.

use crate::shm::{Shm, ShmLayout};
use std::fmt::Debug;
use std::hash::Hash;

use blunt_core::value::Val;

/// What stepping an [`IteratedOp`] reports: the program host's lifecycle
/// effect, shared by every construction.
pub use blunt_programs::host::IterEffect;

/// Result of one preamble step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PreambleStatus<L> {
    /// The preamble continues; schedule another step.
    Step,
    /// The preamble just passed its final control point `Π(M)`, producing
    /// the method's locals.
    Done(L),
}

/// A two-phase shared-memory operation.
///
/// The trait's shape *is* the paper's effect-freedom condition: a preamble
/// step can only read the shared memory, a tail step may write it.
pub trait ShmOp: Clone + Eq + Hash + Debug {
    /// The operation's locals, produced by the preamble and consumed by the
    /// tail (the `locals` array of Algorithm 2).
    type Locals: Clone + Eq + Hash + Debug;

    /// Returns `true` if this operation's preamble is empty (`Π(M) = ℓ₀`),
    /// in which case the transformation leaves it unchanged and no preamble
    /// steps are scheduled.
    fn preamble_is_empty(&self) -> bool {
        false
    }

    /// The locals used when the preamble is empty.
    ///
    /// # Panics
    ///
    /// The default implementation panics; operations with empty preambles
    /// must override it.
    fn empty_locals(&self) -> Self::Locals {
        panic!("operation with a non-empty preamble asked for empty locals")
    }

    /// Executes one base-register access of the preamble (read-only).
    fn preamble_step(&mut self, shm: &Shm, layout: &ShmLayout) -> PreambleStatus<Self::Locals>;

    /// Resets preamble-local scratch state so the preamble can run again
    /// (the next iteration of Algorithm 2's `for` loop).
    fn reset_preamble(&mut self);

    /// Installs the chosen locals and switches the machine to its tail.
    fn start_tail(&mut self, locals: Self::Locals);

    /// Executes one base-register access of the tail; returns the
    /// operation's return value when complete.
    fn tail_step(&mut self, shm: &mut Shm, layout: &ShmLayout) -> Option<Val>;
}

/// Where an [`IteratedOp`] currently is.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum IterStage {
    /// Running preamble iteration `iter` (1-based).
    Preamble {
        /// Current iteration number.
        iter: u32,
    },
    /// All `k` iterations done; awaiting the object random choice.
    AwaitChoice,
    /// Running the tail.
    Tail,
}

/// Algorithm 2: the preamble-iterated version `M^k` of a two-phase
/// operation `M`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IteratedOp<O: ShmOp> {
    inner: O,
    k: u32,
    stage: IterStage,
    results: Vec<O::Locals>,
}

impl<O: ShmOp> IteratedOp<O> {
    /// Wraps `inner` with `k` preamble iterations.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(inner: O, k: u32) -> IteratedOp<O> {
        assert!(k >= 1, "the transformation requires k ≥ 1");
        let mut op = IteratedOp {
            inner,
            k,
            stage: IterStage::Preamble { iter: 1 },
            results: Vec::new(),
        };
        if op.inner.preamble_is_empty() {
            // Π(M) = ℓ₀: the transformation leaves the method unchanged.
            let locals = op.inner.empty_locals();
            op.inner.start_tail(locals);
            op.stage = IterStage::Tail;
        }
        op
    }

    /// The current stage.
    #[must_use]
    pub fn stage(&self) -> &IterStage {
        &self.stage
    }

    /// Returns `true` if the operation still runs its preamble (its
    /// linearization is not yet fixed).
    #[must_use]
    pub fn in_preamble(&self) -> bool {
        matches!(
            self.stage,
            IterStage::Preamble { .. } | IterStage::AwaitChoice
        )
    }

    /// Executes one base step.
    ///
    /// # Panics
    ///
    /// Panics if called while awaiting the random choice.
    pub fn step(&mut self, shm: &mut Shm, layout: &ShmLayout) -> IterEffect {
        match self.stage.clone() {
            IterStage::Preamble { iter } => match self.inner.preamble_step(shm, layout) {
                PreambleStatus::Step => IterEffect::Continue,
                PreambleStatus::Done(locals) => {
                    self.results.push(locals);
                    if iter < self.k {
                        self.inner.reset_preamble();
                        self.stage = IterStage::Preamble { iter: iter + 1 };
                        IterEffect::PreamblePassed { iteration: iter }
                    } else if self.k > 1 {
                        self.stage = IterStage::AwaitChoice;
                        IterEffect::NeedChoice {
                            choices: self.k,
                            iteration: iter,
                        }
                    } else {
                        let locals = self.results[0].clone();
                        self.inner.start_tail(locals);
                        self.stage = IterStage::Tail;
                        IterEffect::PreamblePassed { iteration: iter }
                    }
                }
            },
            IterStage::AwaitChoice => {
                panic!("stepping an operation that awaits its random choice")
            }
            IterStage::Tail => match self.inner.tail_step(shm, layout) {
                Some(ret) => IterEffect::Complete(ret),
                None => IterEffect::Continue,
            },
        }
    }

    /// Resolves the object random step with iteration `choice` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if not awaiting a choice or `choice ≥ k`.
    pub fn choose(&mut self, choice: usize) {
        assert_eq!(
            self.stage,
            IterStage::AwaitChoice,
            "choose() outside AwaitChoice"
        );
        assert!(choice < self.results.len(), "choice out of range");
        let locals = self.results[choice].clone();
        self.inner.start_tail(locals);
        self.stage = IterStage::Tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::{CellId, CellSpec, ShmLayout};
    use blunt_core::ids::Pid;

    /// A miniature two-phase op for testing the wrapper: the preamble reads
    /// cell 0 (one step), the tail writes what it read into cell 1 (one
    /// step) and returns it.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct CopyOp {
        read: Option<Val>,
        chosen: Option<Val>,
        empty: bool,
    }

    impl CopyOp {
        fn new() -> CopyOp {
            CopyOp {
                read: None,
                chosen: None,
                empty: false,
            }
        }
    }

    impl ShmOp for CopyOp {
        type Locals = Val;

        fn preamble_is_empty(&self) -> bool {
            self.empty
        }

        fn empty_locals(&self) -> Val {
            Val::Int(-1)
        }

        fn preamble_step(&mut self, shm: &Shm, layout: &ShmLayout) -> PreambleStatus<Val> {
            let v = shm.read(layout, CellId(0), Pid(0));
            self.read = Some(v.clone());
            PreambleStatus::Done(v)
        }

        fn reset_preamble(&mut self) {
            self.read = None;
        }

        fn start_tail(&mut self, locals: Val) {
            self.chosen = Some(locals);
        }

        fn tail_step(&mut self, shm: &mut Shm, layout: &ShmLayout) -> Option<Val> {
            let v = self.chosen.clone().unwrap();
            shm.write(layout, CellId(1), Pid(0), v.clone());
            Some(v)
        }
    }

    fn setup() -> (ShmLayout, Shm) {
        let mut l = ShmLayout::new();
        l.push(CellSpec::single_writer(
            Pid(1),
            2,
            Val::Int(7),
            "src".into(),
        ));
        l.push(CellSpec::single_writer(Pid(0), 2, Val::Nil, "dst".into()));
        let m = l.initial_memory();
        (l, m)
    }

    #[test]
    fn k1_runs_preamble_once_and_never_asks_for_randomness() {
        let (l, mut m) = setup();
        let mut op = IteratedOp::new(CopyOp::new(), 1);
        assert!(op.in_preamble());
        assert_eq!(
            op.step(&mut m, &l),
            IterEffect::PreamblePassed { iteration: 1 }
        );
        assert!(!op.in_preamble());
        assert_eq!(op.step(&mut m, &l), IterEffect::Complete(Val::Int(7)));
        assert_eq!(m.read(&l, CellId(1), Pid(1)), Val::Int(7));
    }

    #[test]
    fn k3_iterates_then_requests_choice() {
        let (l, mut m) = setup();
        let mut op = IteratedOp::new(CopyOp::new(), 3);
        assert_eq!(
            op.step(&mut m, &l),
            IterEffect::PreamblePassed { iteration: 1 }
        );
        // Change the source between iterations: results differ per iteration.
        m.write(&l, CellId(0), Pid(1), Val::Int(8));
        assert_eq!(
            op.step(&mut m, &l),
            IterEffect::PreamblePassed { iteration: 2 }
        );
        m.write(&l, CellId(0), Pid(1), Val::Int(9));
        assert_eq!(
            op.step(&mut m, &l),
            IterEffect::NeedChoice {
                choices: 3,
                iteration: 3
            }
        );
        op.choose(1);
        assert_eq!(op.step(&mut m, &l), IterEffect::Complete(Val::Int(8)));
    }

    #[test]
    fn empty_preamble_goes_straight_to_tail() {
        let (l, mut m) = setup();
        let mut inner = CopyOp::new();
        inner.empty = true;
        let mut op = IteratedOp::new(inner, 5);
        assert!(!op.in_preamble());
        assert_eq!(op.step(&mut m, &l), IterEffect::Complete(Val::Int(-1)));
    }

    #[test]
    #[should_panic(expected = "awaits its random choice")]
    fn stepping_while_awaiting_choice_panics() {
        let (l, mut m) = setup();
        let mut op = IteratedOp::new(CopyOp::new(), 2);
        op.step(&mut m, &l);
        op.step(&mut m, &l); // NeedChoice
        op.step(&mut m, &l);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn zero_k_panics() {
        let _ = IteratedOp::new(CopyOp::new(), 0);
    }
}
