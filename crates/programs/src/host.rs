//! The program host: one randomized program `P` running over a set of
//! objects `O` under a strong adversary (Sections 2.3–2.4), as a
//! [`blunt_sim::System`].
//!
//! [`Composed`] is the one composition every simulated construction shares.
//! It owns the program half of the model:
//!
//! - the [`ProgState`] and its stepping (invocations, program random steps,
//!   termination);
//! - per-process invocation ids;
//! - the `random(V)` suspension ([`Status::AwaitingRandom`]), whether the
//!   program or an object drew it;
//! - the atomic objects `O_a`, which it executes in one indivisible step;
//! - the lifecycle trace events of every operation: `Call`, then
//!   `PreamblePassed` at each of Algorithm 2's preamble control points, then
//!   `ObjectRandom` at the object coin, then `Return`.
//!
//! Everything else is an [`ObjectLayer`]: the message-passing ABD layer
//! (`blunt-abd`) and the shared-memory layer (`blunt-registers`). A layer
//! schedules its own steps ([`Event::Obj`]) and reports each operation's
//! progress back as one [`IterEffect`], so the control points above are
//! emitted here, once, for every construction.

use crate::def::ProgramDef;
use crate::state::{ProgCmd, ProgState};
use blunt_core::ids::{CallSite, InvId, MethodId, ObjId, Pid};
use blunt_core::outcome::Outcome;
use blunt_core::value::Val;
use blunt_sim::system::{Effects, RandomKind, Status, System};
use blunt_sim::trace::TraceEvent;
use std::fmt::Debug;
use std::hash::Hash;

/// What an object layer reports after advancing an operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IterEffect {
    /// Keep scheduling steps.
    Continue,
    /// Preamble iteration `iteration` just completed (the host emits the
    /// `PreamblePassed` marker); keep scheduling steps.
    PreamblePassed {
        /// The completed iteration (1-based).
        iteration: u32,
    },
    /// All iterations done: request `random([0..k))` (only when `k > 1`).
    NeedChoice {
        /// Number of alternatives (= `k`).
        choices: u32,
        /// The final iteration that just completed.
        iteration: u32,
    },
    /// The operation completed with this return value.
    Complete(Val),
}

/// A schedulable event of a composed system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Event<S> {
    /// Process `pid` takes its next program step (invocation, random step,
    /// termination).
    Prog(Pid),
    /// The object layer takes one step: delivering the message at a network
    /// slot (ABD), or one base access of a process's operation (shared
    /// memory).
    Obj(S),
}

/// An atomic object, executed by the host in one indivisible step (the `O_a`
/// baselines).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Atomic {
    /// A read/write register and its value.
    Register(Val),
    /// An atomic snapshot and its components.
    Snapshot(Vec<Val>),
}

impl Atomic {
    fn apply(&mut self, obj: ObjId, method: MethodId, arg: Val) -> Val {
        match (self, method) {
            (Atomic::Register(v), MethodId::READ) => v.clone(),
            (Atomic::Register(v), MethodId::WRITE) => {
                *v = arg;
                Val::Nil
            }
            (Atomic::Snapshot(c), MethodId::SCAN) => Val::Tuple(c.clone()),
            (Atomic::Snapshot(c), MethodId::UPDATE) => {
                let (i, v) = update_arg(&arg, c.len());
                c[i] = v;
                Val::Nil
            }
            (a, m) => panic!("object {obj} ({a:?}) does not implement {m}"),
        }
    }
}

/// Splits a snapshot `Update` argument `(component, value)`.
///
/// # Panics
///
/// Panics if `arg` is not such a pair or the component is out of range.
#[must_use]
pub fn update_arg(arg: &Val, components: usize) -> (usize, Val) {
    let (idx, v) = arg
        .as_pair()
        .expect("Update takes a (component, value) pair");
    let i = usize::try_from(idx.as_int().expect("component index is an integer"))
        .expect("component index is non-negative");
    assert!(i < components, "component {i} out of range");
    (i, v.clone())
}

/// The objects of a composed system that the host does not execute itself.
///
/// A layer owns the state of its implemented objects and their operations,
/// one at a time per process. It never touches the program and never emits
/// an operation's lifecycle events; it reports progress as [`IterEffect`]s.
pub trait ObjectLayer: Clone + Eq + Hash + Debug {
    /// The immutable definition the system is built from.
    type Def;
    /// The layer's schedulable step ([`Event::Obj`]).
    type Step: Copy + Eq + Hash + Debug;

    /// Builds the initial layer and the host's atomic objects (one entry per
    /// object id; `None` for objects the layer implements).
    fn build(def: Self::Def) -> (Self, Vec<Option<Atomic>>);

    /// The program the system runs.
    fn program(&self) -> &ProgramDef;

    /// The counter of invocations (atomic ones included).
    fn ops_started() -> &'static blunt_obs::Counter;

    /// Collects the enabled events, program steps included, in the layer's
    /// canonical order (schedulers pick by index, so the order is part of
    /// the system's behaviour).
    fn enabled(&self, prog: &ProgState, out: &mut Vec<Event<Self::Step>>);

    /// Starts invocation `inv` of `method(arg)` on the layer's object `obj`
    /// at `pid`.
    fn start(&mut self, pid: Pid, inv: InvId, obj: ObjId, method: MethodId, arg: Val);

    /// Takes one step. Returns the operation it advanced, if any, and how.
    fn step(&mut self, step: Self::Step, fx: &mut Effects) -> Option<(Pid, InvId, IterEffect)>;

    /// Resolves `pid`'s object random step with `choice`; returns the
    /// operation's invocation id.
    fn choose(&mut self, pid: Pid, choice: usize) -> InvId;

    /// Crashes `pid`: its operation in flight, if any, is abandoned.
    fn crash(&mut self, pid: Pid);
}

/// The `random(V)` instruction the system is suspended at: a program random
/// step (e.g. the weakener's coin flip) or an object random step
/// (`j := random([1..k])` of Algorithm 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Awaiting {
    pid: Pid,
    choices: usize,
    kind: RandomKind,
}

/// A randomized program composed with an object layer.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Composed<L> {
    layer: L,
    prog: ProgState,
    /// `Some` for the objects the host executes atomically.
    atomics: Vec<Option<Atomic>>,
    awaiting: Option<Awaiting>,
    /// Per-process invocation counters. Invocation ids are
    /// `pid << 32 | counter`: numbering is local to each process, so states
    /// reached along different interleavings of *other* processes' steps
    /// still hash equal — a prerequisite for memoization to merge them.
    inv_counters: Vec<u32>,
}

impl<L: ObjectLayer> Composed<L> {
    /// Builds the initial state of a composed system.
    #[must_use]
    pub fn new(def: L::Def) -> Composed<L> {
        let (layer, atomics) = L::build(def);
        let prog = ProgState::new(layer.program());
        let n = layer.program().process_count();
        Composed {
            layer,
            prog,
            atomics,
            awaiting: None,
            inv_counters: vec![0; n],
        }
    }

    /// The object layer (for assertions and labels).
    #[must_use]
    pub fn layer(&self) -> &L {
        &self.layer
    }

    /// The program state (for assertions in tests).
    #[must_use]
    pub fn prog(&self) -> &ProgState {
        &self.prog
    }

    /// Crashes process `pid`: it takes no further steps and any operation
    /// it had in flight is abandoned.
    ///
    /// Crashes are not adversary events during exploration; tests drive
    /// this directly.
    pub fn crash(&mut self, pid: Pid, fx: &mut Effects) {
        self.prog.crash(pid);
        self.layer.crash(pid);
        fx.push(TraceEvent::Crash { pid });
    }

    fn prog_step(&mut self, pid: Pid, fx: &mut Effects) {
        match self.prog.step(self.layer.program(), pid) {
            ProgCmd::Invoke {
                site,
                obj,
                method,
                arg,
            } => self.invoke(pid, site, obj, method, arg, fx),
            ProgCmd::Random { choices } => {
                self.awaiting = Some(Awaiting {
                    pid,
                    choices,
                    kind: RandomKind::Program,
                });
            }
            ProgCmd::Halted => fx.push(TraceEvent::Internal {
                pid,
                label: "halt".into(),
            }),
            ProgCmd::Looping => fx.push(TraceEvent::Internal {
                pid,
                label: "loop forever".into(),
            }),
        }
    }

    fn invoke(
        &mut self,
        pid: Pid,
        site: CallSite,
        obj: ObjId,
        method: MethodId,
        arg: Val,
        fx: &mut Effects,
    ) {
        let c = &mut self.inv_counters[pid.index()];
        *c += 1;
        let inv = InvId((u64::from(pid.0) << 32) | u64::from(*c));
        // Aggregated over every explorer branch (global registry; see
        // `blunt_sim::network` for the rationale).
        L::ops_started().inc();
        fx.push_with(|| TraceEvent::Call {
            inv,
            pid,
            obj,
            method,
            arg: arg.clone(),
            site,
        });
        match &mut self.atomics[obj.index()] {
            // The invocation returns before any other event is scheduled.
            Some(atomic) => {
                let ret = atomic.apply(obj, method, arg);
                self.complete(pid, inv, ret, fx);
            }
            None => self.layer.start(pid, inv, obj, method, arg),
        }
    }

    fn progress(&mut self, pid: Pid, inv: InvId, effect: IterEffect, fx: &mut Effects) {
        let (iteration, choices) = match effect {
            IterEffect::Continue => return,
            IterEffect::Complete(ret) => return self.complete(pid, inv, ret, fx),
            IterEffect::PreamblePassed { iteration } => (iteration, None),
            IterEffect::NeedChoice { choices, iteration } => (iteration, Some(choices)),
        };
        fx.push(TraceEvent::PreamblePassed {
            inv,
            pid,
            iteration,
        });
        if let Some(choices) = choices {
            self.awaiting = Some(Awaiting {
                pid,
                choices: choices as usize,
                kind: RandomKind::Object,
            });
        }
    }

    fn complete(&mut self, pid: Pid, inv: InvId, ret: Val, fx: &mut Effects) {
        fx.push_with(|| TraceEvent::Return {
            inv,
            pid,
            val: ret.clone(),
        });
        self.prog.on_return(pid, ret);
    }
}

impl<L: ObjectLayer> System for Composed<L> {
    type Event = Event<L::Step>;

    fn process_count(&self) -> usize {
        self.layer.program().process_count()
    }

    fn enabled(&self, out: &mut Vec<Self::Event>) {
        out.clear();
        if self.status() == Status::Running {
            self.layer.enabled(&self.prog, out);
        }
    }

    fn apply(&mut self, ev: &Self::Event, fx: &mut Effects) {
        debug_assert_eq!(self.status(), Status::Running);
        match *ev {
            Event::Prog(pid) => self.prog_step(pid, fx),
            Event::Obj(step) => {
                if let Some((pid, inv, effect)) = self.layer.step(step, fx) {
                    self.progress(pid, inv, effect, fx);
                }
            }
        }
    }

    fn supply_random(&mut self, choice: usize, fx: &mut Effects) {
        let Awaiting { pid, choices, kind } = self
            .awaiting
            .take()
            .expect("supply_random while not awaiting randomness");
        assert!(choice < choices, "random choice out of range");
        match kind {
            RandomKind::Program => {
                fx.push(TraceEvent::ProgramRandom {
                    pid,
                    choices,
                    chosen: choice,
                });
                self.prog.on_random(pid, choice);
            }
            RandomKind::Object => {
                let inv = self.layer.choose(pid, choice);
                fx.push(TraceEvent::ObjectRandom {
                    pid,
                    inv,
                    choices,
                    chosen: choice,
                });
            }
        }
    }

    fn status(&self) -> Status {
        if self.prog.is_done(self.layer.program()) {
            return Status::Done;
        }
        self.awaiting
            .map_or(Status::Running, |Awaiting { pid, choices, kind }| {
                Status::AwaitingRandom { pid, choices, kind }
            })
    }

    fn outcome(&self) -> Outcome {
        self.prog.outcome()
    }
}
