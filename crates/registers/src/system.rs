//! The composed shared-memory system: a randomized program over a set of
//! register/snapshot objects (atomic baselines or the step-machine
//! constructions of this crate).
//!
//! [`ShmSystem`] is the program host [`blunt_programs::host::Composed`]
//! over the [`ShmLayer`]: the host runs the program, the atomic baselines
//! and every operation's lifecycle trace events; this layer owns the base
//! registers ([`Shm`]) and each process's [`IteratedOp`].
//!
//! Scheduling granularity is one base-register access per adversary event
//! (`Obj(pid)` steps process `pid`'s active operation by one access), which
//! is exactly the interleaving power the paper's adversary has over
//! shared-memory implementations. The enabled events are, process by
//! process, its program step and then its object step.

use crate::israeli_li::{self, IlOp};
use crate::shm::{CellSpec, Shm, ShmLayout};
use crate::snapshot::{self, SnapshotOp};
use crate::twophase::{IterEffect, IteratedOp};
use crate::vitanyi_awerbuch::{self, VaOp};
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_programs::host::{update_arg, Atomic, Composed, Event, ObjectLayer};
use blunt_programs::{ProgState, ProgramDef};
use blunt_sim::system::Effects;
use blunt_sim::trace::TraceEvent;
use std::rc::Rc;

/// Configuration of one shared object.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ShmObjectConfig {
    /// An atomic register (the `O_a` baseline).
    AtomicRegister {
        /// Initial value.
        initial: Val,
    },
    /// An atomic snapshot (the `O_a` baseline for snapshot programs).
    AtomicSnapshot {
        /// Number of components.
        components: usize,
        /// Initial component value.
        initial: Val,
    },
    /// The Afek et al. snapshot, preamble-iterated `k` times.
    Snapshot {
        /// Preamble iterations (`k = 1` = the untransformed construction).
        k: u32,
        /// Number of components (component `i` is writable by process `i`).
        components: usize,
        /// Initial component value.
        initial: Val,
        /// Use the extended preamble mapping that covers `Update`'s
        /// embedded scan (Section 5.2's remark).
        update_preamble: bool,
    },
    /// The Vitányi–Awerbuch MWMR register, preamble-iterated `k` times.
    VitanyiAwerbuch {
        /// Preamble iterations.
        k: u32,
        /// Initial value.
        initial: Val,
    },
    /// The Israeli–Li SWMR register, preamble-iterated `k` times.
    IsraeliLi {
        /// Preamble iterations (applies to reads; writes have empty
        /// preambles).
        k: u32,
        /// The designated writer.
        writer: Pid,
        /// Initial value.
        initial: Val,
    },
}

/// The immutable definition of a composed shared-memory system.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ShmSystemDef {
    /// The randomized program.
    pub program: ProgramDef,
    /// One configuration per object id.
    pub objects: Vec<ShmObjectConfig>,
}

/// Definition plus derived layout (built once, shared via `Rc`).
#[derive(PartialEq, Eq, Hash, Debug)]
struct Built {
    def: ShmSystemDef,
    layout: ShmLayout,
    /// First cell of each object's region (an empty one for atomic objects).
    bases: Vec<usize>,
}

/// The composed shared-memory system.
pub type ShmSystem = Composed<ShmLayer>;

/// A schedulable event of [`ShmSystem`]: a program step, or `Obj(pid)` —
/// one base access of `pid`'s active operation.
pub type ShmEvent = Event<Pid>;

/// An active operation at a process.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum OpImpl {
    Snap(IteratedOp<SnapshotOp>),
    Va(IteratedOp<VaOp>),
    Il(IteratedOp<IlOp>),
}

impl OpImpl {
    fn step(&mut self, shm: &mut Shm, layout: &ShmLayout) -> IterEffect {
        match self {
            OpImpl::Snap(op) => op.step(shm, layout),
            OpImpl::Va(op) => op.step(shm, layout),
            OpImpl::Il(op) => op.step(shm, layout),
        }
    }

    fn choose(&mut self, choice: usize) {
        match self {
            OpImpl::Snap(op) => op.choose(choice),
            OpImpl::Va(op) => op.choose(choice),
            OpImpl::Il(op) => op.choose(choice),
        }
    }

    fn in_preamble(&self) -> bool {
        match self {
            OpImpl::Snap(op) => op.in_preamble(),
            OpImpl::Va(op) => op.in_preamble(),
            OpImpl::Il(op) => op.in_preamble(),
        }
    }
}

/// The shared-memory object layer: the base registers and each process's
/// active operation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ShmLayer {
    built: Rc<Built>,
    shm: Shm,
    /// At most one active operation per process, with its invocation id.
    clients: Vec<Option<(InvId, OpImpl)>>,
    /// Per-object per-process sequence counters (snapshot updaters, the
    /// Israeli–Li writer).
    seqs: Vec<Vec<i64>>,
}

impl ShmLayer {
    /// Returns `true` if `pid`'s active operation is still in its preamble.
    #[must_use]
    pub fn in_preamble(&self, pid: Pid) -> bool {
        self.clients[pid.index()]
            .as_ref()
            .is_some_and(|(_, op)| op.in_preamble())
    }
}

impl ObjectLayer for ShmLayer {
    type Def = ShmSystemDef;
    type Step = Pid;

    /// # Panics
    ///
    /// Panics if the program references an unconfigured object, a
    /// non-writer writes an Israeli–Li register at runtime, or a snapshot
    /// component is out of range at runtime.
    fn build(def: ShmSystemDef) -> (ShmLayer, Vec<Option<Atomic>>) {
        let n = def.program.process_count();
        let mut layout = ShmLayout::new();
        let mut bases = Vec::with_capacity(def.objects.len());
        let mut atomics = Vec::with_capacity(def.objects.len());
        for (oid, cfg) in def.objects.iter().enumerate() {
            bases.push(layout.len());
            atomics.push(match cfg {
                ShmObjectConfig::AtomicRegister { initial } => {
                    Some(Atomic::Register(initial.clone()))
                }
                ShmObjectConfig::AtomicSnapshot {
                    components,
                    initial,
                } => Some(Atomic::Snapshot(vec![initial.clone(); *components])),
                ShmObjectConfig::Snapshot {
                    components,
                    initial,
                    ..
                } => {
                    for i in 0..*components {
                        layout.push(CellSpec::single_writer(
                            Pid(i as u32),
                            n,
                            snapshot::make_cell(
                                initial.clone(),
                                0,
                                vec![initial.clone(); *components],
                            ),
                            format!("S{oid}.M[{i}]"),
                        ));
                    }
                    None
                }
                ShmObjectConfig::VitanyiAwerbuch { initial, .. } => {
                    for i in 0..n {
                        layout.push(CellSpec::single_writer(
                            Pid(i as u32),
                            n,
                            vitanyi_awerbuch::make_cell(initial.clone(), 0, 0),
                            format!("R{oid}.Val[{i}]"),
                        ));
                    }
                    None
                }
                ShmObjectConfig::IsraeliLi {
                    writer, initial, ..
                } => {
                    for i in 0..n {
                        layout.push(CellSpec::single_reader(
                            *writer,
                            Pid(i as u32),
                            israeli_li::make_cell(initial.clone(), 0),
                            format!("R{oid}.Val[{i}]"),
                        ));
                    }
                    for i in 0..n {
                        for j in 0..n {
                            layout.push(CellSpec::single_reader(
                                Pid(i as u32),
                                Pid(j as u32),
                                israeli_li::make_cell(initial.clone(), 0),
                                format!("R{oid}.Report[{i}][{j}]"),
                            ));
                        }
                    }
                    None
                }
            });
        }
        let objects = def.objects.len();
        let shm = layout.initial_memory();
        let layer = ShmLayer {
            built: Rc::new(Built { def, layout, bases }),
            shm,
            clients: vec![None; n],
            seqs: vec![vec![0; n]; objects],
        };
        (layer, atomics)
    }

    fn program(&self) -> &ProgramDef {
        &self.built.def.program
    }

    fn ops_started() -> &'static blunt_obs::Counter {
        blunt_obs::static_counter!("shm.ops.started")
    }

    fn enabled(&self, prog: &ProgState, out: &mut Vec<ShmEvent>) {
        for (p, client) in self.clients.iter().enumerate() {
            let pid = Pid(p as u32);
            if prog.can_step(pid) {
                out.push(Event::Prog(pid));
            }
            if client.is_some() {
                out.push(Event::Obj(pid));
            }
        }
    }

    fn start(&mut self, pid: Pid, inv: InvId, obj: ObjId, method: MethodId, arg: Val) {
        let n = self.built.def.program.process_count();
        let base = self.built.bases[obj.index()];
        let op = match (&self.built.def.objects[obj.index()], method) {
            (ShmObjectConfig::Snapshot { k, components, .. }, MethodId::SCAN) => OpImpl::Snap(
                IteratedOp::new(SnapshotOp::scan(pid, base, *components), *k),
            ),
            (
                ShmObjectConfig::Snapshot {
                    k,
                    components,
                    update_preamble,
                    ..
                },
                MethodId::UPDATE,
            ) => {
                let (idx, v) = update_arg(&arg, *components);
                let seq = &mut self.seqs[obj.index()][pid.index()];
                *seq += 1;
                OpImpl::Snap(IteratedOp::new(
                    SnapshotOp::update(pid, base, *components, idx, v, *seq, *update_preamble),
                    *k,
                ))
            }
            (ShmObjectConfig::VitanyiAwerbuch { k, .. }, MethodId::READ) => {
                OpImpl::Va(IteratedOp::new(VaOp::read(pid, base, n), *k))
            }
            (ShmObjectConfig::VitanyiAwerbuch { k, .. }, MethodId::WRITE) => {
                OpImpl::Va(IteratedOp::new(VaOp::write(pid, base, n, arg), *k))
            }
            (ShmObjectConfig::IsraeliLi { k, .. }, MethodId::READ) => {
                OpImpl::Il(IteratedOp::new(IlOp::read(pid, base, n), *k))
            }
            (ShmObjectConfig::IsraeliLi { k, writer, .. }, MethodId::WRITE) => {
                assert_eq!(
                    *writer, pid,
                    "process {pid} writes Israeli–Li register {obj} owned by {writer}"
                );
                let seq = &mut self.seqs[obj.index()][pid.index()];
                *seq += 1;
                OpImpl::Il(IteratedOp::new(IlOp::write(pid, base, n, arg, *seq), *k))
            }
            (cfg, m) => panic!("object {obj} ({cfg:?}) does not implement {m}"),
        };
        self.clients[pid.index()] = Some((inv, op));
    }

    fn step(&mut self, pid: Pid, fx: &mut Effects) -> Option<(Pid, InvId, IterEffect)> {
        let slot = &mut self.clients[pid.index()];
        let (inv, op) = slot
            .as_mut()
            .expect("Obj event without an active operation");
        let inv = *inv;
        blunt_obs::static_counter!("shm.base_steps").inc();
        let effect = op.step(&mut self.shm, &self.built.layout);
        match effect {
            IterEffect::Continue => fx.push_with(|| TraceEvent::Internal {
                pid,
                label: "base access".into(),
            }),
            IterEffect::Complete(_) => {
                blunt_obs::static_counter!("shm.ops.completed").inc();
                *slot = None;
            }
            IterEffect::PreamblePassed { .. } | IterEffect::NeedChoice { .. } => {}
        }
        Some((pid, inv, effect))
    }

    fn choose(&mut self, pid: Pid, choice: usize) -> InvId {
        let (inv, op) = self.clients[pid.index()]
            .as_mut()
            .expect("object random step without an active operation");
        op.choose(choice);
        *inv
    }

    fn crash(&mut self, pid: Pid) {
        self.clients[pid.index()] = None;
    }
}
