//! A seeded workload over the shared-memory register constructions of
//! `blunt_registers` — the Vitányi–Awerbuch MWMR register (and its
//! preamble-iterated O^k version), every process stepped on the calling
//! thread.
//!
//! In the paper's shared-memory model the adversary picks every
//! base-register access. Here a seeded draw plays it: at each step it
//! picks one process that still has ops left, and that process either
//! starts its next op or takes one step of the op in flight — one
//! base-register access — against the [`Shm`] cell array. So operations of
//! different processes interleave at base-step granularity, and the
//! interleaving, the history and the [`OnlineMonitor`]'s verdict on it are
//! a pure function of the seed.
//!
//! The broken mode truncates a read's preamble to a single cell: it stops
//! scanning the other processes' single-writer cells, so it simply cannot
//! observe their writes — a deliberately unsound "fast read" the monitor
//! must flag.

use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_registers::shm::CellSpec;
use blunt_registers::twophase::IterEffect;
use blunt_registers::vitanyi_awerbuch::{make_cell, VaOp};
use blunt_registers::{IteratedOp, Shm, ShmLayout};
use blunt_sim::rng::{RandomSource, SplitMix64};

use crate::monitor::{MonitorReport, OnlineMonitor};
use crate::workload::MAX_OPS_PER_CLIENT;

/// Configuration of a seeded shared-memory chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ShmChaosConfig {
    /// Register processes.
    pub processes: u32,
    /// Operations per process.
    pub ops_per_process: u64,
    /// Preamble iterations for the O^k transformation.
    pub k: u32,
    /// ‰ of operations that are reads.
    pub read_per_mille: u16,
    /// Run seed (schedule, op mix and object random choices).
    pub seed: u64,
    /// Use the unsound single-cell fast read.
    pub broken_reads: bool,
}

impl ShmChaosConfig {
    /// A small default shape.
    #[must_use]
    pub fn small(seed: u64, k: u32) -> ShmChaosConfig {
        ShmChaosConfig {
            processes: 4,
            ops_per_process: 400,
            k,
            read_per_mille: 500,
            seed,
            broken_reads: false,
        }
    }
}

/// Outcome of a shared-memory run.
#[derive(Debug)]
pub struct ShmReport {
    /// Operations completed.
    pub ops: u64,
    /// The monitor's verdict.
    pub monitor: MonitorReport,
}

fn va_layout(n: usize) -> ShmLayout {
    let mut l = ShmLayout::new();
    for i in 0..n {
        l.push(CellSpec::single_writer(
            Pid(u32::try_from(i).expect("pid fits u32")),
            n,
            make_cell(Val::Nil, 0, 0),
            format!("Val[{i}]"),
        ));
    }
    l
}

/// One register process: its own draw stream (op mix and object random
/// choices, in the order it uses them) and the op it has in flight.
struct Process {
    me: Pid,
    rng: SplitMix64,
    /// Ops started so far.
    started: u64,
    op: Option<(InvId, IteratedOp<VaOp>)>,
}

impl Process {
    /// Starts the next op, or takes one step of the op in flight. Returns
    /// `true` once the process's last op has completed.
    fn step(
        &mut self,
        cfg: &ShmChaosConfig,
        mem: &mut Shm,
        layout: &ShmLayout,
        monitor: &mut OnlineMonitor,
    ) -> bool {
        let Some((inv, op)) = self.op.as_mut() else {
            self.start(cfg, layout.len(), monitor);
            return false;
        };
        match op.step(mem, layout) {
            IterEffect::Complete(val) => {
                monitor.observe(Action::Return { inv: *inv, val });
                self.op = None;
                return self.started == cfg.ops_per_process;
            }
            IterEffect::NeedChoice { choices, .. } => op.choose(self.rng.draw(choices as usize)),
            IterEffect::Continue | IterEffect::PreamblePassed { .. } => {}
        }
        false
    }

    /// Draws the next op and hands its `Call` to the monitor.
    fn start(&mut self, cfg: &ShmChaosConfig, n: usize, monitor: &mut OnlineMonitor) {
        let (me, op_idx) = (self.me, self.started);
        let pid = u64::from(me.0);
        let inv = InvId(pid * (10 * MAX_OPS_PER_CLIENT) + op_idx);
        let is_read = self.rng.draw(1000) < usize::from(cfg.read_per_mille);
        let (method, arg) = if is_read {
            (MethodId::READ, Val::Nil)
        } else {
            let v = pid * MAX_OPS_PER_CLIENT + op_idx;
            (
                MethodId::WRITE,
                Val::Int(i64::try_from(v).expect("write value fits i64")),
            )
        };
        monitor.observe(Action::Call {
            inv,
            pid: me,
            obj: ObjId(0),
            method,
            arg: arg.clone(),
        });
        let inner = if is_read {
            if cfg.broken_reads {
                // Unsound: scan only cell 0, blind to every other writer.
                VaOp::read(me, 0, 1)
            } else {
                VaOp::read(me, 0, n)
            }
        } else {
            VaOp::write(me, 0, n, arg)
        };
        self.op = Some((inv, IteratedOp::new(inner, cfg.k)));
        self.started += 1;
    }
}

/// Runs the Vitányi–Awerbuch workload, every process on the calling
/// thread, in the order a seeded draw picks.
///
/// # Panics
///
/// Panics on a degenerate configuration or on more than
/// [`MAX_OPS_PER_CLIENT`] ops per process.
#[must_use]
pub fn run_shm_chaos(cfg: &ShmChaosConfig) -> ShmReport {
    assert!(cfg.processes >= 1 && cfg.ops_per_process >= 1 && cfg.k >= 1);
    assert!(
        cfg.ops_per_process <= MAX_OPS_PER_CLIENT,
        "write values stay unique only up to MAX_OPS_PER_CLIENT ops per process"
    );
    let n = cfg.processes as usize;
    let layout = va_layout(n);
    let mut mem = layout.initial_memory();
    let mut monitor = OnlineMonitor::new(Val::Nil, n);
    // The processes that still have ops left; the scheduler's own stream
    // picks which one takes the next step.
    let mut live: Vec<Process> = (0..cfg.processes)
        .map(|t| Process {
            me: Pid(t),
            rng: SplitMix64::new(
                cfg.seed ^ 0x5348_4D00_0000_0000 ^ u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            started: 0,
            op: None,
        })
        .collect();
    let mut schedule = SplitMix64::new(cfg.seed ^ 0x5343_4845_4400_0000);
    while !live.is_empty() {
        let i = schedule.draw(live.len());
        if live[i].step(cfg, &mut mem, &layout, &mut monitor) {
            live.swap_remove(i);
        }
    }
    ShmReport {
        ops: u64::from(cfg.processes) * cfg.ops_per_process,
        monitor: monitor.finish(),
    }
}
