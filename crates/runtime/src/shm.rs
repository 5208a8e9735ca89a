//! A threaded workload over the shared-memory register constructions of
//! `blunt_registers` — the Vitányi–Awerbuch MWMR register (and its
//! preamble-iterated O^k version) executed by real OS threads.
//!
//! Here the "network" is a mutex around the [`Shm`] cell array: each
//! protocol *step* (one base-register access) takes the lock, mutates, and
//! releases, so operations of different threads interleave at base-step
//! granularity and the OS scheduler plays the adversary. The same
//! [`OnlineMonitor`] checks the resulting history.
//!
//! The broken mode truncates a read's preamble to a single cell: it stops
//! scanning the other processes' single-writer cells, so it simply cannot
//! observe their writes — a deliberately unsound "fast read" the monitor
//! must flag.

use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

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

/// Configuration of a threaded shared-memory chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ShmChaosConfig {
    /// Worker threads (= register processes).
    pub threads: u32,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Preamble iterations for the O^k transformation.
    pub k: u32,
    /// ‰ of operations that are reads.
    pub read_per_mille: u16,
    /// Run seed (op mix and object random choices).
    pub seed: u64,
    /// Use the unsound single-cell fast read.
    pub broken_reads: bool,
}

impl ShmChaosConfig {
    /// A small default shape.
    #[must_use]
    pub fn small(seed: u64, k: u32) -> ShmChaosConfig {
        ShmChaosConfig {
            threads: 4,
            ops_per_thread: 400,
            k,
            read_per_mille: 500,
            seed,
            broken_reads: false,
        }
    }
}

/// Outcome of a threaded shared-memory run.
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

/// Runs the threaded Vitányi–Awerbuch workload.
///
/// # Panics
///
/// Panics on a degenerate configuration or on more than
/// [`MAX_OPS_PER_CLIENT`] ops per thread.
#[must_use]
pub fn run_shm_chaos(cfg: &ShmChaosConfig) -> ShmReport {
    assert!(cfg.threads >= 1 && cfg.ops_per_thread >= 1 && cfg.k >= 1);
    assert!(
        cfg.ops_per_thread <= MAX_OPS_PER_CLIENT,
        "write values stay unique only up to MAX_OPS_PER_CLIENT ops per thread"
    );
    let n = cfg.threads as usize;
    let layout = Arc::new(va_layout(n));
    let shm = Arc::new(Mutex::new(layout.initial_memory()));
    let (mon_tx, mon_rx) = mpsc::channel::<Action>();
    let monitor = thread::spawn(move || {
        let mut m = OnlineMonitor::new(Val::Nil, n);
        while let Ok(a) = mon_rx.recv() {
            m.observe(a);
        }
        m.finish()
    });

    let mut workers = Vec::new();
    for t in 0..cfg.threads {
        let layout = Arc::clone(&layout);
        let shm = Arc::clone(&shm);
        let mon_tx = mon_tx.clone();
        let cfg = *cfg;
        workers.push(thread::spawn(move || {
            worker_loop(t, &cfg, &layout, &shm, &mon_tx);
        }));
    }
    drop(mon_tx);
    for w in workers {
        w.join().expect("shm worker thread");
    }
    let monitor = monitor.join().expect("monitor thread");
    ShmReport {
        ops: u64::from(cfg.threads) * cfg.ops_per_thread,
        monitor,
    }
}

fn worker_loop(
    t: u32,
    cfg: &ShmChaosConfig,
    layout: &ShmLayout,
    shm: &Mutex<Shm>,
    mon_tx: &Sender<Action>,
) {
    let me = Pid(t);
    let n = cfg.threads as usize;
    let obj = ObjId(0);
    let mut rng = SplitMix64::new(
        cfg.seed ^ 0x5348_4D00_0000_0000 ^ u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    for op_idx in 0..cfg.ops_per_thread {
        let inv = InvId(u64::from(t) * (10 * MAX_OPS_PER_CLIENT) + op_idx);
        let is_read = rng.draw(1000) < usize::from(cfg.read_per_mille);
        let (method, arg) = if is_read {
            (MethodId::READ, Val::Nil)
        } else {
            let v = u64::from(t) * MAX_OPS_PER_CLIENT + op_idx;
            (
                MethodId::WRITE,
                Val::Int(i64::try_from(v).expect("write value fits i64")),
            )
        };
        let _ = mon_tx.send(Action::Call {
            inv,
            pid: me,
            obj,
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
        let mut op = IteratedOp::new(inner, cfg.k);
        let ret = loop {
            // Lock per *step*, not per op: base-register accesses of
            // different threads interleave freely.
            let effect = {
                let mut mem = shm.lock().expect("shm lock");
                op.step(&mut mem, layout)
            };
            match effect {
                IterEffect::Complete(v) => break v,
                IterEffect::NeedChoice { choices, .. } => {
                    op.choose(rng.draw(choices as usize));
                }
                IterEffect::Continue | IterEffect::PreamblePassed { .. } => {}
            }
        };
        let _ = mon_tx.send(Action::Return { inv, val: ret });
    }
}
