//! The online monitor, fixture by fixture and against the exhaustive
//! checker: known-good and known-bad histories, checked *streaming* — the
//! monitor must flag a bad history at the return that breaks it, not at
//! end-of-run — plus a seeded differential run against
//! `blunt_lincheck::check_linearizable` and a memory bound.
//!
//! The bad fixtures mirror the named patterns from the `blunt_lincheck`
//! checker tests (stale read after returned write, new-old inversion,
//! unrelated-value read) and the deviations of Golab–Higham–Woelfel; the
//! good ones are generated by actually running an atomic register with
//! randomly placed linearization points, the same construction as
//! `crates/lincheck/tests/proptest_lincheck.rs`. Every fixture's verdict is
//! also checked against the exhaustive search, and so is every violation
//! window the monitor reports.

use blunt_core::history::{Action, History};
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::spec::{RegisterSpec, SequentialSpec};
use blunt_core::value::Val;
use blunt_lincheck::check_linearizable;
use blunt_runtime::{MonitorReport, OnlineMonitor};
use blunt_sim::rng::{RandomSource, SplitMix64};

fn call(inv: u64, pid: u32, obj: u32, method: MethodId, arg: Val) -> Action {
    Action::Call {
        inv: InvId(inv),
        pid: Pid(pid),
        obj: ObjId(obj),
        method,
        arg,
    }
}

fn write(inv: u64, pid: u32, v: i64) -> Action {
    call(inv, pid, 0, MethodId::WRITE, Val::Int(v))
}

fn read(inv: u64, pid: u32) -> Action {
    call(inv, pid, 0, MethodId::READ, Val::Nil)
}

fn ret(inv: u64, val: Val) -> Action {
    Action::Return {
        inv: InvId(inv),
        val,
    }
}

fn wgl_accepts(h: &History) -> bool {
    let spec = RegisterSpec::new(Val::Nil);
    h.objects()
        .into_iter()
        .all(|obj| check_linearizable(&h.project(obj), &spec).is_ok())
}

/// Every window the monitor reported is small, and the exhaustive checker
/// rejects it on its own.
fn assert_windows_stand_alone(report: &MonitorReport) {
    for v in &report.violations {
        let ops = v.window.invocations().len();
        assert!(ops <= 7, "a window of {ops} ops:\n{}", v.rendered);
        assert!(
            !wgl_accepts(&v.window),
            "the exhaustive checker accepts this window:\n{}",
            v.rendered
        );
    }
}

/// Feeds `script` action by action, asserting that exactly the returns at
/// the positions in `flagged` are flagged; checks the verdict against the
/// exhaustive search and every window on its own.
fn run(script: &[Action], flagged: &[usize]) -> MonitorReport {
    let mut m = OnlineMonitor::new(Val::Nil, 4);
    for (i, a) in script.iter().enumerate() {
        let ok = m.observe(a.clone());
        assert_eq!(!ok, flagged.contains(&i), "action {i}: {a:?}");
    }
    let report = m.finish();
    let history: History = script.iter().cloned().collect();
    assert_eq!(report.clean(), wgl_accepts(&history), "verdicts differ");
    assert_windows_stand_alone(&report);
    report
}

#[test]
fn accepts_a_good_sequential_history_step_by_step() {
    let report = run(
        &[
            write(0, 0, 1),
            ret(0, Val::Nil),
            read(1, 1),
            ret(1, Val::Int(1)),
            write(2, 2, 2),
            ret(2, Val::Nil),
            read(3, 1),
            ret(3, Val::Int(2)),
        ],
        &[],
    );
    assert!(report.clean());
    assert_eq!(report.checked, 4, "every return is checked");
}

#[test]
fn rejects_a_stale_read_at_its_return_not_at_finish() {
    // Write(1) returns; a later read returning ⊥ is stale.
    let report = run(
        &[
            write(0, 0, 1),
            ret(0, Val::Nil),
            read(1, 1),
            ret(1, Val::Nil),
        ],
        &[3],
    );
    assert_eq!(report.violations.len(), 1);
    let v = &report.violations[0];
    assert_eq!(v.obj, ObjId(0));
    assert_eq!(v.at, 4, "flagged at the read's return");
    // The initial value's cluster closed when Write(1) returned: the window
    // is that write and the stale read.
    assert_eq!(v.window.invocations().len(), 2);
    assert!(v.rendered.contains("call Read(⊥) @obj0"), "{}", v.rendered);
    assert!(!report.clean());
}

#[test]
fn rejects_a_new_old_inversion() {
    // W(0), W(1), R→1 in sequence, then R→0: a read of a closed value.
    let report = run(
        &[
            write(0, 0, 0),
            ret(0, Val::Nil),
            write(1, 1, 1),
            ret(1, Val::Nil),
            read(2, 2),
            ret(2, Val::Int(1)),
            read(3, 2),
            ret(3, Val::Int(0)),
        ],
        &[7],
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.checked, 3, "earlier returns were accepted");
}

#[test]
fn keeps_checking_other_objects_and_later_returns_after_a_violation() {
    // obj1 goes bad...
    let report = run(
        &[
            call(0, 0, 1, MethodId::READ, Val::Nil),
            ret(0, Val::Int(99)),
            // ...obj0 stays good, and a later obj1 return is still checked.
            call(1, 1, 0, MethodId::WRITE, Val::Int(5)),
            ret(1, Val::Nil),
            call(2, 0, 1, MethodId::READ, Val::Nil),
            ret(2, Val::Nil),
        ],
        &[1],
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.checked, 2);
}

#[test]
fn overlapping_operations_accept_either_order() {
    // A read overlapping a write may return the old value; the next read
    // must see the write.
    let report = run(
        &[
            write(0, 0, 7),
            read(1, 1),
            ret(1, Val::Nil),
            ret(0, Val::Nil),
            read(2, 1),
            ret(2, Val::Int(7)),
        ],
        &[],
    );
    assert!(report.clean(), "violations: {:?}", report.violations);
    assert_eq!(report.checked, 3);
}

#[test]
fn overlapping_writes_admit_either_order_but_not_both() {
    // W(1) ∥ W(2): a read may observe either order; once it has observed
    // one, observing the other is a genuine new-old inversion.
    let report = run(
        &[
            write(0, 0, 1),
            write(1, 1, 2),
            ret(0, Val::Nil),
            ret(1, Val::Nil),
            read(2, 2),
            ret(2, Val::Int(1)),
            read(3, 2),
            ret(3, Val::Int(2)),
        ],
        &[7],
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.checked, 3);
    // The two clusters conflict: both writes and both reads.
    assert_eq!(report.violations[0].window.invocations().len(), 4);
}

#[test]
fn remembers_a_closed_zone_until_no_live_cluster_can_reach_it() {
    // W₀[0,2] W₁[1,4] W₂[3,7] R→0[5,6] W₃[8,12] R→1[9,10] W₄[11,13]: W₀'s
    // cluster closes at 7 (W₂ was invoked after its first return and has
    // returned). R→1 then stretches W₁'s forward zone [4,9] over W₀'s
    // closed one [2,5]; a monitor that forgot a zone at closing misses it.
    let report = run(
        &[
            write(0, 0, 0),
            write(1, 1, 1),
            ret(0, Val::Nil),
            write(2, 2, 2),
            ret(1, Val::Nil),
            read(3, 0),
            ret(3, Val::Int(0)),
            ret(2, Val::Nil),
            write(4, 1, 3),
            read(5, 2),
            ret(5, Val::Int(1)),
            write(6, 0, 4),
            ret(4, Val::Nil),
            ret(6, Val::Nil),
        ],
        &[10],
    );
    assert_eq!(report.violations.len(), 1);
    // W₀, W₁, R→0 and R→1 are the evidence.
    let window = &report.violations[0].window;
    let mut invs: Vec<u64> = window.invocations().iter().map(|r| r.inv.0).collect();
    invs.sort_unstable();
    assert_eq!(invs, [0, 1, 3, 5]);
}

#[test]
fn rejects_a_read_of_a_value_whose_write_is_called_only_afterwards() {
    let report = run(
        &[
            read(0, 0),
            ret(0, Val::Int(5)),
            write(1, 1, 5),
            ret(1, Val::Nil),
        ],
        &[1],
    );
    assert_eq!(report.violations[0].window.invocations().len(), 1);
}

#[test]
fn accepts_a_read_of_a_value_whose_write_is_still_pending() {
    let report = run(
        &[
            write(0, 0, 5),
            read(1, 1),
            ret(1, Val::Int(5)),
            read(2, 2),
            ret(2, Val::Int(5)),
        ],
        &[],
    );
    assert_eq!(report.checked, 2);
    // ...but once it has been read, the pending write has taken effect.
    run(
        &[
            write(0, 0, 5),
            read(1, 1),
            ret(1, Val::Int(5)),
            read(2, 2),
            ret(2, Val::Nil),
        ],
        &[4],
    );
}

#[test]
fn accepts_a_pending_write_read_by_nobody() {
    let report = run(
        &[
            write(0, 0, 5),
            read(1, 1),
            ret(1, Val::Nil),
            write(2, 1, 6),
            ret(2, Val::Nil),
            read(3, 2),
            ret(3, Val::Int(6)),
        ],
        &[],
    );
    assert_eq!(report.checked, 3);
}

#[test]
#[should_panic(expected = "write values must be unique")]
fn a_repeated_write_value_is_refused() {
    let mut m = OnlineMonitor::new(Val::Nil, 2);
    m.observe(write(0, 0, 5));
    m.observe(ret(0, Val::Nil));
    m.observe(write(1, 1, 5));
}

/// A process's open op: id, method, argument, and its result once it has
/// linearized.
type OpenOp = (u64, MethodId, Val, Option<Val>);

/// An atomic register run by `procs` processes: each op is called,
/// linearized and returned at random points, so real-time order holds by
/// construction. Write value = invocation id + 1. With `stop_early` the run
/// may end once every op is called, leaving the open ones pending — taken
/// effect or not.
fn atomic_history(rng: &mut SplitMix64, ops: usize, procs: usize, stop_early: bool) -> Vec<Action> {
    let spec = RegisterSpec::new(Val::Nil);
    let mut state = spec.init();
    let mut actions = Vec::new();
    // Per process: the op it has open, and its result once linearized.
    let mut open: Vec<Option<OpenOp>> = vec![None; procs];
    let mut called = 0;
    loop {
        let busy = open.iter().any(Option::is_some);
        if called == ops && !busy {
            break;
        }
        if called == ops && stop_early && rng.draw(6) == 0 {
            break; // whatever is open stays pending
        }
        let p = rng.draw(procs);
        match open[p].take() {
            None if called < ops => {
                let inv = called as u64;
                called += 1;
                let (method, arg) = if rng.draw(2) == 0 {
                    (MethodId::READ, Val::Nil)
                } else {
                    (
                        MethodId::WRITE,
                        Val::Int(i64::try_from(inv).expect("fits") + 1),
                    )
                };
                let pid = u32::try_from(p).expect("fits");
                actions.push(call(inv, pid, 0, method, arg.clone()));
                open[p] = Some((inv, method, arg, None));
            }
            None => {}
            Some((inv, method, arg, None)) => {
                let (next, r) = spec.apply(&state, method, &arg).expect("register op");
                state = next;
                open[p] = Some((inv, method, arg, Some(r)));
            }
            Some((inv, _, _, Some(r))) => actions.push(ret(inv, r)),
        }
    }
    actions
}

/// Random intervals on `procs` processes whose reads return anything:
/// the initial value, some write's value (written before, during, after or
/// never), or a value nobody writes.
fn arbitrary_history(rng: &mut SplitMix64, ops: usize, procs: usize) -> Vec<Action> {
    let mut actions = Vec::new();
    let mut open: Vec<Option<(u64, bool)>> = vec![None; procs];
    let mut called = 0;
    while called < ops || open.iter().any(Option::is_some) {
        if called == ops && rng.draw(8) == 0 {
            break;
        }
        let p = rng.draw(procs);
        match open[p].take() {
            None if called < ops => {
                let inv = called as u64;
                called += 1;
                let pid = u32::try_from(p).expect("fits");
                let is_read = rng.draw(2) == 0;
                actions.push(if is_read {
                    read(inv, pid)
                } else {
                    write(inv, pid, i64::try_from(inv).expect("fits") + 1)
                });
                open[p] = Some((inv, is_read));
            }
            None => {}
            Some((inv, true)) => {
                let pick = rng.draw(ops + 2);
                let val = match pick {
                    0 => Val::Nil,
                    1 => Val::Int(1000),
                    v => Val::Int(i64::try_from(v - 1).expect("fits")),
                };
                actions.push(ret(inv, val));
            }
            Some((inv, false)) => actions.push(ret(inv, Val::Nil)),
        }
    }
    actions
}

/// Replaces one returned read's value with a random one (maybe the same).
fn corrupt_a_read(rng: &mut SplitMix64, actions: &mut [Action], ops: usize) {
    let reads: Vec<usize> = (0..actions.len())
        .filter(|&i| match &actions[i] {
            Action::Return { inv, .. } => actions.iter().any(|a| {
                matches!(a, Action::Call { inv: c, method, .. } if c == inv && *method == MethodId::READ)
            }),
            Action::Call { .. } => false,
        })
        .collect();
    if reads.is_empty() {
        return;
    }
    let i = reads[rng.draw(reads.len())];
    if let Action::Return { val, .. } = &mut actions[i] {
        let pick = rng.draw(ops + 1);
        *val = if pick == 0 {
            Val::Nil
        } else {
            Val::Int(i64::try_from(pick).expect("fits"))
        };
    }
}

#[test]
fn agrees_with_the_exhaustive_checker_on_random_histories() {
    let mut rng = SplitMix64::new(0x20E5_CAFE);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for round in 0..120_000u32 {
        let ops = 1 + rng.draw(14);
        let procs = 1 + rng.draw(4);
        let actions = match round % 3 {
            0 => atomic_history(&mut rng, ops, procs, true),
            1 => {
                let mut a = atomic_history(&mut rng, ops, procs, true);
                corrupt_a_read(&mut rng, &mut a, ops);
                a
            }
            _ => arbitrary_history(&mut rng, ops, procs),
        };
        let history: History = actions.iter().cloned().collect();
        let mut m = OnlineMonitor::new(Val::Nil, procs);
        for a in actions {
            m.observe(a);
        }
        let report = m.finish();
        let expected = wgl_accepts(&history);
        assert_eq!(
            report.clean(),
            expected,
            "round {round}: the monitor says {}, the search says {expected}\n{history:#?}",
            report.clean()
        );
        assert_windows_stand_alone(&report);
        if expected {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // Both verdicts are well represented.
    assert!(
        accepted > 30_000 && rejected > 30_000,
        "{accepted} / {rejected}"
    );
}

#[test]
fn accepts_generated_realizable_histories() {
    let mut rng = SplitMix64::new(0xFEED);
    for round in 0..200 {
        let (ops, procs) = (3 + rng.draw(40), 1 + rng.draw(5));
        let actions = atomic_history(&mut rng, ops, procs, false);
        let mut m = OnlineMonitor::new(Val::Nil, 5);
        for (i, a) in actions.into_iter().enumerate() {
            assert!(m.observe(a), "round {round}: flagged at action {i}");
        }
        assert!(m.finish().clean(), "round {round}");
    }
}

#[test]
fn memory_stays_bounded_over_a_long_run() {
    // 100 000 ops of an atomic register on one key from 4 processes: the
    // clusters the monitor holds — live, remembered and the initial
    // value's — do not grow with the run. This seed peaks at 13; over runs
    // of 20k to 1M ops on 4 processes the peak stays within 12–17, on 8
    // within 24–28: it follows the concurrency, not the length.
    let mut rng = SplitMix64::new(0xB0B_0001);
    let actions = atomic_history(&mut rng, 100_000, 4, false);
    let mut m = OnlineMonitor::new(Val::Nil, 4);
    let mut held = 0;
    for a in actions {
        assert!(m.observe(a));
        held = held.max(m.clusters_held());
    }
    assert!(m.finish().clean());
    assert!(held <= 16, "held {held} clusters at once");
}
