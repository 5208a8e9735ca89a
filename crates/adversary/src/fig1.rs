//! The strong adversary of the paper's **Figure 1** (Appendix A.2), as an
//! executable schedule.
//!
//! The adversary runs the weakener against plain ABD (`R = ABD¹`, `C`
//! atomic) and forces `p2` to loop forever **for both coin values**: it
//! keeps `p0`'s `Write(0)` and `p2`'s first `Read` inside their query phases
//! across `p1`'s coin flip, then completes them one way or the other
//! depending on the observed coin. A strong adversary is a function from
//! observed random values to schedules — here, literally the two scripts
//! [`fig1_script`]`(0)` and [`fig1_script`]`(1)` sharing the prefix that
//! precedes the flip.

use blunt_abd::msg::AbdMsg;
use blunt_abd::system::{AbdEvent, AbdSystem};
use blunt_core::ids::{ObjId, Pid};
use blunt_sim::sched::Scheduler;
use std::collections::VecDeque;

/// The message kinds a script step can select.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// A `query` message.
    Query,
    /// A `reply` message.
    Reply,
    /// An `update` message.
    Update,
    /// An `ack` message.
    Ack,
}

impl MsgKind {
    fn matches(self, msg: &AbdMsg) -> bool {
        matches!(
            (self, msg),
            (MsgKind::Query, AbdMsg::Query { .. })
                | (MsgKind::Reply, AbdMsg::Reply { .. })
                | (MsgKind::Update, AbdMsg::Update { .. })
                | (MsgKind::Ack, AbdMsg::Ack { .. })
        )
    }
}

/// One step of a declarative ABD schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Schedule process `pid`'s next program step.
    Prog(Pid),
    /// Deliver the in-flight message of the given kind for the given object
    /// from `src` to `dst`.
    Deliver {
        /// Sender.
        src: Pid,
        /// Receiver.
        dst: Pid,
        /// Message kind.
        kind: MsgKind,
        /// Register instance the message belongs to.
        obj: ObjId,
    },
}

/// A declarative scripted scheduler over [`AbdSystem`] events.
///
/// Each step names the event to schedule; once the script is exhausted the
/// scheduler falls back to first-enabled (by then the program has decided).
///
/// # Panics
///
/// `pick` panics if a scripted step matches no enabled event — the script
/// has diverged from the system, and the experiment it encodes is void.
#[derive(Debug)]
pub struct AbdScript {
    steps: VecDeque<Step>,
    consumed: usize,
}

impl AbdScript {
    /// Creates a scheduler from a step list.
    #[must_use]
    pub fn new(steps: Vec<Step>) -> AbdScript {
        blunt_obs::static_counter!("adversary.fig1.scripts_built").inc();
        AbdScript {
            steps: steps.into(),
            consumed: 0,
        }
    }

    /// Steps consumed so far.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

impl Scheduler<AbdSystem> for AbdScript {
    fn pick(&mut self, sys: &AbdSystem, enabled: &[AbdEvent]) -> usize {
        let Some(step) = self.steps.pop_front() else {
            blunt_obs::static_counter!("adversary.fig1.fallback_picks").inc();
            return 0;
        };
        self.consumed += 1;
        blunt_obs::static_counter!("adversary.fig1.scripted_picks").inc();
        let found = enabled.iter().position(|ev| match (step, ev) {
            (Step::Prog(pid), AbdEvent::Prog(p)) => *p == pid,
            (
                Step::Deliver {
                    src,
                    dst,
                    kind,
                    obj,
                },
                AbdEvent::Obj(slot),
            ) => {
                let env = sys.layer().net().peek(*slot);
                env.src == src && env.dst == dst && env.msg.obj() == obj && kind.matches(&env.msg)
            }
            _ => false,
        });
        found.unwrap_or_else(|| {
            panic!(
                "Figure 1 script diverged at step {} ({step:?}); enabled: {:?}",
                self.consumed,
                enabled
                    .iter()
                    .map(|e| match e {
                        AbdEvent::Prog(p) => format!("Prog({p})"),
                        AbdEvent::Obj(s) => {
                            let env = sys.layer().net().peek(*s);
                            format!("Deliver({}→{}: {})", env.src, env.dst, env.msg)
                        }
                    })
                    .collect::<Vec<_>>()
            )
        })
    }
}

const P0: Pid = Pid(0);
const P1: Pid = Pid(1);
const P2: Pid = Pid(2);

/// The register `R` of the weakener.
const R: ObjId = ObjId(0);
/// The register `C` of the weakener.
const C: ObjId = ObjId(1);

fn d(src: Pid, dst: Pid, kind: MsgKind) -> Step {
    Step::Deliver {
        src,
        dst,
        kind,
        obj: R,
    }
}

fn dc(src: Pid, dst: Pid, kind: MsgKind) -> Step {
    Step::Deliver {
        src,
        dst,
        kind,
        obj: C,
    }
}

/// A complete, uncontested ABD operation by `pid` against register `C`,
/// answered by `pid` itself and `other`: query exchange then update
/// exchange (8 deliveries).
fn c_op(pid: Pid, other: Pid) -> Vec<Step> {
    use MsgKind::*;
    vec![
        dc(pid, other, Query),
        dc(other, pid, Reply),
        dc(pid, pid, Query),
        dc(pid, pid, Reply),
        dc(pid, other, Update),
        dc(other, pid, Ack),
        dc(pid, pid, Update),
        dc(pid, pid, Ack),
    ]
}

/// The shared schedule prefix, up to and including `p1`'s coin flip: it
/// leaves `p0`'s `Write(0)` with one `⊥` reply and `p2`'s first `Read` with
/// one `⊥` reply, `p1`'s `Write(1)` completed with timestamp `(1, 1)`, and
/// `p1`'s update to `p2` still in flight.
fn prefix() -> Vec<Step> {
    use MsgKind::*;
    vec![
        // p0 invokes Write(R, 0) and answers its own query with (⊥, (0,0)).
        Step::Prog(P0),
        d(P0, P0, Query),
        d(P0, P0, Reply),
        // p1 invokes Write(R, 1); its query completes with (⊥, (0,0)) from
        // p0 and p1, so it picks timestamp (1, 1) and broadcasts its update.
        Step::Prog(P1),
        d(P1, P0, Query),
        d(P0, P1, Reply),
        d(P1, P1, Query),
        d(P1, P1, Reply),
        // p2 invokes its first Read; p0 answers (⊥, (0,0)) — p0 has not yet
        // received p1's update.
        Step::Prog(P2),
        d(P2, P0, Query),
        d(P0, P2, Reply),
        // Now p1's update reaches p0 and p1 (but NOT p2); p1's Write
        // completes.
        d(P1, P0, Update),
        d(P0, P1, Ack),
        d(P1, P1, Update),
        d(P1, P1, Ack),
        // p1 flips the coin (the kernel resolves the random step), writes C
        // (atomic) and halts.
        Step::Prog(P1),
        Step::Prog(P1),
        Step::Prog(P1),
    ]
}

/// Continuation for coin = 0: make `u1 = 0` and `u2 = 1`.
fn case_zero() -> Vec<Step> {
    use MsgKind::*;
    vec![
        // p0's second query reply comes from p2 with (⊥, (0,0)) — p2 has
        // not received p1's update. p0 adopts (1, 0) and updates.
        d(P0, P2, Query),
        d(P2, P0, Reply),
        // p0's update is installed at p0 (where (1,1) already wins) and at
        // p2 (which now holds (0, (1,0))); two acks complete the Write.
        d(P0, P0, Update),
        d(P0, P0, Ack),
        d(P0, P2, Update),
        d(P2, P0, Ack),
        // p2's own reply to its pending Read now carries (0, (1,0)): the
        // Read adopts value 0, writes back, and returns u1 = 0.
        d(P2, P2, Query),
        d(P2, P2, Reply),
        d(P2, P0, Update),
        d(P0, P2, Ack),
        d(P2, P2, Update),
        d(P2, P2, Ack),
        // Drain the read's leftover write-back copy to p1 so it cannot be
        // confused with the second Read's write-back below (its ack is
        // stale and is purged on arrival).
        d(P2, P1, Update),
        // p2's second Read queries p0 and p1, both holding (1, (1,1)):
        // u2 = 1.
        Step::Prog(P2),
        d(P2, P0, Query),
        d(P0, P2, Reply),
        d(P2, P1, Query),
        d(P1, P2, Reply),
        d(P2, P0, Update),
        d(P0, P2, Ack),
        d(P2, P1, Update),
        d(P1, P2, Ack),
        // p2 reads C (atomic, c = 0) and evaluates: 0 = c and 1 = 1 − c —
        // loop forever.
        Step::Prog(P2),
        Step::Prog(P2),
    ]
}

/// Continuation for coin = 1: make `u1 = 1` and `u2 = 0`.
fn case_one() -> Vec<Step> {
    use MsgKind::*;
    vec![
        // p0's second reply comes from p1 with (1, (1,1)): p0 adopts
        // timestamp (2, 0) for its value 0.
        d(P0, P1, Query),
        d(P1, P0, Reply),
        // p2's pending Read gets its second reply from p1 with (1, (1,1)):
        // it adopts value 1, writes back to p0 and p1, and returns u1 = 1.
        d(P2, P1, Query),
        d(P1, P2, Reply),
        d(P2, P0, Update),
        d(P0, P2, Ack),
        d(P2, P1, Update),
        d(P1, P2, Ack),
        // Now p0's update (0, (2,0)) reaches p0 and p1; its Write completes.
        d(P0, P0, Update),
        d(P0, P0, Ack),
        d(P0, P1, Update),
        d(P1, P0, Ack),
        // p2's second Read sees (0, (2,0)) at p0 and p1: u2 = 0.
        Step::Prog(P2),
        d(P2, P0, Query),
        d(P0, P2, Reply),
        d(P2, P1, Query),
        d(P1, P2, Reply),
        d(P2, P0, Update),
        d(P0, P2, Ack),
        d(P2, P1, Update),
        d(P1, P2, Ack),
        // p2 reads C (c = 1): 1 = c and 0 = 1 − c — loop forever.
        Step::Prog(P2),
        Step::Prog(P2),
    ]
}

/// The Figure 1 schedule for the given observed coin value (`0` or `1`),
/// for the `R = ABD¹`, `C` atomic configuration
/// ([`blunt_abd::scenarios::weakener_abd`]`(1)`).
///
/// # Panics
///
/// Panics if `coin` is not 0 or 1.
#[must_use]
pub fn fig1_script(coin: usize) -> AbdScript {
    let mut steps = prefix();
    match coin {
        0 => steps.extend(case_zero()),
        1 => steps.extend(case_one()),
        other => panic!("the weakener's coin is binary; got {other}"),
    }
    AbdScript::new(steps)
}

/// The Figure 1 schedule for the paper's **literal** configuration in which
/// both `R` and `C` are ABD registers
/// ([`blunt_abd::scenarios::weakener_abd_full`]`(1)`): the interactions with
/// `C` are uncontested full ABD exchanges scheduled eagerly; the attack on
/// `R` is unchanged.
///
/// # Panics
///
/// Panics if `coin` is not 0 or 1.
#[must_use]
pub fn fig1_script_full(coin: usize) -> AbdScript {
    let mut steps = prefix();
    // prefix() ends with [Prog(p1): coin, Prog(p1): write C, Prog(p1): halt]
    // where the C write was atomic; replace the last two steps with a full
    // ABD exchange on C.
    steps.truncate(steps.len() - 2);
    steps.push(Step::Prog(P1)); // invoke Write(C, coin)
    steps.extend(c_op(P1, P0));
    steps.push(Step::Prog(P1)); // halt

    let mut cont = match coin {
        0 => case_zero(),
        1 => case_one(),
        other => panic!("the weakener's coin is binary; got {other}"),
    };
    // The continuations end with [Prog(p2): read C, Prog(p2): decide].
    cont.truncate(cont.len() - 2);
    steps.extend(cont);
    steps.push(Step::Prog(P2)); // invoke Read(C)
    steps.extend(c_op(P2, P0));
    steps.push(Step::Prog(P2)); // evaluate: loop forever
    AbdScript::new(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_abd::scenarios::weakener_abd;
    use blunt_core::ids::Pid;
    use blunt_programs::weakener::is_bad;
    use blunt_programs::ProcMode;
    use blunt_sim::kernel::run;
    use blunt_sim::rng::Tape;

    #[test]
    fn fig1_forces_nontermination_for_both_coin_values() {
        for coin in 0..2 {
            let mut sched = fig1_script(coin);
            let report = run(
                weakener_abd(1),
                &mut sched,
                &mut Tape::new(vec![coin]),
                true,
                10_000,
            )
            .unwrap_or_else(|e| panic!("coin {coin}: {e}"));
            assert!(
                is_bad(&report.outcome),
                "coin {coin}: adversary failed; outcome {}",
                report.outcome
            );
        }
    }

    #[test]
    fn fig1_case_zero_reads_zero_then_one() {
        let mut sched = fig1_script(0);
        let report = run(
            weakener_abd(1),
            &mut sched,
            &mut Tape::new(vec![0]),
            true,
            10_000,
        )
        .unwrap();
        use blunt_core::value::Val;
        use blunt_programs::weakener::{site_c, site_u1, site_u2};
        assert_eq!(report.outcome.get(&site_u1()), Some(&Val::Int(0)));
        assert_eq!(report.outcome.get(&site_u2()), Some(&Val::Int(1)));
        assert_eq!(report.outcome.get(&site_c()), Some(&Val::Int(0)));
    }

    #[test]
    fn fig1_case_one_reads_one_then_zero() {
        let mut sched = fig1_script(1);
        let report = run(
            weakener_abd(1),
            &mut sched,
            &mut Tape::new(vec![1]),
            true,
            10_000,
        )
        .unwrap();
        use blunt_core::value::Val;
        use blunt_programs::weakener::{site_c, site_u1, site_u2};
        assert_eq!(report.outcome.get(&site_u1()), Some(&Val::Int(1)));
        assert_eq!(report.outcome.get(&site_u2()), Some(&Val::Int(0)));
        assert_eq!(report.outcome.get(&site_c()), Some(&Val::Int(1)));
    }

    #[test]
    fn fig1_leaves_p2_looping_forever() {
        let mut sched = fig1_script(0);
        // Run manually to inspect final program modes.
        let report = run(
            weakener_abd(1),
            &mut sched,
            &mut Tape::new(vec![0]),
            true,
            10_000,
        )
        .unwrap();
        // The trace must show p2 entering its absorbing loop.
        let looped = report.trace.events().iter().any(|e| {
            matches!(e, blunt_sim::trace::TraceEvent::Internal { pid, label }
                if *pid == Pid(2) && label == "loop forever")
        });
        assert!(looped, "p2 must loop forever");
        let _ = ProcMode::Looping; // referenced for reader clarity
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_coin_panics() {
        let _ = fig1_script(2);
    }
}

#[cfg(test)]
mod full_config_tests {
    use super::*;
    use blunt_abd::scenarios::weakener_abd_full;
    use blunt_programs::weakener::is_bad;
    use blunt_sim::kernel::run;
    use blunt_sim::rng::Tape;

    #[test]
    fn fig1_full_configuration_forces_nontermination_for_both_coins() {
        // The paper's literal setup: BOTH registers are ABD.
        for coin in 0..2usize {
            let mut sched = fig1_script_full(coin);
            let report = run(
                weakener_abd_full(1),
                &mut sched,
                &mut Tape::new(vec![coin]),
                true,
                10_000,
            )
            .unwrap_or_else(|e| panic!("coin {coin}: {e}"));
            assert!(
                is_bad(&report.outcome),
                "coin {coin}: adversary failed; outcome {}",
                report.outcome
            );
        }
    }

    #[test]
    fn fig1_full_reads_the_coin_through_abd() {
        use blunt_core::value::Val;
        use blunt_programs::weakener::site_c;
        for coin in 0..2usize {
            let mut sched = fig1_script_full(coin);
            let report = run(
                weakener_abd_full(1),
                &mut sched,
                &mut Tape::new(vec![coin]),
                true,
                10_000,
            )
            .unwrap();
            assert_eq!(
                report.outcome.get(&site_c()),
                Some(&Val::Int(coin as i64)),
                "p2 must read the flipped coin through the ABD-implemented C"
            );
        }
    }
}
