//! Linearizability checking for a single history — the Wing–Gong search
//! with Lowe-style memoization.
//!
//! Given a (single-object) history and a deterministic sequential
//! specification, [`check_linearizable`] searches for a permutation of (a
//! completion of) the history that the specification accepts and that
//! preserves the real-time order between returns and calls. Pending
//! invocations may be completed (assigned their destined spec value) or
//! dropped — both are explored.
//!
//! Multi-object histories should be projected per object first
//! ([`blunt_core::history::History::project`]); linearizability is local, so
//! checking each projection suffices.

use blunt_core::history::{Action, History, InvocationRecord};
use blunt_core::ids::InvId;
use blunt_core::spec::SequentialSpec;
use std::collections::HashSet;

/// The verdict of a linearizability check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinResult {
    /// A witness linearization, as the order of invocation ids (pending
    /// invocations that were dropped do not appear).
    Linearizable(Vec<InvId>),
    /// No linearization exists.
    NotLinearizable,
}

impl LinResult {
    /// Returns `true` if the history is linearizable.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, LinResult::Linearizable(_))
    }
}

struct Op {
    rec: InvocationRecord,
    call_pos: usize,
    ret_pos: Option<usize>,
}

struct Search<'a, S: SequentialSpec> {
    spec: &'a S,
    ops: Vec<Op>,
    /// Failed (linearized-mask, dropped-mask, state) combinations.
    seen: HashSet<(u64, u64, S::State)>,
    /// Search nodes entered (accumulated locally, flushed to the global
    /// registry once per check — a per-node atomic would dominate the
    /// search's own work).
    states: u64,
    /// Nodes cut off by the memoization table.
    memo_prunes: u64,
}

impl<'a, S: SequentialSpec> Search<'a, S> {
    /// `linearized`: ops already placed; `dropped`: pending ops decided to
    /// be removed. Returns a witness order (reversed) on success.
    fn go(
        &mut self,
        linearized: u64,
        dropped: u64,
        state: &S::State,
        witness: &mut Vec<InvId>,
    ) -> bool {
        let done = linearized | dropped;
        self.states += 1;
        if done == (1u64 << self.ops.len()) - 1 {
            return true;
        }
        if !self.seen.insert((linearized, dropped, state.clone())) {
            self.memo_prunes += 1;
            return false;
        }
        let frontier = self.frontier(done);
        for i in 0..self.ops.len() {
            let bit = 1u64 << i;
            if done & bit != 0 || self.ops[i].call_pos > frontier {
                continue;
            }
            let op = &self.ops[i];
            // Try linearizing op i next.
            if let Some((next, val)) = self.spec.apply(state, op.rec.method, &op.rec.arg) {
                let matches = match &op.rec.ret {
                    Some(actual) => *actual == val,
                    None => true, // pending: destined value is free
                };
                if matches {
                    witness.push(op.rec.inv);
                    if self.go(linearized | bit, dropped, &next, witness) {
                        return true;
                    }
                    witness.pop();
                }
            }
            // If pending, also try dropping it.
            if self.ops[i].ret_pos.is_none() && self.go(linearized, dropped | bit, state, witness) {
                return true;
            }
        }
        false
    }

    /// The linearization frontier: the earliest return position among
    /// unplaced completed ops. An op whose call is after that return cannot
    /// be linearized next (the completed op must precede it).
    fn frontier(&self, done: u64) -> usize {
        self.ops
            .iter()
            .enumerate()
            .filter(|(i, o)| done & (1 << i) == 0 && o.ret_pos.is_some())
            .map(|(_, o)| o.ret_pos.unwrap())
            .min()
            .unwrap_or(usize::MAX)
    }
}

/// Checks whether `history` is linearizable w.r.t. `spec`.
///
/// # Panics
///
/// Panics if the history is not well-formed or has more than 64
/// invocations (the bitmask width; far beyond any history produced here).
#[must_use]
pub fn check_linearizable<S: SequentialSpec>(history: &History, spec: &S) -> LinResult {
    let mut search = Search {
        spec,
        ops: build_ops(history),
        seen: HashSet::new(),
        states: 0,
        memo_prunes: 0,
    };
    let mut witness = Vec::new();
    let ok = search.go(0, 0, &spec.init(), &mut witness);
    flush_counters(search.states, search.memo_prunes);
    if ok {
        LinResult::Linearizable(witness)
    } else {
        LinResult::NotLinearizable
    }
}

fn build_ops(history: &History) -> Vec<Op> {
    assert!(history.is_well_formed(), "history must be well-formed");
    let recs = history.invocations();
    assert!(recs.len() <= 64, "history too large for the checker");

    // Recover call/return positions.
    let mut ops: Vec<Op> = Vec::with_capacity(recs.len());
    for rec in recs {
        ops.push(Op {
            rec,
            call_pos: 0,
            ret_pos: None,
        });
    }
    for (pos, action) in history.actions().iter().enumerate() {
        match action {
            Action::Call { inv, .. } => {
                if let Some(op) = ops.iter_mut().find(|o| o.rec.inv == *inv) {
                    op.call_pos = pos;
                }
            }
            Action::Return { inv, .. } => {
                if let Some(op) = ops.iter_mut().find(|o| o.rec.inv == *inv) {
                    op.ret_pos = Some(pos);
                }
            }
        }
    }
    ops
}

fn flush_counters(states: u64, memo_prunes: u64) {
    blunt_obs::static_counter!("lincheck.wgl.checks").inc();
    blunt_obs::static_counter!("lincheck.wgl.states").add(states);
    blunt_obs::static_counter!("lincheck.wgl.memo_prunes").add(memo_prunes);
    blunt_obs::static_gauge!("lincheck.wgl.states_hwm").record_max(states as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_core::ids::{MethodId, ObjId, Pid};
    use blunt_core::spec::RegisterSpec;
    use blunt_core::value::Val;

    fn call(inv: u64, pid: u32, method: MethodId, arg: Val) -> Action {
        Action::Call {
            inv: InvId(inv),
            pid: Pid(pid),
            obj: ObjId(0),
            method,
            arg,
        }
    }

    fn ret(inv: u64, val: Val) -> Action {
        Action::Return {
            inv: InvId(inv),
            val,
        }
    }

    fn reg() -> RegisterSpec {
        RegisterSpec::new(Val::Nil)
    }

    #[test]
    fn sequential_read_after_write_is_linearizable() {
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            ret(0, Val::Nil),
            call(1, 1, MethodId::READ, Val::Nil),
            ret(1, Val::Int(1)),
        ]
        .into_iter()
        .collect();
        let r = check_linearizable(&h, &reg());
        assert_eq!(r, LinResult::Linearizable(vec![InvId(0), InvId(1)]));
    }

    #[test]
    fn stale_read_after_write_returned_is_not_linearizable() {
        // Write(1) returns, then a later read returns the initial value.
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            ret(0, Val::Nil),
            call(1, 1, MethodId::READ, Val::Nil),
            ret(1, Val::Nil),
        ]
        .into_iter()
        .collect();
        assert_eq!(check_linearizable(&h, &reg()), LinResult::NotLinearizable);
    }

    #[test]
    fn overlapping_read_may_return_either_value() {
        // Read overlaps Write(1): both ⊥ and 1 are fine.
        for v in [Val::Nil, Val::Int(1)] {
            let h: History = vec![
                call(0, 0, MethodId::WRITE, Val::Int(1)),
                call(1, 1, MethodId::READ, Val::Nil),
                ret(1, v),
                ret(0, Val::Nil),
            ]
            .into_iter()
            .collect();
            assert!(check_linearizable(&h, &reg()).is_ok());
        }
        // But not an unrelated value.
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            call(1, 1, MethodId::READ, Val::Nil),
            ret(1, Val::Int(9)),
            ret(0, Val::Nil),
        ]
        .into_iter()
        .collect();
        assert_eq!(check_linearizable(&h, &reg()), LinResult::NotLinearizable);
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        // Two sequential reads observing w1 then w0 (both writes completed
        // before the reads began) — the classic non-linearizable pattern.
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(0)),
            ret(0, Val::Nil),
            call(1, 1, MethodId::WRITE, Val::Int(1)),
            ret(1, Val::Nil),
            call(2, 2, MethodId::READ, Val::Nil),
            ret(2, Val::Int(1)),
            call(3, 2, MethodId::READ, Val::Nil),
            ret(3, Val::Int(0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(check_linearizable(&h, &reg()), LinResult::NotLinearizable);
    }

    #[test]
    fn concurrent_writes_allow_either_read_order_but_not_both() {
        // W(0) ∥ W(1), then reads 0, 1 in sequence: requires W(1) to
        // linearize between the two reads — impossible once both writes
        // returned before the reads started.
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(0)),
            call(1, 1, MethodId::WRITE, Val::Int(1)),
            ret(0, Val::Nil),
            ret(1, Val::Nil),
            call(2, 2, MethodId::READ, Val::Nil),
            ret(2, Val::Int(0)),
            call(3, 2, MethodId::READ, Val::Nil),
            ret(3, Val::Int(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(check_linearizable(&h, &reg()), LinResult::NotLinearizable);

        // If the second read overlaps the writes, it becomes linearizable.
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(0)),
            call(1, 1, MethodId::WRITE, Val::Int(1)),
            call(2, 2, MethodId::READ, Val::Nil),
            ret(2, Val::Int(0)),
            call(3, 2, MethodId::READ, Val::Nil),
            ret(3, Val::Int(1)),
            ret(0, Val::Nil),
            ret(1, Val::Nil),
        ]
        .into_iter()
        .collect();
        assert!(check_linearizable(&h, &reg()).is_ok());
    }

    #[test]
    fn pending_write_may_take_effect_or_not() {
        // A pending Write(1) justifies a read of 1...
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            call(1, 1, MethodId::READ, Val::Nil),
            ret(1, Val::Int(1)),
        ]
        .into_iter()
        .collect();
        assert!(check_linearizable(&h, &reg()).is_ok());

        // ...and equally a read of ⊥ (the write is dropped).
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            call(1, 1, MethodId::READ, Val::Nil),
            ret(1, Val::Nil),
        ]
        .into_iter()
        .collect();
        assert!(check_linearizable(&h, &reg()).is_ok());
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h = History::new();
        assert_eq!(
            check_linearizable(&h, &reg()),
            LinResult::Linearizable(vec![])
        );
    }

    #[test]
    fn witness_respects_real_time_order() {
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            ret(0, Val::Nil),
            call(1, 1, MethodId::WRITE, Val::Int(2)),
            ret(1, Val::Nil),
            call(2, 2, MethodId::READ, Val::Nil),
            ret(2, Val::Int(2)),
        ]
        .into_iter()
        .collect();
        match check_linearizable(&h, &reg()) {
            LinResult::Linearizable(w) => {
                assert_eq!(w, vec![InvId(0), InvId(1), InvId(2)]);
            }
            LinResult::NotLinearizable => panic!("must be linearizable"),
        }
    }

    #[test]
    fn counter_spec_histories_also_check() {
        use blunt_core::spec::CounterSpec;
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Nil),
            call(1, 1, MethodId::WRITE, Val::Nil),
            ret(0, Val::Nil),
            ret(1, Val::Nil),
            call(2, 2, MethodId::READ, Val::Nil),
            ret(2, Val::Int(2)),
        ]
        .into_iter()
        .collect();
        assert!(check_linearizable(&h, &CounterSpec).is_ok());

        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Nil),
            ret(0, Val::Nil),
            call(2, 2, MethodId::READ, Val::Nil),
            ret(2, Val::Int(5)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            check_linearizable(&h, &CounterSpec),
            LinResult::NotLinearizable
        );
    }
}
