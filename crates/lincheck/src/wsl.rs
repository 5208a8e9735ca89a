//! Write strong linearizability (WSL) — the weakening of strong
//! linearizability discussed in the paper's Section 6 (Hadzilacos, Hu,
//! Toueg, PODC 2021).
//!
//! WSL requires executions to map to linearizations whose **projections
//! onto write operations** are prefix-preserving; reads may be re-linearized
//! freely between executions. The paper notes that neither the multi-writer
//! ABD nor its preamble-iterated version is WSL — which this checker
//! confirms on the Figure 1 execution tree (see the crate's tests and the
//! root-level integration tests).
//!
//! The search mirrors [`crate::strong`]: at each node, choose a
//! linearization of the node's history whose write order extends the
//! committed write order inherited from the parent (existential), such that
//! every child can extend it further (universal). Only the write order is
//! inherited — the per-node reads are re-chosen each time.

use crate::tree::{ExecTree, NodeId};
use blunt_core::history::{History, InvocationRecord};
use blunt_core::ids::{InvId, MethodId};
use blunt_core::spec::SequentialSpec;
use std::collections::BTreeSet;

/// Which methods count as *writes* for the projection.
pub type WritePredicate = fn(MethodId) -> bool;

struct Checker<'a, S: SequentialSpec> {
    tree: &'a ExecTree,
    spec: &'a S,
    is_write: WritePredicate,
    /// DFS states tried, in a `Cell` because the recursion takes `&self`;
    /// flushed to the global registry once per [`check_wsl`] call.
    states_tried: std::cell::Cell<u64>,
}

impl<'a, S: SequentialSpec> Checker<'a, S> {
    fn node_ok(&self, id: NodeId, committed: &[InvId]) -> bool {
        let history = self.tree.history_at(id);
        let ops = history.invocations();
        self.search(id, &ops, &history, committed)
    }

    /// Searches for a linearization of `history` whose write projection
    /// starts with `committed`, then recurses into children with the
    /// resulting (possibly longer) write commitment.
    fn search(
        &self,
        id: NodeId,
        ops: &[InvocationRecord],
        history: &History,
        committed: &[InvId],
    ) -> bool {
        // DFS over linearization prefixes: (placed set, spec state, how many
        // committed writes already emitted, write order emitted so far).
        self.dfs(
            id,
            ops,
            history,
            committed,
            &BTreeSet::new(),
            &self.spec.init(),
            0,
            &mut Vec::new(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        id: NodeId,
        ops: &[InvocationRecord],
        history: &History,
        committed: &[InvId],
        placed: &BTreeSet<InvId>,
        state: &S::State,
        committed_used: usize,
        writes_emitted: &mut Vec<InvId>,
    ) -> bool {
        self.states_tried.set(self.states_tried.get() + 1);
        // Stop condition: all completed ops placed AND the full committed
        // write prefix consumed — then this linearization candidate is
        // valid for the node; try the children with the emitted write order.
        let all_completed_placed = ops
            .iter()
            .all(|o| o.ret_pos.is_none() || placed.contains(&o.inv));
        if all_completed_placed && committed_used == committed.len() {
            let node = self.tree.node(id);
            if node
                .children
                .iter()
                .all(|&c| self.node_ok(c, writes_emitted))
            {
                return true;
            }
        }
        let _ = history;
        let frontier = ops
            .iter()
            .filter(|o| !placed.contains(&o.inv) && o.ret_pos.is_some())
            .map(|o| o.ret_pos.unwrap())
            .min()
            .unwrap_or(usize::MAX);
        for o in ops {
            if placed.contains(&o.inv) || o.call_pos > frontier {
                continue;
            }
            let is_w = (self.is_write)(o.method);
            if is_w {
                // Writes must follow the committed order while it lasts.
                if committed_used < committed.len() && committed[committed_used] != o.inv {
                    continue;
                }
            }
            let Some((next_state, val)) = self.spec.apply(state, o.method, &o.arg) else {
                continue;
            };
            if let Some(actual) = &o.ret {
                if *actual != val {
                    continue;
                }
            }
            let mut placed2 = placed.clone();
            placed2.insert(o.inv);
            let next_used = committed_used + usize::from(is_w && committed_used < committed.len());
            if is_w {
                writes_emitted.push(o.inv);
            }
            let ok = self.dfs(
                id,
                ops,
                history,
                committed,
                &placed2,
                &next_state,
                next_used,
                writes_emitted,
            );
            if is_w {
                writes_emitted.pop();
            }
            if ok {
                return true;
            }
        }
        false
    }
}

/// Decides write strong linearizability of the execution tree w.r.t.
/// `spec`, with `is_write` classifying the write-like methods.
///
/// Note: unlike [`crate::strong::check_strong`], completeness flags are
/// ignored — WSL is defined over all executions.
#[must_use]
pub fn check_wsl<S: SequentialSpec>(tree: &ExecTree, spec: &S, is_write: WritePredicate) -> bool {
    let checker = Checker {
        tree,
        spec,
        is_write,
        states_tried: std::cell::Cell::new(0),
    };
    let ok = checker.node_ok(tree.root(), &[]);
    blunt_obs::static_counter!("lincheck.wsl.checks").inc();
    blunt_obs::static_counter!("lincheck.wsl.states_tried").add(checker.states_tried.get());
    ok
}

/// The conventional write predicate for registers.
#[must_use]
pub fn register_writes(m: MethodId) -> bool {
    m == MethodId::WRITE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ExecTree;
    use blunt_core::ids::{CallSite, ObjId, Pid};
    use blunt_core::spec::RegisterSpec;
    use blunt_core::value::Val;
    use blunt_sim::trace::{Trace, TraceEvent};

    fn call_ev(inv: u64, method: MethodId, arg: Val) -> TraceEvent {
        TraceEvent::Call {
            inv: InvId(inv),
            pid: Pid((inv % 3) as u32),
            obj: ObjId(0),
            method,
            arg,
            site: CallSite::new(Pid(0), 1, 0),
        }
    }

    fn ret_ev(inv: u64, val: Val) -> TraceEvent {
        TraceEvent::Return {
            inv: InvId(inv),
            pid: Pid((inv % 3) as u32),
            val,
        }
    }

    fn trace(events: Vec<TraceEvent>) -> Trace {
        let mut t = Trace::new();
        t.extend(events);
        t
    }

    fn reg() -> RegisterSpec {
        RegisterSpec::new(Val::Nil)
    }

    #[test]
    fn sequential_trace_is_wsl() {
        let t = trace(vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            ret_ev(0, Val::Nil),
            call_ev(1, MethodId::READ, Val::Nil),
            ret_ev(1, Val::Int(1)),
        ]);
        let tree = ExecTree::build(&[t], ObjId(0), |_| false);
        assert!(check_wsl(&tree, &reg(), register_writes));
    }

    #[test]
    fn read_branches_are_wsl_even_when_not_strongly_linearizable() {
        // A read pending across a branch may resolve differently per branch
        // without committing any write order: WSL holds where strong
        // linearizability can fail.
        let prefix = vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            call_ev(1, MethodId::READ, Val::Nil),
        ];
        let mut a = prefix.clone();
        a.push(ret_ev(1, Val::Int(1)));
        let mut b = prefix;
        b.push(ret_ev(1, Val::Nil));
        let tree = ExecTree::build(&[trace(a), trace(b)], ObjId(0), |_| false);
        assert!(check_wsl(&tree, &reg(), register_writes));
    }

    #[test]
    fn conflicting_write_orders_refute_wsl() {
        // Two pending writes; branch A's reads force W0 < W1, branch B's
        // force W1 < W0 — both observed through reads that come AFTER the
        // branch point, so the write order must be committed at the shared
        // prefix. No write-prefix-preserving f exists.
        let prefix = vec![
            call_ev(0, MethodId::WRITE, Val::Int(0)),
            call_ev(1, MethodId::WRITE, Val::Int(1)),
            ret_ev(0, Val::Nil),
            ret_ev(1, Val::Nil),
        ];
        let mut a = prefix.clone();
        a.extend(vec![
            call_ev(2, MethodId::READ, Val::Nil),
            ret_ev(2, Val::Int(1)), // final value 1 ⇒ W0 < W1
        ]);
        let mut b = prefix;
        b.extend(vec![
            call_ev(2, MethodId::READ, Val::Nil),
            ret_ev(2, Val::Int(0)), // final value 0 ⇒ W1 < W0
        ]);
        let tree = ExecTree::build(&[trace(a), trace(b)], ObjId(0), |_| false);
        // NOTE: both writes RETURNED in the shared prefix, so f(e) must
        // already contain both — in some order — and each branch contradicts
        // one order.
        assert!(!check_wsl(&tree, &reg(), register_writes));
        // For contrast: strong linearizability fails too, a fortiori.
        assert!(!crate::strong::check_strong(&tree, &reg()));
    }

    #[test]
    fn pending_write_orders_can_stay_uncommitted() {
        // Same shape but the writes are still PENDING at the branch point
        // (a coin splits the executions before they return): f(e) may omit
        // them, and each branch linearizes them in its own order — WSL
        // holds where it failed above.
        let coin = |chosen| TraceEvent::ProgramRandom {
            pid: Pid(2),
            choices: 2,
            chosen,
        };
        let prefix = vec![
            call_ev(0, MethodId::WRITE, Val::Int(0)),
            call_ev(1, MethodId::WRITE, Val::Int(1)),
        ];
        let mut a = prefix.clone();
        a.push(coin(0));
        a.extend(vec![
            ret_ev(0, Val::Nil),
            ret_ev(1, Val::Nil),
            call_ev(2, MethodId::READ, Val::Nil),
            ret_ev(2, Val::Int(1)),
        ]);
        let mut b = prefix;
        b.push(coin(1));
        b.extend(vec![
            ret_ev(0, Val::Nil),
            ret_ev(1, Val::Nil),
            call_ev(2, MethodId::READ, Val::Nil),
            ret_ev(2, Val::Int(0)),
        ]);
        let tree = ExecTree::build(&[trace(a), trace(b)], ObjId(0), |_| false);
        assert!(check_wsl(&tree, &reg(), register_writes));
    }

    #[test]
    fn value_mismatch_refutes_wsl() {
        let t = trace(vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            ret_ev(0, Val::Nil),
            call_ev(1, MethodId::READ, Val::Nil),
            ret_ev(1, Val::Int(9)),
        ]);
        let tree = ExecTree::build(&[t], ObjId(0), |_| false);
        assert!(!check_wsl(&tree, &reg(), register_writes));
    }
}
