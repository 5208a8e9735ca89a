//! The (tail) strong linearizability checker.
//!
//! Given an [`ExecTree`] and a deterministic sequential specification, decide
//! whether there is a **prefix-preserving** function `f` mapping each
//! Π-complete node `e` to a linearization `f(e)` of its history:
//!
//! - `hist(e) ⊑ f(e)`: `f(e)` contains every invocation completed in `e`
//!   (and possibly some pending ones), respects the real-time order, and the
//!   specification accepts its values;
//! - if `e₁` is a prefix of `e₂`, then `f(e₁)` is a prefix of `f(e₂)`.
//!
//! The search is AND–OR: at each complete node the checker *chooses* how to
//! extend the inherited linearization (existential), and the choice must
//! work for *all* children (universal). Incomplete nodes pass the inherited
//! linearization through unchanged — `f` is simply not defined on them,
//! which is exactly the relaxation tail strong linearizability grants.
//!
//! With the trivial preamble predicate (every node complete) this decides
//! plain strong linearizability; with a protocol's real preamble markers it
//! decides tail strong linearizability w.r.t. that `Π`.

use crate::tree::{ExecTree, NodeId};
use blunt_core::history::InvocationRecord;
use blunt_core::ids::InvId;
use blunt_core::spec::SequentialSpec;
use std::collections::BTreeSet;

struct Checker<'a, S: SequentialSpec> {
    tree: &'a ExecTree,
    spec: &'a S,
    /// Tree nodes visited / extension-search states tried, in `Cell`s
    /// because the AND–OR recursion takes `&self`; flushed to the global
    /// registry once per [`check_strong`] call.
    nodes_visited: std::cell::Cell<u64>,
    extensions_tried: std::cell::Cell<u64>,
}

impl<'a, S: SequentialSpec> Checker<'a, S> {
    /// Tries to satisfy node `id` and its whole subtree, given the
    /// linearization `sigma` — ordered (invocation, destined return value)
    /// pairs — committed by the nearest complete ancestor, and the spec
    /// state after `sigma`.
    fn node_ok(
        &self,
        id: NodeId,
        sigma: &[(InvId, blunt_core::value::Val)],
        state: &S::State,
    ) -> bool {
        self.nodes_visited.set(self.nodes_visited.get() + 1);
        let node = self.tree.node(id);
        if !node.complete {
            // f is not defined here; children inherit sigma directly.
            return node.children.iter().all(|&c| self.node_ok(c, sigma, state));
        }
        let history = self.tree.history_at(id);
        let ops = history.invocations();
        // An op linearized while pending was assigned its *destined* value
        // by the specification; if it has since returned with a different
        // value, this committed prefix cannot serve this subtree.
        for (inv, destined) in sigma {
            if let Some(op) = ops.iter().find(|o| o.inv == *inv) {
                if let Some(actual) = &op.ret {
                    if actual != destined {
                        return false;
                    }
                }
            }
        }
        let in_sigma: BTreeSet<InvId> = sigma.iter().map(|(i, _)| *i).collect();
        self.extend_ok(id, &ops, sigma.to_vec(), in_sigma, state.clone())
    }

    /// Extension search at a complete node: append zero or more ops to the
    /// inherited linearization; once every completed-but-unplaced op is
    /// placed, the children may be attempted.
    fn extend_ok(
        &self,
        id: NodeId,
        ops: &[InvocationRecord],
        sigma: Vec<(InvId, blunt_core::value::Val)>,
        placed: BTreeSet<InvId>,
        state: S::State,
    ) -> bool {
        self.extensions_tried.set(self.extensions_tried.get() + 1);
        let node = self.tree.node(id);
        // May we stop extending here? Only if every completed op is placed.
        let all_completed_placed = ops
            .iter()
            .all(|o| o.ret_pos.is_none() || placed.contains(&o.inv));
        if all_completed_placed {
            let ok_children = node
                .children
                .iter()
                .all(|&c| self.node_ok(c, &sigma, &state));
            if ok_children {
                return true;
            }
        }
        // Otherwise (or if stopping failed), try appending one more op.
        // Candidate rule: an unplaced op may be appended iff every op whose
        // return precedes its call is already placed.
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
            let Some((next_state, val)) = self.spec.apply(&state, o.method, &o.arg) else {
                continue;
            };
            if let Some(actual) = &o.ret {
                if *actual != val {
                    continue;
                }
            }
            let mut sigma2 = sigma.clone();
            sigma2.push((o.inv, val));
            let mut placed2 = placed.clone();
            placed2.insert(o.inv);
            if self.extend_ok(id, ops, sigma2, placed2, next_state) {
                return true;
            }
        }
        false
    }
}

/// Decides whether the execution tree is (tail) strongly linearizable
/// w.r.t. `spec`.
///
/// The tree's completeness flags (set by [`ExecTree::build`]'s preamble
/// predicate) determine which notion is decided: all-complete ⇒ plain
/// strong linearizability; Π-completeness ⇒ tail strong linearizability
/// w.r.t. Π.
#[must_use]
pub fn check_strong<S: SequentialSpec>(tree: &ExecTree, spec: &S) -> bool {
    let checker = Checker {
        tree,
        spec,
        nodes_visited: std::cell::Cell::new(0),
        extensions_tried: std::cell::Cell::new(0),
    };
    let ok = checker.node_ok(tree.root(), &[], &spec.init());
    blunt_obs::static_counter!("lincheck.strong.checks").inc();
    blunt_obs::static_counter!("lincheck.strong.nodes_visited").add(checker.nodes_visited.get());
    blunt_obs::static_counter!("lincheck.strong.extensions_tried")
        .add(checker.extensions_tried.get());
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ExecTree;
    use blunt_core::ids::{CallSite, MethodId, ObjId, Pid};
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

    fn preamble_ev(inv: u64) -> TraceEvent {
        TraceEvent::PreamblePassed {
            inv: InvId(inv),
            pid: Pid((inv % 3) as u32),
            iteration: 1,
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

    /// The classic witness that ABD-style behaviour is not strongly
    /// linearizable, in the shape of the paper's Figure 1:
    ///
    /// Common prefix `e`: W0 = Write(0) pending, W1 = Write(1) returned,
    /// R = Read pending (R's call precedes W1's return).
    ///
    /// - Branch A: R returns 0, then a second read R2 returns 1
    ///   ⇒ forces W0 < R < W1.
    /// - Branch B: R returns 1, then R2 returns 0
    ///   ⇒ forces W1 < R and W1 < W0.
    ///
    /// Any prefix-preserving f must commit at `e` to a linearization that is
    /// a prefix of both branch linearizations — impossible, since branch A
    /// needs W0 and R *before* W1 while branch B needs W1 first.
    fn fig1_witness_traces() -> Vec<Trace> {
        // Invocations: 0 = W0 (Write 0), 1 = W1 (Write 1), 2 = R, 3 = R2.
        let prefix = vec![
            call_ev(0, MethodId::WRITE, Val::Int(0)),
            call_ev(1, MethodId::WRITE, Val::Int(1)),
            call_ev(2, MethodId::READ, Val::Nil),
            ret_ev(1, Val::Nil), // W1 returns; W0 and R still pending
        ];
        let mut branch_a = prefix.clone();
        branch_a.extend(vec![
            ret_ev(2, Val::Int(0)), // R = 0
            ret_ev(0, Val::Nil),    // W0 returns
            call_ev(3, MethodId::READ, Val::Nil),
            ret_ev(3, Val::Int(1)), // R2 = 1
        ]);
        let mut branch_b = prefix.clone();
        branch_b.extend(vec![
            ret_ev(2, Val::Int(1)), // R = 1
            ret_ev(0, Val::Nil),    // W0 returns
            call_ev(3, MethodId::READ, Val::Nil),
            ret_ev(3, Val::Int(0)), // R2 = 0
        ]);
        vec![trace(branch_a), trace(branch_b)]
    }

    #[test]
    fn single_sequential_trace_is_strongly_linearizable() {
        let t = trace(vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            ret_ev(0, Val::Nil),
            call_ev(1, MethodId::READ, Val::Nil),
            ret_ev(1, Val::Int(1)),
        ]);
        let tree = ExecTree::build(&[t], ObjId(0), |_| false);
        assert!(check_strong(&tree, &reg()));
    }

    #[test]
    fn fig1_witness_refutes_strong_linearizability() {
        let tree = ExecTree::build(&fig1_witness_traces(), ObjId(0), |_| false);
        assert!(
            !check_strong(&tree, &reg()),
            "the Figure 1 branch pair admits no prefix-preserving linearization"
        );
    }

    #[test]
    fn fig1_witness_with_preambles_is_tail_strongly_linearizable() {
        // Under Π_ABD the pending operations in the common prefix have NOT
        // passed their preambles (no PreamblePassed marker before the
        // branch point), so the problematic node is not Π-complete and f
        // need not commit there. The leaves are complete and each branch is
        // linearizable on its own, so the check passes.
        let traces: Vec<Trace> = fig1_witness_traces()
            .into_iter()
            .map(|t| {
                // Insert preamble markers only right before each return —
                // i.e. operations pass their query phase "late".
                let mut evs: Vec<TraceEvent> = Vec::new();
                for ev in t.events() {
                    if let TraceEvent::Return { inv, .. } = ev {
                        evs.push(preamble_ev(inv.0));
                    }
                    evs.push(ev.clone());
                }
                trace(evs)
            })
            .collect();
        let tree = ExecTree::build(&traces, ObjId(0), |m| {
            m == MethodId::READ || m == MethodId::WRITE
        });
        assert!(
            check_strong(&tree, &reg()),
            "restricted to Π-complete executions the tree is fine"
        );
    }

    #[test]
    fn early_preambles_restore_the_violation() {
        // If every operation passes its preamble immediately after its call
        // (as a strongly-linearizable implementation effectively would),
        // tail strong linearizability w.r.t. that Π coincides with strong
        // linearizability on this tree and the violation reappears.
        let traces: Vec<Trace> = fig1_witness_traces()
            .into_iter()
            .map(|t| {
                let mut evs: Vec<TraceEvent> = Vec::new();
                for ev in t.events() {
                    let call_inv = match ev {
                        TraceEvent::Call { inv, .. } => Some(inv.0),
                        _ => None,
                    };
                    evs.push(ev.clone());
                    if let Some(i) = call_inv {
                        evs.push(preamble_ev(i));
                    }
                }
                trace(evs)
            })
            .collect();
        let tree = ExecTree::build(&traces, ObjId(0), |m| {
            m == MethodId::READ || m == MethodId::WRITE
        });
        assert!(!check_strong(&tree, &reg()));
    }

    #[test]
    fn value_mismatch_fails_even_on_a_single_trace() {
        let t = trace(vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            ret_ev(0, Val::Nil),
            call_ev(1, MethodId::READ, Val::Nil),
            ret_ev(1, Val::Int(9)),
        ]);
        let tree = ExecTree::build(&[t], ObjId(0), |_| false);
        assert!(!check_strong(&tree, &reg()));
    }

    #[test]
    fn pending_op_branches_with_different_destinies_are_fine() {
        // W pending; branch A: read returns 1 (W linearized);
        // branch B: read returns ⊥ (W not yet linearized). A prefix-
        // preserving f exists: commit nothing at the branch point.
        let prefix = vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            call_ev(1, MethodId::READ, Val::Nil),
        ];
        let mut a = prefix.clone();
        a.push(ret_ev(1, Val::Int(1)));
        let mut b = prefix;
        b.push(ret_ev(1, Val::Nil));
        let tree = ExecTree::build(&[trace(a), trace(b)], ObjId(0), |_| false);
        assert!(check_strong(&tree, &reg()));
    }

    #[test]
    fn committed_read_value_constrains_the_future() {
        // Branchless chain: read returns ⊥ while W pending, then W returns,
        // then a read returns 1 — fine (W linearizes between the reads).
        let t = trace(vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            call_ev(1, MethodId::READ, Val::Nil),
            ret_ev(1, Val::Nil),
            ret_ev(0, Val::Nil),
            call_ev(2, MethodId::READ, Val::Nil),
            ret_ev(2, Val::Int(1)),
        ]);
        let tree = ExecTree::build(&[t], ObjId(0), |_| false);
        assert!(check_strong(&tree, &reg()));

        // But returning ⊥ *after* W returned is not linearizable at all.
        let t = trace(vec![
            call_ev(0, MethodId::WRITE, Val::Int(1)),
            ret_ev(0, Val::Nil),
            call_ev(1, MethodId::READ, Val::Nil),
            ret_ev(1, Val::Nil),
        ]);
        let tree = ExecTree::build(&[t], ObjId(0), |_| false);
        assert!(!check_strong(&tree, &reg()));
    }
}
