//! Call/return actions and histories (Section 2.1 of the paper).
//!
//! The history of an execution is its projection onto call and return
//! actions. Linearizability and its strengthenings are properties of
//! histories, so this module is the interface between the simulator (which
//! produces executions) and the checkers in `blunt-lincheck`.

use crate::ids::{InvId, MethodId, ObjId, Pid};
use crate::value::Val;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A call or return action labeling a transition (Section 2.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// `call M(x)_i` — invocation `i` of method `M` with argument `x` on
    /// object `obj` by process `pid`.
    Call {
        /// Unique invocation identifier.
        inv: InvId,
        /// Invoking process.
        pid: Pid,
        /// Target object.
        obj: ObjId,
        /// Invoked method.
        method: MethodId,
        /// Argument (use [`Val::Nil`] for nullary methods).
        arg: Val,
    },
    /// `ret y_i` — invocation `i` returning value `y`.
    Return {
        /// Invocation identifier matching an earlier `Call`.
        inv: InvId,
        /// Returned value.
        val: Val,
    },
}

impl Action {
    /// The invocation identifier this action belongs to.
    #[must_use]
    pub fn inv(&self) -> InvId {
        match self {
            Action::Call { inv, .. } | Action::Return { inv, .. } => *inv,
        }
    }

    /// Returns `true` if this is a call action.
    #[must_use]
    pub fn is_call(&self) -> bool {
        matches!(self, Action::Call { .. })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Call {
                inv,
                pid,
                obj,
                method,
                arg,
            } => write!(f, "call {method}({arg})_{inv} [{pid} on {obj}]"),
            Action::Return { inv, val } => write!(f, "ret {val}_{inv}"),
        }
    }
}

/// A complete description of one invocation extracted from a history: its
/// call data, the return value if it returned, and where in the history
/// both actions sit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InvocationRecord {
    /// Unique invocation identifier.
    pub inv: InvId,
    /// Invoking process.
    pub pid: Pid,
    /// Target object.
    pub obj: ObjId,
    /// Invoked method.
    pub method: MethodId,
    /// Argument.
    pub arg: Val,
    /// Return value, if the invocation completed in this history.
    pub ret: Option<Val>,
    /// Index of the call action in the history.
    pub call_pos: usize,
    /// Index of the return action, if the invocation completed.
    pub ret_pos: Option<usize>,
}

/// A history: a finite sequence of call and return actions.
///
/// ```
/// use blunt_core::history::{Action, History};
/// use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
/// use blunt_core::value::Val;
///
/// let mut h = History::new();
/// h.push(Action::Call {
///     inv: InvId(0), pid: Pid(0), obj: ObjId(0),
///     method: MethodId::WRITE, arg: Val::Int(1),
/// });
/// h.push(Action::Return { inv: InvId(0), val: Val::Nil });
/// assert!(h.is_well_formed());
/// assert!(h.is_sequential());
/// assert!(h.pending().is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct History {
    actions: Vec<Action>,
}

impl History {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> History {
        History::default()
    }

    /// Appends an action.
    pub fn push(&mut self, a: Action) {
        self.actions.push(a);
    }

    /// The actions in order.
    #[must_use]
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if the history has no actions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Well-formedness (Section 2.1): every return is preceded by a matching
    /// call, and each invocation id has at most one call and one return.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        let mut called = BTreeSet::new();
        let mut returned = BTreeSet::new();
        for a in &self.actions {
            match a {
                Action::Call { inv, .. } => {
                    if !called.insert(*inv) {
                        return false;
                    }
                }
                Action::Return { inv, .. } => {
                    if !called.contains(inv) || !returned.insert(*inv) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Invocation ids with a call but no return (pending invocations).
    #[must_use]
    pub fn pending(&self) -> Vec<InvId> {
        let mut called: BTreeMap<InvId, ()> = BTreeMap::new();
        for a in &self.actions {
            match a {
                Action::Call { inv, .. } => {
                    called.insert(*inv, ());
                }
                Action::Return { inv, .. } => {
                    called.remove(inv);
                }
            }
        }
        called.into_keys().collect()
    }

    /// Extracts one [`InvocationRecord`] per call action, in call order.
    #[must_use]
    pub fn invocations(&self) -> Vec<InvocationRecord> {
        let mut recs: Vec<InvocationRecord> = Vec::new();
        let mut index: BTreeMap<InvId, usize> = BTreeMap::new();
        for (pos, a) in self.actions.iter().enumerate() {
            match a {
                Action::Call {
                    inv,
                    pid,
                    obj,
                    method,
                    arg,
                } => {
                    index.insert(*inv, recs.len());
                    recs.push(InvocationRecord {
                        inv: *inv,
                        pid: *pid,
                        obj: *obj,
                        method: *method,
                        arg: arg.clone(),
                        ret: None,
                        call_pos: pos,
                        ret_pos: None,
                    });
                }
                Action::Return { inv, val } => {
                    if let Some(&i) = index.get(inv) {
                        recs[i].ret = Some(val.clone());
                        recs[i].ret_pos = Some(pos);
                    }
                }
            }
        }
        recs
    }

    /// Sequentiality: every call is immediately followed by its matching
    /// return. Sequential histories are the elements of sequential
    /// specifications `Seq`.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        if !self.actions.len().is_multiple_of(2) {
            return false;
        }
        self.actions.chunks(2).all(|c| match c {
            [Action::Call { inv: i1, .. }, Action::Return { inv: i2, .. }] => i1 == i2,
            _ => false,
        })
    }

    /// Projects the history onto the call/return actions of a single object
    /// (`h|O` in Theorem 3.1, locality).
    #[must_use]
    pub fn project(&self, obj: ObjId) -> History {
        let mut owners: BTreeSet<InvId> = BTreeSet::new();
        let mut out = History::new();
        for a in &self.actions {
            match a {
                Action::Call { inv, obj: o, .. } => {
                    if *o == obj {
                        owners.insert(*inv);
                        out.push(a.clone());
                    }
                }
                Action::Return { inv, .. } => {
                    if owners.contains(inv) {
                        out.push(a.clone());
                    }
                }
            }
        }
        out
    }

    /// The object ids mentioned by call actions, in first-use order.
    #[must_use]
    pub fn objects(&self) -> Vec<ObjId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.actions {
            if let Action::Call { obj, .. } = a {
                if seen.insert(*obj) {
                    out.push(*obj);
                }
            }
        }
        out
    }

    /// Returns `true` if `self` is a prefix of `other`.
    #[must_use]
    pub fn is_prefix_of(&self, other: &History) -> bool {
        other.actions.len() >= self.actions.len()
            && other.actions[..self.actions.len()] == self.actions[..]
    }

    /// The prefix of the first `n` actions.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    #[must_use]
    pub fn prefix(&self, n: usize) -> History {
        History {
            actions: self.actions[..n].to_vec(),
        }
    }
}

impl FromIterator<Action> for History {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> History {
        History {
            actions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Action> for History {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        self.actions.extend(iter);
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Pid;

    fn call(inv: u64, obj: u32, method: MethodId, arg: Val) -> Action {
        Action::Call {
            inv: InvId(inv),
            pid: Pid(0),
            obj: ObjId(obj),
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

    #[test]
    fn well_formedness_rejects_orphan_return() {
        let h: History = vec![ret(0, Val::Nil)].into_iter().collect();
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_duplicate_call() {
        let h: History = vec![
            call(0, 0, MethodId::READ, Val::Nil),
            call(0, 0, MethodId::READ, Val::Nil),
        ]
        .into_iter()
        .collect();
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_duplicate_return() {
        let h: History = vec![
            call(0, 0, MethodId::READ, Val::Nil),
            ret(0, Val::Nil),
            ret(0, Val::Nil),
        ]
        .into_iter()
        .collect();
        assert!(!h.is_well_formed());
    }

    #[test]
    fn pending_lists_unreturned_invocations() {
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            call(1, 0, MethodId::READ, Val::Nil),
            ret(1, Val::Nil),
        ]
        .into_iter()
        .collect();
        assert_eq!(h.pending(), vec![InvId(0)]);
    }

    #[test]
    fn sequential_detection() {
        let seq: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            ret(0, Val::Nil),
            call(1, 0, MethodId::READ, Val::Nil),
            ret(1, Val::Int(1)),
        ]
        .into_iter()
        .collect();
        assert!(seq.is_sequential());

        let overlapping: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            call(1, 0, MethodId::READ, Val::Nil),
            ret(0, Val::Nil),
            ret(1, Val::Int(1)),
        ]
        .into_iter()
        .collect();
        assert!(!overlapping.is_sequential());
        assert!(overlapping.is_well_formed());
    }

    #[test]
    fn projection_keeps_only_target_object() {
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            call(1, 1, MethodId::READ, Val::Nil),
            ret(0, Val::Nil),
            ret(1, Val::Int(9)),
        ]
        .into_iter()
        .collect();
        let p = h.project(ObjId(1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.actions()[0].inv(), InvId(1));
        assert_eq!(h.objects(), vec![ObjId(0), ObjId(1)]);
    }

    #[test]
    fn prefix_relation() {
        let h: History = vec![call(0, 0, MethodId::WRITE, Val::Int(1)), ret(0, Val::Nil)]
            .into_iter()
            .collect();
        let p = h.prefix(1);
        assert!(p.is_prefix_of(&h));
        assert!(!h.is_prefix_of(&p));
        assert!(p.is_prefix_of(&p));
    }

    #[test]
    fn invocation_records_pair_calls_with_returns() {
        let h: History = vec![
            call(0, 0, MethodId::WRITE, Val::Int(1)),
            call(1, 0, MethodId::READ, Val::Nil),
            ret(1, Val::Int(1)),
        ]
        .into_iter()
        .collect();
        let recs = h.invocations();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ret, None);
        assert_eq!(recs[1].ret, Some(Val::Int(1)));
        assert_eq!(recs[1].method, MethodId::READ);
        assert_eq!((recs[0].call_pos, recs[0].ret_pos), (0, None));
        assert_eq!((recs[1].call_pos, recs[1].ret_pos), (1, Some(2)));
    }

    #[test]
    fn display_is_line_per_action() {
        let h: History = vec![call(0, 0, MethodId::WRITE, Val::Int(1)), ret(0, Val::Nil)]
            .into_iter()
            .collect();
        let s = h.to_string();
        assert!(s.contains("call Write(1)_inv0"));
        assert!(s.contains("ret ⊥_inv0"));
    }
}
