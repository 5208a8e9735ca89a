//! The online linearizability monitor.
//!
//! Client threads report their operations as [`Action`]s over one shared
//! mpsc channel. mpsc enqueue order is a real-time-consistent total order
//! (the channel itself is linearizable), and clients enqueue `Call` *before*
//! the first protocol broadcast and `Return` *after* the quorum completes —
//! so the observed interval of every operation contains its true interval,
//! and any linearization of the observed history is a linearization of the
//! true one: the monitor raises no false alarms. The argument is about the
//! order of the enqueues only, not about when they are consumed: the thread
//! that runs this monitor is woken once a burst rather than once an action
//! (`crate::workload::MonitorFeed`), and sees the same history a burst
//! later.
//!
//! Long runs are checked incrementally by splitting each object's history
//! at **cuts** — points where that object has no pending invocation. Cuts
//! respect real-time order, so any linearization of the whole history is a
//! concatenation of per-segment linearizations, and the whole is
//! linearizable iff there is a *chain of object states* through the
//! segments. Overlapping operations can leave several valid final states
//! (two concurrent writes commute), so the monitor threads the full set of
//! feasible states ([`feasible_final_states`]) rather than one witness's
//! choice — committing a single witness would falsely flag a later read
//! that observed the other order. The workload driver guarantees cuts by
//! running clients in barrier-separated bursts, which also bounds segment
//! size below the checker's 64-invocation ceiling.

use std::collections::{BTreeMap, HashMap};

use blunt_core::history::{Action, History};
use blunt_core::ids::{InvId, ObjId};
use blunt_core::spec::{RegisterSpec, SequentialSpec};
use blunt_core::value::Val;
use blunt_lincheck::feasible_final_states;
use blunt_trace::{history_space_time, DiagramOptions};

/// Hard ceiling on invocations per segment (the WGL checker's bitmask
/// width).
const SEGMENT_CAP: usize = 64;

/// A flagged violation: the offending window and its rendering.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The object whose segment failed to linearize.
    pub obj: ObjId,
    /// Index of the failing segment within that object's history.
    pub segment: u64,
    /// The non-linearizable window itself.
    pub window: History,
    /// The window rendered as a space-time diagram
    /// ([`blunt_trace::history_space_time`]).
    pub rendered: String,
}

/// What the monitor concluded, reported after the run.
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// Segments checked and accepted.
    pub segments_ok: u64,
    /// Violations found (checking continues past the first).
    pub violations: Vec<Violation>,
    /// `true` if some segment exceeded `SEGMENT_CAP` without reaching a
    /// cut; the affected object's checking is disabled from that point (the
    /// driver's burst barriers make this unreachable in practice).
    pub overflowed: bool,
}

impl MonitorReport {
    /// `true` when every checked segment linearized and no window
    /// overflowed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && !self.overflowed
    }
}

struct ObjectState {
    segment: History,
    /// Invocations in the open segment (cheap stand-in for
    /// `segment.invocations().len()` on the hot path).
    invocations: usize,
    pending: usize,
    /// The feasible object states at the last cut: each is the final state
    /// of some linearization of everything committed so far.
    committed: Vec<Val>,
    segments: u64,
    disabled: bool,
}

/// The incremental checker. Feed it actions in observation order via
/// [`OnlineMonitor::observe`]; collect the verdict with
/// [`OnlineMonitor::finish`].
pub struct OnlineMonitor {
    spec: RegisterSpec,
    lanes: usize,
    objects: BTreeMap<ObjId, ObjectState>,
    /// Which object each in-flight invocation targets, so a `Return` —
    /// which carries only its [`InvId`] — routes in O(1) instead of
    /// scanning every object's open segment. Matters for keyed-store runs,
    /// where the object count is the key count, not 1.
    pending_routes: HashMap<InvId, ObjId>,
    report: MonitorReport,
}

impl OnlineMonitor {
    /// A monitor for registers initialized to `initial`, rendering
    /// violation windows over `lanes` process lanes.
    #[must_use]
    pub fn new(initial: Val, lanes: usize) -> OnlineMonitor {
        OnlineMonitor {
            spec: RegisterSpec::new(initial.clone()),
            lanes,
            objects: BTreeMap::new(),
            pending_routes: HashMap::new(),
            report: MonitorReport::default(),
        }
    }

    /// Segments checked so far (accepted *or* flagged) — advances exactly
    /// when a cut commits, so the flight recorder can stamp `monitor_cut`
    /// events without re-deriving cut boundaries.
    #[must_use]
    pub fn segments_checked(&self) -> u64 {
        self.report.segments_ok + self.violations_found()
    }

    /// Violations flagged so far.
    #[must_use]
    pub fn violations_found(&self) -> u64 {
        self.report.violations.len() as u64
    }

    /// The violations flagged so far, windows included — readable mid-run,
    /// before [`Self::finish`].
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.report.violations
    }

    /// Feeds one observed action. Returns `false` iff the action closed a
    /// segment that failed to linearize (the violation is also recorded in
    /// the report; observation may continue).
    pub fn observe(&mut self, action: Action) -> bool {
        let obj = match &action {
            Action::Call { obj, inv, .. } => {
                // Remember the target until the return arrives: a pending
                // call is always in its object's open segment (the segment
                // can't close while it is pending), so this index is
                // exactly the set the old open-segment scan searched.
                self.pending_routes.insert(*inv, *obj);
                *obj
            }
            Action::Return { inv, .. } => {
                // Route the return to the object of its pending call.
                match self.pending_routes.remove(inv) {
                    Some(o) => o,
                    // A return whose call we never saw (pre-attach): ignore.
                    None => return true,
                }
            }
        };
        let initial = self.spec.init();
        let st = self.objects.entry(obj).or_insert_with(|| ObjectState {
            segment: History::new(),
            invocations: 0,
            pending: 0,
            committed: vec![initial],
            segments: 0,
            disabled: false,
        });
        if st.disabled {
            return true;
        }
        match &action {
            Action::Call { .. } => {
                st.pending += 1;
                st.invocations += 1;
            }
            Action::Return { .. } => st.pending = st.pending.saturating_sub(1),
        }
        st.segment.push(action);
        blunt_obs::static_counter!("runtime.monitor.actions").inc();

        if st.pending == 0 {
            return Self::close_segment(&self.spec, self.lanes, obj, st, &mut self.report);
        }
        if st.invocations >= SEGMENT_CAP {
            // No cut in sight and the checker's bitmask is full: give up on
            // this object rather than report nonsense.
            st.disabled = true;
            self.report.overflowed = true;
            blunt_obs::static_counter!("runtime.monitor.windows_overflowed").inc();
        }
        true
    }

    /// Checks and commits the current segment of `obj` (called at a cut).
    fn close_segment(
        spec: &RegisterSpec,
        lanes: usize,
        obj: ObjId,
        st: &mut ObjectState,
        report: &mut MonitorReport,
    ) -> bool {
        if st.segment.is_empty() {
            return true;
        }
        let segment = std::mem::take(&mut st.segment);
        st.invocations = 0;
        let idx = st.segments;
        st.segments += 1;
        blunt_obs::static_counter!("runtime.monitor.segments").inc();
        // The segment linearizes iff it does from at least one feasible
        // state; the union of reachable finals seeds the next segment.
        let mut finals: Vec<Val> = Vec::new();
        for from in &st.committed {
            for f in feasible_final_states(&segment, spec, from.clone()) {
                if !finals.contains(&f) {
                    finals.push(f);
                }
            }
        }
        if finals.is_empty() {
            blunt_obs::static_counter!("runtime.monitor.violations").inc();
            let rendered = history_space_time(&segment, lanes, &DiagramOptions::default());
            report.violations.push(Violation {
                obj,
                segment: idx,
                window: segment,
                rendered,
            });
            // Resynchronize: keep checking later segments from the last
            // known-good feasible states.
            false
        } else {
            finals.sort();
            st.committed = finals;
            report.segments_ok += 1;
            true
        }
    }

    /// Closes any open segments (treating end-of-run as a cut for objects
    /// with no pending invocations; pending tails are checked as-is) and
    /// returns the verdict.
    #[must_use]
    pub fn finish(mut self) -> MonitorReport {
        let objs: Vec<ObjId> = self.objects.keys().copied().collect();
        for obj in objs {
            let st = self.objects.get_mut(&obj).expect("known object");
            if !st.disabled {
                Self::close_segment(&self.spec, self.lanes, obj, st, &mut self.report);
            }
        }
        self.report
    }
}
