//! The online linearizability monitor: a streaming zone check for registers
//! whose write values are unique.
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
//! **Zones.** The check is Gibbons–Korach's (*Testing shared memories*, SIAM
//! J. Comput. 1997) in the zone form of Golab–Li–Shah (PODC 2011). Time is
//! the position in this monitor's action stream. A *cluster* is one write
//! plus the reads that returned its value; the initial value is a write at
//! position 0. A cluster's zone runs from `f`, its earliest member return,
//! to `s`, its latest member call. Two clusters *conflict* when each has a
//! member that returned before a member of the other was called (`f₁ < s₂`
//! and `f₂ < s₁`: two forward zones overlap, or a backward zone lies inside
//! a forward one) — each would have to be linearized before the other. A
//! register history whose write values are unique is linearizable iff no
//! two clusters conflict and every read returns a value whose write was
//! called before the read returned. Pending reads constrain nothing; a
//! pending write counts once some read has returned its value.
//!
//! Zones only change when a member returns, so that is when the monitor
//! checks — the changed cluster against every cluster it holds — and it
//! flags the return itself, with a window of at most seven operations: the
//! witnesses that set both clusters' ends, their writes, and the offender.
//!
//! **Closing and forgetting.** A cluster *closes* once a write invoked after
//! its `f` has returned and every read pending at that return has returned:
//! any later read was called after that write returned, so a read of the
//! closed value is a violation by itself. A closed cluster is *remembered*
//! until its `s` lies below every live cluster's `f` (a live cluster with no
//! returned member counts as now): a conflict with it needs the other
//! cluster's `f` below its `s`, and from then on no current or future
//! cluster has one. So what the monitor holds per register is the clusters
//! of the writes in flight plus a few recent ones, not the run's length
//! (`docs/RUNTIME.md` § *The online monitor*).

use std::collections::{BTreeSet, HashMap};

use blunt_core::history::{Action, History};
use blunt_core::ids::{InvId, MethodId, ObjId};
use blunt_core::value::Val;
use blunt_trace::{history_space_time, DiagramOptions};

/// A flagged violation: the offending window and its rendering.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The register whose history stopped linearizing.
    pub obj: ObjId,
    /// Position of the offending return in the monitor's action stream.
    pub at: u64,
    /// The non-linearizable window: the offending operation and the
    /// witnesses it conflicts with.
    pub window: History,
    /// The window rendered as a space-time diagram
    /// ([`blunt_trace::history_space_time`]).
    pub rendered: String,
}

/// What the monitor concluded, reported after the run.
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// Returns checked and accepted.
    pub checked: u64,
    /// Violations found (checking continues past the first).
    pub violations: Vec<Violation>,
    /// Never set: the zone check has no window to overflow. Kept while the
    /// benchmark still reads it.
    pub overflowed: bool,
}

impl MonitorReport {
    /// `true` when no return was flagged.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An operation as the monitor saw it: its call and, once it has come, its
/// return value, each at its stream position.
#[derive(Clone, Debug)]
struct Op {
    call: (u64, Action),
    ret: Option<(u64, Val)>,
}

impl Op {
    /// The value written; `None` for a read.
    fn written(&self) -> Option<&Val> {
        match &self.call.1 {
            Action::Call { method, arg, .. } if *method == MethodId::WRITE => Some(arg),
            _ => None,
        }
    }
}

/// One write and the reads that returned its value.
#[derive(Default)]
struct Cluster {
    val: Val,
    /// The write, its return filled in when it comes; `None` for the
    /// initial value, written at position 0.
    write: Option<Op>,
    /// `f`, the earliest member return, and the read that made it (`None`:
    /// the write did). `None` until a member returns.
    f: Option<(u64, Option<Op>)>,
    /// `s`, the latest member call, and the read that made it (`None`: the
    /// write did, or nobody — the initial value at 0).
    s: (u64, Option<Op>),
    /// The first write invoked after `f` to return.
    closing: Option<Op>,
    closed: bool,
}

impl Cluster {
    /// `(f, s)`, once a member has returned.
    fn zone(&self) -> Option<(u64, u64)> {
        self.f.as_ref().map(|(f, _)| (*f, self.s.0))
    }

    /// The write and the reads that set `f` and `s`.
    fn witnesses(&self) -> impl Iterator<Item = &Op> {
        let f = self.f.as_ref().and_then(|(_, op)| op.as_ref());
        self.write.iter().chain(f).chain(self.s.1.as_ref())
    }
}

/// Each member of `a` must precede some member of `b` and vice versa.
fn conflict(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// One register's clusters, live and remembered, in creation order.
struct Register {
    clusters: Vec<Cluster>,
    /// Call positions of the reads pending on this register.
    pending_reads: BTreeSet<u64>,
}

/// The streaming checker. Feed it actions in observation order via
/// [`OnlineMonitor::observe`]; collect the verdict with
/// [`OnlineMonitor::finish`].
pub struct OnlineMonitor {
    initial: Val,
    lanes: usize,
    /// Stream position of the last action observed.
    now: u64,
    registers: HashMap<ObjId, Register>,
    /// Every invocation in flight, with its register.
    pending: HashMap<InvId, (ObjId, Op)>,
    report: MonitorReport,
}

impl OnlineMonitor {
    /// A monitor for registers initialized to `initial`, rendering
    /// violation windows over `lanes` process lanes.
    #[must_use]
    pub fn new(initial: Val, lanes: usize) -> OnlineMonitor {
        OnlineMonitor {
            initial,
            lanes,
            now: 0,
            registers: HashMap::new(),
            pending: HashMap::new(),
            report: MonitorReport::default(),
        }
    }

    /// Live and remembered clusters, summed over registers: what the
    /// monitor holds besides the invocations in flight.
    #[must_use]
    pub fn clusters_held(&self) -> usize {
        self.registers.values().map(|r| r.clusters.len()).sum()
    }

    /// The violations flagged so far, windows included — readable mid-run,
    /// before [`Self::finish`].
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.report.violations
    }

    /// Feeds one observed action. Returns `false` iff the action was a
    /// return that broke linearizability (the violation is also recorded
    /// in the report; observation may continue).
    ///
    /// # Panics
    ///
    /// Panics if a write's value was already written to, or is the
    /// initial value of, its register: zones need unique write values.
    pub fn observe(&mut self, action: Action) -> bool {
        self.now += 1;
        let now = self.now;
        let (obj, op) = match action {
            Action::Call { obj, .. } => {
                let op = Op {
                    call: (now, action),
                    ret: None,
                };
                self.on_call(obj, &op);
                self.pending.insert(op.call.1.inv(), (obj, op));
                blunt_obs::static_counter!("runtime.monitor.actions").inc();
                return true;
            }
            // A return whose call we never saw (pre-attach) is ignored.
            Action::Return { inv, val } => match self.pending.remove(&inv) {
                Some((obj, mut op)) => {
                    op.ret = Some((now, val));
                    (obj, op)
                }
                None => return true,
            },
        };
        blunt_obs::static_counter!("runtime.monitor.actions").inc();
        let reg = self.registers.get_mut(&obj).expect("a call made it");
        let flagged = if op.written().is_some() {
            Self::on_write_return(reg, &op)
        } else {
            reg.pending_reads.remove(&op.call.0);
            Self::on_read_return(reg, &op)
        };
        Self::settle(reg);
        match flagged {
            None => {
                self.report.checked += 1;
                true
            }
            Some(window) => {
                self.flag(obj, window);
                false
            }
        }
    }

    fn on_call(&mut self, obj: ObjId, op: &Op) {
        let initial = &self.initial;
        let reg = self.registers.entry(obj).or_insert_with(|| Register {
            clusters: vec![Cluster {
                val: initial.clone(),
                f: Some((0, None)),
                ..Cluster::default()
            }],
            pending_reads: BTreeSet::new(),
        });
        let Some(val) = op.written() else {
            reg.pending_reads.insert(op.call.0);
            return;
        };
        assert!(
            reg.clusters.iter().all(|c| c.val != *val),
            "write values must be unique per register: {val:?} on {obj:?}"
        );
        reg.clusters.push(Cluster {
            val: val.clone(),
            write: Some(op.clone()),
            s: (op.call.0, None),
            ..Cluster::default()
        });
    }

    /// A read returned: it joins its value's live cluster, or is flagged
    /// when that value has none. Returns the violation window, if any.
    fn on_read_return(reg: &mut Register, read: &Op) -> Option<Vec<Op>> {
        let (ret, val) = read.ret.as_ref().expect("a returned read");
        let Some(i) = reg.clusters.iter().position(|c| c.val == *val) else {
            // Never written, written only after this read returned, or
            // closed and forgotten: the read alone is the evidence.
            return Some(vec![read.clone()]);
        };
        let c = &mut reg.clusters[i];
        if c.closed {
            let f = c.f.as_ref().and_then(|(_, op)| op.as_ref());
            let evidence = c.write.iter().chain(f).chain(c.closing.as_ref());
            return Some(evidence.chain([read]).cloned().collect());
        }
        let old = c.zone();
        c.f.get_or_insert_with(|| (*ret, Some(read.clone())));
        if read.call.0 > c.s.0 {
            c.s = (read.call.0, Some(read.clone()));
        }
        Self::new_conflict(reg, i, old)
    }

    /// A write returned: it may set its own cluster's `f`, and it starts
    /// closing every live cluster whose `f` precedes its call.
    fn on_write_return(reg: &mut Register, write: &Op) -> Option<Vec<Op>> {
        let val = write.written();
        let mut flagged = None;
        if let Some(i) = reg.clusters.iter().position(|c| Some(&c.val) == val) {
            let c = &mut reg.clusters[i];
            c.write = Some(write.clone());
            if c.f.is_none() {
                c.f = Some((write.ret.as_ref().expect("a returned write").0, None));
                flagged = Self::new_conflict(reg, i, None);
            }
        }
        for c in &mut reg.clusters {
            let before = c.f.as_ref().is_some_and(|(f, _)| *f < write.call.0);
            if before && Some(&c.val) != val && c.closing.is_none() {
                c.closing = Some(write.clone());
            }
        }
        flagged
    }

    /// Cluster `i`'s zone just moved from `old`: the window of the first
    /// cluster it now conflicts with and did not before, if any.
    fn new_conflict(reg: &Register, i: usize, old: Option<(u64, u64)>) -> Option<Vec<Op>> {
        let c = &reg.clusters[i];
        let zone = c.zone().expect("a member returned");
        let other = reg.clusters.iter().enumerate().find(|(j, d)| {
            *j != i
                && d.zone()
                    .is_some_and(|z| conflict(zone, z) && !old.is_some_and(|o| conflict(o, z)))
        })?;
        Some(c.witnesses().chain(other.1.witnesses()).cloned().collect())
    }

    /// Closes the clusters no pending read can join any more, then forgets
    /// the closed ones no cluster can conflict with. The initial value's
    /// cluster stays: a stale read of it needs its closing write as
    /// evidence.
    fn settle(reg: &mut Register) {
        let oldest_read = reg.pending_reads.first().copied().unwrap_or(u64::MAX);
        for c in &mut reg.clusters {
            let closing = c.closing.as_ref().and_then(|w| w.ret.as_ref());
            c.closed |= closing.is_some_and(|(at, _)| *at < oldest_read);
        }
        let live_f = reg
            .clusters
            .iter()
            .filter(|c| !c.closed)
            .filter_map(|c| c.f.as_ref().map(|(f, _)| *f))
            .min()
            .unwrap_or(u64::MAX);
        reg.clusters
            .retain(|c| !c.closed || c.write.is_none() || c.s.0 >= live_f);
    }

    fn flag(&mut self, obj: ObjId, mut ops: Vec<Op>) {
        blunt_obs::static_counter!("runtime.monitor.violations").inc();
        ops.sort_by_key(|op| op.call.0);
        ops.dedup_by_key(|op| op.call.0);
        let mut actions = Vec::with_capacity(2 * ops.len());
        for Op { call, ret } in ops {
            let inv = call.1.inv();
            actions.push(call);
            actions.extend(ret.map(|(at, val)| (at, Action::Return { inv, val })));
        }
        actions.sort_by_key(|(at, _)| *at);
        let window: History = actions.into_iter().map(|(_, a)| a).collect();
        let rendered = history_space_time(&window, self.lanes, &DiagramOptions::default());
        self.report.violations.push(Violation {
            obj,
            at: self.now,
            window,
            rendered,
        });
    }

    /// Returns the verdict. Every check ran at a return; operations still
    /// pending constrain nothing.
    #[must_use]
    pub fn finish(self) -> MonitorReport {
        self.report
    }
}
