//! The client role of ABD: the per-operation state machine covering both
//! `Read` and `Write` of Algorithm 3 and their `k`-iterated versions of
//! Algorithm 4.
//!
//! An operation proceeds through:
//!
//! 1. `k` **query phases** (the preamble): broadcast `query`, collect a
//!    majority of replies, remember the (value, timestamp) with the largest
//!    timestamp. Each completed iteration is reported to the caller so that
//!    the trace can mark the `Π_ABD` control point (`PreamblePassed`);
//! 2. for `k > 1`, an **object random step** choosing which iteration's
//!    result to use (`j := random([1..k])`); for `k = 1` the single result
//!    is used directly — no randomness is introduced, so `ABD¹` *is* ABD;
//! 3. the **update phase** (the tail): broadcast `update` with the chosen
//!    value (`Read` writes back what it will return; `Write` stamps its new
//!    value with `(t + 1, i)`), collect a majority of acks, and return.
//!
//! The machine is pure protocol logic: it never touches the network itself
//! but returns [`ReplyEffect`]/[`AckEffect`] directives that the composed
//! system turns into broadcasts. This keeps it unit-testable in isolation.

use crate::msg::AbdMsg;
use crate::ts::Ts;
use blunt_core::ids::{InvId, ObjId, Pid};
use blunt_core::value::Val;

/// Which register method an operation executes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// `Read()`.
    Read,
    /// `Write(v)`.
    Write(Val),
}

/// The phase an active operation is in.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Awaiting query replies for iteration `iter` (1-based) of the preamble.
    Query {
        /// Current iteration, `1..=k`.
        iter: u32,
        /// Exchange number of this iteration's query.
        sn: u32,
        /// Bitmask of servers that replied.
        responders: u64,
        /// Best (value, timestamp) among replies so far.
        best: Option<(Val, Ts)>,
    },
    /// All `k` iterations done; awaiting the object random choice (`k > 1`).
    AwaitChoice,
    /// Awaiting update acks; will return `ret` on quorum.
    Update {
        /// Exchange number of the update broadcast.
        sn: u32,
        /// Bitmask of servers that acked.
        responders: u64,
        /// The operation's return value.
        ret: Val,
        /// The value being installed (kept so the update broadcast can be
        /// retransmitted verbatim over a lossy transport).
        val: Val,
        /// The timestamp being installed.
        ts: Ts,
    },
}

/// What the caller must do after feeding a reply to the client machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplyEffect {
    /// Stale or irrelevant; nothing to do.
    Ignored,
    /// Counted toward the quorum; keep waiting.
    Counted,
    /// Query iteration `iteration` completed (preamble control point) and a
    /// further iteration was started: broadcast `Query { sn }`.
    NextQuery {
        /// The iteration that just completed (1-based).
        iteration: u32,
        /// Exchange number for the next query broadcast.
        sn: u32,
    },
    /// The final iteration completed and `k > 1`: the operation now needs an
    /// object random choice among `k` alternatives.
    NeedChoice {
        /// The iteration that just completed (= `k`).
        iteration: u32,
        /// Number of alternatives (= `k`).
        choices: u32,
    },
    /// The final (and only, `k = 1`) iteration completed: broadcast
    /// `Update { sn, val, ts }`.
    StartUpdate {
        /// The iteration that just completed (= 1).
        iteration: u32,
        /// Exchange number for the update broadcast.
        sn: u32,
        /// Value to install.
        val: Val,
        /// Its timestamp.
        ts: Ts,
    },
}

/// What the caller must do after feeding an ack to the client machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AckEffect {
    /// Stale or irrelevant.
    Ignored,
    /// Counted; keep waiting.
    Counted,
    /// Quorum of acks reached: the operation returns `ret`.
    Complete {
        /// The operation's return value.
        ret: Val,
    },
}

/// One in-flight register operation at a client.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ActiveOp {
    /// The invocation this operation implements.
    pub inv: InvId,
    /// Target register.
    pub obj: ObjId,
    /// Method.
    pub kind: OpKind,
    /// Configured preamble iterations.
    pub k: u32,
    /// Results of completed query iterations, in order.
    pub results: Vec<(Val, Ts)>,
    /// Current phase.
    pub phase: Phase,
}

impl ActiveOp {
    /// Starts an operation with its first query phase. The caller must
    /// broadcast `Query { sn }`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn start(inv: InvId, obj: ObjId, kind: OpKind, k: u32, sn: u32) -> ActiveOp {
        assert!(k >= 1, "ABD^k requires k ≥ 1");
        ActiveOp {
            inv,
            obj,
            kind,
            k,
            results: Vec::new(),
            phase: Phase::Query {
                iter: 1,
                sn,
                responders: 0,
                best: None,
            },
        }
    }

    /// Starts a single-writer `Write` directly in its update phase (the
    /// original ABD writer has an empty preamble): the caller must broadcast
    /// `Update { sn, val: v, ts }` with the timestamp it derived from its
    /// local sequence counter.
    #[must_use]
    pub fn start_sw_write(inv: InvId, obj: ObjId, v: Val, ts: Ts, sn: u32) -> ActiveOp {
        ActiveOp {
            inv,
            obj,
            kind: OpKind::Write(v.clone()),
            k: 1,
            results: Vec::new(),
            phase: Phase::Update {
                sn,
                responders: 0,
                ret: Val::Nil,
                val: v,
                ts,
            },
        }
    }

    /// Feeds a query reply from server `src` for exchange `msg_sn`.
    ///
    /// `quorum` is the reply threshold (`⌈(n+1)/2⌉`), `me` the client's own
    /// process id (used to stamp `Write` timestamps), and `sn_counter` the
    /// client's exchange-number allocator.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 3's parameters
    pub fn on_reply(
        &mut self,
        src: Pid,
        msg_sn: u32,
        val: &Val,
        ts: Ts,
        quorum: u32,
        me: Pid,
        sn_counter: &mut u32,
    ) -> ReplyEffect {
        let Phase::Query {
            iter,
            sn,
            responders,
            best,
        } = &mut self.phase
        else {
            return ReplyEffect::Ignored;
        };
        if msg_sn != *sn {
            return ReplyEffect::Ignored;
        }
        let bit = 1u64 << src.index();
        if *responders & bit != 0 {
            return ReplyEffect::Ignored;
        }
        *responders |= bit;
        let better = match best {
            None => true,
            Some((_, bts)) => ts > *bts,
        };
        if better {
            *best = Some((val.clone(), ts));
        }
        if responders.count_ones() < quorum {
            return ReplyEffect::Counted;
        }

        // Quorum reached: iteration `iter` of the preamble is complete.
        let iteration = *iter;
        let result = best.clone().expect("quorum ≥ 1 reply");
        self.results.push(result);

        if iteration < self.k {
            // Iterate the preamble (the `for` loop of Algorithm 2).
            *sn_counter += 1;
            let next_sn = *sn_counter;
            self.phase = Phase::Query {
                iter: iteration + 1,
                sn: next_sn,
                responders: 0,
                best: None,
            };
            ReplyEffect::NextQuery {
                iteration,
                sn: next_sn,
            }
        } else if self.k > 1 {
            // `j := random([1..k])` — the object random step.
            self.phase = Phase::AwaitChoice;
            ReplyEffect::NeedChoice {
                iteration,
                choices: self.k,
            }
        } else {
            // k = 1: use the single result directly (plain ABD).
            let (sn, val, ts, ret) = self.begin_update(0, me, sn_counter);
            self.phase = Phase::Update {
                sn,
                responders: 0,
                ret,
                val: val.clone(),
                ts,
            };
            ReplyEffect::StartUpdate {
                iteration,
                sn,
                val,
                ts,
            }
        }
    }

    /// Resolves the object random step: use iteration `choice` (0-based).
    /// Returns the update broadcast the caller must send: `(sn, val, ts)`.
    ///
    /// # Panics
    ///
    /// Panics if the operation is not awaiting a choice or `choice ≥ k`.
    pub fn choose(&mut self, choice: usize, me: Pid, sn_counter: &mut u32) -> (u32, Val, Ts) {
        assert_eq!(
            self.phase,
            Phase::AwaitChoice,
            "choose() outside AwaitChoice"
        );
        assert!(choice < self.results.len(), "choice out of range");
        let (sn, val, ts, ret) = self.begin_update(choice, me, sn_counter);
        self.phase = Phase::Update {
            sn,
            responders: 0,
            ret,
            val: val.clone(),
            ts,
        };
        (sn, val, ts)
    }

    /// Computes the update-phase payload from the chosen query result.
    fn begin_update(&self, choice: usize, me: Pid, sn_counter: &mut u32) -> (u32, Val, Ts, Val) {
        let (qv, qts) = self.results[choice].clone();
        *sn_counter += 1;
        let sn = *sn_counter;
        match &self.kind {
            // Read: write back (v, u) and return v (lines 22–24).
            OpKind::Read => (sn, qv.clone(), qts, qv),
            // Write(v): install (v, (t + 1, i)) and return ⊥ (lines 26–28).
            OpKind::Write(w) => (sn, w.clone(), qts.successor_for(me), Val::Nil),
        }
    }

    /// Feeds an update ack from server `src` for exchange `msg_sn`.
    pub fn on_ack(&mut self, src: Pid, msg_sn: u32, quorum: u32) -> AckEffect {
        let Phase::Update {
            sn,
            responders,
            ret,
            ..
        } = &mut self.phase
        else {
            return AckEffect::Ignored;
        };
        if msg_sn != *sn {
            return AckEffect::Ignored;
        }
        let bit = 1u64 << src.index();
        if *responders & bit != 0 {
            return AckEffect::Ignored;
        }
        *responders |= bit;
        if responders.count_ones() < quorum {
            AckEffect::Counted
        } else {
            AckEffect::Complete { ret: ret.clone() }
        }
    }

    /// The exchange number the operation is currently collecting responses
    /// for, if any (used to purge stale messages).
    #[must_use]
    pub fn current_sn(&self) -> Option<u32> {
        match &self.phase {
            Phase::Query { sn, .. } | Phase::Update { sn, .. } => Some(*sn),
            Phase::AwaitChoice => None,
        }
    }

    /// Bitmask (by [`Pid::index`]) of the servers that have answered the
    /// exchange [`ActiveOp::current_sn`] names; `None` with it.
    #[must_use]
    pub fn responders(&self) -> Option<u64> {
        match &self.phase {
            Phase::Query { responders, .. } | Phase::Update { responders, .. } => Some(*responders),
            Phase::AwaitChoice => None,
        }
    }

    /// The broadcast that would re-solicit the responses the operation is
    /// currently waiting on, if any.
    ///
    /// Servers' handlers are idempotent per exchange (`sn` bookkeeping at the
    /// client discards duplicate replies/acks, and re-installing the same
    /// `(val, ts)` is a no-op), so a lossy transport may resend this message
    /// any number of times without perturbing the protocol. `None` while the
    /// operation awaits its object random choice — nothing is in flight.
    #[must_use]
    pub fn retransmission(&self) -> Option<AbdMsg> {
        match &self.phase {
            Phase::Query { sn, .. } => Some(AbdMsg::Query {
                obj: self.obj,
                sn: *sn,
            }),
            Phase::Update { sn, val, ts, .. } => Some(AbdMsg::Update {
                obj: self.obj,
                sn: *sn,
                val: val.clone(),
                ts: *ts,
            }),
            Phase::AwaitChoice => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUORUM: u32 = 2;
    const ME: Pid = Pid(0);

    fn reply(op: &mut ActiveOp, src: u32, sn: u32, val: Val, ts: Ts, ctr: &mut u32) -> ReplyEffect {
        op.on_reply(Pid(src), sn, &val, ts, QUORUM, ME, ctr)
    }

    #[test]
    fn k1_read_goes_query_then_update_then_returns() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 1, 0);

        assert_eq!(
            reply(&mut op, 1, 0, Val::Int(7), Ts::new(1, Pid(1)), &mut ctr),
            ReplyEffect::Counted
        );
        let eff = reply(&mut op, 2, 0, Val::Nil, Ts::ZERO, &mut ctr);
        match eff {
            ReplyEffect::StartUpdate {
                iteration,
                sn,
                val,
                ts,
            } => {
                assert_eq!(iteration, 1);
                assert_eq!(sn, 1);
                // Read writes back the max-timestamp pair.
                assert_eq!(val, Val::Int(7));
                assert_eq!(ts, Ts::new(1, Pid(1)));
            }
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(op.on_ack(Pid(0), 1, QUORUM), AckEffect::Counted);
        assert_eq!(
            op.on_ack(Pid(2), 1, QUORUM),
            AckEffect::Complete { ret: Val::Int(7) }
        );
    }

    #[test]
    fn k1_write_bumps_timestamp_and_returns_nil() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Write(Val::Int(9)), 1, 0);
        reply(&mut op, 1, 0, Val::Int(7), Ts::new(3, Pid(2)), &mut ctr);
        let eff = reply(&mut op, 2, 0, Val::Nil, Ts::ZERO, &mut ctr);
        match eff {
            ReplyEffect::StartUpdate { val, ts, .. } => {
                assert_eq!(val, Val::Int(9));
                assert_eq!(ts, Ts::new(4, ME)); // (t + 1, i)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(op.on_ack(Pid(1), 1, QUORUM), AckEffect::Counted);
        assert_eq!(
            op.on_ack(Pid(2), 1, QUORUM),
            AckEffect::Complete { ret: Val::Nil }
        );
    }

    #[test]
    fn k2_iterates_then_needs_choice() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 2, 0);

        reply(&mut op, 0, 0, Val::Int(1), Ts::new(1, Pid(1)), &mut ctr);
        let eff = reply(&mut op, 1, 0, Val::Nil, Ts::ZERO, &mut ctr);
        assert_eq!(
            eff,
            ReplyEffect::NextQuery {
                iteration: 1,
                sn: 1
            }
        );

        reply(&mut op, 0, 1, Val::Int(2), Ts::new(2, Pid(1)), &mut ctr);
        let eff = reply(&mut op, 1, 1, Val::Nil, Ts::ZERO, &mut ctr);
        assert_eq!(
            eff,
            ReplyEffect::NeedChoice {
                iteration: 2,
                choices: 2
            }
        );
        assert_eq!(op.results.len(), 2);
        assert_eq!(op.current_sn(), None);
        assert_eq!(op.responders(), None);

        // Choose the first iteration's result.
        let (sn, val, ts) = op.choose(0, ME, &mut ctr);
        assert_eq!(sn, 2);
        assert_eq!(val, Val::Int(1));
        assert_eq!(ts, Ts::new(1, Pid(1)));
        assert_eq!(op.current_sn(), Some(2));
        assert_eq!(op.responders(), Some(0), "a new exchange starts unanswered");
    }

    #[test]
    fn stale_and_duplicate_replies_are_ignored() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 1, 0);
        assert_eq!(
            reply(&mut op, 1, 9, Val::Int(1), Ts::ZERO, &mut ctr),
            ReplyEffect::Ignored,
            "wrong sn"
        );
        reply(&mut op, 1, 0, Val::Int(1), Ts::ZERO, &mut ctr);
        assert_eq!(
            reply(&mut op, 1, 0, Val::Int(1), Ts::ZERO, &mut ctr),
            ReplyEffect::Ignored,
            "duplicate responder"
        );
    }

    #[test]
    fn stale_acks_are_ignored() {
        let mut op = ActiveOp::start_sw_write(InvId(0), ObjId(0), Val::Int(1), Ts::new(1, ME), 5);
        assert_eq!(op.on_ack(Pid(1), 4, QUORUM), AckEffect::Ignored);
        assert_eq!(op.on_ack(Pid(1), 5, QUORUM), AckEffect::Counted);
        assert_eq!(op.on_ack(Pid(1), 5, QUORUM), AckEffect::Ignored);
        assert_eq!(op.responders(), Some(0b10));
        assert_eq!(
            op.on_ack(Pid(2), 5, QUORUM),
            AckEffect::Complete { ret: Val::Nil }
        );
    }

    #[test]
    fn best_tracks_maximum_timestamp_not_latest_reply() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 1, 0);
        reply(&mut op, 0, 0, Val::Int(5), Ts::new(2, Pid(0)), &mut ctr);
        // A later reply with an older timestamp must not win.
        let eff = reply(&mut op, 1, 0, Val::Int(9), Ts::new(1, Pid(1)), &mut ctr);
        match eff {
            ReplyEffect::StartUpdate { val, ts, .. } => {
                assert_eq!(val, Val::Int(5));
                assert_eq!(ts, Ts::new(2, Pid(0)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "AwaitChoice")]
    fn choose_outside_await_choice_panics() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 2, 0);
        let _ = op.choose(0, ME, &mut ctr);
    }

    #[test]
    fn retransmission_replays_the_in_flight_broadcast() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(3), OpKind::Read, 2, 0);
        assert_eq!(
            op.retransmission(),
            Some(AbdMsg::Query {
                obj: ObjId(3),
                sn: 0
            }),
            "query phase resends the query"
        );

        reply(&mut op, 0, 0, Val::Int(1), Ts::new(1, Pid(1)), &mut ctr);
        reply(&mut op, 1, 0, Val::Nil, Ts::ZERO, &mut ctr);
        reply(&mut op, 0, 1, Val::Int(2), Ts::new(2, Pid(1)), &mut ctr);
        reply(&mut op, 1, 1, Val::Nil, Ts::ZERO, &mut ctr);
        assert_eq!(op.retransmission(), None, "nothing in flight at the choice");

        let (sn, val, ts) = op.choose(1, ME, &mut ctr);
        assert_eq!(
            op.retransmission(),
            Some(AbdMsg::Update {
                obj: ObjId(3),
                sn,
                val,
                ts
            }),
            "update phase resends the chosen install"
        );
    }

    #[test]
    fn replies_ignored_during_update_phase() {
        let mut ctr = 0u32;
        let mut op = ActiveOp::start(InvId(0), ObjId(0), OpKind::Read, 1, 0);
        reply(&mut op, 0, 0, Val::Int(1), Ts::ZERO, &mut ctr);
        reply(&mut op, 1, 0, Val::Int(1), Ts::ZERO, &mut ctr);
        // Now in Update; a late query reply is ignored.
        assert_eq!(
            reply(&mut op, 2, 0, Val::Int(1), Ts::ZERO, &mut ctr),
            ReplyEffect::Ignored
        );
    }
}
