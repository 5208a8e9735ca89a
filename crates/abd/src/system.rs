//! The composed message-passing system: a randomized program running over a
//! set of registers (atomic / `ABD^k` / single-writer `ABD^k`) on one shared
//! network.
//!
//! [`AbdSystem`] is the program host [`blunt_programs::host::Composed`] over
//! the [`AbdLayer`], so it can be driven by any scheduler (including the
//! scripted Figure 1 adversary) and explored exhaustively for exact
//! worst-case probabilities. The host runs the program, the atomic
//! registers and every operation's lifecycle trace events; this layer owns
//! the network, the replicas and the in-flight `ABD^k` operations. Every
//! process plays two roles, exactly as in the paper's model: it executes its
//! program code *and* acts as a server replica for every ABD register.
//!
//! The enabled events are all program steps (by process), then every
//! deliverable network slot ([`Event::Obj`]) in canonical order.
//!
//! # State-space reductions (soundness-preserving)
//!
//! - Local program computation is bundled with the next visible step
//!   (see `blunt-programs`): local steps commute with everything.
//! - With [`AbdSystemDef::purge_stale`] (default on), messages that can no
//!   longer affect any process's behaviour — replies/acks to a superseded
//!   exchange, queries whose reply would be ignored — are dropped from the
//!   network as soon as they become stale. Delivering such a message is a
//!   no-op for every process's protocol state, so removing these
//!   "stutter moves" changes no outcome probability; it only collapses
//!   states that are bisimilar. `Update` messages are **never** purged:
//!   a late update still installs its value at a server.

use crate::client::{AckEffect, ActiveOp, OpKind, Phase, ReplyEffect};
use crate::config::{ObjectConfig, ObjectKind};
use crate::msg::AbdMsg;
use crate::server::ServerState;
use crate::ts::Ts;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_programs::host::{Atomic, Composed, Event, IterEffect, ObjectLayer};
use blunt_programs::{ProgState, ProgramDef};
use blunt_sim::network::Network;
use blunt_sim::system::Effects;
use blunt_sim::trace::TraceEvent;
use std::rc::Rc;

/// The immutable definition of a composed system.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AbdSystemDef {
    /// The randomized program.
    pub program: ProgramDef,
    /// One configuration per object id used by the program.
    pub objects: Vec<ObjectConfig>,
    /// Enable the stale-message purge reduction (see module docs).
    pub purge_stale: bool,
    /// Fuse request/response pairs into single adversary events: delivering
    /// a `query` to a server immediately delivers its `reply` back to the
    /// client, and delivering an `update` immediately delivers its `ack`.
    ///
    /// Every fused schedule is realizable in the unfused game (deliver the
    /// request, then immediately its response), so worst-case probabilities
    /// computed on the fused game are **lower bounds** on the true
    /// adversary's power — and the Figure 1 adversary never delays a
    /// response after its request, so it is expressible in the fused game.
    /// The reduction shrinks the explorable state space by removing all
    /// reply/ack in-flight states.
    pub fused_rpc: bool,
}

impl AbdSystemDef {
    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.program.process_count()
    }

    /// The majority quorum `⌈(n+1)/2⌉` used by query and update phases.
    #[must_use]
    pub fn quorum(&self) -> u32 {
        (self.n() as u32) / 2 + 1
    }
}

/// The composed message-passing system.
pub type AbdSystem = Composed<AbdLayer>;

/// A schedulable event of [`AbdSystem`]: a program step, or
/// `Obj(slot)` — deliver the in-flight message at that network slot.
pub type AbdEvent = Event<usize>;

/// The message-passing object layer: the network, the replicas and the
/// in-flight `ABD^k` operations.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AbdLayer {
    def: Rc<AbdSystemDef>,
    net: Network<AbdMsg>,
    /// `servers[obj][pid]` — replica state (empty for atomic objects).
    servers: Vec<Vec<ServerState>>,
    /// At most one in-flight register operation per process.
    clients: Vec<Option<ActiveOp>>,
    /// Per-process exchange-number allocators.
    sn_counters: Vec<u32>,
    /// Per-object local sequence counters for single-writer writes.
    writer_seqs: Vec<i64>,
}

impl AbdLayer {
    /// The system definition.
    #[must_use]
    pub fn def(&self) -> &AbdSystemDef {
        &self.def
    }

    /// The network (for assertions and message-complexity measurements).
    #[must_use]
    pub fn net(&self) -> &Network<AbdMsg> {
        &self.net
    }

    /// Returns `true` if process `pid`'s active operation is in some query
    /// phase (its preamble), i.e. its linearization point is not yet fixed.
    #[must_use]
    pub fn in_preamble(&self, pid: Pid) -> bool {
        matches!(
            &self.clients[pid.index()],
            Some(ActiveOp {
                phase: Phase::Query { .. } | Phase::AwaitChoice,
                ..
            })
        )
    }

    fn fresh_sn(&mut self, pid: Pid) -> u32 {
        let c = &mut self.sn_counters[pid.index()];
        *c += 1;
        *c
    }

    /// Removes messages that can no longer affect any process (module docs).
    fn purge(&mut self) {
        if !self.def.purge_stale {
            return;
        }
        let clients = &self.clients;
        let net = &mut self.net;
        let crashed: Vec<bool> = (0..clients.len())
            .map(|p| net.is_crashed(Pid(p as u32)))
            .collect();
        net.purge(|env| {
            if crashed[env.dst.index()] {
                return false; // undeliverable forever
            }
            if !env.msg.is_stale_sensitive() {
                return true; // updates always matter
            }
            let owner = match env.msg {
                AbdMsg::Query { .. } => env.src, // reply would go back to src
                _ => env.dst,
            };
            match &clients[owner.index()] {
                Some(op) => op.current_sn() == Some(env.msg.sn()),
                None => false,
            }
        });
    }

    fn deliver(&mut self, slot: usize, fx: &mut Effects) -> Option<(Pid, InvId, IterEffect)> {
        let env = self.net.take(slot);
        let (src, dst) = (env.src, env.dst);
        fx.push_with(|| TraceEvent::Deliver {
            src,
            dst,
            label: env.msg.to_string(),
        });
        // One macro call site per message kind: `static_counter!` caches a
        // single handle per site, so the name must be a per-site literal.
        match env.msg {
            AbdMsg::Query { .. } => blunt_obs::static_counter!("abd.deliver.query").inc(),
            AbdMsg::Reply { .. } => blunt_obs::static_counter!("abd.deliver.reply").inc(),
            AbdMsg::Update { .. } => blunt_obs::static_counter!("abd.deliver.update").inc(),
            AbdMsg::Ack { .. } => blunt_obs::static_counter!("abd.deliver.ack").inc(),
        }
        match env.msg {
            AbdMsg::Query { obj, sn } => {
                let reply = self.servers[obj.index()][dst.index()].reply(obj, sn);
                if !self.def.fused_rpc {
                    self.net.send(dst, src, reply);
                    return None;
                }
                // The response travels back in the same adversary event.
                let AbdMsg::Reply { obj, sn, val, ts } = reply else {
                    unreachable!("server replies with Reply");
                };
                fx.push_with(|| TraceEvent::Deliver {
                    src: dst,
                    dst: src,
                    label: format!("reply#{sn}[{obj}] (fused)"),
                });
                self.on_reply(src, dst, obj, sn, &val, ts)
            }
            AbdMsg::Reply { obj, sn, val, ts } => self.on_reply(dst, src, obj, sn, &val, ts),
            AbdMsg::Update { obj, sn, val, ts } => {
                self.servers[obj.index()][dst.index()].absorb(val, ts);
                if !self.def.fused_rpc {
                    self.net.send(dst, src, AbdMsg::Ack { obj, sn });
                    return None;
                }
                fx.push_with(|| TraceEvent::Deliver {
                    src: dst,
                    dst: src,
                    label: format!("ack#{sn}[{obj}] (fused)"),
                });
                self.on_ack(src, dst, obj, sn)
            }
            AbdMsg::Ack { obj, sn } => self.on_ack(dst, src, obj, sn),
        }
    }

    /// Feeds a query reply (from `server`) to the client at `client`.
    fn on_reply(
        &mut self,
        client: Pid,
        server: Pid,
        obj: ObjId,
        sn: u32,
        val: &Val,
        ts: Ts,
    ) -> Option<(Pid, InvId, IterEffect)> {
        let quorum = self.def.quorum();
        let op = self.clients[client.index()]
            .as_mut()
            .filter(|op| op.obj == obj)?;
        let inv = op.inv;
        let effect = match op.on_reply(
            server,
            sn,
            val,
            ts,
            quorum,
            client,
            &mut self.sn_counters[client.index()],
        ) {
            ReplyEffect::Ignored | ReplyEffect::Counted => return None,
            ReplyEffect::NextQuery { iteration, sn } => {
                self.net.broadcast(client, AbdMsg::Query { obj, sn });
                IterEffect::PreamblePassed { iteration }
            }
            ReplyEffect::NeedChoice { iteration, choices } => {
                IterEffect::NeedChoice { choices, iteration }
            }
            ReplyEffect::StartUpdate {
                iteration,
                sn,
                val,
                ts,
            } => {
                self.net
                    .broadcast(client, AbdMsg::Update { obj, sn, val, ts });
                IterEffect::PreamblePassed { iteration }
            }
        };
        // Every non-trivial effect marks a completed query quorum — one
        // preamble round-trip of the paper's `ABD^k`.
        blunt_obs::static_counter!("abd.quorum.query_rounds").inc();
        Some((client, inv, effect))
    }

    /// Feeds an update ack (from `server`) to the client at `client`.
    fn on_ack(
        &mut self,
        client: Pid,
        server: Pid,
        obj: ObjId,
        sn: u32,
    ) -> Option<(Pid, InvId, IterEffect)> {
        let quorum = self.def.quorum();
        let slot = &mut self.clients[client.index()];
        let op = slot.as_mut().filter(|op| op.obj == obj)?;
        let AckEffect::Complete { ret } = op.on_ack(server, sn, quorum) else {
            return None;
        };
        let inv = op.inv;
        *slot = None;
        blunt_obs::static_counter!("abd.quorum.update_rounds").inc();
        blunt_obs::static_counter!("abd.ops.completed").inc();
        Some((client, inv, IterEffect::Complete(ret)))
    }
}

impl ObjectLayer for AbdLayer {
    type Def = AbdSystemDef;
    type Step = usize;

    /// # Panics
    ///
    /// Panics if the program invokes an object id with no configuration, or
    /// uses a method other than `Read`/`Write` (registers only here; see
    /// `blunt-registers` for snapshots).
    fn build(def: AbdSystemDef) -> (AbdLayer, Vec<Option<Atomic>>) {
        let n = def.n();
        // Validate the program's object references.
        for p in 0..n {
            for instr in def.program.code(Pid(p as u32)) {
                if let blunt_programs::Instr::Invoke { obj, method, .. } = instr {
                    assert!(
                        obj.index() < def.objects.len(),
                        "program invokes unconfigured object {obj}"
                    );
                    assert!(
                        *method == MethodId::READ || *method == MethodId::WRITE,
                        "AbdSystem implements registers; got method {method}"
                    );
                }
            }
        }
        let servers = def
            .objects
            .iter()
            .map(|cfg| match cfg.kind {
                ObjectKind::Atomic => Vec::new(),
                ObjectKind::Abd { .. } => (0..n)
                    .map(|_| ServerState::new(cfg.initial.clone()))
                    .collect(),
            })
            .collect();
        let atomics = def
            .objects
            .iter()
            .map(|cfg| {
                cfg.is_atomic()
                    .then(|| Atomic::Register(cfg.initial.clone()))
            })
            .collect();
        let objects = def.objects.len();
        let layer = AbdLayer {
            def: Rc::new(def),
            net: Network::new(n),
            servers,
            clients: vec![None; n],
            sn_counters: vec![0; n],
            writer_seqs: vec![0; objects],
        };
        (layer, atomics)
    }

    fn program(&self) -> &ProgramDef {
        &self.def.program
    }

    fn ops_started() -> &'static blunt_obs::Counter {
        blunt_obs::static_counter!("abd.ops.started")
    }

    fn enabled(&self, prog: &ProgState, out: &mut Vec<AbdEvent>) {
        for p in 0..self.def.n() {
            let pid = Pid(p as u32);
            if prog.can_step(pid) {
                out.push(Event::Prog(pid));
            }
        }
        out.extend(self.net.deliverable().into_iter().map(Event::Obj));
    }

    fn start(&mut self, pid: Pid, inv: InvId, obj: ObjId, method: MethodId, arg: Val) {
        let ObjectKind::Abd { k, writer } = self.def.objects[obj.index()].kind else {
            unreachable!("the host executes atomic registers");
        };
        match method {
            MethodId::WRITE if writer == Some(pid) => {
                // Single-writer fast path: empty preamble; stamp with the
                // local sequence counter and go straight to the update
                // phase.
                self.writer_seqs[obj.index()] += 1;
                let ts = Ts::new(self.writer_seqs[obj.index()], pid);
                let sn = self.fresh_sn(pid);
                let op = ActiveOp::start_sw_write(inv, obj, arg.clone(), ts, sn);
                self.clients[pid.index()] = Some(op);
                self.net.broadcast(
                    pid,
                    AbdMsg::Update {
                        obj,
                        sn,
                        val: arg,
                        ts,
                    },
                );
            }
            MethodId::WRITE if writer.is_some() => {
                panic!(
                    "process {pid} writes single-writer register {obj} owned by {:?}",
                    writer
                )
            }
            MethodId::READ | MethodId::WRITE => {
                let kind = if method == MethodId::READ {
                    OpKind::Read
                } else {
                    OpKind::Write(arg)
                };
                let sn = self.fresh_sn(pid);
                let op = ActiveOp::start(inv, obj, kind, k, sn);
                self.clients[pid.index()] = Some(op);
                self.net.broadcast(pid, AbdMsg::Query { obj, sn });
            }
            other => panic!("ABD register: unsupported method {other}"),
        }
        // The broadcast's copies to crashed processes are stale at once.
        self.purge();
    }

    fn step(&mut self, slot: usize, fx: &mut Effects) -> Option<(Pid, InvId, IterEffect)> {
        let progress = self.deliver(slot, fx);
        self.purge();
        progress
    }

    fn choose(&mut self, pid: Pid, choice: usize) -> InvId {
        let op = self.clients[pid.index()]
            .as_mut()
            .expect("object random step without an active op");
        let (inv, obj) = (op.inv, op.obj);
        let (sn, val, ts) = op.choose(choice, pid, &mut self.sn_counters[pid.index()]);
        self.net.broadcast(pid, AbdMsg::Update { obj, sn, val, ts });
        self.purge();
        inv
    }

    /// Messages to `pid` are never delivered again; ABD tolerates any
    /// minority of crashes.
    fn crash(&mut self, pid: Pid) {
        self.net.crash(pid);
        self.clients[pid.index()] = None;
        self.purge();
    }
}
