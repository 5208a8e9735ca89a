//! The transport-agnostic message envelope and its payload kinds.
//!
//! An [`Envelope`] is what every [`Transport`](crate::Transport) carries:
//! the directed link `(src, dst)`, a [`Payload`], the *exemption* bit that
//! routes retransmissions and recovery traffic around the fault injector,
//! and a runtime-local request/reply correlation tag used by socket
//! transports (the in-process bus ignores it and it never perturbs the
//! fault schedule).

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_obs::flight;

/// The compact trace context stamped on every envelope: which client
/// operation this message belongs to, and which hop of the exchange it is.
///
/// Spans make server-side flight events attributable to the originating
/// op across process boundaries: the driver stamps requests at broadcast
/// time, frame v2 carries the context over the wire, and servers echo it
/// on their replies — so a merged flight dump can reconstruct an op's
/// full causal interval (client queue → wire → server ack → quorum).
///
/// The span is **pure data**: no transport, injector, or step machine
/// branches on it, so stamping spans adds zero schedule perturbation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    /// The originating client's pid (`u32::MAX` = no span).
    pub client: u32,
    /// The client-unique invocation id of the op ([`blunt_core::ids::InvId`]).
    pub op: u64,
    /// Which hop of the exchange: [`SpanCtx::HOP_REQUEST`] (client →
    /// server) or [`SpanCtx::HOP_REPLY`] (server → client); 0 on
    /// [`SpanCtx::NONE`].
    pub hop: u8,
}

impl SpanCtx {
    /// No span: control traffic, recovery transfer, anything not tied to a
    /// client operation.
    pub const NONE: SpanCtx = SpanCtx {
        client: u32::MAX,
        op: 0,
        hop: 0,
    };

    /// Hop kind: a client-originated request leg (query/update broadcast).
    pub const HOP_REQUEST: u8 = 1;
    /// Hop kind: a server's reply leg (reply/ack back to the client).
    pub const HOP_REPLY: u8 = 2;

    /// A request-hop span for client `client`'s invocation `op`.
    #[must_use]
    pub fn request(client: u32, op: u64) -> SpanCtx {
        SpanCtx {
            client,
            op,
            hop: SpanCtx::HOP_REQUEST,
        }
    }

    /// `true` iff this is [`SpanCtx::NONE`].
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.client == u32::MAX
    }

    /// The same span re-stamped as the reply hop (what a server puts on
    /// the response it sends back). [`SpanCtx::NONE`] stays `NONE`.
    #[must_use]
    pub fn reply(self) -> SpanCtx {
        if self.is_none() {
            SpanCtx::NONE
        } else {
            SpanCtx {
                hop: SpanCtx::HOP_REPLY,
                ..self
            }
        }
    }

    /// The packed flight-recorder span word for this context (see
    /// [`flight::pack_span`]); [`flight::SPAN_NONE`] for [`SpanCtx::NONE`].
    #[must_use]
    pub fn flight_word(&self) -> u64 {
        if self.is_none() {
            flight::SPAN_NONE
        } else {
            flight::pack_span(self.client, self.op)
        }
    }
}

/// What an [`Envelope`] carries: protocol traffic or a runtime control
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// An ABD protocol message.
    Abd(AbdMsg),
    /// The amnesia signal: "your crash window `window` just ended — lose
    /// your volatile state and recover before serving". Emitted by the
    /// transport's injector itself at window exit (exempt, at most once per
    /// `(server, window)` pair); never crosses the injector.
    Crash {
        /// The crash cycle this signal belongs to.
        window: u64,
    },
    /// Recovery state transfer, mirroring the ABD query: "send me your
    /// current per-register `(value, timestamp)` pairs". Always exempt.
    StateQuery {
        /// Exchange identifier scoped to the recovering server.
        sn: u64,
    },
    /// A peer's answer to a [`Payload::StateQuery`]: every materialized
    /// register's `(obj, value, timestamp)`, in `ObjId` order. A
    /// single-register run carries a one-entry (or, before any write,
    /// empty) snapshot. Always exempt.
    StateReply {
        /// The exchange this reply answers.
        sn: u64,
        /// The peer's full store snapshot, `ObjId`-ordered.
        snap: Vec<(ObjId, Val, Ts)>,
    },
}

/// One message in flight on a transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub src: Pid,
    /// Destination node.
    pub dst: Pid,
    /// Protocol payload.
    pub msg: Payload,
    /// Retransmissions (and responses to them) bypass the fault injector
    /// and consume no fault-schedule indices, so timing-dependent retry
    /// counts cannot perturb the seed-determined schedule. Recovery
    /// traffic ([`Payload::Crash`]/[`Payload::StateQuery`]/
    /// [`Payload::StateReply`]) is exempt for the same reason.
    pub exempt: bool,
    /// Request/reply correlation for socket transports. On envelopes
    /// *delivered* by a socket transport this is the tag of the frame that
    /// carried them; on envelopes *sent* it is the tag of the inbound frame
    /// this one answers (`0` = unsolicited). Runtime-local: the field never
    /// appears inside the serialized envelope — the frame header carries
    /// it — and the in-process bus ignores it entirely.
    pub reply_to: u64,
    /// The trace context of the client operation this message belongs to
    /// ([`SpanCtx::NONE`] for control/recovery traffic). Serialized in
    /// frame v2 `Env` bodies so server processes can attribute their
    /// flight events to the originating op; pure data on the in-process
    /// path.
    pub span: SpanCtx,
}

impl Envelope {
    /// An envelope carrying an ABD protocol message (unsolicited:
    /// `reply_to = 0`, no span).
    #[must_use]
    pub fn abd(src: Pid, dst: Pid, msg: AbdMsg, exempt: bool) -> Envelope {
        Envelope {
            src,
            dst,
            msg: Payload::Abd(msg),
            exempt,
            reply_to: 0,
            span: SpanCtx::NONE,
        }
    }

    /// The amnesia signal for `server`'s crash window `window`: exempt, on
    /// the server's link to itself, outside any span.
    #[must_use]
    pub fn crash(server: Pid, window: u64) -> Envelope {
        Envelope {
            src: server,
            dst: server,
            msg: Payload::Crash { window },
            exempt: true,
            reply_to: 0,
            span: SpanCtx::NONE,
        }
    }

    /// The same envelope marked as answering the inbound frame tagged `re`.
    /// Socket transports route it back to the requester by that tag; the
    /// in-process bus ignores it.
    #[must_use]
    pub fn in_reply_to(mut self, re: u64) -> Envelope {
        self.reply_to = re;
        self
    }

    /// The same envelope stamped with trace context `span`.
    #[must_use]
    pub fn with_span(mut self, span: SpanCtx) -> Envelope {
        self.span = span;
        self
    }
}

impl Payload {
    /// The packed flight-recorder label for this payload: message-kind code
    /// plus its sequence number / window (see [`flight::pack_msg`]).
    #[must_use]
    pub fn flight_label(&self) -> u64 {
        match self {
            Payload::Abd(AbdMsg::Query { sn, .. }) => {
                flight::pack_msg(flight::MSG_QUERY, u64::from(*sn))
            }
            Payload::Abd(AbdMsg::Reply { sn, .. }) => {
                flight::pack_msg(flight::MSG_REPLY, u64::from(*sn))
            }
            Payload::Abd(AbdMsg::Update { sn, .. }) => {
                flight::pack_msg(flight::MSG_UPDATE, u64::from(*sn))
            }
            Payload::Abd(AbdMsg::Ack { sn, .. }) => {
                flight::pack_msg(flight::MSG_ACK, u64::from(*sn))
            }
            Payload::Crash { window } => flight::pack_msg(flight::MSG_CRASH, *window),
            Payload::StateQuery { sn } => flight::pack_msg(flight::MSG_STATE_QUERY, *sn),
            Payload::StateReply { sn, .. } => flight::pack_msg(flight::MSG_STATE_REPLY, *sn),
        }
    }
}
