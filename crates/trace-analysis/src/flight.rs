//! Space-time rendering of flight-recorder dumps.
//!
//! A [`FlightDump`] is the runtime's last-few-thousand-events window — bus
//! sends, fault decisions, op boundaries, server crashes, monitor cuts —
//! captured at the moment a violation or stall was detected. This module
//! maps those events onto [`blunt_sim::trace::TraceEvent`]s and reuses
//! [`space_time`], so a failing chaos run
//! renders in the same visual language as the paper's Figure 1 and the
//! monitor's violation windows: client ops as intervals, messages as
//! arrows, crashes as `✗`.

use std::collections::HashMap;

use blunt_core::ids::{CallSite, InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_obs::flight::{decode_val, msg_code_name, unpack_msg, unpack_span};
use blunt_obs::{FlightDump, FlightKind};
use blunt_sim::trace::{Trace, TraceEvent};

use crate::diagram::{space_time, DiagramOptions};

fn val_of(w: u64) -> Val {
    match decode_val(w) {
        None => Val::Nil,
        Some(x) => Val::Int(x),
    }
}

fn msg_label(w: u64) -> String {
    let (code, sn) = unpack_msg(w);
    format!("{}#{}", msg_code_name(code), sn)
}

/// Suffixes a label with the event's trace context (when span-attributed)
/// and prefixes it with the recording process (when remote). Events without
/// span or proc render undecorated.
fn decorate(e: &blunt_obs::FlightEvent, label: String) -> String {
    let mut label = label;
    if let Some((client, op)) = unpack_span(e.span) {
        label.push_str(&format!(" ·c{client}op{op}"));
    }
    if !e.proc.is_empty() {
        label = format!("[{}] {label}", e.proc);
    }
    label
}

/// Maps one flight event onto its diagram representation.
fn trace_event(e: &blunt_obs::FlightEvent) -> TraceEvent {
    match raw_trace_event(e) {
        TraceEvent::Internal { pid, label } => TraceEvent::Internal {
            pid,
            label: decorate(e, label),
        },
        TraceEvent::Deliver { src, dst, label } => TraceEvent::Deliver {
            src,
            dst,
            label: decorate(e, label),
        },
        other => other,
    }
}

fn raw_trace_event(e: &blunt_obs::FlightEvent) -> TraceEvent {
    let pid = Pid(e.pid);
    match e.kind {
        FlightKind::OpStartRead => TraceEvent::Call {
            inv: InvId(e.a),
            pid,
            obj: ObjId(0),
            method: MethodId::READ,
            arg: Val::Nil,
            site: CallSite::new(pid, 0, 0),
        },
        FlightKind::OpStartWrite => TraceEvent::Call {
            inv: InvId(e.a),
            pid,
            obj: ObjId(0),
            method: MethodId::WRITE,
            arg: val_of(e.b),
            site: CallSite::new(pid, 0, 0),
        },
        FlightKind::OpCompleteRead | FlightKind::OpCompleteWrite => TraceEvent::Return {
            inv: InvId(e.a),
            pid,
            val: val_of(e.b),
        },
        FlightKind::OpRetransmit => TraceEvent::Internal {
            pid,
            label: format!(
                "retransmit sn={}{}",
                e.a,
                if e.b == 1 { " (gap)" } else { "" }
            ),
        },
        FlightKind::BusSend => TraceEvent::Deliver {
            src: pid,
            dst: Pid(e.a as u32),
            label: msg_label(e.b),
        },
        FlightKind::BusDeliver => TraceEvent::Internal {
            pid,
            label: format!("recv {} ⟵p{}", msg_label(e.b), e.a),
        },
        FlightKind::FaultDrop => TraceEvent::Internal {
            pid,
            label: format!("✂ drop →p{} {}", e.a, msg_label(e.b)),
        },
        FlightKind::FaultDuplicate => TraceEvent::Internal {
            pid,
            label: format!("dup →p{} {}", e.a, msg_label(e.b)),
        },
        FlightKind::FaultReorder => TraceEvent::Internal {
            pid,
            label: format!("reorder →p{} {}", e.a, msg_label(e.b)),
        },
        FlightKind::FaultDelay => TraceEvent::Internal {
            pid,
            label: format!("delay →p{} {}ms", e.a, e.b),
        },
        FlightKind::FaultCrashDrop => TraceEvent::Internal {
            pid,
            label: format!("✂ crash-drop →p{} w{}", e.a, e.b),
        },
        FlightKind::FaultPartitionDrop => TraceEvent::Internal {
            pid,
            label: format!("✂ partition →p{} w{}", e.a, e.b),
        },
        FlightKind::ServerAck => TraceEvent::Internal {
            pid,
            label: format!("ack →p{} sn={}", e.a, e.b),
        },
        FlightKind::WalFlush => TraceEvent::Internal {
            pid,
            label: format!("wal flush ({} acks)", e.a),
        },
        FlightKind::ServerCrash => TraceEvent::Crash { pid },
        FlightKind::ServerRecover => TraceEvent::Internal {
            pid,
            label: format!("recovered in {}µs", e.a),
        },
        FlightKind::MonitorCut => TraceEvent::Internal {
            pid,
            label: format!("cut #{}", e.a),
        },
        FlightKind::MonitorViolation => TraceEvent::Internal {
            pid,
            label: format!("VIOLATION seg {}", e.a),
        },
    }
}

/// Renders a flight dump as a space-time diagram over `n` lanes.
///
/// Deterministic: the output is a pure function of the dump, so a dump
/// parsed back from JSONL re-renders byte-identically. A trailing
/// `· t=<first>µs → t=<last>µs · <events> events` footer line situates the
/// window on the run clock. Client-op intervals open on `op_start_*` and
/// close on `op_complete_*`; an op whose start was evicted from the ring
/// still shows its completion row (`└ ret …`), which is exactly what a
/// bounded window promises.
#[must_use]
pub fn flight_space_time(dump: &FlightDump, n: usize, opts: &DiagramOptions) -> String {
    let mut trace = Trace::new();
    trace.extend(dump.events.iter().map(trace_event).collect());
    let mut out = space_time(&trace, n, opts);
    let (first, last) = match (dump.events.first(), dump.events.last()) {
        (Some(f), Some(l)) => (f.t_us, l.t_us),
        _ => (0, 0),
    };
    out.push_str(&format!(
        "· t={first}µs → t={last}µs · {} events\n",
        dump.len()
    ));
    out
}

/// Median per-operation phase latencies, computed from a merged,
/// clock-aligned cross-process flight dump.
///
/// Each phase is the median over all operations whose span left a complete
/// timeline in the window (start, send, remote deliver, remote ack,
/// complete). `fsync_us` is instead the median fsync duration over every
/// remote WAL flush in the window, since flushes batch acks across ops.
/// All values are zero when the dump has no remote (merged) events — e.g.
/// an in-process run — so callers can gate emission on `ops > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Operations with a complete five-stamp span timeline.
    pub ops: u64,
    /// Op start → first envelope handed to the transport (client side).
    pub client_queue_us: u64,
    /// First send → first delivery recorded by a remote server.
    pub wire_us: u64,
    /// First remote delivery → first remote WAL ack of the op.
    pub server_ack_us: u64,
    /// Median remote fsync duration (WAL flush wall time).
    pub fsync_us: u64,
    /// First remote ack → op completion at the client (quorum assembly).
    pub quorum_complete_us: u64,
}

fn median(xs: &mut [u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Computes the per-op [`LatencyBreakdown`] of a merged flight dump.
///
/// Span-attributed events from the driver process (`proc == ""`) supply the
/// client-side stamps; events merged in from remote server processes
/// (`proc != ""`, already shifted onto the driver clock by
/// [`FlightDump::merge_remotes`]) supply the server-side stamps. Clock skew
/// that survives offset estimation is clamped to zero per phase rather than
/// wrapping.
#[must_use]
pub fn latency_breakdown(dump: &FlightDump) -> LatencyBreakdown {
    #[derive(Default)]
    struct Stamps {
        start: Option<u64>,
        send: Option<u64>,
        deliver: Option<u64>,
        ack: Option<u64>,
        complete: Option<u64>,
    }
    fn first(slot: &mut Option<u64>, t: u64) {
        if slot.is_none_or(|old| t < old) {
            *slot = Some(t);
        }
    }
    let mut spans: HashMap<u64, Stamps> = HashMap::new();
    let mut fsyncs: Vec<u64> = Vec::new();
    for e in &dump.events {
        let remote = !e.proc.is_empty();
        if e.kind == FlightKind::WalFlush && remote {
            fsyncs.push(e.b);
        }
        if unpack_span(e.span).is_none() {
            continue;
        }
        let s = spans.entry(e.span).or_default();
        match e.kind {
            FlightKind::OpStartRead | FlightKind::OpStartWrite if !remote => {
                first(&mut s.start, e.t_us);
            }
            FlightKind::BusSend if !remote => first(&mut s.send, e.t_us),
            FlightKind::BusDeliver if remote => first(&mut s.deliver, e.t_us),
            FlightKind::ServerAck if remote => first(&mut s.ack, e.t_us),
            FlightKind::OpCompleteRead | FlightKind::OpCompleteWrite if !remote => {
                first(&mut s.complete, e.t_us);
            }
            _ => {}
        }
    }
    let mut queue = Vec::new();
    let mut wire = Vec::new();
    let mut ack = Vec::new();
    let mut quorum = Vec::new();
    for s in spans.values() {
        let (Some(t0), Some(t1), Some(t2), Some(t3), Some(t4)) =
            (s.start, s.send, s.deliver, s.ack, s.complete)
        else {
            continue;
        };
        queue.push(t1.saturating_sub(t0));
        wire.push(t2.saturating_sub(t1));
        ack.push(t3.saturating_sub(t2));
        quorum.push(t4.saturating_sub(t3));
    }
    LatencyBreakdown {
        ops: queue.len() as u64,
        client_queue_us: median(&mut queue),
        wire_us: median(&mut wire),
        server_ack_us: median(&mut ack),
        fsync_us: median(&mut fsyncs),
        quorum_complete_us: median(&mut quorum),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_obs::flight::{
        encode_val, pack_msg, pack_span, KEY_NONE, MSG_ACK, MSG_UPDATE, SPAN_NONE,
    };
    use blunt_obs::FlightEvent;

    fn ev(
        ring: &str,
        seq: u64,
        t_us: u64,
        kind: FlightKind,
        pid: u32,
        a: u64,
        b: u64,
    ) -> FlightEvent {
        FlightEvent {
            ring: ring.into(),
            seq,
            t_us,
            kind,
            pid,
            a,
            b,
            span: SPAN_NONE,
            key: KEY_NONE,
            proc: String::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn span_ev(
        ring: &str,
        seq: u64,
        t_us: u64,
        kind: FlightKind,
        pid: u32,
        a: u64,
        b: u64,
        span: u64,
        proc: &str,
    ) -> FlightEvent {
        FlightEvent {
            span,
            proc: proc.into(),
            ..ev(ring, seq, t_us, kind, pid, a, b)
        }
    }

    fn fixture() -> FlightDump {
        FlightDump {
            events: vec![
                ev(
                    "client-3",
                    0,
                    1,
                    FlightKind::OpStartWrite,
                    3,
                    10,
                    encode_val(Some(5)),
                ),
                ev(
                    "client-3",
                    1,
                    2,
                    FlightKind::BusSend,
                    3,
                    0,
                    pack_msg(MSG_UPDATE, 1),
                ),
                ev(
                    "client-3",
                    2,
                    3,
                    FlightKind::FaultDrop,
                    3,
                    1,
                    pack_msg(MSG_UPDATE, 1),
                ),
                ev("server-0", 0, 4, FlightKind::ServerAck, 0, 3, 1),
                ev("server-1", 0, 5, FlightKind::ServerCrash, 1, 2, 0),
                ev(
                    "client-3",
                    3,
                    6,
                    FlightKind::OpCompleteWrite,
                    3,
                    10,
                    encode_val(None),
                ),
                ev("monitor", 0, 7, FlightKind::MonitorCut, 4, 1, 0),
            ],
        }
    }

    #[test]
    fn renders_ops_messages_faults_and_crashes() {
        let s = flight_space_time(&fixture(), 5, &DiagramOptions::default());
        assert!(s.contains("call Write(5)"), "{s}");
        assert!(s.contains("ret ⊥"), "{s}");
        assert!(s.contains("p3→p0: update#1"), "arrow label:\n{s}");
        assert!(s.contains("✂ drop →p1"), "{s}");
        assert!(s.contains('✗'), "crash marker:\n{s}");
        assert!(s.contains("cut #1"), "{s}");
        assert!(s.ends_with("· t=1µs → t=7µs · 7 events\n"), "{s}");
    }

    #[test]
    fn rendering_is_a_pure_function_of_the_dump() {
        let dump = fixture();
        let direct = flight_space_time(&dump, 5, &DiagramOptions::default());
        let reparsed = FlightDump::parse(&dump.to_jsonl()).expect("round trip");
        assert_eq!(
            flight_space_time(&reparsed, 5, &DiagramOptions::default()),
            direct,
            "re-render after JSONL round-trip must be byte-identical"
        );
    }

    #[test]
    fn empty_dump_renders_header_and_footer_only() {
        let dump = FlightDump::default();
        let s = flight_space_time(&dump, 2, &DiagramOptions::default());
        assert_eq!(s.lines().count(), 3, "{s}");
        assert!(s.contains("0 events"));
    }

    #[test]
    fn ack_delay_and_retransmit_labels_are_readable() {
        let dump = FlightDump {
            events: vec![
                ev("client-0", 0, 1, FlightKind::FaultDelay, 0, 2, 3),
                ev(
                    "server-2",
                    0,
                    2,
                    FlightKind::BusDeliver,
                    2,
                    0,
                    pack_msg(MSG_ACK, 9),
                ),
                ev("client-0", 1, 3, FlightKind::OpRetransmit, 0, 7, 1),
                ev("client-0", 2, 4, FlightKind::OpRetransmit, 0, 8, 0),
            ],
        };
        let opts = DiagramOptions {
            lane_width: 32,
            ..DiagramOptions::default()
        };
        let s = flight_space_time(&dump, 3, &opts);
        assert!(s.contains("delay →p2 3ms"), "{s}");
        assert!(s.contains("recv ack#9"), "{s}");
        // The trigger word: 1 is the reply gap, 0 (and every dump written
        // before the word meant anything) the deadline.
        assert!(s.contains("retransmit sn=7 (gap)\n"), "{s}");
        assert!(s.contains("retransmit sn=8\n"), "{s}");
    }

    #[test]
    fn merged_dump_labels_carry_proc_and_span() {
        let w = pack_span(3, 41);
        let dump = FlightDump {
            events: vec![
                span_ev(
                    "server-0",
                    0,
                    2,
                    FlightKind::BusDeliver,
                    0,
                    3,
                    pack_msg(MSG_UPDATE, 1),
                    w,
                    "s0",
                ),
                span_ev("server-0", 1, 3, FlightKind::ServerAck, 0, 3, 1, w, "s0"),
                // A remote event without a span still gets a proc prefix.
                span_ev(
                    "server-0",
                    2,
                    4,
                    FlightKind::WalFlush,
                    0,
                    1,
                    120,
                    SPAN_NONE,
                    "s0",
                ),
            ],
        };
        let opts = DiagramOptions {
            lane_width: 48,
            ..DiagramOptions::default()
        };
        let s = flight_space_time(&dump, 4, &opts);
        assert!(s.contains("[s0] recv update#1 ⟵p3 ·c3op41"), "{s}");
        assert!(s.contains("[s0] ack →p3 sn=1 ·c3op41"), "{s}");
        assert!(s.contains("[s0] wal flush (1 acks)"), "{s}");
        assert!(
            !s.contains("wal flush (1 acks) ·c"),
            "spanless event grew a span tag:\n{s}"
        );
    }

    #[test]
    fn latency_breakdown_computes_phase_medians_over_complete_spans() {
        let w1 = pack_span(3, 1);
        let w2 = pack_span(3, 2);
        let mut events = vec![
            // Op 1: start 10, send 14, deliver 20, ack 29, complete 45.
            span_ev("client-3", 0, 10, FlightKind::OpStartWrite, 3, 1, 0, w1, ""),
            span_ev("client-3", 1, 14, FlightKind::BusSend, 3, 0, 0, w1, ""),
            span_ev("server-0", 0, 20, FlightKind::BusDeliver, 0, 3, 0, w1, "s0"),
            span_ev("server-0", 1, 29, FlightKind::ServerAck, 0, 3, 1, w1, "s0"),
            span_ev(
                "client-3",
                2,
                45,
                FlightKind::OpCompleteWrite,
                3,
                1,
                0,
                w1,
                "",
            ),
            // Op 2: start 50, send 56, deliver 60, ack 75, complete 80.
            span_ev("client-3", 3, 50, FlightKind::OpStartRead, 3, 2, 0, w2, ""),
            span_ev("client-3", 4, 56, FlightKind::BusSend, 3, 1, 0, w2, ""),
            span_ev("server-1", 0, 60, FlightKind::BusDeliver, 1, 3, 0, w2, "s1"),
            span_ev("server-1", 1, 75, FlightKind::ServerAck, 1, 3, 2, w2, "s1"),
            span_ev(
                "client-3",
                5,
                80,
                FlightKind::OpCompleteRead,
                3,
                2,
                0,
                w2,
                "",
            ),
            // Remote fsyncs: durations 100 and 300 → median picks 300
            // (upper-median of an even-length set).
            span_ev(
                "server-0",
                2,
                30,
                FlightKind::WalFlush,
                0,
                1,
                100,
                SPAN_NONE,
                "s0",
            ),
            span_ev(
                "server-1",
                2,
                76,
                FlightKind::WalFlush,
                1,
                1,
                300,
                SPAN_NONE,
                "s1",
            ),
            // An incomplete span (no completion in the window) is skipped.
            span_ev(
                "client-2",
                0,
                90,
                FlightKind::OpStartRead,
                2,
                7,
                0,
                pack_span(2, 7),
                "",
            ),
        ];
        events.sort_by_key(|e| e.t_us);
        let dump = FlightDump { events };
        let b = latency_breakdown(&dump);
        assert_eq!(b.ops, 2);
        // Phase samples: queue {4, 6}, wire {6, 4}, ack {9, 15},
        // quorum {16, 5}; upper-median of each two-element set.
        assert_eq!(b.client_queue_us, 6);
        assert_eq!(b.wire_us, 6);
        assert_eq!(b.server_ack_us, 15);
        assert_eq!(b.fsync_us, 300);
        assert_eq!(b.quorum_complete_us, 16);
    }

    #[test]
    fn latency_breakdown_of_a_local_only_dump_is_all_zero() {
        let b = latency_breakdown(&fixture());
        assert_eq!(b, LatencyBreakdown::default());
    }
}
