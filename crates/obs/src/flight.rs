//! The flight recorder: always-on, bounded, per-thread event rings.
//!
//! A [`FlightRecorder`] owns one lock-free ring buffer per participating
//! thread ([`FlightRing`]). Recording an event is O(1) — a handful of
//! relaxed/release atomic stores into a preallocated slot — so the runtime
//! leaves it on in
//! the hot path (bus sends, fault decisions, client ops, server acks,
//! monitor cuts). Each ring keeps only the most recent `capacity` events;
//! older ones are silently overwritten, which is the point: when something
//! goes wrong mid-soak (a monitor violation, a stall), [`FlightRecorder::dump`]
//! snapshots every ring into a [`FlightDump`] — the last few thousand events
//! per thread, merged in time order — without ever having paid for full
//! tracing.
//!
//! Dumps serialize to a schema-versioned JSONL form (see
//! `docs/OBS_SCHEMA.md`, `flight_dump`/`flight_event` records) and parse
//! back losslessly, so a dump written by a failing CI run can be re-rendered
//! as a space-time diagram offline.
//!
//! # Consistency
//!
//! Writers are single-threaded per ring (one thread records into a ring:
//! its own, or those of the machines it steps); readers may race a writer. Every slot carries a version word
//! written before and after the payload (odd while a write is in flight),
//! and the snapshot skips slots whose version changed or is odd. All slot
//! fields are atomics, so a racing read is well-defined; the residual risk —
//! a writer lapping a reader by a full ring *during* a six-word read, with
//! both version loads agreeing — would garble one diagnostic event, never
//! program state.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, Json};

/// The span word of an event not attributed to any client operation.
pub const SPAN_NONE: u64 = u64::MAX;

/// The key word of an event not attributed to a specific register: every
/// event that is not a client's op start or completion.
pub const KEY_NONE: u64 = u64::MAX;

/// Packs an originating-op trace context — client pid (24 bits) and
/// invocation id (40 bits) — into one event span word. The runtime's
/// invocation ids (`client × 10_000_000 + op_idx`) stay far below 2⁴⁰ for
/// any realistic client count, and [`SPAN_NONE`] is reserved.
#[must_use]
pub fn pack_span(client: u32, op: u64) -> u64 {
    (u64::from(client) << 40) | (op & ((1 << 40) - 1))
}

/// Inverse of [`pack_span`]: `(client, op)`, or `None` for [`SPAN_NONE`].
#[must_use]
pub fn unpack_span(w: u64) -> Option<(u32, u64)> {
    if w == SPAN_NONE {
        None
    } else {
        Some(((w >> 40) as u32, w & ((1 << 40) - 1)))
    }
}

/// What happened. Each kind fixes the meaning of an event's `a`/`b` words
/// (documented per variant; `pid` is the recording node or lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A client started a read op; `a` = invocation id.
    OpStartRead = 0,
    /// A client started a write op; `a` = invocation id, `b` = encoded
    /// argument value ([`encode_val`]).
    OpStartWrite = 1,
    /// A client re-broadcast the exchange an op is waiting in; `a` = the
    /// exchange's sequence number, `b` = what triggered it: `0` the shard's
    /// silence deadline, `1` the reply gap (the replies proved the quorum out
    /// of reach of first transmissions).
    OpRetransmit = 2,
    /// A read completed; `a` = invocation id, `b` = encoded return value.
    OpCompleteRead = 3,
    /// A write completed; `a` = invocation id, `b` = encoded return value.
    OpCompleteWrite = 4,
    /// The bus accepted a message for sending; `a` = destination node,
    /// `b` = packed message label ([`pack_msg`]).
    BusSend = 5,
    /// A node dequeued a message; `a` = source node, `b` = packed label.
    BusDeliver = 6,
    /// The fault injector dropped a message; `a` = destination, `b` =
    /// packed label.
    FaultDrop = 7,
    /// The injector duplicated a message; `a` = destination, `b` = packed
    /// label.
    FaultDuplicate = 8,
    /// The injector held a message back for reordering; `a` = destination,
    /// `b` = packed label.
    FaultReorder = 9,
    /// The injector delayed a message; `a` = destination, `b` = delay in
    /// milliseconds.
    FaultDelay = 10,
    /// A message died in a crash blackout window; `a` = destination, `b` =
    /// window index.
    FaultCrashDrop = 11,
    /// A message died in a partition window; `a` = destination, `b` =
    /// window index.
    FaultPartitionDrop = 12,
    /// A server acknowledged an update; `a` = destination client node,
    /// `b` = op sequence number.
    ServerAck = 13,
    /// A server flushed its WAL; `a` = acks released by the flush.
    WalFlush = 14,
    /// A server's crash window closed and its volatile state was wiped;
    /// `a` = WAL records lost to the crash.
    ServerCrash = 15,
    /// A server finished recovery and resumed serving; `a` = recovery
    /// duration in microseconds.
    ServerRecover = 16,
    /// The online monitor drained its channel: every action enqueued so far
    /// is checked; `a` = actions checked so far.
    MonitorCut = 17,
    /// The online monitor flagged a return that broke linearizability;
    /// `a` = index of the violation.
    MonitorViolation = 18,
}

/// Every kind, in discriminant order (handy for exhaustive fixtures).
pub const FLIGHT_KINDS: [FlightKind; 19] = [
    FlightKind::OpStartRead,
    FlightKind::OpStartWrite,
    FlightKind::OpRetransmit,
    FlightKind::OpCompleteRead,
    FlightKind::OpCompleteWrite,
    FlightKind::BusSend,
    FlightKind::BusDeliver,
    FlightKind::FaultDrop,
    FlightKind::FaultDuplicate,
    FlightKind::FaultReorder,
    FlightKind::FaultDelay,
    FlightKind::FaultCrashDrop,
    FlightKind::FaultPartitionDrop,
    FlightKind::ServerAck,
    FlightKind::WalFlush,
    FlightKind::ServerCrash,
    FlightKind::ServerRecover,
    FlightKind::MonitorCut,
    FlightKind::MonitorViolation,
];

impl FlightKind {
    /// The stable snake-case name used in JSONL dumps.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::OpStartRead => "op_start_read",
            FlightKind::OpStartWrite => "op_start_write",
            FlightKind::OpRetransmit => "op_retransmit",
            FlightKind::OpCompleteRead => "op_complete_read",
            FlightKind::OpCompleteWrite => "op_complete_write",
            FlightKind::BusSend => "bus_send",
            FlightKind::BusDeliver => "bus_deliver",
            FlightKind::FaultDrop => "fault_drop",
            FlightKind::FaultDuplicate => "fault_duplicate",
            FlightKind::FaultReorder => "fault_reorder",
            FlightKind::FaultDelay => "fault_delay",
            FlightKind::FaultCrashDrop => "fault_crash_drop",
            FlightKind::FaultPartitionDrop => "fault_partition_drop",
            FlightKind::ServerAck => "server_ack",
            FlightKind::WalFlush => "wal_flush",
            FlightKind::ServerCrash => "server_crash",
            FlightKind::ServerRecover => "server_recover",
            FlightKind::MonitorCut => "monitor_cut",
            FlightKind::MonitorViolation => "monitor_violation",
        }
    }

    /// Parses a dump name back into a kind.
    #[must_use]
    pub fn from_name(s: &str) -> Option<FlightKind> {
        FLIGHT_KINDS.iter().copied().find(|k| k.as_str() == s)
    }

    fn from_u8(b: u8) -> Option<FlightKind> {
        FLIGHT_KINDS.get(b as usize).copied()
    }
}

/// Encodes an optional integer register value into an event word.
/// `None` (⊥ / `Val::Nil`) maps to `u64::MAX`; this collides only with a
/// genuine value of `-1`, which the runtime's unique-write-value scheme
/// never produces.
#[must_use]
pub fn encode_val(v: Option<i64>) -> u64 {
    match v {
        None => u64::MAX,
        Some(x) => x as u64,
    }
}

/// Inverse of [`encode_val`].
#[must_use]
pub fn decode_val(w: u64) -> Option<i64> {
    if w == u64::MAX {
        None
    } else {
        Some(w as i64)
    }
}

/// Message-kind code for an ABD `Query` (see [`pack_msg`]).
pub const MSG_QUERY: u64 = 0;
/// Message-kind code for an ABD `Reply`.
pub const MSG_REPLY: u64 = 1;
/// Message-kind code for an ABD `Update`.
pub const MSG_UPDATE: u64 = 2;
/// Message-kind code for an ABD `Ack`.
pub const MSG_ACK: u64 = 3;
/// Message-kind code for a crash signal.
pub const MSG_CRASH: u64 = 4;
/// Message-kind code for a recovery `StateQuery`.
pub const MSG_STATE_QUERY: u64 = 5;
/// Message-kind code for a recovery `StateReply`.
pub const MSG_STATE_REPLY: u64 = 6;

/// Packs a message-kind code (3 bits) and its sequence number / window into
/// one event word.
#[must_use]
pub fn pack_msg(code: u64, sn: u64) -> u64 {
    (code & 7) | (sn << 3)
}

/// Inverse of [`pack_msg`]: `(code, sn)`.
#[must_use]
pub fn unpack_msg(w: u64) -> (u64, u64) {
    (w & 7, w >> 3)
}

/// Human label for a message-kind code (`"?"` for unknown codes).
#[must_use]
pub fn msg_code_name(code: u64) -> &'static str {
    match code {
        MSG_QUERY => "query",
        MSG_REPLY => "reply",
        MSG_UPDATE => "update",
        MSG_ACK => "ack",
        MSG_CRASH => "crash",
        MSG_STATE_QUERY => "state_query",
        MSG_STATE_REPLY => "state_reply",
        _ => "?",
    }
}

struct Slot {
    /// `0` = never written; odd = write in flight; `2·(seq+1)` = holds the
    /// event with sequence number `seq`.
    version: AtomicU64,
    t: AtomicU64,
    /// `kind | pid << 8`.
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    /// Packed originating-op span ([`pack_span`]); [`SPAN_NONE`] when the
    /// event is not attributed to a client operation.
    span: AtomicU64,
    /// Target register of a keyed-store op event; [`KEY_NONE`] otherwise.
    key: AtomicU64,
}

/// One bounded event ring, a thread's or a machine's. Obtained from
/// [`FlightRecorder::register_current`] / [`FlightRecorder::thread_ring`],
/// or [`FlightRecorder::register_lanes`] for a machine whose thread
/// [enters](FlightRecorder::enter) it; only one thread at a time should
/// record into it.
pub struct FlightRing {
    label: String,
    start: Instant,
    mask: u64,
    /// Events recorded so far: the next event's seq.
    head: AtomicU64,
    /// Events recorded so far that carry a span.
    spans: AtomicU64,
    slots: Vec<Slot>,
}

impl FlightRing {
    fn new(label: &str, capacity: usize, start: Instant) -> FlightRing {
        FlightRing {
            label: label.to_string(),
            start,
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            spans: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    t: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                    span: AtomicU64::new(SPAN_NONE),
                    key: AtomicU64::new(KEY_NONE),
                })
                .collect(),
        }
    }

    /// The ring's label (thread name).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records one event, stamped with the recorder's elapsed clock.
    pub fn record(&self, kind: FlightKind, pid: u32, a: u64, b: u64) {
        self.record_span(kind, pid, a, b, SPAN_NONE);
    }

    /// Records one span-attributed event ([`pack_span`] word; [`SPAN_NONE`]
    /// for unattributed events), stamped with the recorder's elapsed clock.
    pub fn record_span(&self, kind: FlightKind, pid: u32, a: u64, b: u64, span: u64) {
        let t = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.record_span_at(t, kind, pid, a, b, span);
    }

    /// Records one event with an explicit timestamp (µs since run start).
    /// Golden tests use this to pin deterministic dumps.
    pub fn record_at(&self, t_us: u64, kind: FlightKind, pid: u32, a: u64, b: u64) {
        self.record_span_at(t_us, kind, pid, a, b, SPAN_NONE);
    }

    /// Records one span-attributed event with an explicit timestamp.
    pub fn record_span_at(&self, t_us: u64, kind: FlightKind, pid: u32, a: u64, b: u64, span: u64) {
        self.record_span_key_at(t_us, kind, pid, a, b, span, KEY_NONE);
    }

    /// Records one span-attributed event targeting register `key`
    /// ([`KEY_NONE`] outside keyed-store runs), stamped with the recorder's
    /// elapsed clock.
    pub fn record_span_key(&self, kind: FlightKind, pid: u32, a: u64, b: u64, span: u64, key: u64) {
        let t = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.record_span_key_at(t, kind, pid, a, b, span, key);
    }

    /// Records one fully-attributed event with an explicit timestamp.
    #[allow(clippy::too_many_arguments)] // the slot layout, spelled out
    pub fn record_span_key_at(
        &self,
        t_us: u64,
        kind: FlightKind,
        pid: u32,
        a: u64,
        b: u64,
        span: u64,
        key: u64,
    ) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.version.store(seq * 2 + 1, Ordering::Release);
        slot.t.store(t_us, Ordering::Relaxed);
        slot.meta.store(
            u64::from(kind as u8) | (u64::from(pid) << 8),
            Ordering::Relaxed,
        );
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.span.store(span, Ordering::Relaxed);
        slot.key.store(key, Ordering::Relaxed);
        slot.version.store(seq * 2 + 2, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
        if span != SPAN_NONE {
            let spans = self.spans.load(Ordering::Relaxed);
            self.spans.store(spans + 1, Ordering::Relaxed);
        }
    }

    fn snapshot_into(&self, out: &mut Vec<FlightEvent>) {
        for slot in &self.slots {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue;
            }
            let t_us = slot.t.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let span = slot.span.load(Ordering::Relaxed);
            let key = slot.key.load(Ordering::Relaxed);
            if slot.version.load(Ordering::Acquire) != v1 {
                continue; // torn: the writer lapped us mid-read
            }
            let Some(kind) = FlightKind::from_u8((meta & 0xFF) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                ring: self.label.clone(),
                seq: v1 / 2 - 1,
                t_us,
                kind,
                pid: (meta >> 8) as u32,
                a,
                b,
                span,
                key,
                proc: String::new(),
            });
        }
    }
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of `(recorder id, ring)` pairs, so the hot-path
    /// [`FlightRecorder::thread_ring`] lookup is a short TLS scan.
    static TLS_RINGS: RefCell<Vec<(u64, Arc<FlightRing>)>> = const { RefCell::new(Vec::new()) };
}

/// A set of flight rings sharing one run clock.
///
/// Create one per run, hand clones of the `Arc` to every thread, have each
/// thread call [`register_current`](FlightRecorder::register_current) with
/// its lane name — or register a ring per machine with
/// [`register_lanes`](FlightRecorder::register_lanes) and
/// [`enter`](FlightRecorder::enter) it before stepping the machine — then
/// [`dump`](FlightRecorder::dump) whenever a window into recent history is
/// needed. Dumping does not consume events.
pub struct FlightRecorder {
    id: u64,
    start: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<FlightRing>>>,
    anon: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("rings", &self.rings.lock().unwrap().len())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder whose rings each hold the `capacity` most recent events
    /// (rounded up to a power of two, at least 8).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            capacity: capacity.max(8).next_power_of_two(),
            rings: Mutex::new(Vec::new()),
            anon: AtomicU64::new(0),
        }
    }

    /// Registers a fresh ring labeled `label` for the calling thread and
    /// caches it in thread-local storage, replacing any prior ring this
    /// thread had with this recorder.
    pub fn register_current(&self, label: &str) -> Arc<FlightRing> {
        let ring = self.register_lanes(label, 1);
        self.enter(&ring);
        ring
    }

    /// Registers a fresh ring labeled `label` that records for `lanes`
    /// participants — a host running several replicas: it holds `lanes`
    /// rings' worth of events (rounded up to a power of two), so a dump
    /// keeps at least as much history per participant as one ring each
    /// would have. No thread's current ring until one
    /// [`enter`](FlightRecorder::enter)s it.
    pub fn register_lanes(&self, label: &str, lanes: usize) -> Arc<FlightRing> {
        let capacity = (self.capacity * lanes.max(1)).next_power_of_two();
        let ring = Arc::new(FlightRing::new(label, capacity, self.start));
        self.rings.lock().unwrap().push(Arc::clone(&ring));
        ring
    }

    /// Makes `ring` the calling thread's ring for this recorder: what
    /// [`thread_ring`](FlightRecorder::thread_ring) returns from now on. A
    /// thread that steps several machines enters each one's ring before
    /// stepping it, so what a machine sends is recorded in its own ring.
    pub fn enter(&self, ring: &Arc<FlightRing>) {
        TLS_RINGS.with(|tls| {
            let mut v = tls.borrow_mut();
            if let Some(entry) = v.iter_mut().find(|(id, _)| *id == self.id) {
                if !Arc::ptr_eq(&entry.1, ring) {
                    entry.1 = Arc::clone(ring);
                }
                return;
            }
            // Drop cache entries whose recorder is gone (we hold the only
            // other strong ref), so long test binaries don't accumulate.
            v.retain(|(_, r)| Arc::strong_count(r) > 1);
            v.push((self.id, Arc::clone(ring)));
        });
    }

    /// The calling thread's ring, registering an anonymous one on first use
    /// (threads the runtime doesn't name — e.g. the bus delayer — still get
    /// captured).
    pub fn thread_ring(&self) -> Arc<FlightRing> {
        let cached = TLS_RINGS.with(|tls| {
            tls.borrow()
                .iter()
                .find(|(id, _)| *id == self.id)
                .map(|(_, r)| Arc::clone(r))
        });
        if let Some(ring) = cached {
            return ring;
        }
        let n = self.anon.fetch_add(1, Ordering::Relaxed);
        self.register_current(&format!("anon-{n}"))
    }

    /// Number of registered rings.
    #[must_use]
    pub fn rings(&self) -> usize {
        self.rings.lock().unwrap().len()
    }

    /// Snapshots every ring into one time-ordered dump. Events are sorted
    /// by `(t_us, proc, ring, seq)` so same-microsecond events order
    /// deterministically.
    #[must_use]
    pub fn dump(&self) -> FlightDump {
        let mut events = Vec::new();
        for ring in self.rings.lock().unwrap().iter() {
            ring.snapshot_into(&mut events);
        }
        sort_events(&mut events);
        FlightDump { events }
    }

    /// How many events every ring has recorded so far, and how many of
    /// them carry a span: exact counts, however often the rings lapped.
    #[must_use]
    pub fn recorded(&self) -> (u64, u64) {
        let rings = self.rings.lock().unwrap();
        let events = rings.iter().map(|r| r.head.load(Ordering::Acquire));
        let spans = rings.iter().map(|r| r.spans.load(Ordering::Relaxed));
        (events.sum(), spans.sum())
    }

    /// Microseconds elapsed on this recorder's clock — the timestamp the
    /// next [`FlightRing::record`] would get. Socket handshakes use it for
    /// cross-process clock-offset estimation.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// The canonical dump order: `(t_us, proc, ring, seq)`.
fn sort_events(events: &mut [FlightEvent]) {
    events
        .sort_by(|x, y| (x.t_us, &x.proc, &x.ring, x.seq).cmp(&(y.t_us, &y.proc, &y.ring, y.seq)));
}

/// One recorded event, as it appears in a dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Label of the ring (thread) that recorded it.
    pub ring: String,
    /// Per-ring sequence number (monotone; gaps mean ring overwrite).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub t_us: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The recording node / lane.
    pub pid: u32,
    /// First payload word (meaning fixed by `kind`).
    pub a: u64,
    /// Second payload word (meaning fixed by `kind`).
    pub b: u64,
    /// Packed originating-op trace context ([`pack_span`]); [`SPAN_NONE`]
    /// when the event is not attributed to a client operation.
    pub span: u64,
    /// The register an op event targets; [`KEY_NONE`] for non-op events.
    pub key: u64,
    /// The process this event came from in a merged cross-process dump
    /// (e.g. `"s0"` for server process 0); empty for events recorded
    /// locally.
    pub proc: String,
}

impl FlightEvent {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("type".into(), Json::Str("flight_event".into())),
            ("ring".into(), Json::Str(self.ring.clone())),
            ("seq".into(), Json::UInt(self.seq)),
            ("t_us".into(), Json::UInt(self.t_us)),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("pid".into(), Json::UInt(u64::from(self.pid))),
            ("a".into(), Json::UInt(self.a)),
            ("b".into(), Json::UInt(self.b)),
        ];
        // Defaults are elided so unattributed local events stay compact
        // and absent-field ↔ default stays a bijection (parse → serialize
        // is the identity).
        if self.span != SPAN_NONE {
            pairs.push(("span".into(), Json::UInt(self.span)));
        }
        if self.key != KEY_NONE {
            pairs.push(("key".into(), Json::UInt(self.key)));
        }
        if !self.proc.is_empty() {
            pairs.push(("proc".into(), Json::Str(self.proc.clone())));
        }
        Json::Obj(pairs)
    }

    fn from_json(j: &Json) -> Result<FlightEvent, String> {
        let field = |name: &str| {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("flight_event missing field {name:?}: {j}"))
        };
        let kind_name = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("flight_event missing kind: {j}"))?;
        Ok(FlightEvent {
            ring: j
                .get("ring")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("flight_event missing ring: {j}"))?
                .to_string(),
            seq: field("seq")?,
            t_us: field("t_us")?,
            kind: FlightKind::from_name(kind_name)
                .ok_or_else(|| format!("unknown flight_event kind {kind_name:?}"))?,
            pid: u32::try_from(field("pid")?).map_err(|_| "pid out of range".to_string())?,
            a: field("a")?,
            b: field("b")?,
            span: j.get("span").and_then(Json::as_u64).unwrap_or(SPAN_NONE),
            key: j.get("key").and_then(Json::as_u64).unwrap_or(KEY_NONE),
            proc: j
                .get("proc")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }
}

/// A drained flight recorder: the most recent events of every ring, merged
/// in time order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// Events, ascending by `(t_us, ring, seq)`.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The dump restricted to its last `n` events (the window rendered into
    /// space-time diagrams).
    #[must_use]
    pub fn last_n(&self, n: usize) -> FlightDump {
        let skip = self.events.len().saturating_sub(n);
        FlightDump {
            events: self.events[skip..].to_vec(),
        }
    }

    /// Serializes as JSONL: one `flight_dump` header line, then one
    /// `flight_event` line per event.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let header = json::doc(
            "flight_dump",
            vec![("events".into(), Json::UInt(self.events.len() as u64))],
        );
        let mut out = header.to_string();
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL dump back. The first record must be a `flight_dump`
    /// header ([`json::open`]); records of other types are skipped (dumps
    /// may be embedded in larger JSONL streams).
    pub fn parse(text: &str) -> Result<FlightDump, String> {
        let records = crate::recorder::parse_jsonl(text).map_err(|e| e.to_string())?;
        let header = records
            .first()
            .ok_or_else(|| "empty flight dump".to_string())?;
        json::open(header, "flight_dump")?;
        let mut events = Vec::new();
        for r in &records[1..] {
            if r.get("type").and_then(Json::as_str) == Some("flight_event") {
                events.push(FlightEvent::from_json(r)?);
            }
        }
        Ok(FlightDump { events })
    }

    /// Merges remote processes' dumps into this one. For each
    /// `(proc, clock_offset_us, dump)`, every event of `dump` is stamped
    /// with the process label `proc` and its timestamp is shifted from the
    /// remote clock onto this dump's clock by `clock_offset_us` (the
    /// estimate `remote_clock − local_clock` from the `Hello` handshake;
    /// shifted times saturate at 0). The result is sorted once, into the
    /// canonical `(t_us, proc, ring, seq)` order.
    pub fn merge_remotes<'a>(
        &mut self,
        remotes: impl IntoIterator<Item = (String, i64, &'a FlightDump)>,
    ) {
        for (proc, clock_offset_us, dump) in remotes {
            for e in &dump.events {
                let t_us = if clock_offset_us >= 0 {
                    e.t_us.saturating_sub(clock_offset_us.unsigned_abs())
                } else {
                    e.t_us.saturating_add(clock_offset_us.unsigned_abs())
                };
                self.events.push(FlightEvent {
                    t_us,
                    proc: proc.clone(),
                    ..e.clone()
                });
            }
        }
        sort_events(&mut self.events);
    }
}

/// Returns `stem` the first time it is requested in this process and
/// `stem.2`, `stem.3`, … on repeats, so concurrent or repeated dumps under
/// one artifact directory never overwrite each other. Callers append their
/// own extensions (`.flight.jsonl`, `.diagram.txt`) to the returned stem,
/// which keeps a dump's sibling artifacts sharing one suffix.
pub fn unique_dump_stem(stem: &str) -> String {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static USED: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    let mut used = USED
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("dump stem lock");
    let n = used.entry(stem.to_string()).or_insert(0);
    *n += 1;
    if *n == 1 {
        stem.to_string()
    } else {
        format!("{stem}.{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for (i, k) in FLIGHT_KINDS.iter().enumerate() {
            assert_eq!(*k as u8 as usize, i, "discriminant order");
            assert_eq!(FlightKind::from_name(k.as_str()), Some(*k));
            assert_eq!(FlightKind::from_u8(i as u8), Some(*k));
        }
        assert_eq!(FlightKind::from_name("nope"), None);
        assert_eq!(FlightKind::from_u8(19), None);
    }

    #[test]
    fn val_and_msg_packing_round_trip() {
        for v in [None, Some(0), Some(5), Some(-2), Some(i64::MAX)] {
            assert_eq!(decode_val(encode_val(v)), v);
        }
        for (code, sn) in [(MSG_QUERY, 0), (MSG_ACK, 7_777_777), (MSG_STATE_REPLY, 1)] {
            assert_eq!(unpack_msg(pack_msg(code, sn)), (code, sn));
        }
        assert_eq!(msg_code_name(MSG_UPDATE), "update");
        assert_eq!(msg_code_name(99), "?");
    }

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let rec = FlightRecorder::new(8);
        let ring = rec.register_current("client-0");
        for i in 0..20u64 {
            ring.record_at(i, FlightKind::BusSend, 0, i, 0);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 8);
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        assert!(dump.events.iter().all(|e| e.a == e.seq));
    }

    #[test]
    fn recorded_counts_every_event_a_lapped_ring_evicted() {
        let rec = FlightRecorder::new(8);
        let client = rec.register_current("client-0");
        for i in 0..20u64 {
            client.record_span_at(i, FlightKind::BusSend, 0, i, 0, pack_span(0, i % 2));
        }
        let other = rec.register_current("server-0");
        for i in 0..5u64 {
            other.record_at(i, FlightKind::BusDeliver, 1, i, 0);
        }
        assert_eq!(rec.dump().len(), 8 + 5, "the rings keep their tails");
        assert_eq!(rec.recorded(), (25, 20), "the counts keep everything");
    }

    #[test]
    fn a_ring_for_several_lanes_keeps_each_lane_a_whole_ring_of_history() {
        // Three lanes interleaved on one thread: the ring holds at least
        // three rings' worth, so each lane keeps its last 8 events.
        let rec = FlightRecorder::new(8);
        let ring = rec.register_lanes("server-s0", 3);
        for i in 0..60u64 {
            ring.record_at(i, FlightKind::BusDeliver, (i % 3) as u32, i, 0);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 32, "3 × 8 rounded up to a power of two");
        for lane in 0..3 {
            let kept = dump.events.iter().filter(|e| e.pid == lane).count();
            assert!(kept >= 8, "lane {lane} kept {kept} events");
        }
        assert!(dump.events.iter().all(|e| e.ring == "server-s0"));
        // One lane is a plain ring.
        let one = FlightRecorder::new(8);
        let ring = one.register_lanes("server-0", 1);
        for i in 0..20u64 {
            ring.record_at(i, FlightKind::BusDeliver, 0, i, 0);
        }
        assert_eq!(one.dump().len(), 8);
    }

    #[test]
    fn dump_merges_rings_in_time_order_without_consuming() {
        let rec = FlightRecorder::new(16);
        let a = rec.register_current("client-0");
        a.record_at(5, FlightKind::OpStartWrite, 3, 1, encode_val(Some(9)));
        std::thread::scope(|s| {
            s.spawn(|| {
                let b = rec.register_current("server-0");
                b.record_at(2, FlightKind::BusDeliver, 0, 3, pack_msg(MSG_UPDATE, 1));
            });
            s.spawn(|| {
                let b = rec.register_current("server-1");
                b.record_at(9, FlightKind::ServerAck, 1, 3, 1);
            });
        });
        let d1 = rec.dump();
        let d2 = rec.dump();
        assert_eq!(d1, d2, "dumping is non-destructive");
        let times: Vec<u64> = d1.events.iter().map(|e| e.t_us).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(rec.rings(), 3);
    }

    #[test]
    fn thread_ring_registers_anonymous_rings_once() {
        let rec = FlightRecorder::new(8);
        let r1 = rec.thread_ring();
        let r2 = rec.thread_ring();
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(r1.label(), "anon-0");
        // Two recorders on the same thread keep distinct rings.
        let other = FlightRecorder::new(8);
        assert_eq!(other.thread_ring().label(), "anon-0");
        assert!(Arc::ptr_eq(&rec.thread_ring(), &r1));
    }

    #[test]
    fn a_thread_records_into_the_ring_it_entered_last() {
        // One thread stepping two machines: each one's sends land in its
        // own ring, however often the thread switches between them.
        let rec = FlightRecorder::new(8);
        let client = rec.register_lanes("client-3", 1);
        let server = rec.register_lanes("server-s0", 3);
        assert_eq!(rec.rings(), 2, "registered, not yet entered");
        for _ in 0..2 {
            rec.enter(&client);
            assert!(Arc::ptr_eq(&rec.thread_ring(), &client));
            rec.enter(&server);
            assert!(Arc::ptr_eq(&rec.thread_ring(), &server));
        }
        assert_eq!(rec.rings(), 2, "entering registers nothing");
        // Another thread has a current ring of its own.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(rec.thread_ring().label(), "anon-0"));
        });
    }

    #[test]
    fn jsonl_round_trips_and_rejects_bad_headers() {
        let rec = FlightRecorder::new(8);
        let ring = rec.register_current("monitor");
        ring.record_at(1, FlightKind::MonitorCut, 7, 4, 0);
        ring.record_at(2, FlightKind::MonitorViolation, 7, 5, 0);
        let dump = rec.dump();
        let text = dump.to_jsonl();
        assert_eq!(FlightDump::parse(&text).unwrap(), dump);
        assert!(FlightDump::parse("").is_err());
        assert!(FlightDump::parse("{\"type\":\"metric\"}\n").is_err());
        let v = json::SCHEMA_VERSION;
        let wrong = text.replacen(
            &format!("\"schema_version\":{v}"),
            &format!("\"schema_version\":{}", v + 1),
            1,
        );
        let err = FlightDump::parse(&wrong).unwrap_err();
        assert!(
            err.contains(&format!("flight_dump schema v{}", v + 1)),
            "{err}"
        );
    }

    #[test]
    fn span_packing_round_trips_and_none_is_reserved() {
        assert_eq!(unpack_span(SPAN_NONE), None);
        for (client, op) in [(0, 0), (3, 12), (7, 39_999_999), (255, (1 << 40) - 2)] {
            assert_eq!(unpack_span(pack_span(client, op)), Some((client, op)));
        }
    }

    #[test]
    fn span_attributed_events_round_trip() {
        let rec = FlightRecorder::new(8);
        let ring = rec.register_current("server-0");
        ring.record_span_at(5, FlightKind::ServerAck, 0, 3, 1, pack_span(3, 12));
        ring.record_at(6, FlightKind::WalFlush, 0, 1, 250);
        let dump = rec.dump();
        assert_eq!(dump.events[0].span, pack_span(3, 12));
        assert_eq!(dump.events[1].span, SPAN_NONE);
        let text = dump.to_jsonl();
        assert!(text.contains("\"span\":"), "attributed events carry span");
        assert_eq!(FlightDump::parse(&text).unwrap(), dump);
    }

    #[test]
    fn keyed_events_round_trip_and_unkeyed_dumps_stay_byte_identical() {
        let rec = FlightRecorder::new(8);
        let ring = rec.register_current("client-0");
        ring.record_span_key_at(3, FlightKind::OpStartWrite, 0, 1, 5, pack_span(0, 1), 42);
        ring.record_span_at(4, FlightKind::OpCompleteWrite, 0, 1, 5, pack_span(0, 1));
        let dump = rec.dump();
        assert_eq!(dump.events[0].key, 42);
        assert_eq!(dump.events[1].key, KEY_NONE);
        let text = dump.to_jsonl();
        assert!(text.contains("\"key\":42"), "keyed events carry key");
        assert_eq!(FlightDump::parse(&text).unwrap(), dump);

        // An unkeyed dump serializes without any `key` field at all —
        // pre-keyed consumers and goldens see exactly the old bytes.
        let rec2 = FlightRecorder::new(8);
        let ring2 = rec2.register_current("client-0");
        ring2.record_span_at(3, FlightKind::OpStartWrite, 0, 1, 5, pack_span(0, 1));
        assert!(!rec2.dump().to_jsonl().contains("\"key\""));
    }

    /// A remote server's event at `t_us` on its own clock.
    fn remote_event(ring: &str, seq: u64, t_us: u64) -> FlightEvent {
        FlightEvent {
            ring: ring.into(),
            seq,
            t_us,
            kind: FlightKind::ServerAck,
            pid: 0,
            a: 3,
            b: 1,
            span: pack_span(3, seq),
            key: KEY_NONE,
            proc: String::new(),
        }
    }

    #[test]
    fn merge_remotes_aligns_clocks_and_labels_processes() {
        let rec = FlightRecorder::new(8);
        let ring = rec.register_current("client-3");
        ring.record_at(100, FlightKind::OpStartWrite, 3, 1, encode_val(Some(9)));
        let mut merged = rec.dump();

        let remote = FlightDump {
            events: vec![remote_event("server-0", 1, 1_150)],
        };
        // Remote clock runs 1000µs ahead of ours: its t=1150 is our t=150.
        merged.merge_remotes([("s0".to_string(), 1_000, &remote)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.events[1].t_us, 150);
        assert_eq!(merged.events[1].proc, "s0");
        assert_eq!(merged.events[1].span, pack_span(3, 1));
        // A remote clock *behind* ours shifts the other way; saturation at 0
        // keeps a large positive offset from wrapping.
        let mut m2 = FlightDump::default();
        m2.merge_remotes([("s1".to_string(), -50, &remote)]);
        assert_eq!(m2.events[0].t_us, 1_200);
        m2.merge_remotes([("s2".to_string(), i64::MAX, &remote)]);
        assert_eq!(m2.events[0].t_us, 0, "saturates, resorted to front");
        // Round trip: proc fields survive JSONL.
        let reparsed = FlightDump::parse(&merged.to_jsonl()).unwrap();
        assert_eq!(reparsed, merged);
    }

    #[test]
    fn merging_every_server_at_once_equals_merging_them_one_by_one() {
        let rec = FlightRecorder::new(64);
        let ring = rec.register_current("client-6");
        for t in (0..400).step_by(37) {
            ring.record_at(t, FlightKind::BusSend, 6, t, 0);
        }
        let local = rec.dump();
        // Three servers whose windows interleave with the local one, and
        // whose clock offsets make their shifted times equal across
        // processes, so the order also rests on the tie-breaks.
        let remotes: Vec<(String, i64, FlightDump)> = (0..3u64)
            .map(|s| {
                let events = (0..20)
                    .map(|i| remote_event(&format!("server-{s}"), i, 1_000 + s * 7 + i * 19))
                    .collect();
                (format!("s{s}"), 900 + 7 * s as i64, FlightDump { events })
            })
            .collect();

        let mut at_once = local.clone();
        at_once.merge_remotes(remotes.iter().map(|(p, off, d)| (p.clone(), *off, d)));
        let mut one_by_one = local.clone();
        for (p, off, d) in &remotes {
            one_by_one.merge_remotes([(p.clone(), *off, d)]);
        }
        assert_eq!(at_once.len(), local.len() + 60);
        assert_eq!(at_once.events, one_by_one.events);
    }

    #[test]
    fn last_n_takes_the_tail() {
        let rec = FlightRecorder::new(16);
        let ring = rec.register_current("client-0");
        for i in 0..10u64 {
            ring.record_at(i, FlightKind::BusSend, 0, i, 0);
        }
        let dump = rec.dump();
        let tail = dump.last_n(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.events[0].a, 7);
        assert_eq!(dump.last_n(99).len(), 10);
    }

    #[test]
    fn dump_stems_get_monotonic_suffixes_on_collision() {
        // First use of a stem is unsuffixed — CI configs and tests address
        // artifacts by their exact expected names — and only repeats grow
        // a sequence number.
        let stem = "test-stem-collision";
        assert_eq!(unique_dump_stem(stem), stem);
        assert_eq!(unique_dump_stem(stem), format!("{stem}.2"));
        assert_eq!(unique_dump_stem(stem), format!("{stem}.3"));
        assert_eq!(unique_dump_stem("test-stem-other"), "test-stem-other");
    }

    #[test]
    fn racing_reader_never_sees_torn_kinds() {
        let rec = FlightRecorder::new(64);
        std::thread::scope(|s| {
            let writer_ring = rec.register_current("writer");
            s.spawn(move || {
                for i in 0..50_000u64 {
                    writer_ring.record(FlightKind::BusSend, 1, i, i);
                }
            });
            for _ in 0..50 {
                let dump = rec.dump();
                for e in &dump.events {
                    assert_eq!(e.kind, FlightKind::BusSend);
                    assert_eq!(e.a, e.b);
                }
            }
        });
    }
}
