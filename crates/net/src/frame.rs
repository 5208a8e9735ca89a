//! The wire format: length-prefixed, versioned frames with a hand-rolled
//! zero-dependency encoding.
//!
//! ```text
//! frame     := len:u32le body
//! body      := version:u8 kind:u8 rest
//! kind 0    := Hello    node:u32le t_us:u64le
//! kind 1    := Env      tag:u64le re:u64le src:u32le dst:u32le exempt:u8
//!                       span payload
//! kind 2    := Shutdown
//! kind 3    := Goodbye  node:u32le dump_len:u32le dump:utf8
//! kind 4    := HelloAck node:u32le echo_t:u64le t_us:u64le
//! kind 5    := Telemetry node:u32le recovery fsync_count:u64le
//!                       fsync_p99_us:u64le span_events:u64le events:u64le
//! kind 6    := EnvBatch n:u32le entry*n
//! recovery  := crashes:u64le recoveries:u64le wal_lost:u64le
//!              wal_replayed:u64le state_queries:u64le
//!              catchup_aborted:u64le
//! entry     := tag:u64le re:u64le src:u32le dst:u32le exempt:u8
//!              span payload
//! span      := client:u32le op:u64le hop:u8
//! payload   := 0 obj:u32le sn:u32le                 (Abd Query)
//!            | 1 obj:u32le sn:u32le ts val          (Abd Reply)
//!            | 2 obj:u32le sn:u32le ts val          (Abd Update)
//!            | 3 obj:u32le sn:u32le                 (Abd Ack)
//!            | 4 window:u64le                       (Crash)
//!            | 5 sn:u64le                           (StateQuery)
//!            | 6 sn:u64le n:u32le snap*n            (StateReply)
//! snap      := obj:u32le ts val
//! ts        := t:i64le pid:u32le
//! val       := 0 | 1 v:i64le | 2 val val | 3 n:u32le val*n
//! ```
//!
//! `len` counts the body only and is capped at [`MAX_FRAME_LEN`]; a longer
//! frame is rejected on both encode and decode, bounding a reader's
//! allocation. Decoding is strict: unknown versions/kinds/tags, truncated
//! bodies, trailing bytes, and `Val` nesting past [`MAX_VAL_DEPTH`] are all
//! errors — a corrupt or hostile peer can kill its own connection, never
//! the process.
//!
//! The `tag`/`re` pair in `Env` frames is the RPC correlation header (see
//! [`crate::rpc`]): `tag` is unique per sent frame within a process, `re`
//! names the inbound frame this one answers (`0` = unsolicited). It is
//! deliberately *outside* the envelope payload: correlation is a transport
//! concern, and the in-process bus never materializes it.
//!
//! Version 2 added the distributed-tracing plane: the `span` trace context
//! on every `Env` (see [`crate::wire::SpanCtx`]), clock-sampling `Hello` /
//! `HelloAck` handshakes for cross-process clock-offset estimation, the
//! periodic server→driver `Telemetry` frame, and the bounded flight-dump
//! JSONL piggybacked on `Goodbye`.
//!
//! Version 3 added the keyed-store plane: `StateReply` carries a full
//! multi-register snapshot instead of a single `(val, ts)` pair, and the
//! `EnvBatch` kind carries several tagged envelopes in one frame for
//! batched quorum I/O. An `EnvBatch` is *transport amortization only*: it
//! decodes to exactly the envelope sequence its entries would produce as
//! individual `Env` frames, and fault fates are drawn per logical envelope
//! before batching, so the fault schedule cannot tell the difference.
//!
//! Version 4 made the last `Telemetry` a serve process's one report: it
//! carries every crash-recovery counter, and `Goodbye` carries only the
//! flight-dump tail, so no counter crosses the wire twice.

use std::fmt;
use std::io::{self, Read, Write};

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;

use crate::client::{RecoveryStats, ServerTelemetry};
use crate::wire::{Envelope, Payload, SpanCtx};

/// The wire-format version this build speaks. A peer announcing any other
/// version is rejected with [`FrameError::BadVersion`].
pub const FRAME_VERSION: u8 = 4;

/// Upper bound on an encoded frame body, in bytes. Bounds the allocation a
/// reader performs on behalf of a peer.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Maximum [`Val`] nesting depth a decoder will follow (`Pair`/`Tuple`
/// recursion); deeper structures are rejected rather than risking a stack
/// overflow on hostile input.
pub const MAX_VAL_DEPTH: u32 = 64;

/// The sentinel `Hello` node id announcing the client driver (servers are
/// `0..servers`, so the driver takes the top of the id space).
pub const DRIVER_NODE: u32 = u32::MAX;

/// One tagged envelope inside a [`Frame::EnvBatch`]: the same
/// `tag`/`re`/`env` triple a [`Frame::Env`] carries, minus the per-frame
/// framing overhead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedEnv {
    /// This entry's own tag (unique per sent frame within a process).
    pub tag: u64,
    /// The tag of the inbound frame this entry answers; 0 = unsolicited.
    pub re: u64,
    /// The envelope itself.
    pub env: Envelope,
}

/// One frame on a connection: a session handshake, a tagged envelope, or a
/// shutdown-protocol control message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// First frame on every connection: who is dialing. A server serves
    /// only [`DRIVER_NODE`]: it closes a connection whose `Hello` names any
    /// other node.
    Hello {
        /// The dialing node's id.
        node: u32,
        /// The dialer's flight-recorder clock at send time (µs), echoed in
        /// [`Frame::HelloAck`] for clock-offset estimation.
        t_us: u64,
    },
    /// A protocol envelope with its RPC correlation header.
    Env {
        /// This frame's own tag: unique per sent frame within a process,
        /// never 0. Receivers use it for duplicate suppression and echo it
        /// as `re` in replies.
        tag: u64,
        /// The tag of the inbound frame this one answers; 0 = unsolicited.
        re: u64,
        /// The envelope itself ([`Envelope::reply_to`] is *not* serialized —
        /// the header's `tag`/`re` carry correlation on the wire).
        env: Envelope,
    },
    /// The driver is done: finish pending work, send a [`Frame::Goodbye`],
    /// and exit.
    Shutdown,
    /// A server's last frame: it has sent its final [`Frame::Telemetry`]
    /// and is leaving.
    Goodbye {
        /// The departing server's pid.
        node: u32,
        /// A bounded flight-dump JSONL (the server's most recent events)
        /// piggybacked for the driver's merged cross-process dump;
        /// empty when the server has nothing to report.
        dump: String,
    },
    /// The accepting side's reply to a driver [`Frame::Hello`]: both clock
    /// samples the driver needs to estimate the server-clock offset
    /// (Cristian's algorithm: `offset ≈ t_us − (echo_t + rtt/2)`).
    HelloAck {
        /// The replying server's pid.
        node: u32,
        /// The `t_us` of the `Hello` being answered (the driver's send
        /// clock, echoed so the driver can compute the round trip).
        echo_t: u64,
        /// The server's flight-recorder clock when it sent this ack (µs).
        t_us: u64,
    },
    /// A server's cumulative report (server → driver, outside the fault
    /// schedule): sent periodically, and a last time right before its
    /// `Goodbye`, which makes that last one the server's report of its
    /// whole run. Feeds the driver's `--watch` line and survives as
    /// last-known state if the server dies before its `Goodbye`.
    Telemetry {
        /// The reporting server's pid.
        node: u32,
        /// Its counters so far.
        report: ServerTelemetry,
    },
    /// Several tagged envelopes in one frame: the batched-quorum-I/O
    /// amortization. Semantically identical to sending each entry as its
    /// own [`Frame::Env`] in order — receivers unpack and process entries
    /// sequentially, and the sender draws fault fates per logical envelope
    /// *before* packing, so batching never perturbs the fault schedule.
    EnvBatch {
        /// The batched entries, in send order.
        entries: Vec<TaggedEnv>,
    },
}

/// Why a frame failed to encode or decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The body ended before the structure it promised.
    Truncated,
    /// The body is longer than [`MAX_FRAME_LEN`].
    TooLarge {
        /// The offending length.
        len: usize,
    },
    /// The version byte is not [`FRAME_VERSION`].
    BadVersion(u8),
    /// The frame kind byte is unknown.
    BadKind(u8),
    /// A payload or value tag byte is unknown.
    BadTag(u8),
    /// Decoded bytes were left over after the frame's structure ended.
    Trailing {
        /// How many bytes remained.
        extra: usize,
    },
    /// A `Val` nested deeper than [`MAX_VAL_DEPTH`].
    TooDeep,
    /// A string field (the `Goodbye` dump) was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame body truncated"),
            FrameError::TooLarge { len } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            FrameError::BadVersion(v) => {
                write!(f, "frame version {v} (this build speaks {FRAME_VERSION})")
            }
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadTag(t) => write!(f, "unknown payload/value tag {t}"),
            FrameError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the frame body")
            }
            FrameError::TooDeep => {
                write!(f, "value nesting exceeds depth {MAX_VAL_DEPTH}")
            }
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_ts(out: &mut Vec<u8>, ts: Ts) {
    out.extend_from_slice(&ts.t.to_le_bytes());
    put_u32(out, ts.pid);
}

fn put_span(out: &mut Vec<u8>, span: SpanCtx) {
    put_u32(out, span.client);
    put_u64(out, span.op);
    out.push(span.hop);
}

fn put_val(out: &mut Vec<u8>, v: &Val) {
    match v {
        Val::Nil => out.push(0),
        Val::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Val::Pair(p) => {
            out.push(2);
            put_val(out, &p.0);
            put_val(out, &p.1);
        }
        Val::Tuple(items) => {
            out.push(3);
            put_u32(out, items.len() as u32);
            for item in items {
                put_val(out, item);
            }
        }
    }
}

fn put_payload(out: &mut Vec<u8>, p: &Payload) {
    match p {
        Payload::Abd(AbdMsg::Query { obj, sn }) => {
            out.push(0);
            put_u32(out, obj.0);
            put_u32(out, *sn);
        }
        Payload::Abd(AbdMsg::Reply { obj, sn, val, ts }) => {
            out.push(1);
            put_u32(out, obj.0);
            put_u32(out, *sn);
            put_ts(out, *ts);
            put_val(out, val);
        }
        Payload::Abd(AbdMsg::Update { obj, sn, val, ts }) => {
            out.push(2);
            put_u32(out, obj.0);
            put_u32(out, *sn);
            put_ts(out, *ts);
            put_val(out, val);
        }
        Payload::Abd(AbdMsg::Ack { obj, sn }) => {
            out.push(3);
            put_u32(out, obj.0);
            put_u32(out, *sn);
        }
        Payload::Crash { window } => {
            out.push(4);
            put_u64(out, *window);
        }
        Payload::StateQuery { sn } => {
            out.push(5);
            put_u64(out, *sn);
        }
        Payload::StateReply { sn, snap } => {
            out.push(6);
            put_u64(out, *sn);
            put_u32(out, snap.len() as u32);
            for (obj, val, ts) in snap {
                put_u32(out, obj.0);
                put_ts(out, *ts);
                put_val(out, val);
            }
        }
    }
}

fn put_tagged_env(out: &mut Vec<u8>, tag: u64, re: u64, env: &Envelope) {
    put_u64(out, tag);
    put_u64(out, re);
    put_u32(out, env.src.0);
    put_u32(out, env.dst.0);
    out.push(u8::from(env.exempt));
    put_span(out, env.span);
    put_payload(out, &env.msg);
}

/// A strict little-endian cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.at + n > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn ts(&mut self) -> Result<Ts, FrameError> {
        let t = self.i64()?;
        let pid = self.u32()?;
        Ok(Ts { t, pid })
    }

    fn span(&mut self) -> Result<SpanCtx, FrameError> {
        let client = self.u32()?;
        let op = self.u64()?;
        let hop = self.u8()?;
        Ok(SpanCtx { client, op, hop })
    }

    /// A `u32le`-length-prefixed UTF-8 string. The body cap bounds the
    /// claimed length; invalid UTF-8 is [`FrameError::BadUtf8`].
    fn string(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
    }

    fn val(&mut self, depth: u32) -> Result<Val, FrameError> {
        if depth > MAX_VAL_DEPTH {
            return Err(FrameError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Val::Nil),
            1 => Ok(Val::Int(self.i64()?)),
            2 => {
                let a = self.val(depth + 1)?;
                let b = self.val(depth + 1)?;
                Ok(Val::Pair(Box::new((a, b))))
            }
            3 => {
                let n = self.u32()? as usize;
                // No preallocation by the peer's claimed length: the body
                // cap bounds the real size, push grows as elements decode.
                let mut items = Vec::new();
                for _ in 0..n {
                    items.push(self.val(depth + 1)?);
                }
                Ok(Val::Tuple(items))
            }
            t => Err(FrameError::BadTag(t)),
        }
    }

    fn payload(&mut self) -> Result<Payload, FrameError> {
        match self.u8()? {
            0 => Ok(Payload::Abd(AbdMsg::Query {
                obj: ObjId(self.u32()?),
                sn: self.u32()?,
            })),
            1 => {
                let obj = ObjId(self.u32()?);
                let sn = self.u32()?;
                let ts = self.ts()?;
                let val = self.val(0)?;
                Ok(Payload::Abd(AbdMsg::Reply { obj, sn, val, ts }))
            }
            2 => {
                let obj = ObjId(self.u32()?);
                let sn = self.u32()?;
                let ts = self.ts()?;
                let val = self.val(0)?;
                Ok(Payload::Abd(AbdMsg::Update { obj, sn, val, ts }))
            }
            3 => Ok(Payload::Abd(AbdMsg::Ack {
                obj: ObjId(self.u32()?),
                sn: self.u32()?,
            })),
            4 => Ok(Payload::Crash {
                window: self.u64()?,
            }),
            5 => Ok(Payload::StateQuery { sn: self.u64()? }),
            6 => {
                let sn = self.u64()?;
                let n = self.u32()? as usize;
                // As with Val::Tuple: no preallocation by the peer's
                // claimed length — the body cap bounds the real size.
                let mut snap = Vec::new();
                for _ in 0..n {
                    let obj = ObjId(self.u32()?);
                    let ts = self.ts()?;
                    let val = self.val(0)?;
                    snap.push((obj, val, ts));
                }
                Ok(Payload::StateReply { sn, snap })
            }
            t => Err(FrameError::BadTag(t)),
        }
    }

    fn tagged_env(&mut self) -> Result<TaggedEnv, FrameError> {
        let tag = self.u64()?;
        let re = self.u64()?;
        let src = Pid(self.u32()?);
        let dst = Pid(self.u32()?);
        let exempt = self.u8()? != 0;
        let span = self.span()?;
        let msg = self.payload()?;
        Ok(TaggedEnv {
            tag,
            re,
            env: Envelope {
                src,
                dst,
                msg,
                exempt,
                reply_to: 0,
                span,
            },
        })
    }
}

impl From<TaggedEnv> for Frame {
    /// The entry as its own [`Frame::Env`].
    fn from(e: TaggedEnv) -> Frame {
        Frame::Env {
            tag: e.tag,
            re: e.re,
            env: e.env,
        }
    }
}

impl Frame {
    /// Packs `entries` into one [`Frame::EnvBatch`], counting the
    /// amortization as `net.batch.frames`/`net.batch.envelopes`.
    pub(crate) fn batch(entries: Vec<TaggedEnv>) -> Frame {
        blunt_obs::static_counter!("net.batch.frames").inc();
        blunt_obs::static_counter!("net.batch.envelopes").add(entries.len() as u64);
        blunt_obs::static_histogram!("net.batch.envelopes_per_frame").record(entries.len() as u64);
        Frame::EnvBatch { entries }
    }

    /// Encodes the frame as `len:u32le` + body, ready to write.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the body exceeds [`MAX_FRAME_LEN`].
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// [`Frame::encode`] into a caller-owned buffer, which is cleared
    /// first — a connection that keeps one buffer encodes every frame it
    /// writes without allocating.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the body exceeds [`MAX_FRAME_LEN`].
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        out.clear();
        out.extend_from_slice(&[0u8; 4]);
        out.push(FRAME_VERSION);
        match self {
            Frame::Hello { node, t_us } => {
                out.push(0);
                put_u32(out, *node);
                put_u64(out, *t_us);
            }
            Frame::Env { tag, re, env } => {
                out.push(1);
                put_tagged_env(out, *tag, *re, env);
            }
            Frame::Shutdown => out.push(2),
            Frame::Goodbye { node, dump } => {
                out.push(3);
                put_u32(out, *node);
                put_u32(out, dump.len() as u32);
                out.extend_from_slice(dump.as_bytes());
            }
            Frame::HelloAck { node, echo_t, t_us } => {
                out.push(4);
                put_u32(out, *node);
                put_u64(out, *echo_t);
                put_u64(out, *t_us);
            }
            Frame::Telemetry { node, report: t } => {
                out.push(5);
                put_u32(out, *node);
                let r = &t.recovery;
                for v in [
                    r.crashes,
                    r.recoveries,
                    r.wal_records_lost,
                    r.wal_records_replayed,
                    r.state_queries,
                    r.catchup_aborted,
                    t.fsync_count,
                    t.fsync_p99_us,
                    t.span_events,
                    t.events,
                ] {
                    put_u64(out, v);
                }
            }
            Frame::EnvBatch { entries } => {
                out.push(6);
                put_u32(out, entries.len() as u32);
                for e in entries {
                    put_tagged_env(out, e.tag, e.re, &e.env);
                }
            }
        }
        let body_len = out.len() - 4;
        if body_len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge { len: body_len });
        }
        out[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        Ok(())
    }

    /// Decodes one frame body (the bytes *after* the length prefix).
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]: truncation, bad version/kind/tag, trailing
    /// bytes, over-length bodies, over-deep values.
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        if body.len() > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge { len: body.len() });
        }
        let mut c = Cursor { buf: body, at: 0 };
        let version = c.u8()?;
        if version != FRAME_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let frame = match c.u8()? {
            0 => Frame::Hello {
                node: c.u32()?,
                t_us: c.u64()?,
            },
            1 => {
                let e = c.tagged_env()?;
                Frame::Env {
                    tag: e.tag,
                    re: e.re,
                    env: e.env,
                }
            }
            2 => Frame::Shutdown,
            3 => Frame::Goodbye {
                node: c.u32()?,
                dump: c.string()?,
            },
            4 => Frame::HelloAck {
                node: c.u32()?,
                echo_t: c.u64()?,
                t_us: c.u64()?,
            },
            5 => Frame::Telemetry {
                node: c.u32()?,
                report: ServerTelemetry {
                    recovery: RecoveryStats {
                        crashes: c.u64()?,
                        recoveries: c.u64()?,
                        wal_records_lost: c.u64()?,
                        wal_records_replayed: c.u64()?,
                        state_queries: c.u64()?,
                        catchup_aborted: c.u64()?,
                    },
                    fsync_count: c.u64()?,
                    fsync_p99_us: c.u64()?,
                    span_events: c.u64()?,
                    events: c.u64()?,
                },
            },
            6 => {
                let n = c.u32()? as usize;
                let mut entries = Vec::new();
                for _ in 0..n {
                    entries.push(c.tagged_env()?);
                }
                Frame::EnvBatch { entries }
            }
            k => return Err(FrameError::BadKind(k)),
        };
        if c.at != body.len() {
            return Err(FrameError::Trailing {
                extra: body.len() - c.at,
            });
        }
        Ok(frame)
    }
}

/// One connection's write half with its encode buffer: every frame is
/// encoded into the same allocation and leaves in a single `write_all`.
#[derive(Debug)]
pub struct FrameWriter<W> {
    w: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `w`; the encode buffer grows to the largest frame written.
    pub fn new(w: W) -> FrameWriter<W> {
        FrameWriter { w, buf: Vec::new() }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &W {
        &self.w
    }

    /// Writes one encoded frame, counting `net.frames_sent`/`net.bytes_sent`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; [`FrameError`]s surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn write(&mut self, frame: &Frame) -> io::Result<()> {
        frame
            .encode_into(&mut self.buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.w.write_all(&self.buf)?;
        blunt_obs::static_counter!("net.frames_sent").inc();
        blunt_obs::static_counter!("net.bytes_sent").add(self.buf.len() as u64);
        Ok(())
    }
}

/// Writes one encoded frame through a throwaway [`FrameWriter`] (one
/// allocation per call; connections keep a writer instead).
///
/// # Errors
///
/// As [`FrameWriter::write`].
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    FrameWriter::new(w).write(frame)
}

fn too_large(len: usize) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, FrameError::TooLarge { len })
}

/// Decodes one frame body, counting `net.frames_received`/`net.bytes_received`.
fn decode_counted(body: &[u8]) -> io::Result<Frame> {
    let frame = Frame::decode(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    blunt_obs::static_counter!("net.frames_received").inc();
    blunt_obs::static_counter!("net.bytes_received").add(4 + body.len() as u64);
    Ok(frame)
}

/// Reads one frame straight off `r`: one `read` for the header, one for
/// the body, and no byte past the frame's end is consumed. For callers
/// that hand the stream on afterwards; a connection's read loop uses a
/// [`FrameReader`]. Returns `Ok(None)` on a clean end of stream (EOF at a
/// frame boundary).
///
/// # Errors
///
/// Propagates the underlying I/O error; a body over [`MAX_FRAME_LEN`], a
/// mid-frame EOF, or a [`FrameError`] surface as
/// [`io::ErrorKind::InvalidData`]/[`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte ends the stream; EOF after a
    // partial header is a truncation error.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(too_large(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    decode_counted(&body).map(Some)
}

/// What a [`FrameReader`] asks the kernel for per `read`: room for a few
/// hundred protocol frames, so a burst queued on the socket costs one
/// syscall, not two per frame.
const READ_BUF_LEN: usize = 64 * 1024;

/// One connection's read half behind a buffer: a single `read` yields the
/// header, the body and any frames queued behind them, and bodies are
/// decoded in place. Same verdicts as [`read_frame`], frame for frame.
#[derive(Debug)]
pub struct FrameReader<R> {
    r: R,
    /// `buf[start..end]` holds bytes read but not yet decoded.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `r`. The buffer grows past its initial 64 KiB only for a
    /// frame that needs it, and never past [`MAX_FRAME_LEN`] + 4.
    pub fn new(r: R) -> FrameReader<R> {
        FrameReader {
            r,
            buf: vec![0u8; READ_BUF_LEN],
            start: 0,
            end: 0,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &R {
        &self.r
    }

    /// How many buffered bytes the frame under way takes, header included
    /// (4 until its header is whole), or the oversize-length error.
    fn need(&self) -> io::Result<usize> {
        if self.end - self.start < 4 {
            return Ok(4);
        }
        let header = &self.buf[self.start..self.start + 4];
        let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(too_large(len));
        }
        Ok(4 + len)
    }

    /// Whether the next [`FrameReader::read`] returns without touching the
    /// stream: a whole frame (or a refused length) is already buffered.
    #[must_use]
    pub fn has_frame(&self) -> bool {
        self.need()
            .map_or(true, |need| self.end - self.start >= need)
    }

    /// Reads one frame, counting `net.frames_received`/`net.bytes_received`.
    /// Returns `Ok(None)` on a clean end of stream (EOF at a frame
    /// boundary).
    ///
    /// A stream with a read timeout may fail a `read` part-way through a
    /// frame ([`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`]):
    /// the bytes that did arrive stay buffered, and a later call picks the
    /// frame up where this one stopped.
    ///
    /// # Errors
    ///
    /// As [`read_frame`].
    pub fn read(&mut self) -> io::Result<Option<Frame>> {
        loop {
            let have = self.end - self.start;
            let need = self.need()?;
            if have >= need {
                let frame = decode_counted(&self.buf[self.start + 4..self.start + need])?;
                self.start += need;
                if self.start == self.end {
                    self.start = 0;
                    self.end = 0;
                }
                return Ok(Some(frame));
            }
            if self.start + need > self.buf.len() {
                // The frame under way does not fit behind `start`: move
                // it to the front, and grow for a body over 64 KiB.
                self.buf.copy_within(self.start..self.end, 0);
                self.start = 0;
                self.end = have;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            match self.r.read(&mut self.buf[self.end..]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) {
        let bytes = frame.encode().expect("encodes");
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix counts the body");
        assert_eq!(&Frame::decode(&bytes[4..]).expect("decodes"), frame);
    }

    fn env_frame(msg: Payload, exempt: bool) -> Frame {
        Frame::Env {
            tag: 0xDEAD_BEEF_0042,
            re: 7,
            env: Envelope {
                src: Pid(3),
                dst: Pid(0),
                msg,
                exempt,
                reply_to: 0,
                span: SpanCtx::request(3, 42),
            },
        }
    }

    #[test]
    fn span_context_round_trips_in_env_frames() {
        for span in [
            SpanCtx::NONE,
            SpanCtx::request(3, 42),
            SpanCtx::request(3, 42).reply(),
            SpanCtx {
                client: u32::MAX - 1,
                op: u64::MAX,
                hop: 255,
            },
        ] {
            let frame = Frame::Env {
                tag: 9,
                re: 0,
                env: Envelope::abd(
                    Pid(4),
                    Pid(1),
                    blunt_abd::msg::AbdMsg::Query {
                        obj: ObjId(0),
                        sn: 1,
                    },
                    false,
                )
                .with_span(span),
            };
            roundtrip(&frame);
        }
    }

    #[test]
    fn every_payload_variant_round_trips() {
        use blunt_abd::msg::AbdMsg;
        let ts = Ts { t: -3, pid: 9 };
        let vals = [
            Val::Nil,
            Val::Int(i64::MIN),
            Val::Pair(Box::new((Val::Int(1), Val::Nil))),
            Val::Tuple(vec![
                Val::Int(2),
                Val::Pair(Box::new((Val::Nil, Val::Int(-7)))),
            ]),
        ];
        for val in vals {
            for payload in [
                Payload::Abd(AbdMsg::Query {
                    obj: ObjId(1),
                    sn: 42,
                }),
                Payload::Abd(AbdMsg::Reply {
                    obj: ObjId(0),
                    sn: u32::MAX,
                    val: val.clone(),
                    ts,
                }),
                Payload::Abd(AbdMsg::Update {
                    obj: ObjId(7),
                    sn: 0,
                    val: val.clone(),
                    ts,
                }),
                Payload::Abd(AbdMsg::Ack {
                    obj: ObjId(2),
                    sn: 5,
                }),
                Payload::Crash { window: u64::MAX },
                Payload::StateQuery { sn: 11 },
                Payload::StateReply {
                    sn: 12,
                    snap: vec![],
                },
                Payload::StateReply {
                    sn: 13,
                    snap: vec![(ObjId(0), val.clone(), ts), (ObjId(7), Val::Nil, ts)],
                },
            ] {
                roundtrip(&env_frame(payload.clone(), false));
                roundtrip(&env_frame(payload, true));
            }
        }
    }

    #[test]
    fn control_frames_round_trip() {
        roundtrip(&Frame::Hello {
            node: DRIVER_NODE,
            t_us: 123_456,
        });
        roundtrip(&Frame::Hello { node: 2, t_us: 0 });
        roundtrip(&Frame::Shutdown);
        roundtrip(&Frame::Goodbye {
            node: 1,
            dump: String::new(),
        });
        roundtrip(&Frame::Goodbye {
            node: 2,
            dump: blunt_obs::FlightDump::default().to_jsonl(),
        });
        roundtrip(&Frame::HelloAck {
            node: 0,
            echo_t: 77,
            t_us: 1_000_077,
        });
        roundtrip(&Frame::Telemetry {
            node: 2,
            report: ServerTelemetry::default(),
        });
        // Every field distinct, so a swapped pair cannot round-trip.
        roundtrip(&Frame::Telemetry {
            node: 2,
            report: ServerTelemetry {
                recovery: RecoveryStats {
                    crashes: 4,
                    recoveries: 3,
                    wal_records_lost: 17,
                    wal_records_replayed: 9,
                    state_queries: 22,
                    catchup_aborted: 1,
                },
                fsync_count: 900,
                fsync_p99_us: 310,
                span_events: 12_000,
                events: 15_000,
            },
        });
    }

    #[test]
    fn telemetry_fields_sit_where_the_grammar_says() {
        let report = ServerTelemetry {
            recovery: RecoveryStats {
                crashes: 1,
                recoveries: 2,
                wal_records_lost: 3,
                wal_records_replayed: 4,
                state_queries: 5,
                catchup_aborted: 6,
            },
            fsync_count: 7,
            fsync_p99_us: 8,
            span_events: 9,
            events: 10,
        };
        let bytes = Frame::Telemetry { node: 0, report }.encode().unwrap();
        // len, version, kind, node, then ten u64 words in grammar order.
        let words: Vec<u64> = bytes[10..]
            .chunks(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, (1..=10).collect::<Vec<u64>>());
    }

    /// The batching invariant at the codec layer: an `EnvBatch` round-trips,
    /// and its decoded entries are *exactly* the `(tag, re, env)` triples
    /// the same envelopes would produce as individual `Env` frames — so a
    /// receiver unpacking a batch in order observes the same logical
    /// envelope sequence as an unbatched sender.
    #[test]
    fn env_batch_decodes_to_the_same_sequence_as_individual_env_frames() {
        let entries = vec![
            TaggedEnv {
                tag: 11,
                re: 0,
                env: Envelope::abd(
                    Pid(5),
                    Pid(0),
                    AbdMsg::Query {
                        obj: ObjId(3),
                        sn: 2,
                    },
                    false,
                )
                .with_span(SpanCtx::request(5, 77)),
            },
            TaggedEnv {
                tag: 12,
                re: 4,
                env: Envelope::abd(
                    Pid(5),
                    Pid(1),
                    AbdMsg::Update {
                        obj: ObjId(9),
                        sn: 2,
                        val: Val::Int(-8),
                        ts: Ts { t: 6, pid: 5 },
                    },
                    true,
                ),
            },
            TaggedEnv {
                tag: 12, // duplicated entry (a Duplicate fate packs twice)
                re: 4,
                env: Envelope::abd(
                    Pid(5),
                    Pid(1),
                    AbdMsg::Update {
                        obj: ObjId(9),
                        sn: 2,
                        val: Val::Int(-8),
                        ts: Ts { t: 6, pid: 5 },
                    },
                    true,
                ),
            },
        ];
        let batch = Frame::EnvBatch {
            entries: entries.clone(),
        };
        roundtrip(&batch);
        roundtrip(&Frame::EnvBatch { entries: vec![] });
        let bytes = batch.encode().unwrap();
        let Frame::EnvBatch { entries: decoded } = Frame::decode(&bytes[4..]).unwrap() else {
            panic!("kind 6 decodes as EnvBatch");
        };
        assert_eq!(decoded.len(), entries.len());
        for (got, want) in decoded.iter().zip(&entries) {
            // Each batched entry ≡ what the equivalent single Env frame
            // would deliver.
            let single = Frame::Env {
                tag: want.tag,
                re: want.re,
                env: want.env.clone(),
            };
            let single_bytes = single.encode().unwrap();
            let Frame::Env { tag, re, env } = Frame::decode(&single_bytes[4..]).unwrap() else {
                panic!("kind 1 decodes as Env");
            };
            assert_eq!((got.tag, got.re, &got.env), (tag, re, &env));
        }
    }

    #[test]
    fn non_utf8_goodbye_dumps_are_rejected() {
        let mut bytes = Frame::Goodbye {
            node: 1,
            dump: "ab".into(),
        }
        .encode()
        .unwrap();
        let at = bytes.len() - 2;
        bytes[at] = 0xFF; // continuation byte with no lead: invalid UTF-8
        assert_eq!(Frame::decode(&bytes[4..]), Err(FrameError::BadUtf8));
    }

    #[test]
    fn truncated_bodies_are_rejected_at_every_cut() {
        let bytes = env_frame(
            Payload::StateReply {
                sn: 1,
                snap: vec![(
                    ObjId(3),
                    Val::Tuple(vec![Val::Int(5), Val::Nil]),
                    Ts { t: 1, pid: 0 },
                )],
            },
            false,
        )
        .encode()
        .unwrap();
        let body = &bytes[4..];
        for cut in 0..body.len() {
            assert_eq!(
                Frame::decode(&body[..cut]),
                Err(FrameError::Truncated),
                "cut at {cut}"
            );
        }
        // And the full body decodes — the loop above proves every strict
        // prefix fails, so the format is non-ambiguous under truncation.
        assert!(Frame::decode(body).is_ok());
    }

    #[test]
    fn bad_version_kind_and_tag_are_rejected() {
        let mut bytes = env_frame(Payload::StateQuery { sn: 1 }, false)
            .encode()
            .unwrap();
        let good = bytes.clone();
        bytes[4] = FRAME_VERSION + 1;
        assert_eq!(
            Frame::decode(&bytes[4..]),
            Err(FrameError::BadVersion(FRAME_VERSION + 1))
        );
        bytes = good.clone();
        bytes[5] = 200;
        assert_eq!(Frame::decode(&bytes[4..]), Err(FrameError::BadKind(200)));
        // The payload tag byte sits right after tag/re/src/dst/exempt/span
        // (span = client:u32 op:u64 hop:u8 → 13 bytes).
        bytes = good.clone();
        let payload_tag_at = 4 + 2 + 8 + 8 + 4 + 4 + 1 + 13;
        bytes[payload_tag_at] = 99;
        assert_eq!(Frame::decode(&bytes[4..]), Err(FrameError::BadTag(99)));
        // Trailing garbage after a well-formed frame is an error too.
        bytes = good;
        bytes.push(0);
        assert_eq!(
            Frame::decode(&bytes[4..]),
            Err(FrameError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn max_size_frame_boundary() {
        // A StateReply whose tuple value pads the body to exactly
        // MAX_FRAME_LEN encodes and round-trips; one more byte is TooLarge
        // on encode, and a decoder rejects an over-long body outright.
        let pad = |n: usize| Frame::Env {
            tag: 1,
            re: 0,
            env: Envelope {
                src: Pid(0),
                dst: Pid(4),
                msg: Payload::StateReply {
                    sn: 0,
                    snap: vec![(ObjId(0), Val::Tuple(vec![Val::Nil; n]), Ts { t: 0, pid: 0 })],
                },
                exempt: true,
                reply_to: 0,
                span: SpanCtx::NONE,
            },
        };
        let overhead = pad(0).encode().unwrap().len() - 4;
        let exact = pad(MAX_FRAME_LEN - overhead);
        let bytes = exact.encode().expect("exactly MAX_FRAME_LEN encodes");
        assert_eq!(bytes.len() - 4, MAX_FRAME_LEN);
        assert_eq!(&Frame::decode(&bytes[4..]).unwrap(), &exact);
        assert_eq!(
            pad(MAX_FRAME_LEN - overhead + 1).encode(),
            Err(FrameError::TooLarge {
                len: MAX_FRAME_LEN + 1
            })
        );
        let mut too_long = bytes[4..].to_vec();
        too_long.push(0);
        assert_eq!(
            Frame::decode(&too_long),
            Err(FrameError::TooLarge {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn over_deep_values_are_rejected_not_overflowed() {
        let mut v = Val::Nil;
        for _ in 0..(MAX_VAL_DEPTH + 8) {
            v = Val::Pair(Box::new((v, Val::Nil)));
        }
        let bytes = env_frame(
            Payload::StateReply {
                sn: 0,
                snap: vec![(ObjId(0), v, Ts { t: 0, pid: 0 })],
            },
            false,
        )
        .encode()
        .unwrap();
        assert_eq!(Frame::decode(&bytes[4..]), Err(FrameError::TooDeep));
    }

    #[test]
    fn read_write_frame_round_trip_over_a_byte_stream() {
        let frames = vec![
            Frame::Hello { node: 0, t_us: 5 },
            env_frame(
                Payload::Abd(AbdMsg::Query {
                    obj: ObjId(0),
                    sn: 1,
                }),
                false,
            ),
            Frame::Shutdown,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // A partial length header is a truncation, not a clean EOF.
        let mut partial = &buf[..2];
        assert!(read_frame(&mut partial).is_err());
    }

    /// Seeded SplitMix64 for the corruption fuzzer below (the net crate has
    /// no dependency on `blunt-sim`, so the five-line generator lives here).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The fuzzers' seed corpus: one valid body of every frame kind.
    fn fuzz_corpus() -> Vec<Vec<u8>> {
        use blunt_abd::msg::AbdMsg;
        [
            Frame::Hello {
                node: DRIVER_NODE,
                t_us: 42,
            },
            env_frame(
                Payload::Abd(AbdMsg::Reply {
                    obj: ObjId(0),
                    sn: 3,
                    val: Val::Tuple(vec![
                        Val::Int(5),
                        Val::Pair(Box::new((Val::Nil, Val::Int(1)))),
                    ]),
                    ts: Ts { t: 7, pid: 1 },
                }),
                false,
            ),
            env_frame(
                Payload::Abd(AbdMsg::Update {
                    obj: ObjId(1),
                    sn: 9,
                    val: Val::Int(-4),
                    ts: Ts { t: 1, pid: 0 },
                }),
                true,
            ),
            env_frame(Payload::Crash { window: 3 }, true),
            env_frame(
                Payload::StateReply {
                    sn: 2,
                    snap: vec![
                        (ObjId(0), Val::Nil, Ts { t: 0, pid: 2 }),
                        (ObjId(4), Val::Int(9), Ts { t: 3, pid: 1 }),
                    ],
                },
                true,
            ),
            Frame::EnvBatch {
                entries: vec![
                    TaggedEnv {
                        tag: 5,
                        re: 0,
                        env: Envelope::abd(
                            Pid(4),
                            Pid(0),
                            AbdMsg::Query {
                                obj: ObjId(2),
                                sn: 8,
                            },
                            false,
                        ),
                    },
                    TaggedEnv {
                        tag: 6,
                        re: 2,
                        env: Envelope::abd(
                            Pid(4),
                            Pid(1),
                            AbdMsg::Update {
                                obj: ObjId(2),
                                sn: 8,
                                val: Val::Int(1),
                                ts: Ts { t: 4, pid: 4 },
                            },
                            false,
                        ),
                    },
                ],
            },
            Frame::Shutdown,
            Frame::Goodbye {
                node: 0,
                dump: blunt_obs::FlightDump::default().to_jsonl(),
            },
            Frame::HelloAck {
                node: 1,
                echo_t: 10,
                t_us: 20,
            },
            Frame::Telemetry {
                node: 2,
                report: ServerTelemetry {
                    recovery: RecoveryStats {
                        crashes: 1,
                        recoveries: 1,
                        wal_records_lost: 2,
                        wal_records_replayed: 3,
                        state_queries: 4,
                        catchup_aborted: 0,
                    },
                    fsync_count: 5,
                    fsync_p99_us: 7,
                    span_events: 100,
                    events: 120,
                },
            },
        ]
        .iter()
        .map(|f| f.encode().unwrap()[4..].to_vec())
        .collect()
    }

    /// One seeded mutation of a corpus body — byte flips, a truncation, an
    /// extension or pure noise, by `round` — with the length of the body
    /// it started from.
    fn mutant(rng: &mut Mix, corpus: &[Vec<u8>], round: u64) -> (usize, Vec<u8>) {
        let mut body = corpus[rng.below(corpus.len())].clone();
        let original_len = body.len();
        match round % 4 {
            // Flip 1–4 bytes anywhere in the body.
            0 => {
                for _ in 0..(1 + rng.below(4)) {
                    let at = rng.below(body.len());
                    body[at] ^= (rng.next() % 255 + 1) as u8;
                }
            }
            // Truncate at a random cut.
            1 => body.truncate(rng.below(body.len())),
            // Extend with random trailing bytes.
            2 => {
                for _ in 0..(1 + rng.below(8)) {
                    body.push((rng.next() & 0xFF) as u8);
                }
            }
            // Replace with pure noise of random length (version byte
            // kept valid half the time so kind/tag paths get exercised).
            _ => {
                body = (0..rng.below(64))
                    .map(|_| (rng.next() & 0xFF) as u8)
                    .collect();
                if !body.is_empty() && round % 8 < 4 {
                    body[0] = FRAME_VERSION;
                }
            }
        }
        (original_len, body)
    }

    /// Satellite hardening: a decoder fed tens of thousands of seeded
    /// mutations of valid frames — byte flips, truncations, extensions,
    /// and pure noise — must always return a structured [`FrameError`] or
    /// a valid frame, never panic. Every accepted mutant must re-encode
    /// (decode yields only encodable frames).
    #[test]
    fn randomized_corruption_never_panics_and_always_errors_structurally() {
        let corpus = fuzz_corpus();
        let mut rng = Mix(0x0B1D_5EED_F422_ED00);
        let mut decoded_ok = 0u64;
        for round in 0..12_000u64 {
            let (_, body) = mutant(&mut rng, &corpus, round);
            // The property under test: decode returns, structurally.
            if let Ok(frame) = Frame::decode(&body) {
                decoded_ok += 1;
                let reencoded = frame.encode().expect("decoded frames re-encode");
                assert_eq!(Frame::decode(&reencoded[4..]).as_ref(), Ok(&frame));
            }
        }
        // Sanity: some mutants (e.g. flipped numeric fields) must still
        // decode, or the fuzzer is only exercising the error paths.
        assert!(decoded_ok > 0, "corpus mutations never decoded");
    }

    /// A stream that ends each `read` at the next of `cuts` (absolute
    /// offsets, ascending), then at the end of `data`, counting its reads.
    struct Chunked<'a> {
        data: &'a [u8],
        cuts: &'a [usize],
        at: usize,
        reads: usize,
    }

    impl<'a> Chunked<'a> {
        fn new(data: &'a [u8], cuts: &'a [usize]) -> Chunked<'a> {
            Chunked {
                data,
                cuts,
                at: 0,
                reads: 0,
            }
        }
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let stop = self
                .cuts
                .iter()
                .copied()
                .find(|&c| c > self.at)
                .unwrap_or(self.data.len())
                .min(self.data.len());
            let n = buf.len().min(stop - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// What a frame read came to, comparable across the two readers: the
    /// frame, or the error's kind plus — for a rejected frame — the
    /// [`FrameError`] it carries (std words its own EOF errors variously).
    type Verdict = Result<Option<Frame>, (io::ErrorKind, String)>;

    /// Reads `next` until it ends or fails; the last verdict is the
    /// `Ok(None)` or the error.
    fn verdicts(mut next: impl FnMut() -> io::Result<Option<Frame>>) -> Vec<Verdict> {
        let mut out = Vec::new();
        loop {
            let v = next().map_err(|e| match e.kind() {
                io::ErrorKind::InvalidData => (e.kind(), e.to_string()),
                kind => (kind, String::new()),
            });
            let done = !matches!(v, Ok(Some(_)));
            out.push(v);
            if done {
                return out;
            }
        }
    }

    fn sample_stream() -> (Vec<Frame>, Vec<u8>) {
        let frames = vec![
            Frame::Hello { node: 0, t_us: 5 },
            env_frame(
                Payload::StateReply {
                    sn: 1,
                    snap: vec![(
                        ObjId(3),
                        Val::Tuple(vec![Val::Int(5), Val::Nil]),
                        Ts { t: 1, pid: 0 },
                    )],
                },
                true,
            ),
            Frame::EnvBatch {
                entries: vec![
                    TaggedEnv {
                        tag: 5,
                        re: 3,
                        env: Envelope::abd(
                            Pid(0),
                            Pid(4),
                            AbdMsg::Ack {
                                obj: ObjId(2),
                                sn: 8,
                            },
                            false,
                        ),
                    };
                    3
                ],
            },
            Frame::Shutdown,
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f).unwrap();
        }
        (frames, bytes)
    }

    #[test]
    fn buffered_reader_reassembles_frames_split_at_every_offset() {
        let (frames, bytes) = sample_stream();
        let want: Vec<Verdict> = frames
            .iter()
            .cloned()
            .map(|f| Ok(Some(f)))
            .chain([Ok(None)])
            .collect();
        for cut in 0..=bytes.len() {
            let cuts = [cut];
            let mut r = FrameReader::new(Chunked::new(&bytes, &cuts));
            assert_eq!(verdicts(|| r.read()), want, "one split at {cut}");
        }
        // And a byte at a time: every offset a boundary in one stream.
        let every: Vec<usize> = (0..bytes.len()).collect();
        let mut r = FrameReader::new(Chunked::new(&bytes, &every));
        assert_eq!(verdicts(|| r.read()), want);
    }

    #[test]
    fn buffered_reader_takes_every_queued_frame_in_one_read() {
        let (frames, bytes) = sample_stream();
        let mut r = FrameReader::new(Chunked::new(&bytes, &[]));
        for f in &frames {
            assert_eq!(r.read().unwrap().as_ref(), Some(f));
            assert_eq!(r.r.reads, 1, "the first read brought every frame in");
        }
        assert_eq!(r.read().unwrap(), None, "clean EOF at a frame boundary");
        assert_eq!(r.r.reads, 2);
    }

    #[test]
    fn buffered_reader_reports_mid_frame_eof_and_oversize_lengths() {
        let (_, bytes) = sample_stream();
        let first = 4 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        // EOF inside the second frame's header, then inside its body: the
        // first frame still decodes, the stream then ends in a truncation.
        for end in [first + 1, first + 3, first + 4, first + 9] {
            let mut r = FrameReader::new(&bytes[..end]);
            assert!(matches!(r.read(), Ok(Some(Frame::Hello { .. }))));
            let err = r.read().expect_err("EOF mid-frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {end}");
        }
        // A length over the cap is refused from the header alone, before
        // any buffer grows for it.
        let len = MAX_FRAME_LEN + 1;
        let header = (len as u32).to_le_bytes();
        let mut r = FrameReader::new(&header[..]);
        let err = r.read().expect_err("oversize length");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            FrameError::TooLarge { len }.to_string(),
            "the structured error survives"
        );
        assert_eq!(r.buf.len(), READ_BUF_LEN, "nothing was allocated for it");
    }

    #[test]
    fn buffered_reader_grows_for_a_frame_larger_than_its_buffer() {
        let big = Frame::Goodbye {
            node: 1,
            dump: "x".repeat(3 * READ_BUF_LEN),
        };
        let mut bytes = Vec::new();
        for f in [&Frame::Shutdown, &big, &Frame::Shutdown] {
            write_frame(&mut bytes, f).unwrap();
        }
        // Socket-sized reads: the big body arrives over many of them, with
        // the small frame behind it sharing the last.
        let cuts: Vec<usize> = (0..bytes.len()).step_by(10_000).collect();
        let mut r = FrameReader::new(Chunked::new(&bytes, &cuts));
        assert_eq!(r.read().unwrap(), Some(Frame::Shutdown));
        assert_eq!(r.read().unwrap(), Some(big));
        assert_eq!(r.read().unwrap(), Some(Frame::Shutdown));
        assert_eq!(r.read().unwrap(), None);
    }

    /// [`Chunked`], except that a read starting at a cut first fails once
    /// with a timeout — what a socket with a read timeout does when the
    /// sender's bytes stop short there.
    struct Stalling<'a> {
        inner: Chunked<'a>,
        stalled_at: Option<usize>,
        stalls: usize,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let at = self.inner.at;
            if self.inner.cuts.contains(&at) && self.stalled_at != Some(at) {
                self.stalled_at = Some(at);
                self.stalls += 1;
                self.inner.reads += 1;
                // Linux reports an expired SO_RCVTIMEO as EAGAIN, other
                // platforms as a timeout: both kinds must resume.
                return Err(if self.stalls.is_multiple_of(2) {
                    io::ErrorKind::WouldBlock.into()
                } else {
                    io::ErrorKind::TimedOut.into()
                });
            }
            self.inner.read(buf)
        }
    }

    /// Reads `bytes` to the end through a reader that times out at every
    /// cut, retrying each timeout. Returns the frames and how many reads
    /// timed out; checks along the way that `has_frame` is true exactly
    /// when the next `read` leaves the stream alone.
    fn read_through_stalls(bytes: &[u8], cuts: &[usize]) -> (Vec<Frame>, usize) {
        let mut r = FrameReader::new(Stalling {
            inner: Chunked::new(bytes, cuts),
            stalled_at: None,
            stalls: 0,
        });
        let mut frames = Vec::new();
        let mut timeouts = 0;
        loop {
            let buffered = r.has_frame();
            let reads_before = r.r.inner.reads;
            let got = r.read();
            assert_eq!(
                r.r.inner.reads == reads_before,
                buffered,
                "has_frame() said {buffered} before a read that came to {got:?}"
            );
            match got {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    timeouts += 1;
                }
                Err(e) => panic!("cuts {cuts:?}: {e}"),
            }
        }
        assert_eq!(timeouts, r.r.stalls, "every timeout reached the caller");
        (frames, timeouts)
    }

    #[test]
    fn buffered_reader_resumes_across_timed_out_reads() {
        let (frames, bytes) = sample_stream();
        // One timeout at every offset in turn — before the first byte,
        // inside each 4-byte header, inside each body, before the EOF.
        for cut in 0..=bytes.len() {
            let (got, timeouts) = read_through_stalls(&bytes, &[cut]);
            assert_eq!(got, frames, "one timeout at {cut}");
            assert_eq!(timeouts, 1);
        }
        // A timeout between any two bytes of the stream.
        let every: Vec<usize> = (0..=bytes.len()).collect();
        let (got, timeouts) = read_through_stalls(&bytes, &every);
        assert_eq!(got, frames);
        assert_eq!(timeouts, every.len());

        // A frame over 64 KiB: timeouts while the buffer regrows for it,
        // with a small frame before (so the big one starts mid-buffer and
        // is moved to the front) and one sharing its last read.
        let big = Frame::Goodbye {
            node: 1,
            dump: "x".repeat(3 * READ_BUF_LEN),
        };
        let frames = vec![Frame::Shutdown, big, Frame::Shutdown];
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f).unwrap();
        }
        let cuts: Vec<usize> = (2..bytes.len()).step_by(10_007).collect();
        let (got, timeouts) = read_through_stalls(&bytes, &cuts);
        assert_eq!(got, frames);
        assert_eq!(timeouts, cuts.len());
    }

    #[test]
    fn has_frame_answers_for_a_refused_length_too() {
        // `read` refuses an oversize length from the header alone, without
        // touching the stream: by its contract the probe says so.
        let header = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let mut r = FrameReader::new(Chunked::new(&header, &[]));
        assert!(!r.has_frame(), "nothing buffered yet");
        assert!(r.read().is_err());
        assert!(r.has_frame());
        let reads = r.r.reads;
        assert!(r.read().is_err());
        assert_eq!(r.r.reads, reads);
    }

    /// The corruption fuzz again, as byte streams: each mutant goes through
    /// the unbuffered `read_frame` and through a `FrameReader` fed in two
    /// pieces, and the two must agree verdict for verdict. Every fifth
    /// mutant keeps its *original* length prefix, so truncations and
    /// extensions also desynchronize the stream itself.
    #[test]
    fn buffered_reader_agrees_with_read_frame_on_every_corruption() {
        let corpus = fuzz_corpus();
        let (_, trailer) = sample_stream();
        let mut frames_read = 0usize;
        for seed in [0x0B1D_5EED_F422_ED00, 0xB0FF_E2ED_0000_0001, 48_879] {
            let mut rng = Mix(seed);
            for round in 0..10_000u64 {
                let (original_len, body) = mutant(&mut rng, &corpus, round);
                let claimed = if round % 5 == 4 {
                    original_len
                } else {
                    body.len()
                };
                let mut stream = (claimed as u32).to_le_bytes().to_vec();
                stream.extend_from_slice(&body);
                // Valid frames behind the mutant: a reader that survives it
                // must pick the stream up at the same byte.
                stream.extend_from_slice(&trailer);
                let mut plain = &stream[..];
                let want = verdicts(|| read_frame(&mut plain));
                let cuts = [rng.below(stream.len() + 1)];
                let mut r = FrameReader::new(Chunked::new(&stream, &cuts));
                let got = verdicts(|| r.read());
                assert_eq!(got, want, "seed {seed:#x} round {round}");
                frames_read += want.len() - 1;
            }
        }
        assert!(frames_read > 0, "no mutant stream ever yielded a frame");
    }
}
