//! The in-process message bus: per-node mpsc queues plus the fault
//! injector.
//!
//! Every node (server or client thread) owns one `mpsc::Receiver<Envelope>`;
//! the bus holds the matching senders. A send draws the fate of every
//! non-exempt envelope and realises it through [`blunt_net::Links`] — the
//! same decision core and the same realiser the socket transports use, so
//! fault counters are a pure function of the seed regardless of backend,
//! and a fate means the same thing on every backend:
//!
//! - `Drop`/`CrashDrop`/`PartitionDrop` — the envelope vanishes;
//! - `Duplicate` — enqueued twice back to back;
//! - `Reorder` — held in the link until the next message on the same link
//!   overtakes it (released by [`Bus::flush`] if none ever comes);
//! - `Delay(ms)` — handed to the `bus-delayer` thread ([`blunt_net::Delayer`],
//!   spawned by the first delay drawn), which enqueues it once due.
//!
//! **Crash events.** When constructed with `signal_crashes`, a crash
//! blackout window additionally raises an *amnesia signal* at its **exit**:
//! the first non-`CrashDrop` first-transmission on a link that just saw a
//! `CrashDrop` enqueues an exempt [`Payload::Crash`] control envelope to
//! the crashed server (at most once per `(server, window)` pair), telling
//! it to erase volatile state and run recovery. Signaling at window exit —
//! not entry — matters twice over: recovery's peer catch-up runs when the
//! server is reachable again (a reboot after the outage, not during it),
//! and the post-crash state is actually observable by clients instead of
//! being shadowed by the blackout itself.
//!
//! The set of signaled `(server, window)` pairs is deterministic for a
//! seed: a pair fires iff some link's fixed first-transmission count
//! reaches past the end of that window, which is a pure function of the
//! per-link schedules — consecutive windows of one server are always
//! separated by at least one non-window index (`validate` guarantees
//! `crash_len < crash_period`), so a link that keeps sending always
//! resolves the pending window before entering the next. Hence
//! `TransportStats::crash_events` is replayable exactly.
//!
//! **Batches.** [`Bus::send_batch`] is its envelope sequence, and
//! [`Bus::send`] is a batch of one: fates are drawn per envelope in batch
//! order, under one acquisition of the bus lock, so stats, coverage and
//! crash signals are what the same envelopes sent one by one would have
//! produced. What batching changes is the hand-over: the batch's
//! deliveries are grouped by destination — a stable partition, so every
//! link keeps its order within a mailbox — and each mailbox gets its share
//! as one contiguous run, which wakes a parked receiver once a batch
//! rather than once an envelope.
//!
//! `std::sync::mpsc` channels are per-sender FIFO and internally
//! linearizable, which is what makes the per-link message indexing of
//! [`blunt_net::fault::FaultPlan`] well defined.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};

use blunt_net::{
    Coverage, Delayer, FaultConfig, FaultConfigError, Injector, Links, Transport, TransportStats,
};
use blunt_obs::{FlightKind, FlightRecorder};

pub use blunt_net::wire::{Envelope, Payload, SpanCtx};

/// The bus proper. Cloneable handles are not needed — threads share it via
/// `Arc<Bus>`.
pub struct Bus {
    flight: Arc<FlightRecorder>,
    mailboxes: Vec<Sender<Envelope>>,
    links: Mutex<Links<Envelope>>,
    delayer: Delayer<Envelope>,
}

impl Bus {
    /// Creates a bus for `nodes` processes, returning it together with one
    /// receiver per node (index = pid). With `signal_crashes`, crash
    /// blackout windows additionally raise the amnesia signal (see the
    /// module docs); without it, crashes stay pure message blackouts.
    /// Every send and fault decision is recorded into `flight` on the
    /// sending thread's ring.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultConfig::validate`] error for unusable
    /// configurations (overlapping crash stagger, zero periods,
    /// oversubscribed rates).
    pub fn new(
        seed: u64,
        cfg: FaultConfig,
        servers: u32,
        nodes: u32,
        signal_crashes: bool,
        flight: Arc<FlightRecorder>,
    ) -> Result<(Bus, Vec<Receiver<Envelope>>), FaultConfigError> {
        let injector = Injector::new(seed, cfg, servers, nodes, signal_crashes)?;
        let (mailboxes, receivers): (Vec<_>, Vec<_>) = (0..nodes).map(|_| mpsc::channel()).unzip();
        let late = mailboxes.clone();
        let bus = Bus {
            flight,
            links: Mutex::new(Links::new(injector, Envelope::crash)),
            delayer: Delayer::new("bus-delayer", move |env: Envelope| {
                let _ = late[env.dst.index()].send(env);
            }),
            mailboxes,
        };
        Ok((bus, receivers))
    }

    fn enqueue(&self, env: Envelope) {
        // A closed mailbox means the receiver already shut down; late
        // messages to it are irrelevant.
        let _ = self.mailboxes[env.dst.index()].send(env);
    }

    /// Sends `env`, applying the fault schedule unless it is exempt: a
    /// batch of one.
    pub fn send(&self, env: Envelope) {
        self.send_batch(vec![env]);
    }

    /// Sends `envs` as one batch: fates are drawn per envelope, in order,
    /// under one acquisition of the bus lock (none for a batch of exempt
    /// envelopes) — what the same `send`s one by one would have drawn —
    /// and then every mailbox gets its deliveries as one contiguous run,
    /// so a destination is woken once a batch instead of once an envelope.
    pub fn send_batch(&self, envs: Vec<Envelope>) {
        let ring = self.flight.thread_ring();
        let mut now = Vec::with_capacity(envs.len());
        let mut later = Vec::new();
        let mut links = None;
        for env in envs {
            let (src, dst, label) = (env.src, env.dst, env.msg.flight_label());
            ring.record(FlightKind::BusSend, src.0, u64::from(dst.0), label);
            if env.exempt {
                now.push(env);
                continue;
            }
            links
                .get_or_insert_with(|| self.links.lock().expect("bus lock"))
                .realise(
                    src,
                    dst,
                    label,
                    env,
                    &ring,
                    &mut |e| now.push(e),
                    &mut |ms, e| later.push((ms, e)),
                );
        }
        drop(links);
        // Stable, so a mailbox sees each link's deliveries in the order
        // they were realised: a crash signal ahead of the message that
        // raised it, a duplicate back to back, a held message after the
        // one that overtook it.
        now.sort_by_key(|e| e.dst);
        now.into_iter().for_each(|e| self.enqueue(e));
        self.delayer.delay(later);
    }

    /// Releases every reorder hold-back (end of run: nothing will overtake
    /// them anymore) and flushes the delayer.
    pub fn flush(&self) {
        let held = self.links.lock().expect("bus lock").release();
        held.into_iter().for_each(|e| self.enqueue(e));
        self.delayer.close();
    }

    /// The deterministic fault counters so far.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.links.lock().expect("bus lock").injector().stats()
    }

    /// The fault-schedule coverage so far: per-link fate tallies (links
    /// with traffic only) plus the configured window shape. Deterministic
    /// for a seed, like [`Bus::stats`].
    #[must_use]
    pub fn coverage(&self) -> Coverage {
        self.links.lock().expect("bus lock").injector().coverage()
    }
}

impl Transport for Bus {
    fn send(&self, env: Envelope) {
        Bus::send(self, env);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        Bus::send_batch(self, envs);
    }

    fn flush(&self) {
        Bus::flush(self);
    }

    fn stats(&self) -> TransportStats {
        Bus::stats(self)
    }

    fn coverage(&self) -> Coverage {
        Bus::coverage(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_abd::msg::AbdMsg;
    use blunt_core::ids::{ObjId, Pid};
    use std::time::Duration;

    fn q(sn: u32) -> AbdMsg {
        AbdMsg::Query { obj: ObjId(0), sn }
    }

    fn env(src: u32, dst: u32, sn: u32, exempt: bool) -> Envelope {
        Envelope::abd(Pid(src), Pid(dst), q(sn), exempt)
    }

    fn drain(rx: &Receiver<Envelope>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Ok(e) = rx.recv_timeout(Duration::from_millis(200)) {
            match e.msg {
                Payload::Abd(m) => out.push(m.sn()),
                // Control traffic is surfaced as a sentinel so tests can
                // assert on its absence.
                Payload::Crash { .. } => out.push(u32::MAX),
                Payload::StateQuery { .. } | Payload::StateReply { .. } => {}
            }
            if out.len() > 64 {
                break;
            }
        }
        out
    }

    fn flight() -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(64))
    }

    fn bus(
        seed: u64,
        cfg: FaultConfig,
        servers: u32,
        nodes: u32,
    ) -> (Bus, Vec<Receiver<Envelope>>) {
        Bus::new(seed, cfg, servers, nodes, false, flight()).unwrap()
    }

    #[test]
    fn faultless_bus_preserves_per_link_fifo() {
        let (bus, rxs) = bus(0, FaultConfig::none(), 1, 3);
        for sn in 0..10 {
            bus.send(env(2, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn exempt_messages_always_arrive_even_under_full_drop() {
        let mut cfg = FaultConfig::none();
        cfg.drop_per_mille = 1000;
        let (bus, rxs) = bus(0, cfg, 1, 3);
        for sn in 0..5 {
            bus.send(env(2, 0, sn, false));
        }
        for sn in 100..103 {
            bus.send(env(2, 0, sn, true));
        }
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), vec![100, 101, 102]);
    }

    #[test]
    fn duplicate_fate_delivers_twice() {
        let mut cfg = FaultConfig::none();
        cfg.duplicate_per_mille = 1000;
        let (bus, rxs) = bus(0, cfg, 1, 2);
        bus.send(env(1, 0, 7, false));
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), vec![7, 7]);
    }

    #[test]
    fn reorder_fate_swaps_with_successor_and_flush_releases_stragglers() {
        let mut cfg = FaultConfig::none();
        cfg.reorder_per_mille = 1000;
        let (bus, rxs) = bus(0, cfg, 1, 2);
        // Every message is held, then released when the next one takes its
        // slot: 0 held; 1 arrives → 0 out, 1 held; ... flush releases 4.
        for sn in 0..5 {
            bus.send(env(1, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn delayed_messages_eventually_arrive() {
        let mut cfg = FaultConfig::none();
        cfg.delay_per_mille = 1000;
        cfg.max_delay_ms = 2;
        let (bus, rxs) = bus(0, cfg, 1, 2);
        for sn in 0..8 {
            bus.send(env(1, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        let mut got = drain(&rxs[0]);
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stats_are_reproducible_for_a_seed() {
        let run = |signal| {
            let (bus, _rxs) = Bus::new(42, FaultConfig::chaos(), 3, 6, signal, flight()).unwrap();
            for sn in 0..400 {
                for dst in 0..3 {
                    bus.send(env(4, dst, sn, false));
                }
                bus.send(env(0, 4, sn, false));
            }
            bus.flush();
            bus.stats()
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a, b);
        assert_eq!(a.offered, 1600);
        assert!(a.dropped > 0 && a.delayed > 0 && a.crash_dropped > 0);
        assert_eq!(a.crash_events, 0, "no signaling unless asked");
        // Signaling changes crash_events (deterministically) and nothing
        // else about the schedule-determined counters.
        let c = run(true);
        let d = run(true);
        assert_eq!(c, d);
        assert!(c.crash_events > 0);
        assert_eq!(
            TransportStats {
                crash_events: 0,
                ..c
            },
            a,
            "the amnesia signal must not perturb the fault schedule"
        );
    }

    #[test]
    fn crash_signal_fires_once_per_window_at_its_exit() {
        // One server, crash window [0, 4) of every 10-index period on each
        // incoming link. Two links each send indices 0..6: 0–3 are inside
        // the window and dropped; index 4 is the first past it. The server
        // must get exactly ONE Crash{window: 0} signal — raised at the
        // window's exit, before any post-window delivery — not one per
        // dropped message or per link.
        let mut cfg = FaultConfig::none();
        cfg.crash_len = 4;
        cfg.crash_period = 10;
        let (bus, rxs) = Bus::new(0, cfg, 1, 3, true, flight()).unwrap();
        for sn in 0..6 {
            bus.send(env(1, 0, sn, false));
            bus.send(env(2, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        let mut seen = Vec::new();
        while let Ok(e) = rxs[0].recv_timeout(Duration::from_millis(200)) {
            match e.msg {
                Payload::Crash { window } => {
                    assert!(e.exempt, "the amnesia signal must be exempt");
                    seen.push(u32::MAX);
                    assert_eq!(window, 0);
                }
                Payload::Abd(m) => seen.push(m.sn()),
                _ => {}
            }
        }
        assert_eq!(
            seen,
            vec![u32::MAX, 4, 4, 5, 5],
            "one signal, before the first post-window deliveries"
        );
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut cfg = FaultConfig::none();
        cfg.crash_len = 50;
        cfg.crash_period = 100;
        let err = Bus::new(0, cfg, 3, 5, false, flight())
            .err()
            .expect("must be rejected");
        assert!(matches!(err, FaultConfigError::CrashStaggerOverflow { .. }));
    }
}
