//! The shared fault core: the decision, and the one realiser that turns a
//! decision into deliveries.
//!
//! [`Injector`] is one seed-determined [`FaultPlan`] plus the coverage
//! and crash-signal bookkeeping that every transport updates *atomically
//! with* each fate decision, so the resulting [`Coverage`] — and the
//! [`TransportStats`] summed from it — are pure functions of the seed.
//!
//! [`Links`] realises the fate [`Injector::decide`] drew, for any item
//! type: it owns the injector and one reorder hold-back slot per directed
//! link, and hands what the fate leaves deliverable to two sinks its
//! caller supplies — `now`, in delivery order, and `later` for a `Delay`.
//! [`Delayer`] is the one min-deadline buffer behind `later`. The three
//! endpoints differ only in their sinks:
//!
//! | endpoint | item | `now` | `later` |
//! |---|---|---|---|
//! | the in-process bus | `Envelope` | the destination's mailbox | `bus-delayer`, then the mailbox |
//! | [`NetClient`](crate::NetClient) | [`TaggedEnv`](crate::TaggedEnv) | the server's `EnvBatch` | — (schedule-restricted) |
//! | [`NetServer`](crate::NetServer) | [`TaggedEnv`](crate::TaggedEnv) | the driver's `EnvBatch` | `net-delayer`, then a lone `Env` frame |

use std::collections::HashSet;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::{FlightKind, FlightRing};

use crate::coverage::{Coverage, LinkCoverage};
use crate::fault::{Fate, FaultConfig, FaultConfigError, FaultPlan};

/// Deterministic fault counters accumulated by a run; equal across runs
/// with the same seed and configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransportStats {
    /// First-transmission messages offered to the injector.
    pub offered: u64,
    /// Messages dropped by the random drop fault.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages swapped with their successor.
    pub reordered: u64,
    /// Messages held back by a delay.
    pub delayed: u64,
    /// Messages lost to crash blackout windows.
    pub crash_dropped: u64,
    /// Messages lost to partition windows.
    pub partition_dropped: u64,
    /// Distinct `(server, window)` crash events signaled (0 unless the
    /// transport was built with `signal_crashes`).
    pub crash_events: u64,
}

/// The fault-decision state of one transport endpoint: the per-link fate
/// streams plus everything that must update under the same lock as a fate
/// decision (coverage tallies, pending-crash windows, signaled sets).
/// Transports hold it inside a [`Links`], under one lock with the reorder
/// hold-back slots.
pub struct Injector {
    plan: FaultPlan,
    cfg: FaultConfig,
    nodes: u32,
    signal_crashes: bool,
    /// Per-link fate tallies, updated with the decision (so coverage is
    /// seed-deterministic): the one ledger of every fate drawn.
    coverage: Vec<LinkCoverage>,
    /// Per-link: the crash window the link's latest first-transmission fell
    /// into, awaiting its exit (the next non-`CrashDrop` index).
    pending_crash: Vec<Option<u64>>,
    /// Crash windows already signaled, per server (index = pid).
    signaled: Vec<HashSet<u64>>,
}

impl Injector {
    /// Builds the injector for a topology of `nodes` processes of which
    /// `Pid(0..servers)` are servers. With `signal_crashes`, crash blackout
    /// windows raise the amnesia signal at their exit (see
    /// [`Injector::decide`]); without it, crashes stay pure blackouts.
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
    ) -> Result<Injector, FaultConfigError> {
        let plan = FaultPlan::new(seed, cfg, servers, nodes)?;
        Ok(Injector {
            plan,
            cfg,
            nodes,
            signal_crashes,
            coverage: (0..nodes * nodes)
                .map(|i| LinkCoverage {
                    src: i / nodes,
                    dst: i % nodes,
                    ..LinkCoverage::default()
                })
                .collect(),
            pending_crash: vec![None; (nodes * nodes) as usize],
            signaled: (0..servers).map(|_| HashSet::new()).collect(),
        })
    }

    /// Decides the fate of the next first-transmission message on
    /// `src → dst`, updating coverage and the crash-window exit bookkeeping
    /// in the same step. Returns the fate plus, at most once
    /// per `(server, window)` pair, the crash signal the caller must
    /// deliver (as an exempt [`Payload::Crash`](crate::Payload::Crash)
    /// envelope) *before* realizing the triggering message's fate.
    ///
    /// Exempt envelopes must never be passed through here — they consume no
    /// fault-schedule indices.
    pub fn decide(&mut self, src: Pid, dst: Pid) -> (Fate, Option<(Pid, u64)>) {
        let fate = self.plan.fate(src, dst);
        let slot = (src.0 * self.nodes + dst.0) as usize;
        // Crash-window exit detection: a CrashDrop marks the link as
        // inside a window; the next non-CrashDrop index on the same
        // link means the window has passed, and the server restarts —
        // signaled at most once per (server, window), race-free under
        // the same lock that decided the fate.
        let mut signal = None;
        if self.signal_crashes {
            if let Fate::CrashDrop { window } = fate {
                self.pending_crash[slot] = Some(window);
            } else if let Some(w) = self.pending_crash[slot].take() {
                if self.signaled[dst.index()].insert(w) {
                    signal = Some((dst, w));
                }
            }
        }
        let cov = &mut self.coverage[slot];
        cov.offered += 1;
        match fate {
            Fate::Deliver => cov.delivered += 1,
            Fate::Drop => cov.dropped += 1,
            Fate::Duplicate => cov.duplicated += 1,
            Fate::Reorder => cov.reordered += 1,
            Fate::Delay(_) => cov.delayed += 1,
            Fate::CrashDrop { window } => {
                cov.crash_dropped += 1;
                cov.crash_windows.insert(window);
            }
            Fate::PartitionDrop { window } => {
                cov.partition_dropped += 1;
                cov.partition_windows.insert(window);
            }
        }
        (fate, signal)
    }

    /// The deterministic fault counters so far: the per-link tallies of
    /// [`Injector::coverage`] summed, plus the crash events signaled.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        let mut s = TransportStats {
            crash_events: self.signaled.iter().map(|w| w.len() as u64).sum(),
            ..TransportStats::default()
        };
        for l in &self.coverage {
            s.offered += l.offered;
            s.dropped += l.dropped;
            s.duplicated += l.duplicated;
            s.reordered += l.reordered;
            s.delayed += l.delayed;
            s.crash_dropped += l.crash_dropped;
            s.partition_dropped += l.partition_dropped;
        }
        s
    }

    /// The fault-schedule coverage so far: per-link fate tallies (links
    /// with traffic only) plus the configured window shape. Deterministic
    /// for a seed, like [`Injector::stats`].
    #[must_use]
    pub fn coverage(&self) -> Coverage {
        Coverage {
            links: self
                .coverage
                .iter()
                .filter(|l| l.offered > 0)
                .cloned()
                .collect(),
            crash_len: self.cfg.crash_len,
            crash_period: self.cfg.crash_period,
            partition_len: self.cfg.partition_len,
            partition_period: self.cfg.partition_period,
        }
    }
}

/// An [`Injector`] plus one reorder hold-back slot per directed link: the
/// single place a [`Fate`] is realised, whatever the item is.
pub struct Links<T> {
    injector: Injector,
    held: Vec<Option<T>>,
    /// Builds the amnesia signal for `(server, window)` as an item.
    signal: Box<dyn Fn(Pid, u64) -> T + Send>,
}

impl<T: Clone> Links<T> {
    /// Realises `injector`'s fates; `signal(server, window)` is the item a
    /// crash-window exit delivers ahead of the message that raised it.
    pub fn new(injector: Injector, signal: impl Fn(Pid, u64) -> T + Send + 'static) -> Links<T> {
        let links = injector.nodes * injector.nodes;
        Links {
            injector,
            held: (0..links).map(|_| None).collect(),
            signal: Box::new(signal),
        }
    }

    /// The fault decisions so far: [`Injector::stats`] and
    /// [`Injector::coverage`].
    #[must_use]
    pub fn injector(&self) -> &Injector {
        &self.injector
    }

    /// Draws the fate of `item`, the next first transmission on
    /// `src → dst`, records it on `ring` (`label` is the item's flight
    /// label), and turns it into deliveries. What the destination gets at
    /// once goes to `now`, in order: the crash signal the item raised, the
    /// item (twice back to back for a `Duplicate`) or the hold it displaced
    /// (a `Reorder`), then the hold it overtook. A `Delay` goes to `later`
    /// with its milliseconds.
    #[allow(clippy::too_many_arguments)] // the link, the item, and where it goes
    pub fn realise(
        &mut self,
        src: Pid,
        dst: Pid,
        label: u64,
        item: T,
        ring: &FlightRing,
        now: &mut impl FnMut(T),
        later: &mut impl FnMut(u16, T),
    ) {
        let (fate, signal) = self.injector.decide(src, dst);
        let (pid, to) = (src.0, u64::from(dst.0));
        match fate {
            Fate::Deliver => {}
            Fate::Drop => ring.record(FlightKind::FaultDrop, pid, to, label),
            Fate::Duplicate => ring.record(FlightKind::FaultDuplicate, pid, to, label),
            Fate::Reorder => ring.record(FlightKind::FaultReorder, pid, to, label),
            Fate::Delay(ms) => ring.record(FlightKind::FaultDelay, pid, to, u64::from(ms)),
            Fate::CrashDrop { window } => ring.record(FlightKind::FaultCrashDrop, pid, to, window),
            Fate::PartitionDrop { window } => {
                ring.record(FlightKind::FaultPartitionDrop, pid, to, window);
            }
        }
        if let Some((server, window)) = signal {
            // Before the triggering item: the server must crash and
            // recover before serving any post-window traffic.
            now((self.signal)(server, window));
        }
        let held = &mut self.held[(src.0 * self.injector.nodes + dst.0) as usize];
        match fate {
            Fate::Drop | Fate::CrashDrop { .. } | Fate::PartitionDrop { .. } => {}
            // Two reorders in a row: the first is released by the second
            // taking its place.
            Fate::Reorder => held.replace(item).into_iter().for_each(now),
            Fate::Deliver | Fate::Duplicate => {
                if fate == Fate::Duplicate {
                    now(item.clone());
                }
                now(item);
                // A held item is overtaken: it goes after.
                held.take().into_iter().for_each(now);
            }
            Fate::Delay(ms) => later(ms, item),
        }
    }

    /// Every item still held, in link order (end of run: nothing will
    /// overtake them anymore).
    pub fn release(&mut self) -> Vec<T> {
        self.held.iter_mut().filter_map(Option::take).collect()
    }
}

/// The min-deadline buffer that realises `Delay`: items handed to
/// [`Delayer::delay`] go to the sink once due, from a thread of the
/// caller's naming. The thread exists only while something has been
/// delayed since the last [`Delayer::close`], and blocks while nothing is
/// pending.
pub struct Delayer<T> {
    name: &'static str,
    sink: Arc<dyn Fn(T) + Send + Sync>,
    thread: Mutex<Option<Running<T>>>,
}

/// A delayer thread: where to send it items, each with its due time, and
/// its handle.
type Running<T> = (Sender<(Instant, T)>, JoinHandle<()>);

impl<T: Send + 'static> Delayer<T> {
    /// A delayer whose thread, once there is one, is called `name` and
    /// hands due items to `sink`.
    pub fn new(name: &'static str, sink: impl Fn(T) + Send + Sync + 'static) -> Delayer<T> {
        Delayer {
            name,
            sink: Arc::new(sink),
            thread: Mutex::new(None),
        }
    }

    /// Holds each item for its milliseconds: one clock read and one lock
    /// acquisition however many there are, none for none.
    pub fn delay(&self, items: Vec<(u16, T)>) {
        if items.is_empty() {
            return;
        }
        let start = Instant::now();
        let mut thread = self.thread.lock().expect("delayer lock");
        let (tx, _) = thread.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            let sink = Arc::clone(&self.sink);
            let handle = thread::Builder::new()
                .name(self.name.into())
                .spawn(move || hold(&rx, &*sink))
                .expect("spawn delayer thread");
            (tx, handle)
        });
        for (ms, item) in items {
            let _ = tx.send((start + Duration::from_millis(u64::from(ms)), item));
        }
    }

    /// Hands every pending item to the sink at once and joins the thread.
    pub fn close(&self) {
        let thread = self.thread.lock().expect("delayer lock").take();
        if let Some((tx, handle)) = thread {
            drop(tx);
            let _ = handle.join();
        }
    }
}

/// The delayer thread: sleeps until the earliest deadline or the next
/// item, whichever comes first; when the sender is gone, flushes and ends.
fn hold<T>(rx: &Receiver<(Instant, T)>, sink: &dyn Fn(T)) {
    let mut pending: Vec<(Instant, T)> = Vec::new();
    loop {
        let next = match pending.iter().map(|(due, _)| *due).min() {
            Some(due) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match next {
            Ok(item) => pending.push(item),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                pending.into_iter().for_each(|(_, item)| sink(item));
                return;
            }
        }
        let now = Instant::now();
        let (due, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|(due, _)| *due <= now);
        pending = rest;
        due.into_iter().for_each(|(_, item)| sink(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_matches_the_raw_plan_and_counts_every_fate() {
        let cfg = FaultConfig::chaos();
        let expected = FaultPlan::preview(9, cfg, 3, 6, Pid(4), Pid(0), 600);
        let mut inj = Injector::new(9, cfg, 3, 6, false).unwrap();
        let got: Vec<Fate> = (0..600).map(|_| inj.decide(Pid(4), Pid(0)).0).collect();
        assert_eq!(got, expected, "the injector must not perturb the plan");
        let s = inj.stats();
        assert_eq!(s.offered, 600);
        assert_eq!(
            s.offered,
            s.dropped
                + s.duplicated
                + s.reordered
                + s.delayed
                + s.crash_dropped
                + s.partition_dropped
                + inj.coverage().links[0].delivered
        );
        assert_eq!(s.crash_events, 0, "no signaling unless asked");
    }

    #[test]
    fn crash_signal_fires_once_per_window_at_its_exit() {
        // One server, crash window [0, 4) of each 10-index period: indices
        // 0–3 are CrashDrop, index 4 is the first past the window and must
        // carry the signal — exactly once, even with two links racing.
        let mut cfg = FaultConfig::none();
        cfg.crash_len = 4;
        cfg.crash_period = 10;
        let mut inj = Injector::new(0, cfg, 1, 3, true).unwrap();
        let mut signals = Vec::new();
        for _ in 0..6 {
            for src in [1u32, 2] {
                if let (_, Some(sig)) = inj.decide(Pid(src), Pid(0)) {
                    signals.push(sig);
                }
            }
        }
        assert_eq!(signals, vec![(Pid(0), 0)]);
        assert_eq!(inj.stats().crash_events, 1);
    }

    #[test]
    fn stats_and_coverage_are_reproducible_for_a_seed() {
        let run = || {
            let mut inj = Injector::new(42, FaultConfig::chaos(), 3, 6, true).unwrap();
            let mut signals = 0;
            for _ in 0..400 {
                for dst in 0..3 {
                    signals += u64::from(inj.decide(Pid(4), Pid(dst)).1.is_some());
                }
                signals += u64::from(inj.decide(Pid(0), Pid(4)).1.is_some());
            }
            (inj.stats(), inj.coverage(), signals)
        };
        let (s1, c1, signals) = run();
        let (s2, c2, _) = run();
        assert_eq!(s1, s2);
        assert_eq!(c1.to_json().to_string(), c2.to_json().to_string());
        assert!(s1.crash_events > 0);
        // The stats are the coverage summed over links, plus the signals.
        let fates: std::collections::BTreeMap<_, _> = c1.fate_totals().into_iter().collect();
        assert_eq!(
            s1,
            TransportStats {
                offered: c1.links.iter().map(|l| l.offered).sum(),
                dropped: fates["drop"],
                duplicated: fates["duplicate"],
                reordered: fates["reorder"],
                delayed: fates["delay"],
                crash_dropped: fates["crash_drop"],
                partition_dropped: fates["partition_drop"],
                crash_events: signals,
            }
        );
        assert_eq!(s1.offered, 1_600);
        assert!(
            fates.values().filter(|&&n| n > 0).count() >= 5,
            "the chaos mix exercises most fates: {fates:?}"
        );
    }

    /// What a [`Links`] sink received, in the order it received it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Got {
        Now(u32),
        Later(u16, u32),
    }

    /// The crash signal of window `w`, as a `Links<u32>` item.
    const SIGNAL: u32 = 1000;

    /// One server (pid 0) and one client (pid 1), crash signals on.
    fn links(seed: u64, cfg: FaultConfig) -> Links<u32> {
        let injector = Injector::new(seed, cfg, 1, 2, true).unwrap();
        Links::new(injector, |server, window| {
            assert_eq!(server, Pid(0));
            SIGNAL + u32::try_from(window).unwrap()
        })
    }

    /// Realises `items` on `src → dst`, one after another, and then
    /// releases the holds: everything the two sinks got, in order.
    fn realise_all(links: &mut Links<u32>, src: u32, dst: u32, items: &[u32]) -> Vec<Got> {
        let ring = blunt_obs::FlightRecorder::new(64).register_current("links");
        let got = std::cell::RefCell::new(Vec::new());
        for &item in items {
            links.realise(
                Pid(src),
                Pid(dst),
                0,
                item,
                &ring,
                &mut |i| got.borrow_mut().push(Got::Now(i)),
                &mut |ms, i| got.borrow_mut().push(Got::Later(ms, i)),
            );
        }
        let mut got = got.into_inner();
        got.extend(links.release().into_iter().map(Got::Now));
        got
    }

    /// The first seed whose `0 → 1` link opens with `fates`.
    fn seed_opening_with(cfg: FaultConfig, fates: &[Fate]) -> u64 {
        (0..10_000)
            .find(|&seed| FaultPlan::preview(seed, cfg, 1, 2, Pid(0), Pid(1), fates.len()) == fates)
            .expect("some small seed opens the link so")
    }

    #[test]
    fn links_deliver_in_order() {
        let mut l = links(0, FaultConfig::none());
        let got = realise_all(&mut l, 0, 1, &[0, 1, 2]);
        assert_eq!(got, [Got::Now(0), Got::Now(1), Got::Now(2)]);
        assert_eq!(l.injector().stats().offered, 3);
    }

    #[test]
    fn links_drop_delivers_nothing() {
        let mut cfg = FaultConfig::none();
        cfg.drop_per_mille = 1000;
        let mut l = links(0, cfg);
        assert_eq!(realise_all(&mut l, 0, 1, &[0, 1, 2]), []);
        assert_eq!(l.injector().stats().dropped, 3);
    }

    #[test]
    fn links_duplicate_back_to_back() {
        let mut cfg = FaultConfig::none();
        cfg.duplicate_per_mille = 1000;
        let mut l = links(0, cfg);
        let got = realise_all(&mut l, 0, 1, &[0, 1]);
        assert_eq!(got, [Got::Now(0), Got::Now(0), Got::Now(1), Got::Now(1)]);
    }

    #[test]
    fn links_reorder_releases_the_hold_right_after_its_overtaker() {
        let mut cfg = FaultConfig::none();
        cfg.reorder_per_mille = 500;
        let seed = seed_opening_with(cfg, &[Fate::Reorder, Fate::Deliver, Fate::Deliver]);
        let mut l = links(seed, cfg);
        let got = realise_all(&mut l, 0, 1, &[0, 1, 2]);
        assert_eq!(got, [Got::Now(1), Got::Now(0), Got::Now(2)]);
    }

    #[test]
    fn links_two_reorders_in_a_row_and_release_at_the_end() {
        let mut cfg = FaultConfig::none();
        cfg.reorder_per_mille = 1000;
        let mut l = links(0, cfg);
        // 0 is held; 1 takes its place and releases it; 2 releases 1; the
        // end of the run releases 2.
        let got = realise_all(&mut l, 0, 1, &[0, 1, 2]);
        assert_eq!(got, [Got::Now(0), Got::Now(1), Got::Now(2)]);
        assert_eq!(l.injector().stats().reordered, 3);
        assert_eq!(l.release(), [], "a release empties the slots");
    }

    #[test]
    fn links_delay_goes_to_later_with_its_milliseconds() {
        let mut cfg = FaultConfig::none();
        cfg.delay_per_mille = 1000;
        cfg.max_delay_ms = 3;
        let expected: Vec<Got> = FaultPlan::preview(5, cfg, 1, 2, Pid(0), Pid(1), 4)
            .into_iter()
            .zip(0..)
            .map(|(fate, i)| match fate {
                Fate::Delay(ms) => Got::Later(ms, i),
                other => panic!("every fate is a delay here, got {other:?}"),
            })
            .collect();
        let mut l = links(5, cfg);
        assert_eq!(realise_all(&mut l, 0, 1, &[0, 1, 2, 3]), expected);
    }

    #[test]
    fn links_crash_signal_goes_right_before_its_trigger() {
        // Indices 0 and 1 of the client's link into the server fall in
        // crash window 0; index 2 is the first past it and raises the
        // signal. The signal is not the link's own: it is delivered once.
        let mut cfg = FaultConfig::none();
        cfg.crash_len = 2;
        cfg.crash_period = 10;
        cfg.duplicate_per_mille = 1000;
        let mut l = links(0, cfg);
        let got = realise_all(&mut l, 1, 0, &[0, 1, 2, 3]);
        assert_eq!(
            got,
            [
                Got::Now(SIGNAL),
                Got::Now(2),
                Got::Now(2),
                Got::Now(3),
                Got::Now(3)
            ]
        );
        let s = l.injector().stats();
        assert_eq!((s.crash_dropped, s.crash_events), (2, 1));
    }

    #[test]
    fn links_partition_drop_delivers_nothing() {
        let mut cfg = FaultConfig::none();
        cfg.partition_len = 1;
        cfg.partition_period = 1;
        let fates = FaultPlan::preview(3, cfg, 1, 2, Pid(0), Pid(1), 32);
        assert!(fates
            .iter()
            .any(|f| matches!(f, Fate::PartitionDrop { .. })));
        let expected: Vec<Got> = fates
            .iter()
            .zip(0..)
            .filter(|(f, _)| **f == Fate::Deliver)
            .map(|(_, i)| Got::Now(i))
            .collect();
        let mut l = links(3, cfg);
        assert_eq!(realise_all(&mut l, 0, 1, &Vec::from_iter(0..32)), expected);
    }

    #[test]
    fn delayer_delivers_nothing_early_and_close_delivers_the_rest() {
        let (tx, rx) = mpsc::channel();
        let delayer = Delayer::new("test-delayer", move |(sent, ms): (Instant, u16)| {
            tx.send((sent, ms, Instant::now())).unwrap();
        });
        delayer.delay(Vec::new());
        assert!(
            delayer.thread.lock().unwrap().is_none(),
            "nothing delayed, no thread"
        );
        let sent = Instant::now();
        delayer.delay([3, 1, 60_000].map(|ms| (ms, (sent, ms))).to_vec());
        let mut arrived = Vec::new();
        for _ in 0..2 {
            let (sent, ms, at) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(
                at >= sent + Duration::from_millis(u64::from(ms)),
                "{ms} ms early"
            );
            arrived.push(ms);
        }
        arrived.sort_unstable();
        assert_eq!(arrived, [1, 3]);
        assert!(rx.try_recv().is_err(), "the minute-long delay is not due");
        delayer.close();
        let (_, ms, _) = rx.try_recv().expect("close delivers what is still pending");
        assert_eq!(ms, 60_000);
        assert!(
            delayer.thread.lock().unwrap().is_none(),
            "close joins the thread"
        );
    }
}
