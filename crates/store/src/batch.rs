//! Flush-scoped envelope batching over any [`Transport`].
//!
//! A [`BatchingTransport`] sits between one pipelined client and the shared
//! transport. Protocol sends accumulate in a buffer — in send order — and
//! are handed to the inner transport as one [`Transport::send_batch`] call
//! when the buffer reaches `batch_max`, when the client has drained its
//! mailbox and is about to block on it (nothing more is coming until
//! replies arrive), or at an explicit flush. Over the socket tier the
//! inner `send_batch` packs each destination's surviving envelopes into a
//! single `EnvBatch` frame, amortizing framing and syscalls across a
//! quorum round's fan-out; over the in-process bus it draws the batch's
//! fates under one lock acquisition and hands each destination's mailbox
//! its deliveries as one contiguous run, amortizing the lock and the
//! receiver's wake-up.
//!
//! **Batching is transport amortization only.** `send_batch`'s contract
//! (see [`Transport`]) draws fault fates per logical envelope in buffer
//! order — exactly the fates the unbatched sends would have drawn — so the
//! seed-determined schedule, stats, and coverage are identical at any
//! `batch_max`, and `batch_max = 1` is *operationally* identical to no
//! wrapper at all (each send flushes immediately as a batch of one).

use std::sync::Mutex;

use blunt_core::ids::Pid;
use blunt_net::{Coverage, Envelope, Transport, TransportStats};

/// A per-client batching layer over a shared [`Transport`].
pub struct BatchingTransport<'a> {
    inner: &'a dyn Transport,
    batch_max: usize,
    buf: Mutex<Vec<Envelope>>,
}

impl<'a> BatchingTransport<'a> {
    /// Wraps `inner`, flushing whenever `batch_max` envelopes accumulate
    /// (`batch_max = 1` ⇒ pass-through).
    ///
    /// # Panics
    ///
    /// Panics if `batch_max == 0`.
    #[must_use]
    pub fn new(inner: &'a dyn Transport, batch_max: usize) -> BatchingTransport<'a> {
        assert!(batch_max >= 1, "a batch holds at least one envelope");
        BatchingTransport {
            inner,
            batch_max,
            buf: Mutex::new(Vec::with_capacity(batch_max)),
        }
    }

    /// Hands any buffered envelopes to the inner transport as one batch.
    /// Call before blocking on the mailbox: the replies being waited on
    /// cannot arrive until the requests actually leave.
    pub fn flush_pending(&self) {
        let batch = {
            let mut buf = self.buf.lock().expect("batch buffer lock");
            if buf.is_empty() {
                return;
            }
            // `send_batch` takes the batch by value, so the buffer cannot
            // be handed back; a full-sized replacement is one allocation
            // per flush where `mem::take` regrew from empty every time.
            std::mem::replace(&mut *buf, Vec::with_capacity(self.batch_max))
        };
        blunt_obs::static_counter!("store.batch.flushes").inc();
        blunt_obs::static_counter!("store.batch.envelopes").add(batch.len() as u64);
        blunt_obs::static_histogram!("store.batch.envelopes_per_flush").record(batch.len() as u64);
        self.inner.send_batch(batch);
    }

    fn push(&self, env: Envelope) {
        let full = {
            let mut buf = self.buf.lock().expect("batch buffer lock");
            buf.push(env);
            buf.len() >= self.batch_max
        };
        if full {
            self.flush_pending();
        }
    }
}

impl Transport for BatchingTransport<'_> {
    fn send(&self, env: Envelope) {
        self.push(env);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        for env in envs {
            self.push(env);
        }
    }

    fn on_op_start(&self, client: Pid) {
        // The inner transport may retire outstanding reply routes here —
        // anything still buffered must be on the wire (and its routes
        // registered) before that happens.
        self.flush_pending();
        self.inner.on_op_start(client);
    }

    fn flush(&self) {
        self.flush_pending();
        self.inner.flush();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn coverage(&self) -> Coverage {
        self.inner.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A transport that records the shape of every call it receives.
    #[derive(Default)]
    struct Probe {
        batches: Mutex<Vec<usize>>,
        op_starts: AtomicUsize,
        flushes: AtomicUsize,
    }

    impl Transport for Probe {
        fn send(&self, _env: Envelope) {
            // The default send_batch would forward here; recording batch
            // sizes in send_batch is what the tests assert on.
            self.batches.lock().unwrap().push(1);
        }

        fn send_batch(&self, envs: Vec<Envelope>) {
            self.batches.lock().unwrap().push(envs.len());
        }

        fn on_op_start(&self, _client: Pid) {
            self.op_starts.fetch_add(1, Ordering::Relaxed);
        }

        fn flush(&self) {
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }

        fn coverage(&self) -> Coverage {
            Coverage::default()
        }
    }

    fn env(n: u32) -> Envelope {
        use blunt_abd::msg::AbdMsg;
        use blunt_core::ids::ObjId;
        Envelope::abd(
            Pid(9),
            Pid(0),
            AbdMsg::Query {
                obj: ObjId(0),
                sn: n,
            },
            false,
        )
    }

    #[test]
    fn sends_accumulate_until_batch_max_then_flush_in_order() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 3);
        for i in 0..7 {
            bt.send(env(i));
        }
        assert_eq!(
            *probe.batches.lock().unwrap(),
            vec![3, 3],
            "two full batches"
        );
        bt.flush_pending();
        assert_eq!(
            *probe.batches.lock().unwrap(),
            vec![3, 3, 1],
            "the remainder leaves on the explicit flush"
        );
        bt.flush_pending();
        assert_eq!(
            *probe.batches.lock().unwrap(),
            vec![3, 3, 1],
            "an empty flush is a no-op"
        );
    }

    #[test]
    fn batch_max_one_forwards_every_send_immediately() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 1);
        for i in 0..4 {
            bt.send(env(i));
        }
        assert_eq!(*probe.batches.lock().unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn op_start_and_flush_drain_the_buffer_first() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 100);
        bt.send(env(0));
        bt.send(env(1));
        bt.on_op_start(Pid(9));
        assert_eq!(*probe.batches.lock().unwrap(), vec![2]);
        assert_eq!(probe.op_starts.load(Ordering::Relaxed), 1);
        bt.send(env(2));
        bt.flush();
        assert_eq!(*probe.batches.lock().unwrap(), vec![2, 1]);
        assert_eq!(probe.flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "at least one envelope")]
    fn zero_batch_max_is_a_programmer_error() {
        let probe = Probe::default();
        let _ = BatchingTransport::new(&probe, 0);
    }
}
