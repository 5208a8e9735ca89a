//! Flush-scoped envelope batching over any [`Transport`].
//!
//! A [`BatchingTransport`] sits between one pipelined client and the shared
//! transport. Protocol sends accumulate in a buffer — in send order — and
//! are handed to the inner transport as one [`Transport::send_batch`] call
//! when some **destination's** share of the buffer reaches `batch_max`,
//! when the client has drained its mailbox and is about to block on it
//! (nothing more is coming until replies arrive), or at an explicit flush.
//! The cap counts per destination because that is the unit a flush
//! produces — one `EnvBatch` frame, one mailbox run — just as the replica's
//! drain pass counts what one mailbox holds: a depth-8 fill fans 8 queries
//! out to 3 replicas of 2 shards, 4 envelopes per replica, and leaves as
//! the one lane-dry flush; counted across destinations it would be cut at
//! its 16th envelope and every replica woken, read and answered twice for
//! one phase. A destination that does reach the cap flushes the whole
//! buffer, in buffer order, so a flush may carry more than `batch_max`
//! envelopes (`store.batch.envelopes_per_flush`). Over the socket tier the
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

use blunt_net::{Coverage, Envelope, Transport, TransportStats};

/// A per-client batching layer over a shared [`Transport`].
pub struct BatchingTransport<'a> {
    inner: &'a dyn Transport,
    batch_max: usize,
    buf: Mutex<Buffer>,
}

/// The unflushed envelopes, in send order, and how many of them go to each
/// destination (index = [`Pid::index`](blunt_core::ids::Pid::index), grown
/// on demand).
#[derive(Default)]
struct Buffer {
    envs: Vec<Envelope>,
    per_dst: Vec<usize>,
}

impl<'a> BatchingTransport<'a> {
    /// Wraps `inner`, flushing whenever `batch_max` envelopes to one
    /// destination accumulate (`batch_max = 1` ⇒ pass-through).
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
            buf: Mutex::new(Buffer::default()),
        }
    }

    /// Hands any buffered envelopes to the inner transport as one batch.
    /// Call before blocking on the mailbox: the replies being waited on
    /// cannot arrive until the requests actually leave.
    pub fn flush_pending(&self) {
        let batch = {
            let mut buf = self.buf.lock().expect("batch buffer lock");
            if buf.envs.is_empty() {
                return;
            }
            buf.per_dst.fill(0);
            // `send_batch` takes the batch by value, so the buffer cannot
            // be handed back; a successor sized like the batch just flushed
            // is one allocation per flush where `mem::take` regrew from
            // empty every time.
            let next = Vec::with_capacity(buf.envs.len());
            std::mem::replace(&mut buf.envs, next)
        };
        blunt_obs::static_counter!("store.batch.flushes").inc();
        blunt_obs::static_counter!("store.batch.envelopes").add(batch.len() as u64);
        blunt_obs::static_histogram!("store.batch.envelopes_per_flush").record(batch.len() as u64);
        self.inner.send_batch(batch);
    }

    fn push(&self, env: Envelope) {
        let full = {
            let mut buf = self.buf.lock().expect("batch buffer lock");
            let dst = env.dst.index();
            if buf.per_dst.len() <= dst {
                buf.per_dst.resize(dst + 1, 0);
            }
            buf.per_dst[dst] += 1;
            buf.envs.push(env);
            buf.per_dst[dst] >= self.batch_max
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
    use blunt_abd::msg::AbdMsg;
    use blunt_core::ids::{ObjId, Pid};
    use blunt_net::Payload;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A transport that records the shape of every call it receives.
    #[derive(Default)]
    struct Probe {
        batches: Mutex<Vec<usize>>,
        /// `(dst, sn)` of every batched envelope, in arrival order.
        order: Mutex<Vec<(u32, u32)>>,
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
            let mut order = self.order.lock().unwrap();
            for env in &envs {
                let Payload::Abd(AbdMsg::Query { sn, .. }) = &env.msg else {
                    panic!("the tests send queries only");
                };
                order.push((env.dst.0, *sn));
            }
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
        env_to(0, n)
    }

    fn env_to(dst: u32, n: u32) -> Envelope {
        Envelope::abd(
            Pid(9),
            Pid(dst),
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
    fn batch_max_one_forwards_every_send_alone_whatever_its_destination() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 1);
        for i in 0..6 {
            bt.send(env_to(i % 3, i));
        }
        assert_eq!(*probe.batches.lock().unwrap(), vec![1; 6]);
    }

    #[test]
    fn a_fill_spread_over_its_replicas_is_one_flush() {
        // The benchmark's fill: 8 ops fan out to the 3 replicas of their
        // shard, 24 envelopes over 6 destinations, 4 each — under the cap
        // of 16 everywhere, so nothing leaves before the lane-dry flush.
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 16);
        for op in 0..8 {
            let shard = op % 2;
            for replica in 0..3 {
                bt.send(env_to(shard * 3 + replica, op));
            }
        }
        assert!(probe.batches.lock().unwrap().is_empty(), "cut mid-fill");
        bt.flush_pending();
        assert_eq!(*probe.batches.lock().unwrap(), vec![24]);
    }

    #[test]
    fn the_cap_is_per_destination_and_its_flush_carries_the_whole_buffer_in_order() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 16);
        // 15 to replica 0 with 5 to each of two others in between: 25
        // buffered, no destination at the cap.
        let mut sent = Vec::new();
        for i in 0..15 {
            sent.push((0, i));
            if i % 3 == 0 {
                sent.extend([(1, i), (2, i)]);
            }
        }
        for &(dst, sn) in &sent {
            bt.send(env_to(dst, sn));
        }
        assert!(probe.batches.lock().unwrap().is_empty());
        // Replica 0's 16th forces the flush, and takes everything along.
        sent.push((0, 15));
        bt.send(env_to(0, 15));
        assert_eq!(*probe.batches.lock().unwrap(), vec![26]);
        assert_eq!(*probe.order.lock().unwrap(), sent);
        // The counts start over with the buffer.
        for i in 16..31 {
            bt.send(env_to(0, i));
        }
        assert_eq!(*probe.batches.lock().unwrap(), vec![26]);
        bt.send(env_to(0, 31));
        assert_eq!(*probe.batches.lock().unwrap(), vec![26, 16]);
    }

    #[test]
    fn flush_drains_the_buffer_before_flushing_the_inner_transport() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 100);
        bt.send(env(0));
        bt.send(env(1));
        bt.flush();
        assert_eq!(*probe.batches.lock().unwrap(), vec![2]);
        assert_eq!(probe.flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "at least one envelope")]
    fn zero_batch_max_is_a_programmer_error() {
        let probe = Probe::default();
        let _ = BatchingTransport::new(&probe, 0);
    }
}
