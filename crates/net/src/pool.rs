//! The driver's connection pool: one connection per server.
//!
//! A [`ConnectionPool`] owns one lazily-dialed, mutex-guarded connection
//! per peer. On a write error it drops the connection and redials once
//! (counted as `net.reconnects`); a second failure surfaces to the caller,
//! which treats the frame as lost — indistinguishable from a dropped
//! message, which the retransmission layer above already tolerates. Every
//! fresh connection replays the pool's `Hello` frame and hands a reader
//! handle to the `on_connect` callback so the owner can spawn its receive
//! loop. Those reader handles are clones of the pooled streams, so dropping
//! the pool does not end them: an owner whose receive loops must exit when
//! it is done calls [`ConnectionPool::close`].

use std::io::{self, ErrorKind};
use std::sync::Mutex;
use std::time::Duration;

use crate::conn::{Addr, Stream};
use crate::frame::{Frame, FrameWriter};

/// How long a fresh dial retries connection refusals before giving up —
/// generous enough to cover servers that are still binding at startup.
pub const DIAL_RETRY_WINDOW: Duration = Duration::from_secs(10);

/// One peer's connection, if it is open, and whether the peer has had its
/// last frame ([`ConnectionPool::send_last`]).
#[derive(Default)]
struct Slot {
    writer: Option<FrameWriter<Stream>>,
    done: bool,
}

/// One lazily-dialed outbound connection per peer, self-healing across a
/// single redial per write.
pub struct ConnectionPool {
    peers: Vec<Addr>,
    slots: Vec<Mutex<Slot>>,
    /// Builds the session handshake sent first on every (re)connected
    /// stream. A closure rather than a stored frame so dialers that sample
    /// a clock into their `Hello` (clock-offset estimation) get a fresh
    /// timestamp per dial, not the stale one from pool construction.
    hello: Box<dyn Fn() -> Frame + Send + Sync>,
    /// Called with a cloned reader handle for each fresh connection.
    on_connect: Box<dyn Fn(usize, Stream) + Send + Sync>,
}

impl ConnectionPool {
    /// A pool dialing `peers`, announcing itself with `hello()` on each
    /// fresh connection, and handing each fresh connection's read half to
    /// `on_connect(peer_index, reader)`.
    pub fn new(
        peers: Vec<Addr>,
        hello: impl Fn() -> Frame + Send + Sync + 'static,
        on_connect: impl Fn(usize, Stream) + Send + Sync + 'static,
    ) -> ConnectionPool {
        let slots = peers.iter().map(|_| Mutex::default()).collect();
        ConnectionPool {
            peers,
            slots,
            hello: Box::new(hello),
            on_connect: Box::new(on_connect),
        }
    }

    /// Number of peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the pool has no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    fn dial(&self, peer: usize) -> io::Result<FrameWriter<Stream>> {
        let mut w = FrameWriter::new(self.peers[peer].connect_retry(DIAL_RETRY_WINDOW)?);
        w.write(&(self.hello)())?;
        (self.on_connect)(peer, w.get_ref().try_clone()?);
        Ok(w)
    }

    /// Writes `frame` to `peer`, dialing on first use and redialing once on
    /// a write failure (`net.reconnects`).
    ///
    /// # Errors
    ///
    /// The I/O error of the second attempt; the connection slot is left
    /// empty so the next write dials fresh. Callers treat the frame as
    /// lost — the retransmission layer above absorbs it. `NotConnected`,
    /// without a dial, once `peer` has had its last frame.
    pub fn send(&self, peer: usize, frame: &Frame) -> io::Result<()> {
        let mut slot = self.slots[peer].lock().expect("pool slot lock");
        self.write(&mut slot, peer, frame)
    }

    /// [`ConnectionPool::send`], and the last frame `peer` gets: a later
    /// send to it fails at once, without a dial. A peer that has read its
    /// last frame may close, and dialing it then would retry refusals for
    /// the whole [`DIAL_RETRY_WINDOW`].
    ///
    /// # Errors
    ///
    /// As [`ConnectionPool::send`].
    pub fn send_last(&self, peer: usize, frame: &Frame) -> io::Result<()> {
        let mut slot = self.slots[peer].lock().expect("pool slot lock");
        let sent = self.write(&mut slot, peer, frame);
        slot.done = true;
        sent
    }

    fn write(&self, slot: &mut Slot, peer: usize, frame: &Frame) -> io::Result<()> {
        if slot.done {
            return Err(ErrorKind::NotConnected.into());
        }
        if slot.writer.is_none() {
            slot.writer = Some(self.dial(peer)?);
        }
        if slot
            .writer
            .as_mut()
            .expect("dialed above")
            .write(frame)
            .is_ok()
        {
            return Ok(());
        }
        // One reconnect attempt: the peer may have restarted (crash
        // recovery) or the connection idled out.
        slot.writer = None;
        blunt_obs::static_counter!("net.reconnects").inc();
        let mut fresh = self.dial(peer)?;
        fresh.write(frame)?;
        slot.writer = Some(fresh);
        Ok(())
    }

    /// Shuts every open connection down and empties the pool. The reader
    /// handles `on_connect` gave out are clones of these streams: they see
    /// the end of their stream now, whatever the peer does. A later
    /// [`ConnectionPool::send`] dials afresh, unless the peer has had its
    /// last frame.
    pub fn close(&self) {
        for slot in &self.slots {
            if let Some(w) = slot.lock().expect("pool slot lock").writer.take() {
                let _ = w.get_ref().shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;
    use std::sync::mpsc;

    fn tmp_sock(name: &str) -> Addr {
        let dir = std::env::temp_dir().join(format!("blunt-net-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Addr::Uds(dir.join(name))
    }

    #[test]
    fn pool_dials_lazily_sends_hello_first_and_reconnects_after_peer_restart() {
        let addr = tmp_sock("p0.sock");
        let listener = addr.listen().unwrap();
        let (connected_tx, connected_rx) = mpsc::channel();
        let pool = ConnectionPool::new(
            vec![addr.clone()],
            || Frame::Hello { node: 7, t_us: 0 },
            move |peer, _reader| connected_tx.send(peer).unwrap(),
        );
        pool.send(0, &Frame::Shutdown).unwrap();
        assert_eq!(connected_rx.recv().unwrap(), 0, "on_connect fired");
        let mut conn = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Some(Frame::Hello { node: 7, t_us: 0 })
        );
        assert_eq!(read_frame(&mut conn).unwrap(), Some(Frame::Shutdown));
        // Simulate a peer restart: close the accepted side, rebind, and
        // keep writing until the pool notices the dead connection and
        // redials (closure detection may take one buffered write).
        drop(conn);
        drop(listener);
        let listener = addr.listen().unwrap();
        for _ in 0..50 {
            if pool.send(0, &Frame::Shutdown).is_ok() && connected_rx.try_recv().is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut conn = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Some(Frame::Hello { node: 7, t_us: 0 }),
            "reconnected stream re-announces itself"
        );
    }

    #[test]
    fn close_ends_the_reader_handles_while_the_peer_keeps_its_end_open() {
        let addr = tmp_sock("c0.sock");
        let listener = addr.listen().unwrap();
        let (eof_tx, eof_rx) = mpsc::channel();
        let pool = ConnectionPool::new(
            vec![addr.clone()],
            || Frame::Hello { node: 7, t_us: 0 },
            move |_, mut reader| {
                let eof_tx = eof_tx.clone();
                std::thread::spawn(move || {
                    // Blocks until the stream ends: the peer never writes.
                    let end = read_frame(&mut reader);
                    let _ = eof_tx.send(matches!(end, Ok(None)));
                });
            },
        );
        pool.send(0, &Frame::Shutdown).unwrap();
        // The peer holds its end open for the whole test.
        let _held = listener.accept().unwrap();
        assert!(
            eof_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "the reader ended on its own"
        );
        pool.close();
        assert_eq!(eof_rx.recv_timeout(Duration::from_secs(5)), Ok(true));
    }

    #[test]
    fn a_peer_past_its_last_frame_is_never_dialed_again() {
        let addr = tmp_sock("l0.sock");
        let listener = addr.listen().unwrap();
        let (connected_tx, connected_rx) = mpsc::channel();
        let pool = ConnectionPool::new(
            vec![addr.clone()],
            || Frame::Hello { node: 7, t_us: 0 },
            move |peer, _reader| connected_tx.send(peer).unwrap(),
        );
        pool.send_last(0, &Frame::Shutdown).unwrap();
        let mut conn = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Some(Frame::Hello { node: 7, t_us: 0 })
        );
        assert_eq!(read_frame(&mut conn).unwrap(), Some(Frame::Shutdown));
        let late = pool.send(0, &Frame::Shutdown).unwrap_err();
        assert_eq!(late.kind(), ErrorKind::NotConnected, "open, but done");
        pool.close();
        assert_eq!(read_frame(&mut conn).unwrap(), None, "closed");
        let late = pool.send(0, &Frame::Shutdown).unwrap_err();
        assert_eq!(late.kind(), ErrorKind::NotConnected, "no redial");
        assert_eq!(connected_rx.try_iter().count(), 1, "the first dial only");
    }
}
