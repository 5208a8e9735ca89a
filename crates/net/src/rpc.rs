//! Tagged request/reply bookkeeping for socket transports.
//!
//! Every frame a process sends carries a fresh monotonic tag; replies echo
//! the request's tag in their `re` header field:
//!
//! - [`TagGen`]: the per-process tag source (never issues 0 — `re = 0`
//!   means "unsolicited"). A reply needs no tag to find its client: it
//!   names the client in its `dst`, and the driver's one worker hands it
//!   over by that. Which operation a reply answers is the protocol's
//!   business: the client refuses a reply whose `sn` is no longer in
//!   flight, on every tier. A reply that answers no request (`re = 0`) is
//!   dropped, counted as `net.rpc.tag_mismatch_drops`.
//! - [`ReplyRouter`] and [`DedupWindow`]: the retired tag → lane table and
//!   per-connection duplicate suppression, kept only for the benchmark's
//!   replay probe.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic frame-tag source; process-local, starts at 1 (0 is the
/// "unsolicited" sentinel in `re` headers).
#[derive(Debug)]
pub struct TagGen(AtomicU64);

impl TagGen {
    /// A fresh generator whose first tag is 1.
    #[must_use]
    pub fn new() -> TagGen {
        TagGen(AtomicU64::new(1))
    }

    /// The next tag.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for TagGen {
    fn default() -> TagGen {
        TagGen::new()
    }
}

/// Routes reply frames (by their `re` header) back to the client lane
/// whose request they answer.
///
/// Retired: no code under `crates/` uses it since every reply reaches the
/// driver's one mailbox and names its client in `dst`. It stays only
/// because the benchmark's replay probe (`benchmark/src/replay.rs`)
/// constructs it.
pub struct ReplyRouter {
    /// Outstanding request tag → client lane index.
    map: Mutex<HashMap<u64, usize>>,
    /// Tags registered by each lane's current operation, retired together
    /// when the lane starts its next operation.
    per_lane: Vec<Mutex<Vec<u64>>>,
}

impl ReplyRouter {
    /// A router for `lanes` concurrent clients.
    #[must_use]
    pub fn new(lanes: usize) -> ReplyRouter {
        ReplyRouter {
            map: Mutex::new(HashMap::new()),
            per_lane: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Starts a new operation on `lane`: retires every tag the lane's
    /// previous operation registered. Replies to those tags arriving later
    /// (duplicates, stragglers from dropped quorum rounds) miss the table
    /// and are counted as tag mismatches by the caller.
    pub fn begin_op(&self, lane: usize) {
        let mut mine = self.per_lane[lane].lock().expect("router lane lock");
        if mine.is_empty() {
            return;
        }
        let mut map = self.map.lock().expect("router map lock");
        for tag in mine.drain(..) {
            map.remove(&tag);
        }
    }

    /// Registers an outstanding request `tag` issued by `lane`.
    pub fn register(&self, lane: usize, tag: u64) {
        self.per_lane[lane]
            .lock()
            .expect("router lane lock")
            .push(tag);
        self.map.lock().expect("router map lock").insert(tag, lane);
    }

    /// The lane that issued request `re`, if it is still outstanding.
    /// (The tag stays live: quorum operations accept several replies to
    /// one broadcast round's tags, and retransmitted requests may earn
    /// more than one answer.)
    #[must_use]
    pub fn route(&self, re: u64) -> Option<usize> {
        self.map.lock().expect("router map lock").get(&re).copied()
    }
}

/// Sliding-window duplicate suppression for one connection: remembers the
/// last `cap` frame tags seen and rejects repeats.
///
/// Retired: no code under `crates/` uses it since a request `Duplicate`
/// reaches the replica over sockets as it does on the bus (every server
/// tag is fresh, so the driver had nothing to drop either). It stays only
/// because the benchmark's replay probe (`benchmark/src/replay.rs`)
/// constructs it.
#[derive(Debug)]
pub struct DedupWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
    cap: usize,
}

impl DedupWindow {
    /// A window remembering the last `cap` tags.
    #[must_use]
    pub fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            seen: HashSet::with_capacity(cap),
            order: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Admits `tag` if unseen within the window; `false` means drop the
    /// frame as a duplicate.
    pub fn admit(&mut self, tag: u64) -> bool {
        if !self.seen.insert(tag) {
            return false;
        }
        self.order.push_back(tag);
        if self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }

    /// Forgets every remembered tag.
    pub fn reset(&mut self) {
        self.seen.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_monotonic_and_never_zero() {
        let g = TagGen::new();
        let a = g.next();
        let b = g.next();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn router_routes_while_outstanding_and_retires_at_op_boundary() {
        let r = ReplyRouter::new(2);
        r.register(0, 10);
        r.register(1, 11);
        assert_eq!(r.route(10), Some(0));
        assert_eq!(r.route(10), Some(0), "tag stays live across reads");
        assert_eq!(r.route(11), Some(1));
        assert_eq!(r.route(99), None, "unknown tag is a mismatch");
        r.begin_op(0);
        assert_eq!(r.route(10), None, "lane 0's tags retired");
        assert_eq!(r.route(11), Some(1), "lane 1 untouched");
    }

    #[test]
    fn dedup_window_drops_repeats_and_forgets_past_capacity() {
        let mut w = DedupWindow::new(3);
        assert!(w.admit(1));
        assert!(!w.admit(1), "immediate duplicate dropped");
        assert!(w.admit(2));
        assert!(w.admit(3));
        assert!(w.admit(4), "window slides");
        assert!(
            w.admit(1),
            "tag 1 evicted after 3 newer tags — admitted again"
        );
        assert!(!w.admit(4));
    }

    #[test]
    fn dedup_window_reset_forgets_everything() {
        let mut w = DedupWindow::new(4);
        assert!(w.admit(7));
        assert!(!w.admit(7));
        w.reset();
        assert!(
            w.admit(7),
            "a reset window must re-admit pre-crash tags — the retransmit \
             after recovery is the frame that matters"
        );
        assert!(!w.admit(7), "dedup resumes normally after the reset");
    }
}
