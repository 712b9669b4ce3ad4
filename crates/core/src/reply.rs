//! Pooled one-shot reply rendezvous for the worker request/reply cycle.
//!
//! Before PR 5 every action allocated a fresh `bounded(1)` channel (an `Arc`,
//! a mutex and a `VecDeque`) just to carry one reply back to the
//! coordinator.  A [`ReplySlot`] replaces that: a reusable single-value
//! rendezvous the coordinator keeps, one per worker, in the session's link
//! (borrowed from the engine's link pool; wrapped in a [`BatchReplySlot`],
//! see "Batch framing"), so the steady state of the hot path allocates
//! nothing — sending a message clones an `Arc` already in the link and
//! every other step is an atomic on memory that already exists.
//!
//! # Protocol
//!
//! The slot's `state` word packs a *round* counter with a *phase*:
//!
//! ```text
//! EMPTY ──promise()──▶ PENDING ──fulfill()──▶ READY ──wait()──▶ EMPTY (round+1 on next promise)
//!                         │                                         ▲
//!                         └──promise dropped──▶ CLOSED ──wait()─────┘
//! ```
//!
//! `wait` spins briefly (the worker usually answers within the spin budget
//! under load), then registers the thread in the `waiter` mailbox and parks.
//! `fulfill`/`close` publish the phase with an `AcqRel` swap and unpark a
//! registered waiter.
//!
//! # Why rounds?
//!
//! A fulfiller's unpark step races with slot reuse: the coordinator can
//! consume the reply, return the slot to the link and dispatch a *new*
//! action through it while the worker is still between its state swap and
//! its mailbox check.  Tagging both the state word and the mailbox entry
//! with the round makes that stale fulfiller harmless — it only takes a
//! mailbox entry of its own round, so it can never steal the next round's
//! registration, and a stray `unpark` at worst makes one future `park`
//! return early (all park loops re-check state).
//!
//! # Memory ordering
//!
//! The value cell is written before the `AcqRel` swap to `READY` and read
//! after an `Acquire` load observes `READY`, so the write happens-before the
//! read.  Exactly one promise exists per round (enforced by ownership:
//! `fulfill` consumes the promise), so the cell is never written twice.  The
//! mailbox is a tiny mutex, touched only on the park path.
//!
//! # Round-tag wraparound (audit note)
//!
//! The round counter occupies the state word's upper 62 bits, so it wraps
//! after 2^62 ≈ 4.6·10^18 rounds.  A stale fulfiller would additionally have
//! to resurface after *exactly* a multiple of 2^62 intervening rounds for
//! its tag to collide — at a round per microsecond that is ~146,000 years of
//! uptime, so wraparound is not defended against.  The model tests below
//! pin the realistic reuse race (a stale fulfiller one round behind).
//!
//! # Batch framing
//!
//! The engine's one message shape (a
//! `WorkerRequest::Run` per (worker, stage), a singleton
//! group being a `Run` of one) is answered through a [`BatchReplySlot`]: a
//! `ReplySlot<Vec<T>>` plus a recycled `Vec` that shuttles between the
//! coordinator and the worker.  The worker pushes one reply per action into
//! the promise-side buffer as it executes the group *in order*, then
//! publishes the whole buffer with a single `fulfill` — one state swap and
//! at most one unpark per message, no matter how many actions it carried.
//! Per-action results and log records are preserved element-wise; dropping
//! the promise mid-group closes the round exactly like the plain slot
//! (partial replies are discarded and the coordinator observes
//! [`ReplyClosed`]).  Because the carried value is just `Vec<T>`, the
//! wrapper adds **no new atomic protocol** — the model tests for `ReplySlot`
//! cover it; `model_batchreply_collects_then_single_wake` additionally pins
//! the wrapper's hand-over-everything-once behavior.  [`ReplySlot`] itself
//! stays the rendezvous primitive underneath.
//!
//! This module is model-checked: `cargo test -p plp-core --features
//! loom-model model_` explores the fulfill/wait rendezvous and the
//! stale-fulfiller reuse race under the loom shim (see `docs/concurrency.md`).

use std::cell::UnsafeCell;

use crate::primitives::{
    current, park, spin_hint, Arc, AtomicU64, Mutex, Ordering, Thread, SPIN_BUDGET,
};

const PHASE_MASK: u64 = 0b11;
const EMPTY: u64 = 0;
const PENDING: u64 = 1;
const READY: u64 = 2;
const CLOSED: u64 = 3;
const ROUND_SHIFT: u32 = 2;

/// The promise side was dropped without a reply (the worker is gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyClosed;

impl std::fmt::Display for ReplyClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("reply promise dropped without fulfilling")
    }
}

impl std::error::Error for ReplyClosed {}

/// Whether this host exposes a single hardware thread (spinning for another
/// thread's progress is then pointless).
fn single_cpu() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(false)
    })
}

struct Inner<T> {
    /// `round << 2 | phase`.
    state: AtomicU64,
    value: UnsafeCell<Option<T>>,
    /// Park mailbox: the waiting thread, tagged with its round.
    waiter: Mutex<Option<(u64, Thread)>>,
}

// SAFETY: the only non-Sync field is the value cell, and it is handed off
// with Release/Acquire through `state`: exactly one promise per round writes
// it before the AcqRel swap to READY, and the waiter reads it only after an
// Acquire load observes READY (see the module docs).  The mailbox is behind
// a mutex.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: as above — all shared access to the value cell is serialized by
// the `state` protocol, everything else is atomics and a mutex.
unsafe impl<T: Send> Sync for Inner<T> {}

/// Coordinator-side handle: owns the slot across rounds.  One outstanding
/// [`ReplyPromise`] at a time; reusable after every [`ReplySlot::wait`].
pub struct ReplySlot<T> {
    inner: Arc<Inner<T>>,
    round: u64,
}

/// Fulfilling side of one round, shipped to the worker inside the request.
/// Dropping it unfulfilled closes the round (the waiter sees
/// [`ReplyClosed`]).
pub struct ReplyPromise<T> {
    inner: Arc<Inner<T>>,
    round: u64,
    completed: bool,
}

impl<T> Default for ReplySlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReplySlot<T> {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                state: AtomicU64::new(EMPTY),
                value: UnsafeCell::new(None),
                waiter: Mutex::new(None),
            }),
            round: 0,
        }
    }

    /// Open the next round and hand out its (single) promise.
    ///
    /// Panics if the previous round was not consumed by [`Self::wait`] —
    /// that would mean two promises alive at once.
    pub fn promise(&mut self) -> ReplyPromise<T> {
        let state = self.inner.state.load(Ordering::Relaxed);
        assert_eq!(
            state & PHASE_MASK,
            EMPTY,
            "reply slot reused with a round still open"
        );
        self.round += 1;
        self.inner
            .state
            .store(self.round << ROUND_SHIFT | PENDING, Ordering::Release);
        ReplyPromise {
            inner: self.inner.clone(),
            round: self.round,
            completed: false,
        }
    }

    /// Whether the current round has completed (fulfilled or closed); never
    /// blocks.  `false` when no round is open.
    pub fn ready(&self) -> bool {
        let phase = self.inner.state.load(Ordering::Acquire) & PHASE_MASK;
        phase == READY || phase == CLOSED
    }

    /// Block until the current round's promise is fulfilled or dropped,
    /// consume the round, and leave the slot ready for reuse.
    pub fn wait(&mut self) -> Result<T, ReplyClosed> {
        let ready = self.round << ROUND_SHIFT | READY;
        let closed = self.round << ROUND_SHIFT | CLOSED;
        let mut state = self.inner.state.load(Ordering::Acquire);
        if state != ready && state != closed {
            // Spin briefly: under load the worker answers within the budget.
            // On a single-CPU host the worker cannot make progress while we
            // spin, so skip straight to the park path.
            let budget = if single_cpu() { 0u32 } else { SPIN_BUDGET };
            let mut spins = 0u32;
            while spins < budget {
                spin_hint();
                state = self.inner.state.load(Ordering::Acquire);
                if state == ready || state == closed {
                    break;
                }
                spins += 1;
            }
            if state != ready && state != closed {
                // Register in the mailbox, re-check, then park.  The
                // fulfiller swaps the state *before* checking the mailbox,
                // so either it sees our registration or we see its phase.
                {
                    let mut mailbox = self.inner.waiter.lock();
                    state = self.inner.state.load(Ordering::Acquire);
                    if state != ready && state != closed {
                        *mailbox = Some((self.round, current()));
                    }
                }
                loop {
                    state = self.inner.state.load(Ordering::Acquire);
                    if state == ready || state == closed {
                        break;
                    }
                    park();
                }
            }
        }
        let result = if state == ready {
            // SAFETY: Release/Acquire through `state`: the fulfiller's value
            // write happens-before this read, and no promise for a new round
            // can exist until this round is consumed, so nothing else
            // touches the cell now.
            Ok(unsafe { (*self.inner.value.get()).take() }.expect("READY slot carries a value"))
        } else {
            Err(ReplyClosed)
        };
        // Close the round; `promise` opens the next one.
        self.inner
            .state
            .store(self.round << ROUND_SHIFT | EMPTY, Ordering::Release);
        result
    }
}

impl<T> ReplyPromise<T> {
    /// Deliver the reply and wake the waiter (if it parked).
    pub fn fulfill(mut self, value: T) {
        // SAFETY: sole writer for this round (ownership: `fulfill` consumes
        // the promise); the waiter reads only after observing READY, and the
        // next round starts only after the waiter consumed.
        unsafe {
            *self.inner.value.get() = Some(value);
        }
        self.complete(READY);
    }

    fn complete(&mut self, phase: u64) {
        self.completed = true;
        self.inner
            .state
            .swap(self.round << ROUND_SHIFT | phase, Ordering::AcqRel);
        // Wake the waiter of *this* round only; a newer round's registration
        // belongs to a newer promise (see the module docs on rounds).
        let mut mailbox = self.inner.waiter.lock();
        if mailbox.as_ref().is_some_and(|(r, _)| *r == self.round) {
            let (_, thread) = mailbox.take().expect("checked above");
            drop(mailbox);
            thread.unpark();
        }
    }
}

impl<T> Drop for ReplyPromise<T> {
    fn drop(&mut self) {
        if !self.completed {
            self.complete(CLOSED);
        }
    }
}

/// Coordinator-side handle for one *batch* of replies: a [`ReplySlot`]
/// carrying a `Vec<T>`, with the vector's allocation recycled across rounds
/// so the steady state stays allocation-free (see the module's "Batch
/// framing" section).
pub struct BatchReplySlot<T> {
    slot: ReplySlot<Vec<T>>,
    /// Drained storage from the previous round, handed to the next promise.
    spare: Vec<T>,
}

/// Fulfilling side of one batch round, shipped to the worker inside a
/// `WorkerRequest::Run`.  The worker [`push`es][Self::push]
/// one reply per action, then [`finish`es][Self::finish] — a single wake for
/// the whole group.  Dropping it before `finish` closes the round.
pub struct BatchReplyPromise<T> {
    promise: ReplyPromise<Vec<T>>,
    buf: Vec<T>,
}

impl<T> Default for BatchReplySlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BatchReplySlot<T> {
    pub fn new() -> Self {
        Self {
            slot: ReplySlot::new(),
            spare: Vec::new(),
        }
    }

    /// Open the next round, sized for `expected` replies.  Panics (in the
    /// underlying [`ReplySlot::promise`]) if the previous round is still
    /// open.
    pub fn promise(&mut self, expected: usize) -> BatchReplyPromise<T> {
        let mut buf = std::mem::take(&mut self.spare);
        debug_assert!(buf.is_empty(), "recycled batch buffer must be drained");
        if buf.capacity() < expected {
            buf.reserve(expected - buf.len());
        }
        BatchReplyPromise {
            promise: self.slot.promise(),
            buf,
        }
    }

    /// Whether the current round has completed; never blocks.
    pub fn ready(&self) -> bool {
        self.slot.ready()
    }

    /// Block until the batch is fulfilled or the promise was dropped.  The
    /// returned vector holds one reply per action, in execution (= send)
    /// order; hand it back via [`Self::recycle`] after draining to keep the
    /// round-trip allocation-free.
    pub fn wait(&mut self) -> Result<Vec<T>, ReplyClosed> {
        self.slot.wait()
    }

    /// Return a drained reply vector's storage for the next round.
    pub fn recycle(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.spare = buf;
    }
}

impl<T> BatchReplyPromise<T> {
    /// Append one action's reply.  Buffered locally — the coordinator sees
    /// nothing until [`Self::finish`].
    pub fn push(&mut self, value: T) {
        self.buf.push(value);
    }

    /// Replies pushed so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Publish the collected replies and wake the coordinator once.
    pub fn finish(mut self) {
        let buf = std::mem::take(&mut self.buf);
        // Moving `promise` out is fine: `BatchReplyPromise` has no `Drop`
        // impl of its own, so `self`'s fields are dropped individually (and
        // `buf` is already empty).
        self.promise.fulfill(buf);
    }
}

impl<T> std::fmt::Debug for BatchReplySlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchReplySlot")
            .field("slot", &self.slot)
            .finish()
    }
}

impl<T> std::fmt::Debug for BatchReplyPromise<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchReplyPromise")
            .field("collected", &self.buf.len())
            .finish()
    }
}

impl<T> std::fmt::Debug for ReplySlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplySlot")
            .field("round", &self.round)
            .finish()
    }
}

impl<T> std::fmt::Debug for ReplyPromise<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyPromise")
            .field("round", &self.round)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fulfill_before_wait() {
        let mut slot = ReplySlot::new();
        let p = slot.promise();
        p.fulfill(7u32);
        assert!(slot.ready());
        assert_eq!(slot.wait(), Ok(7));
        assert!(!slot.ready());
    }

    #[test]
    fn wait_parks_until_fulfilled() {
        let mut slot = ReplySlot::new();
        let p = slot.promise();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p.fulfill(99u64);
        });
        assert_eq!(slot.wait(), Ok(99));
        h.join().unwrap();
    }

    #[test]
    fn dropped_promise_closes_the_round() {
        let mut slot = ReplySlot::<u32>::new();
        let p = slot.promise();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            drop(p);
        });
        assert_eq!(slot.wait(), Err(ReplyClosed));
        h.join().unwrap();
        // The slot is reusable after a closed round.
        let p = slot.promise();
        p.fulfill(1);
        assert_eq!(slot.wait(), Ok(1));
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k spawn/park rounds is too slow under miri")]
    fn reuse_many_rounds_across_threads() {
        let mut slot = ReplySlot::new();
        for i in 0..10_000u64 {
            let p = slot.promise();
            if i % 2 == 0 {
                let h = std::thread::spawn(move || p.fulfill(i));
                assert_eq!(slot.wait(), Ok(i));
                h.join().unwrap();
            } else {
                p.fulfill(i);
                assert_eq!(slot.wait(), Ok(i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "round still open")]
    fn double_promise_panics() {
        let mut slot = ReplySlot::<u32>::new();
        let _p1 = slot.promise();
        let _p2 = slot.promise();
    }

    #[test]
    fn batch_collects_in_order_and_recycles_storage() {
        let mut slot = BatchReplySlot::new();
        let mut p = slot.promise(3);
        for v in [10u32, 20, 30] {
            p.push(v);
        }
        assert_eq!(p.len(), 3);
        p.finish();
        assert!(slot.ready());
        let replies = slot.wait().unwrap();
        assert_eq!(replies, vec![10, 20, 30]);
        let cap = replies.capacity();
        slot.recycle(replies);
        // The next round reuses the same allocation.
        let mut p = slot.promise(3);
        p.push(1);
        p.finish();
        let replies = slot.wait().unwrap();
        assert_eq!(replies, vec![1]);
        assert_eq!(replies.capacity(), cap);
    }

    #[test]
    fn batch_wait_parks_until_finish() {
        let mut slot = BatchReplySlot::new();
        let mut p = slot.promise(2);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p.push(1u64);
            p.push(2);
            p.finish();
        });
        assert_eq!(slot.wait().unwrap(), vec![1, 2]);
        h.join().unwrap();
    }

    #[test]
    fn batch_dropped_mid_collection_closes_round() {
        let mut slot = BatchReplySlot::<u32>::new();
        let mut p = slot.promise(4);
        p.push(1);
        drop(p); // worker died mid-batch: partial replies are discarded
        assert_eq!(slot.wait(), Err(ReplyClosed));
        // The slot is reusable after a closed round.
        let mut p = slot.promise(1);
        p.push(9);
        p.finish();
        assert_eq!(slot.wait().unwrap(), vec![9]);
    }
}

/// Model-checked protocol tests (the `loom-model` lane); see the module docs
/// and `docs/concurrency.md`.
#[cfg(all(test, any(plp_loom, feature = "loom-model")))]
mod model_tests {
    use super::*;

    /// The basic rendezvous: whatever interleaving the spin/park path takes,
    /// the waiter gets the value exactly once and the slot comes back EMPTY.
    #[test]
    fn model_replyslot_fulfill_vs_wait() {
        loom::model(|| {
            let mut slot = ReplySlot::new();
            let p = slot.promise();
            let worker = loom::thread::spawn(move || p.fulfill(7u32));
            assert_eq!(slot.wait(), Ok(7));
            assert!(!slot.ready());
            worker.join().unwrap();
        });
    }

    /// Slot reuse vs a stale fulfiller: round 1's fulfiller is *not* joined
    /// before the coordinator consumes the reply and dispatches round 2
    /// through the same slot, so the first worker's unpark step can run
    /// while round 2's waiter is registered.  The round tag must keep it
    /// from stealing that registration.
    #[test]
    fn model_replyslot_reuse_with_stale_fulfiller() {
        loom::model(|| {
            let mut slot = ReplySlot::new();
            let p1 = slot.promise();
            let w1 = loom::thread::spawn(move || p1.fulfill(1u32));
            assert_eq!(slot.wait(), Ok(1));
            let p2 = slot.promise();
            let w2 = loom::thread::spawn(move || p2.fulfill(2u32));
            assert_eq!(slot.wait(), Ok(2));
            w1.join().unwrap();
            w2.join().unwrap();
        });
    }

    /// The batch wrapper rides the same Inner protocol; this pins its
    /// one-wake hand-over: the waiter observes *all* pushed replies at once,
    /// in push order, under every interleaving of the collect/finish side
    /// with the spin/park side.
    #[test]
    fn model_batchreply_collects_then_single_wake() {
        loom::model(|| {
            let mut slot = BatchReplySlot::new();
            let mut p = slot.promise(2);
            let worker = loom::thread::spawn(move || {
                p.push(1u32);
                p.push(2);
                p.finish();
            });
            assert_eq!(slot.wait().unwrap(), vec![1, 2]);
            assert!(!slot.ready());
            worker.join().unwrap();
        });
    }

    /// A batch promise dropped mid-collection must close the round (partial
    /// replies discarded), and the slot must be reusable afterwards.
    #[test]
    fn model_batchreply_dropped_mid_batch_closes() {
        loom::model(|| {
            let mut slot = BatchReplySlot::<u32>::new();
            let mut p = slot.promise(2);
            let worker = loom::thread::spawn(move || {
                p.push(1);
                drop(p);
            });
            assert_eq!(slot.wait(), Err(ReplyClosed));
            worker.join().unwrap();
            let mut p = slot.promise(1);
            p.push(5);
            p.finish();
            assert_eq!(slot.wait().unwrap(), vec![5]);
        });
    }

    /// A promise dropped unfulfilled must wake the waiter with
    /// `ReplyClosed`, and the slot must be reusable afterwards.
    #[test]
    fn model_replyslot_dropped_promise_closes() {
        loom::model(|| {
            let mut slot = ReplySlot::<u32>::new();
            let p = slot.promise();
            let worker = loom::thread::spawn(move || drop(p));
            assert_eq!(slot.wait(), Err(ReplyClosed));
            worker.join().unwrap();
            let p = slot.promise();
            p.fulfill(1);
            assert_eq!(slot.wait(), Ok(1));
        });
    }
}
