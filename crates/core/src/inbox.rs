//! A partition worker's inbox: single-producer lanes, a stop flag and one
//! park word.  Public only so the message-cost benchmark drives the lane
//! the engine runs.
//!
//! Each sending session's link holds a [`LaneSender`], the one producer of
//! a bounded ring (a *lane*) that only the worker consumes, so senders
//! never contend.  Lanes are append-only: made by [`Inbox::lane`], freed
//! with the inbox.  The worker takes messages with [`Receiver::recv`],
//! newest lane first.  It waits by spin rounds of 2^0 … 2^6 pause turns,
//! then yields up to step 10 (two yields on a single-CPU host), then
//! parks.  Full-lane spins, head-CAS retries, parks and wakeups go
//! straight into the engine's [`plp_instrument::stats::MsgStats`].  The one
//! shared word, `state`:
//!
//! * `SLEEPING`: the worker is about to park; a sender that sees it
//!   unparks the worker;
//! * `STOP`: [`Inbox::stop`] asked the worker to drain every lane once
//!   more and exit;
//! * `CLOSED`: the worker's [`Receiver`] dropped, by return or by unwind.
//!   Everything queued then, or sent later, is dropped, so a
//!   [`crate::reply`] promise inside answers `ReplyClosed` instead of
//!   waiting for a worker that is gone.
//!
//! # Lost wakeups and stranded messages
//!
//! One Dekker pairing excludes both.  A sender publishes its message (a
//! `Release` stamp store), issues a `SeqCst` fence, then loads `state`.
//! The sleeping worker and the closing [`Receiver`] set their bit with a
//! `SeqCst` RMW, then issue a `SeqCst` fence before scanning the lanes.
//! The fences are ordered, so one side sees the other: the sleeper sees the
//! message or the sender unparks it (`model_lane_send_wakes_parked_receiver`);
//! the closer drops the message or the sender drains its own lane
//! (`model_lane_send_racing_close_is_never_stranded`).  `STOP` needs no
//! fence: its RMW releases whatever the stopper sent before it
//! (`model_lane_vs_stop_ordering`), and it and `SLEEPING` are RMWs on one
//! word, so whichever comes second reads the other.
//!
//! # The lane ring
//!
//! A Vyukov bounded ring without the producer CAS.  A slot's stamp is
//! `2*pos` while it awaits the producer of position `pos`, `2*pos + 1` once
//! that value is in and `2*(pos + capacity)` once consumed, so "full" and
//! "free for the next lap" differ even at capacity 1.  A consumer reads a
//! cell only after an `Acquire` load of the producer's `Release` stamp,
//! and a producer reuses it only after an `Acquire` load of the consumer's
//! `Release` stamp (`model_spsc_publication`).  Each position is claimed
//! once: by the one producer ([`LaneSender`] is neither `Clone` nor
//! `Sync`), and by a CAS on `head`, because the close path adds a second
//! consumer.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;

use plp_instrument::stats::MsgStats;
use plp_instrument::StatsRegistry;

// std in normal builds, the loom model checker under the model-check lane;
// see `crate::primitives`.
use crate::primitives::{
    current, fence, park, single_cpu, spin_wait, yield_now, Arc, AtomicPtr, AtomicUsize, Mutex,
    Ordering, Thread,
};

const SLEEPING: usize = 1;
const STOP: usize = 2;
const CLOSED: usize = 4;

/// Truncated exponential backoff: spin briefly, then yield the CPU.
struct Backoff {
    step: u32,
    single_cpu: bool,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;
    /// A single CPU cannot run the peer while we spin: yield twice, then
    /// park.
    const SINGLE_CPU_YIELD_LIMIT: u32 = 2;

    fn new() -> Self {
        Self {
            step: 0,
            single_cpu: single_cpu(),
        }
    }

    /// Wait one step.  `false` once the caller should park instead.
    fn snooze(&mut self) -> bool {
        if self.single_cpu {
            yield_now();
            self.step = self.step.saturating_add(1);
            return self.step <= Self::SINGLE_CPU_YIELD_LIMIT;
        }
        if self.step <= Self::SPIN_LIMIT {
            spin_wait(1u32 << self.step);
        } else {
            yield_now();
        }
        self.step = self.step.saturating_add(1);
        self.step <= Self::YIELD_LIMIT
    }
}

/// Keeps the producer and consumer positions on separate cache lines.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// One lane: a single-producer ring, linked to the next older lane.
struct Lane<T> {
    slots: Box<[Slot<T>]>,
    /// Producer's next position, written only by the one producer.
    tail: CachePadded<AtomicUsize>,
    /// Consumer's next position, CAS-claimed.
    head: CachePadded<AtomicUsize>,
    /// The next older lane, fixed before this one is published.
    next: *mut Lane<T>,
}

// SAFETY: cells are handed off through the stamps (module docs), with one
// writer and one reader per (slot, lap); `next` is read-only once the lane
// is published.  Values move across threads, hence `T: Send`.
unsafe impl<T: Send> Send for Lane<T> {}
// SAFETY: as above; positions and stamps are atomics.
unsafe impl<T: Send> Sync for Lane<T> {}

impl<T> Lane<T> {
    fn new(capacity: usize, next: *mut Lane<T>) -> Self {
        Self {
            slots: (0..capacity.max(1))
                .map(|i| Slot {
                    stamp: AtomicUsize::new(2 * i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
            next,
        }
    }

    fn slot(&self, pos: usize) -> &Slot<T> {
        &self.slots[pos % self.slots.len()]
    }

    /// Wait-free push; hands the value back when the ring is full.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's one producer: two concurrent pushes
    /// would claim the same position and race on its cell.
    unsafe fn try_push(&self, value: T) -> Result<(), T> {
        let pos = self.tail.0.load(Ordering::Relaxed);
        let slot = self.slot(pos);
        if slot.stamp.load(Ordering::Acquire) != 2 * pos {
            return Err(value);
        }
        // SAFETY: stamp `2*pos` says the slot is free for lap `pos`, and we
        // are its one writer; consumers read only after the Release below.
        unsafe { slot.value.get().write(MaybeUninit::new(value)) };
        slot.stamp.store(2 * pos + 1, Ordering::Release);
        self.tail.0.store(pos + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Lock-free pop; `None` when the ring is empty.  A lost head CAS
    /// counts one dequeue spin.
    fn try_pop(&self, stats: &MsgStats) -> Option<T> {
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = self.slot(pos);
            if slot.stamp.load(Ordering::Acquire) != 2 * pos + 1 {
                return None;
            }
            match self.head.0.compare_exchange_weak(
                pos,
                pos + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // SAFETY: the Acquire load of `2*pos + 1` saw the
                    // producer's Release, and the CAS made this the one
                    // reader of (slot, lap).
                    let value = unsafe { slot.value.get().read().assume_init() };
                    let next_lap = 2 * (pos + self.slots.len());
                    slot.stamp.store(next_lap, Ordering::Release);
                    return Some(value);
                }
                Err(current) => {
                    pos = current;
                    stats.dequeue_spin();
                }
            }
        }
    }

    /// Whether the slot at the consumer position holds a value.  The caller
    /// issues the `SeqCst` fence that pairs this with a sender's.
    fn has_message(&self) -> bool {
        let pos = self.head.0.load(Ordering::Relaxed);
        self.slot(pos).stamp.load(Ordering::Acquire) == 2 * pos + 1
    }
}

impl<T> Drop for Lane<T> {
    fn drop(&mut self) {
        for pos in *self.head.0.get_mut()..*self.tail.0.get_mut() {
            let len = self.slots.len();
            // SAFETY: `&mut self` excludes concurrent access, and every
            // position in `head..tail` holds a pushed, unpopped value.
            unsafe { self.slots[pos % len].value.get_mut().assume_init_drop() };
        }
    }
}

/// One worker's inbox (module docs), shared by the worker's [`Receiver`]
/// and every [`LaneSender`] into it.
pub struct Inbox<T> {
    /// Newest lane first.
    lanes: AtomicPtr<Lane<T>>,
    /// `SLEEPING | STOP | CLOSED`.
    state: AtomicUsize,
    /// The worker thread, registered before it first sets `SLEEPING`.
    worker: Mutex<Option<Thread>>,
    stats: Arc<StatsRegistry>,
}

impl<T> Inbox<T> {
    /// A new inbox recording its queue counters into `stats`, and its
    /// worker's receiving end.
    pub fn new(stats: Arc<StatsRegistry>) -> (Arc<Self>, Receiver<T>) {
        let inbox = Arc::new(Self {
            lanes: AtomicPtr::new(std::ptr::null_mut()),
            state: AtomicUsize::new(0),
            worker: Mutex::new(None),
            stats,
        });
        (inbox.clone(), Receiver { inbox })
    }

    /// Attach a lane of `capacity` slots and return its one producer.  The
    /// lane lives as long as the inbox: make one per long-lived sender.
    pub fn lane(self: &Arc<Self>, capacity: usize) -> LaneSender<T> {
        let mut head = self.lanes.load(Ordering::Relaxed);
        let lane = Box::into_raw(Box::new(Lane::new(capacity, head)));
        // Release publishes the built lane to consumers' Acquire loads.
        while let Err(current) =
            self.lanes
                .compare_exchange(head, lane, Ordering::Release, Ordering::Relaxed)
        {
            head = current;
            // SAFETY: `lane` is unpublished until the CAS succeeds.
            unsafe { (*lane).next = head };
        }
        LaneSender {
            inbox: self.clone(),
            lane,
            _single_producer: PhantomData,
        }
    }

    /// Ask the worker to drain every lane once more and exit.
    pub fn stop(&self) {
        if self.state.fetch_or(STOP, Ordering::SeqCst) & SLEEPING != 0 {
            self.unpark();
        }
    }

    /// Whether any lane holds a message.  The leading `SeqCst` fence pairs
    /// with a sender's post-push fence (module docs).
    pub(crate) fn lane_ready(&self) -> bool {
        fence(Ordering::SeqCst);
        self.lanes().any(Lane::has_message)
    }

    fn lanes(&self) -> impl Iterator<Item = &Lane<T>> {
        let mut node = self.lanes.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            // SAFETY: lanes are published fully built, never unlinked, and
            // freed only by `Inbox::drop`, so `&self` keeps them alive.
            let lane = unsafe { node.as_ref()? };
            node = lane.next;
            Some(lane)
        })
    }

    fn try_pop(&self) -> Option<T> {
        self.lanes().find_map(|lane| lane.try_pop(self.stats.msg()))
    }

    fn unpark(&self) {
        self.stats.msg().wakeup();
        if let Some(worker) = self.worker.lock().as_ref() {
            worker.unpark();
        }
    }

    /// Park the worker until a lane holds a message or the inbox stops.
    fn sleep(&self) {
        self.worker.lock().get_or_insert_with(current);
        self.state.fetch_or(SLEEPING, Ordering::SeqCst);
        while !self.lane_ready() && self.state.load(Ordering::Acquire) & STOP == 0 {
            self.stats.msg().park();
            park();
        }
        self.state.fetch_and(!SLEEPING, Ordering::SeqCst);
    }
}

impl<T> Drop for Inbox<T> {
    fn drop(&mut self) {
        let mut node = *self.lanes.get_mut();
        while !node.is_null() {
            // SAFETY: `&mut self` excludes concurrent access; each lane was
            // leaked from a `Box` in `Inbox::lane` and is listed once.
            node = unsafe { Box::from_raw(node) }.next;
        }
    }
}

/// The worker's end of an [`Inbox`].  Dropping it closes the inbox.
pub struct Receiver<T> {
    inbox: Arc<Inbox<T>>,
}

impl<T> Receiver<T> {
    /// The next message, waiting for one; `None` once the inbox is stopped
    /// and every lane is drained.
    pub fn recv(&self) -> Option<T> {
        let inbox = &*self.inbox;
        let mut backoff = Backoff::new();
        loop {
            if let Some(msg) = inbox.try_pop() {
                return Some(msg);
            }
            if inbox.state.load(Ordering::Acquire) & STOP != 0 {
                // What was sent before the stop is visible once it is.
                return inbox.try_pop();
            }
            if !backoff.snooze() {
                inbox.sleep();
                backoff = Backoff::new();
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let inbox = &*self.inbox;
        inbox.state.fetch_or(CLOSED, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while inbox.try_pop().is_some() {}
    }
}

/// The one producer of one lane.  Neither `Clone` nor `Sync`, so the lane
/// has exactly one producer; `Send` moves that role with the handle.
pub struct LaneSender<T> {
    /// Keeps the lane alive.
    inbox: Arc<Inbox<T>>,
    lane: *const Lane<T>,
    _single_producer: PhantomData<Cell<()>>,
}

// SAFETY: the lane belongs to the inbox the `Arc` keeps alive, and is
// reached only through the stamp protocol; `PhantomData<Cell>` keeps the
// handle `!Sync`, so the one-producer contract survives the move.
unsafe impl<T: Send> Send for LaneSender<T> {}

impl<T> LaneSender<T> {
    /// Send `msg`, spinning then yielding while the lane is full.  A closed
    /// inbox drops it, so a reply promise inside answers `ReplyClosed`.
    pub fn send(&self, msg: T) {
        self.send_checked::<true>(msg);
    }

    /// [`Self::send`]; the model tests seed a missing closed re-check.
    fn send_checked<const RECHECK_CLOSED: bool>(&self, mut msg: T) {
        let inbox = &*self.inbox;
        // SAFETY: the lane lives as long as the inbox this sender holds.
        let lane = unsafe { &*self.lane };
        let mut backoff = Backoff::new();
        loop {
            if inbox.state.load(Ordering::Acquire) & CLOSED != 0 {
                return;
            }
            // SAFETY: this handle is the lane's one producer (type docs).
            match unsafe { lane.try_push(msg) } {
                Ok(()) => break,
                Err(back) => msg = back,
            }
            inbox.stats.msg().enqueue_spin();
            backoff.snooze();
        }
        fence(Ordering::SeqCst);
        let state = inbox.state.load(Ordering::SeqCst);
        if RECHECK_CLOSED && state & CLOSED != 0 {
            // The worker may have drained before this push landed.
            while lane.try_pop(inbox.stats.msg()).is_some() {}
        } else if state & SLEEPING != 0 {
            inbox.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::{ReplyClosed, ReplySlot};
    use std::thread;

    fn inbox<T>() -> (Arc<Inbox<T>>, Receiver<T>) {
        Inbox::new(StatsRegistry::new_shared())
    }

    #[test]
    fn spsc_fifo_full_and_lap_reuse() {
        let stats = MsgStats::default();
        let q = Lane::new(2, std::ptr::null_mut());
        // SAFETY: this test thread is the unique producer.
        unsafe {
            assert!(q.try_push(1).is_ok());
            assert!(q.try_push(2).is_ok());
            assert_eq!(q.try_push(3), Err(3));
        }
        assert!(q.has_message());
        assert_eq!(q.try_pop(&stats), Some(1));
        assert_eq!(q.try_pop(&stats), Some(2));
        assert_eq!(q.try_pop(&stats), None);
        assert!(!q.has_message());
        for lap in 0..100u64 {
            // SAFETY: as above — single producer.
            unsafe {
                assert!(q.try_push(lap).is_ok());
            }
            assert_eq!(q.try_pop(&stats), Some(lap));
        }
    }

    #[test]
    fn spsc_drop_releases_pending_values() {
        let q = Lane::new(8, std::ptr::null_mut());
        for i in 0..5u64 {
            // SAFETY: single producer.
            unsafe {
                q.try_push(vec![i; 4]).unwrap();
            }
        }
        q.try_pop(&MsgStats::default()).unwrap();
        drop(q);
    }

    #[test]
    #[cfg_attr(miri, ignore = "20k-element spin transfer is too slow under miri")]
    fn spsc_concurrent_transfer() {
        let q = Arc::new(Lane::new(4, std::ptr::null_mut()));
        let total = 20_000u64;
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                for i in 0..total {
                    let mut v = i;
                    // SAFETY: this thread is the unique producer.
                    while let Err(back) = unsafe { q.try_push(v) } {
                        v = back;
                        thread::yield_now();
                    }
                }
            })
        };
        let stats = MsgStats::default();
        let mut expected = 0u64;
        while expected < total {
            match q.try_pop(&stats) {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn a_full_lane_waits_for_room_and_a_closed_inbox_drops_its_messages() {
        let (inbox, rx) = inbox::<u32>();
        let lane = inbox.lane(2);
        lane.send(1);
        lane.send(2);
        // Ring full: the third send waits until the consumer frees a slot.
        let producer = thread::spawn(move || {
            lane.send(3);
            lane
        });
        let got: Vec<u32> = (0..3).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
        let lane = producer.join().unwrap();
        lane.send(4);
        lane.send(5);
        // Full, and the worker is gone: the queued messages are dropped, and
        // so is the next one instead of waiting for room.
        drop(rx);
        lane.send(6);
        assert!(!inbox.lane_ready());
    }

    #[test]
    fn lane_message_before_stop_drains_first() {
        let (inbox, rx) = inbox::<u32>();
        let lane = inbox.lane(4);
        lane.send(10);
        inbox.stop();
        assert_eq!(rx.recv(), Some(10));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn recv_sees_lane_sends_and_stop() {
        let (inbox, rx) = inbox::<u32>();
        let lane = inbox.lane(1);
        let sender = thread::spawn(move || lane.send(5));
        assert_eq!(rx.recv(), Some(5));
        sender.join().unwrap();
        let stopper = {
            let inbox = inbox.clone();
            thread::spawn(move || {
                thread::sleep(std::time::Duration::from_millis(20));
                inbox.stop();
            })
        };
        // Stopped while parked: `recv` must not park forever.
        assert_eq!(rx.recv(), None);
        stopper.join().unwrap();
    }

    /// A send to a closed inbox, or queued when it closes, drops its message
    /// and so answers the promise inside it with `ReplyClosed`.
    #[test]
    fn a_send_to_a_closed_inbox_drops_its_message() {
        let (inbox, rx) = inbox::<crate::reply::ReplyPromise<u32>>();
        let lane = inbox.lane(1);
        let (mut queued, mut late) = (ReplySlot::new(), ReplySlot::new());
        lane.send(queued.promise());
        drop(rx);
        assert_eq!(queued.wait(), Err(ReplyClosed));
        lane.send(late.promise());
        assert_eq!(late.wait(), Err(ReplyClosed));
    }

    #[test]
    fn lane_pending_values_dropped_with_inbox() {
        // Values still in a lane when the inbox dies must be freed (leak-
        // checked under miri/asan).
        let (inbox, rx) = inbox::<Vec<u32>>();
        let lane = inbox.lane(4);
        lane.send(vec![1, 2, 3]);
        lane.send(vec![4, 5, 6]);
        drop((lane, inbox));
        drop(rx);
    }
}

/// Model-checked inbox protocols (the `loom-model` lane); see the module
/// docs and `docs/concurrency.md`.
#[cfg(all(test, feature = "loom-model"))]
mod model_tests {
    use super::*;
    use crate::reply::{ReplyClosed, ReplyPromise, ReplySlot};
    use loom::thread;

    fn inbox<T>() -> (Arc<Inbox<T>>, Receiver<T>) {
        Inbox::new(StatsRegistry::new_shared())
    }

    /// Ring publication: the producer's Release stamp store must make the
    /// value visible to the consumer's Acquire load, across a lap boundary
    /// (capacity 1 forces slot reuse on the second push).  A missing
    /// Release/Acquire pair shows up as an uninitialized or stale read.
    #[test]
    fn model_spsc_publication() {
        loom::model(|| {
            let q = Arc::new(Lane::new(1, std::ptr::null_mut()));
            let producer = {
                let q = q.clone();
                thread::spawn(move || {
                    for v in [11u32, 22] {
                        let mut v = v;
                        // SAFETY: this thread is the ring's unique producer.
                        while let Err(back) = unsafe { q.try_push(v) } {
                            v = back;
                            thread::yield_now();
                        }
                    }
                })
            };
            let stats = MsgStats::default();
            let mut got = Vec::new();
            while got.len() < 2 {
                match q.try_pop(&stats) {
                    Some(v) => got.push(v),
                    None => thread::yield_now(),
                }
            }
            producer.join().unwrap();
            // Single producer: FIFO, no loss, no duplication.
            assert_eq!(got, [11, 22]);
            assert!(q.try_pop(&stats).is_none());
        });
    }

    /// No lost wakeup: a worker that parks on an empty inbox is woken by a
    /// concurrent lane send.  A lost wakeup shows up as a model deadlock.
    #[test]
    fn model_lane_send_wakes_parked_receiver() {
        loom::model(|| {
            let (inbox, rx) = inbox::<u32>();
            let lane = inbox.lane(1);
            let sender = thread::spawn(move || lane.send(42));
            assert_eq!(rx.recv(), Some(42));
            sender.join().unwrap();
        });
    }

    /// Lane vs stop flag: a message sent before [`Inbox::stop`] by the same
    /// thread is received before `recv` reports the stop — shutdown never
    /// overtakes a queued group.
    #[test]
    fn model_lane_vs_stop_ordering() {
        loom::model(|| {
            let (inbox, rx) = inbox::<u32>();
            let lane = inbox.lane(1);
            let stopper = {
                let inbox = inbox.clone();
                thread::spawn(move || {
                    lane.send(1);
                    inbox.stop();
                })
            };
            assert_eq!(rx.recv(), Some(1));
            assert_eq!(rx.recv(), None);
            stopper.join().unwrap();
        });
    }

    /// A lane send racing the worker's exit: the worker answers what it
    /// takes, then its receiver drops and closes the inbox.  The message is
    /// answered or dropped (its promise closes), never stranded in the lane;
    /// a stranded promise leaves `wait` parked, a model deadlock.
    fn send_racing_close(recheck_closed: bool) {
        let (inbox, rx) = inbox::<ReplyPromise<u32>>();
        let lane = inbox.lane(1);
        let mut slot = ReplySlot::new();
        let promise = slot.promise();
        let sender = thread::spawn(move || {
            if recheck_closed {
                lane.send(promise);
            } else {
                lane.send_checked::<false>(promise);
            }
        });
        inbox.stop();
        while let Some(promise) = rx.recv() {
            promise.fulfill(7);
        }
        drop(rx);
        sender.join().unwrap();
        let answer = slot.wait();
        assert!(matches!(answer, Ok(7) | Err(ReplyClosed)), "{answer:?}");
    }

    #[test]
    fn model_lane_send_racing_close_is_never_stranded() {
        loom::model(|| send_racing_close(true));
    }

    /// Seeded bug: a sender that skips the post-push closed check can leave
    /// its message in the lane of a worker that already drained and left.
    #[test]
    fn seeded_send_without_closed_recheck_is_caught() {
        let report = loom::explore(loom::Config::default(), || send_racing_close(false))
            .expect_err("checker must find the stranded message");
        assert!(report.contains("deadlock"), "report: {report}");
    }
}
