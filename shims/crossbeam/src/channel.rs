//! MPMC channels over the lock-free queues of `crate::queue`.
//!
//! `bounded`/`unbounded` return `Sender`/`Receiver` pairs that are both
//! `Clone + Send + Sync`, with crossbeam's disconnect semantics.  The hot
//! path — `send` on a non-full channel, `recv` on a non-empty one — is a
//! single lock-free queue operation plus a sleeper check (one fence and one
//! atomic load when nobody sleeps); no mutex is touched.  Blocking is
//! layered on top: a bounded spin-then-yield phase first, then a park on a
//! `Gate` (mutex + condvar used *only* while someone actually sleeps).
//!
//! # Waking and disconnects
//!
//! Message arrival wakes **one** sleeper (`notify_one`): exactly one message
//! became available, so waking more would thunder.  Disconnects wake **all**
//! sleepers on both gates: every blocked peer must observe the hangup.  (The
//! previous mutex-based shim got this right too, but the distinction is now
//! load-bearing enough to be covered by `tests/mpmc_semantics.rs` for both
//! implementations.)
//!
//! # Lost-wakeup freedom
//!
//! The classic race — a sender pushes and checks for sleepers while a
//! receiver checks for messages and goes to sleep — is broken Dekker-style:
//! the waiter increments the gate's sleeper count (`SeqCst`) *before*
//! re-checking the queue under the gate lock, and the notifier issues a
//! `SeqCst` fence after its queue operation *before* loading the sleeper
//! count.  In the seq-cst total order one of the two must see the other:
//! either the notifier sees the sleeper and takes the gate lock to notify
//! (serializing with the waiter's re-check), or the waiter's re-check sees
//! the message and never sleeps.
//!
//! # Fast lanes
//!
//! [`Sender::fast_lane`] attaches a dedicated single-producer ring
//! (`queue::Spsc`) to the channel and returns a [`LaneSender`]: a
//! producer handle whose `send` is a slot write with no CAS and no
//! contention with other producers.  A full ring makes `send` spin, then
//! yield, until the consumer frees a slot; it never falls back to the main
//! queue.  Lanes share the channel's `not_empty` gate, so
//! [`Receiver::wait_any`] parks until *either* the main queue or some lane
//! has a message.
//!
//! ## Audit note (lane ordering)
//!
//! Two properties are load-bearing for callers that keep control messages on
//! the main queue (the engine's shutdown message):
//!
//! 1. **No lost wakeup for lane sends.**  The same Dekker pairing as above:
//!    the lane push's `Release` stamp store precedes the notifier's `SeqCst`
//!    fence in `Gate::notify`; the waiter's sleeper increment (`SeqCst`)
//!    precedes the `SeqCst` fence in `Shared::lane_ready`, which precedes
//!    its `Acquire` stamp load.  Fence-to-fence ordering makes one side see
//!    the other.  Pinned by `model_lane_send_wakes_parked_receiver`.
//! 2. **Lane messages enqueued before a main-queue message are visible to a
//!    receiver that drains lanes after popping it.**  The producer's lane
//!    push (Release stamp store) is program-ordered before its main-queue
//!    push, whose pop by the receiver builds a Release/Acquire edge; the
//!    receiver's subsequent `Acquire` stamp load therefore sees the lane
//!    value.  Pinned by `model_lane_vs_control_ordering`.

use std::fmt;
use std::marker::PhantomData;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

// std in normal builds, the loom model checker under the model-check lane;
// see `crate::primitives`.
use crate::primitives::{fence, Arc, AtomicPtr, AtomicUsize, Condvar, Mutex, Ordering};

use crate::metrics;
use crate::queue::{Backoff, Bounded, Spsc, Unbounded};

pub mod mutex_baseline;

fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Error returned by [`Sender::send`] when every receiver has hung up.
/// The unsent message is handed back.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender has hung up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.pad("receiving on an empty channel"),
            TryRecvError::Disconnected => f.pad("receiving on a disconnected channel"),
        }
    }
}

impl std::error::Error for TryRecvError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.pad("timed out waiting on receive"),
            RecvTimeoutError::Disconnected => f.pad("receiving on a disconnected channel"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// Parking place for threads that exhausted their spin budget.  The mutex is
/// taken only by threads that are about to sleep and by notifiers that saw a
/// non-zero sleeper count.
struct Gate {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Self {
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Park until `ready()` holds.  `ready` is re-checked under the gate
    /// lock after registering as a sleeper, so a notification issued for a
    /// state change we have not seen yet cannot be lost.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let mut guard = unpoison(self.lock.lock());
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        loop {
            if ready() {
                break;
            }
            metrics::park();
            guard = unpoison(self.cv.wait(guard));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// [`Gate::wait_until`] with a deadline.  Returns `false` on timeout
    /// with `ready()` still not holding.
    fn wait_deadline(&self, ready: impl Fn() -> bool, deadline: Instant) -> bool {
        let mut guard = unpoison(self.lock.lock());
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let woke = loop {
            if ready() {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            metrics::park();
            let (g, _) = unpoison(self.cv.wait_timeout(guard, deadline - now));
            guard = g;
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        woke
    }

    /// Wake one sleeper (message arrival) or all of them (disconnect).
    fn notify(&self, all: bool) {
        // Dekker pairing with the sleeper-count increment in `wait_*`; the
        // caller's queue operation precedes this fence.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        metrics::wakeup();
        let _guard = unpoison(self.lock.lock());
        if all {
            self.cv.notify_all();
        } else {
            self.cv.notify_one();
        }
    }
}

enum Flavor<T> {
    Bounded(Bounded<T>),
    Unbounded(Unbounded<T>),
}

/// One single-producer fast lane.  Nodes form an append-only intrusive list
/// hanging off [`Shared::lanes`]; they are freed only when the channel's last
/// handle drops (`Shared::drop`), so a raw node pointer is valid for as long
/// as its holder keeps the channel alive.
struct LaneNode<T> {
    queue: Spsc<T>,
    next: AtomicPtr<LaneNode<T>>,
}

struct Shared<T> {
    flavor: Flavor<T>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// Receivers sleep here when the channel is empty.
    not_empty: Gate,
    /// Senders sleep here when a bounded channel is full.
    not_full: Gate,
    /// Append-only list of single-producer fast lanes ([`Sender::fast_lane`]).
    lanes: AtomicPtr<LaneNode<T>>,
}

impl<T> Shared<T> {
    fn try_push(&self, value: T) -> Result<(), T> {
        match &self.flavor {
            Flavor::Bounded(q) => q.try_push(value),
            Flavor::Unbounded(q) => {
                q.push(value);
                Ok(())
            }
        }
    }

    fn try_pop(&self) -> Option<T> {
        match &self.flavor {
            Flavor::Bounded(q) => q.try_pop(),
            Flavor::Unbounded(q) => q.try_pop(),
        }
    }

    fn len(&self) -> usize {
        match &self.flavor {
            Flavor::Bounded(q) => q.len(),
            Flavor::Unbounded(q) => q.len(),
        }
    }

    fn is_empty(&self) -> bool {
        match &self.flavor {
            Flavor::Bounded(q) => q.is_empty(),
            Flavor::Unbounded(q) => q.is_empty(),
        }
    }

    fn is_full(&self) -> bool {
        match &self.flavor {
            Flavor::Bounded(q) => q.is_full(),
            Flavor::Unbounded(_) => false,
        }
    }

    fn disconnected_senders(&self) -> bool {
        self.senders.load(Ordering::SeqCst) == 0
    }

    fn disconnected_receivers(&self) -> bool {
        self.receivers.load(Ordering::SeqCst) == 0
    }

    /// Bookkeeping after a successful pop: free space may unblock a sender.
    fn after_pop(&self) {
        if matches!(self.flavor, Flavor::Bounded(_)) {
            self.not_full.notify(false);
        }
    }

    /// Whether any fast lane has a message.  The leading `SeqCst` fence pairs
    /// with the one in [`Gate::notify`] after a lane push (Dekker-style, see
    /// the module's lane-ordering audit note), so a receiver that registered
    /// as a sleeper before calling this cannot miss a concurrent lane send.
    fn lane_ready(&self) -> bool {
        fence(Ordering::SeqCst);
        let mut node = self.lanes.load(Ordering::Acquire);
        while !node.is_null() {
            // SAFETY: lane nodes are append-only and freed only in
            // `Shared::drop`, which requires exclusive access; holding `&self`
            // keeps every published node alive.
            let lane = unsafe { &*node };
            if lane.queue.has_message() {
                return true;
            }
            node = lane.next.load(Ordering::Acquire);
        }
        false
    }

    /// Pop one message from the first non-empty fast lane.
    fn try_pop_lane(&self) -> Option<T> {
        let mut node = self.lanes.load(Ordering::Acquire);
        while !node.is_null() {
            // SAFETY: as in `lane_ready` — published nodes outlive `&self`.
            let lane = unsafe { &*node };
            if let Some(v) = lane.queue.try_pop() {
                return Some(v);
            }
            node = lane.next.load(Ordering::Acquire);
        }
        None
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        let mut node = *self.lanes.get_mut();
        while !node.is_null() {
            // SAFETY: `&mut self` proves no concurrent access; every node was
            // leaked from a `Box` in `Sender::fast_lane` and appears in the
            // list exactly once.
            let mut lane = unsafe { Box::from_raw(node) };
            node = *lane.next.get_mut();
        }
    }
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Receiver { .. }")
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Every receiver blocked on an empty queue must observe the
            // disconnect: wake all, not one.
            self.shared.not_empty.notify(true);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Every sender blocked on a full bounded queue must observe the
            // disconnect: wake all, not one.
            self.shared.not_full.notify(true);
        }
    }
}

/// Single-producer handle for a dedicated fast lane of one channel, created
/// by [`Sender::fast_lane`].  Deliberately neither `Clone` nor `Sync`: the
/// unique-producer contract of the underlying `Spsc` ring is enforced by
/// this type's shape, not by runtime checks.  `Send` is fine — moving the
/// handle moves the producer role with it.
pub struct LaneSender<T> {
    /// Keeps the channel (and thus the lane node) alive and counts this
    /// handle as a sender for disconnect semantics.
    sender: Sender<T>,
    lane: *mut LaneNode<T>,
    /// `Cell` is `Send + !Sync`, which is exactly the contract we want for
    /// the handle itself.
    _single_producer: PhantomData<std::cell::Cell<()>>,
}

impl<T> fmt::Debug for LaneSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("LaneSender { .. }")
    }
}

// SAFETY: the raw lane pointer targets a node owned by the channel's
// `Shared`, which the embedded `Sender`'s `Arc` keeps alive; all access to
// the node goes through the Spsc stamp protocol.  `PhantomData<Cell<()>>`
// keeps the type `!Sync` so the unique-producer contract survives the move.
unsafe impl<T: Send> Send for LaneSender<T> {}

impl<T> LaneSender<T> {
    /// Send on the lane, waiting (spin, then yield) while the ring is full.
    /// Fails only when every receiver has hung up.
    pub fn send(&self, mut value: T) -> Result<(), SendError<T>> {
        let sh = &*self.sender.shared;
        // SAFETY: the node outlives this handle (see the `Send` impl note).
        let queue = unsafe { &(*self.lane).queue };
        let mut backoff = Backoff::new();
        loop {
            if sh.disconnected_receivers() {
                return Err(SendError(value));
            }
            // SAFETY: `LaneSender` is `!Clone + !Sync`, so this handle is the
            // ring's unique producer — the contract `Spsc::try_push` requires.
            match unsafe { queue.try_push(value) } {
                Ok(()) => {
                    sh.not_empty.notify(false);
                    return Ok(());
                }
                Err(v) => value = v,
            }
            metrics::enqueue_spin();
            backoff.snooze();
        }
    }
}

impl<T> Sender<T> {
    /// Attach a dedicated single-producer fast lane of `capacity` slots to
    /// this channel.  The lane's storage lives until the channel itself is
    /// dropped, so create one lane per long-lived producer, not per message
    /// burst.
    pub fn fast_lane(&self, capacity: usize) -> LaneSender<T> {
        let node = Box::into_raw(Box::new(LaneNode {
            queue: Spsc::new(capacity),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }));
        let mut head = self.shared.lanes.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is unpublished until the CAS below succeeds, so
            // we are its only writer here.
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            // Release publishes the node's initialized contents to receivers
            // that Acquire-load the list head.
            match self.shared.lanes.compare_exchange(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        LaneSender {
            sender: self.clone(),
            lane: node,
            _single_producer: PhantomData,
        }
    }

    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let sh = &*self.shared;
        let mut value = value;
        loop {
            if sh.disconnected_receivers() {
                return Err(SendError(value));
            }
            match sh.try_push(value) {
                Ok(()) => {
                    sh.not_empty.notify(false);
                    return Ok(());
                }
                Err(v) => value = v,
            }
            // Bounded channel full: spin briefly, then park until a consumer
            // frees a slot or the last receiver hangs up.
            let mut backoff = Backoff::new();
            loop {
                if sh.disconnected_receivers() {
                    return Err(SendError(value));
                }
                match sh.try_push(value) {
                    Ok(()) => {
                        sh.not_empty.notify(false);
                        return Ok(());
                    }
                    Err(v) => value = v,
                }
                metrics::enqueue_spin();
                if !backoff.snooze() {
                    break;
                }
            }
            sh.not_full
                .wait_until(|| !sh.is_full() || sh.disconnected_receivers());
        }
    }

    /// Whether any fast lane currently holds a message, for senders that
    /// decide between enqueueing and doing the work themselves.
    pub fn lane_ready(&self) -> bool {
        self.shared.lane_ready()
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let sh = &*self.shared;
        loop {
            if let Some(v) = sh.try_pop() {
                sh.after_pop();
                return Ok(v);
            }
            if sh.disconnected_senders() {
                // Messages pushed before the last sender dropped are still
                // delivered: re-check once after observing the disconnect.
                return match sh.try_pop() {
                    Some(v) => {
                        sh.after_pop();
                        Ok(v)
                    }
                    None => Err(RecvError),
                };
            }
            // Spin briefly, then park until a message arrives or the last
            // sender hangs up.
            let mut backoff = Backoff::new();
            loop {
                if let Some(v) = sh.try_pop() {
                    sh.after_pop();
                    return Ok(v);
                }
                if sh.disconnected_senders() {
                    break;
                }
                if !backoff.snooze() {
                    break;
                }
            }
            if !sh.disconnected_senders() {
                sh.not_empty
                    .wait_until(|| !sh.is_empty() || sh.disconnected_senders());
            }
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let sh = &*self.shared;
        if let Some(v) = sh.try_pop() {
            sh.after_pop();
            return Ok(v);
        }
        if sh.disconnected_senders() {
            match sh.try_pop() {
                Some(v) => {
                    sh.after_pop();
                    Ok(v)
                }
                None => Err(TryRecvError::Disconnected),
            }
        } else {
            Err(TryRecvError::Empty)
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let sh = &*self.shared;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(v) = sh.try_pop() {
                sh.after_pop();
                return Ok(v);
            }
            if sh.disconnected_senders() {
                return match sh.try_pop() {
                    Some(v) => {
                        sh.after_pop();
                        Ok(v)
                    }
                    None => Err(RecvTimeoutError::Disconnected),
                };
            }
            if Instant::now() >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let mut backoff = Backoff::new();
            loop {
                if let Some(v) = sh.try_pop() {
                    sh.after_pop();
                    return Ok(v);
                }
                if sh.disconnected_senders() || Instant::now() >= deadline {
                    break;
                }
                if !backoff.snooze() {
                    break;
                }
            }
            if !sh.disconnected_senders() && Instant::now() < deadline {
                sh.not_empty
                    .wait_deadline(|| !sh.is_empty() || sh.disconnected_senders(), deadline);
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Pop one message from the channel's fast lanes ([`Sender::fast_lane`]),
    /// bypassing the main queue.  Lane consumption is CAS-claimed, so a
    /// cloned receiver is safe — but the intended shape is one draining
    /// receiver per channel.
    pub fn try_recv_lane(&self) -> Option<T> {
        self.shared.try_pop_lane()
    }

    /// Block until the main queue or a fast lane has a message, or every
    /// sender has disconnected.  Pure wait — the caller pops via
    /// [`Receiver::try_recv`] / [`Receiver::try_recv_lane`] afterwards (a
    /// concurrent consumer may still win the race to the message).
    pub fn wait_any(&self) {
        let sh = &*self.shared;
        let mut backoff = Backoff::new();
        loop {
            if !sh.is_empty() || sh.lane_ready() || sh.disconnected_senders() {
                return;
            }
            if !backoff.snooze() {
                break;
            }
        }
        sh.not_empty
            .wait_until(|| !sh.is_empty() || sh.lane_ready() || sh.disconnected_senders());
    }
}

fn with_flavor<T>(flavor: Flavor<T>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        flavor,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        not_empty: Gate::new(),
        not_full: Gate::new(),
        lanes: AtomicPtr::new(std::ptr::null_mut()),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// An unbounded MPMC channel (lock-free segmented queue).
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_flavor(Flavor::Unbounded(Unbounded::new()))
}

/// A bounded MPMC channel (lock-free Vyukov ring).  Capacity 0 (a rendezvous
/// channel in real crossbeam) is approximated with capacity 1; the workspace
/// never creates zero-capacity channels.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_flavor(Flavor::Bounded(Bounded::new(cap.max(1))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(5u32).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn disconnect_is_observed() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn messages_sent_before_disconnect_are_delivered() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let h = thread::spawn(move || tx.send(2).map_err(|_| ()));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn mpmc_cloning_works_across_threads() {
        let (tx, rx) = unbounded::<u64>();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        let mut got: Vec<u64> = (0..4).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn try_recv_and_len() {
        let (tx, rx) = bounded::<u32>(4);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        tx.send(10).unwrap();
        assert_eq!(rx.len(), 2);
        assert!(!rx.is_empty());
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Ok(10));
        assert!(rx.is_empty());
    }

    #[test]
    fn a_full_lane_waits_for_room_and_errors_without_receivers() {
        let (tx, rx) = unbounded::<u32>();
        let lane = tx.fast_lane(2);
        lane.send(1).unwrap();
        lane.send(2).unwrap();
        // Ring full: the third send waits until the consumer frees a slot,
        // and never takes the main queue.
        let producer = thread::spawn(move || {
            lane.send(3).unwrap();
            lane
        });
        let mut got = Vec::new();
        while got.len() < 3 {
            match rx.try_recv_lane() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        let lane = producer.join().unwrap();
        lane.send(4).unwrap();
        lane.send(5).unwrap();
        // Full, and the receiver is gone: the send fails instead of waiting.
        drop(rx);
        assert!(lane.send(6).is_err());
        drop(tx);
    }

    #[test]
    fn lane_message_before_control_drains_first() {
        // The engine's shutdown shape: an action on the lane, then a control
        // message on the main queue; a receiver that pops the control message
        // must find the action on a single lane drain pass.
        let (tx, rx) = unbounded::<u32>();
        let lane = tx.fast_lane(4);
        lane.send(10).unwrap();
        tx.send(99).unwrap();
        assert_eq!(rx.try_recv(), Ok(99));
        assert_eq!(rx.try_recv_lane(), Some(10));
    }

    #[test]
    fn wait_any_sees_lane_sends_and_disconnects() {
        let (tx, rx) = unbounded::<u32>();
        let lane = tx.fast_lane(1);
        let h = thread::spawn(move || {
            lane.send(5).unwrap();
            // `lane` (and the embedded sender clone) drop here…
        });
        loop {
            rx.wait_any();
            if let Some(v) = rx.try_recv_lane() {
                assert_eq!(v, 5);
                break;
            }
        }
        h.join().unwrap();
        drop(tx);
        // All senders gone: wait_any must not park forever.
        rx.wait_any();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn lane_send_errors_when_receivers_gone() {
        let (tx, rx) = unbounded::<u32>();
        let lane = tx.fast_lane(1);
        drop(rx);
        assert!(lane.send(1).is_err());
    }

    #[test]
    fn lane_pending_values_dropped_with_channel() {
        // Values parked in a lane when the channel dies must still be freed
        // (leak-checked under miri/asan).
        let (tx, rx) = unbounded::<Vec<u32>>();
        let lane = tx.fast_lane(4);
        lane.send(vec![1, 2, 3]).unwrap();
        lane.send(vec![4, 5, 6]).unwrap();
        drop((tx, rx, lane));
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timeouts are meaningless under miri")]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(3).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(3));
        h.join().unwrap();
    }
}
