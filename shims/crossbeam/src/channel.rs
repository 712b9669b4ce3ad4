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

use std::fmt;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

// std in normal builds, the loom model checker under the model-check lane;
// see `crate::primitives`.
use crate::primitives::{fence, Arc, AtomicUsize, Condvar, Mutex, Ordering};

use crate::queue::{Backoff, Bounded, Unbounded};

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

struct Shared<T> {
    flavor: Flavor<T>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// Receivers sleep here when the channel is empty.
    not_empty: Gate,
    /// Senders sleep here when a bounded channel is full.
    not_full: Gate,
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

impl<T> Sender<T> {
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
                if !backoff.snooze() {
                    break;
                }
            }
            sh.not_full
                .wait_until(|| !sh.is_full() || sh.disconnected_receivers());
        }
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
}

fn with_flavor<T>(flavor: Flavor<T>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        flavor,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        not_empty: Gate::new(),
        not_full: Gate::new(),
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
