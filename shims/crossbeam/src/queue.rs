//! The lock-free MPMC queues behind [`crate::channel`].
//!
//! Two flavors, both multi-producer/multi-consumer and FIFO:
//!
//! * [`Bounded`] — a Vyukov-style bounded array queue.  Each slot carries a
//!   `sequence` number; producers and consumers claim positions with a CAS on
//!   a global ticket counter and then synchronize on the slot's sequence
//!   alone, so unrelated operations never touch the same cache line and there
//!   is no lock anywhere.
//! * [`Unbounded`] — a segmented (block-linked) queue in the style of
//!   crossbeam-channel's "list" flavor: positions are claimed with a CAS on a
//!   global index, blocks of [`BLOCK_CAP`] slots are linked as the index
//!   grows, and fully-consumed blocks are freed cooperatively through the
//!   per-slot `WRITE`/`READ`/`DESTROY` state protocol.
//!
//! # Memory-ordering argument
//!
//! The proof obligations are the same for both flavors:
//!
//! 1. **A consumer never reads an unwritten value.**  Producers publish the
//!    value with a `Release` store to the slot's sequence/state word *after*
//!    writing the value; consumers `Acquire`-load that word before reading
//!    the value, so the value write *happens-before* the read.
//! 2. **A producer never overwrites an unread value** (bounded flavor).  The
//!    consumer advances the slot's sequence to the next lap's "empty" marker
//!    with a `Release` store *after* moving the value out; a producer claims
//!    the slot for the next lap only after `Acquire`-loading that sequence.
//!    Markers live in a doubled position space so "full" and "free for the
//!    next lap" stay distinct down to capacity 1 (see [`BoundedSlot`]).
//! 3. **Two producers (or two consumers) never claim the same position.**
//!    Tickets are claimed with `compare_exchange` on the shared counter; each
//!    position is won exactly once.
//! 4. **Block reclamation is safe** (unbounded flavor).  A block is freed
//!    only after every slot reached the `READ` state (or was handed the
//!    `DESTROY` baton by the reader that finished last); readers hold no
//!    references past their `fetch_or(READ)`, and head/tail block pointers
//!    are advanced (`Release`) *before* the index that allows other threads
//!    to reach the new block is published, so a stale block pointer can never
//!    be paired with a new index.
//!
//! The queues return "empty"/"full" from `try_pop`/`try_push` without
//! blocking; [`crate::channel`] layers spinning and parking on top.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

// std in normal builds, the loom model checker under the model-check lane;
// see `crate::primitives`.
use crate::primitives::{fence, spin_wait, yield_now, AtomicPtr, AtomicUsize, Ordering};

/// Pads and aligns a value to 64 bytes (one cache line on the platforms we
/// care about) so the producer and consumer counters never share a line.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);

/// Whether this host exposes a single hardware thread.  Spinning can never
/// help there — the peer whose progress we are waiting for cannot run until
/// we yield — so the backoff degenerates to yield-then-park.
pub(crate) fn single_cpu() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(false)
    })
}

/// Truncated exponential backoff used everywhere a thread waits for another
/// thread's in-flight step: spin briefly, then yield the CPU.  `snooze`
/// returns `false` once the caller should stop spinning and park instead.
pub(crate) struct Backoff {
    step: u32,
    single_cpu: bool,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;
    /// Parking threshold on a single-CPU host: yield a couple of times (the
    /// scheduler may run the peer immediately), then park.
    const SINGLE_CPU_YIELD_LIMIT: u32 = 2;

    pub(crate) fn new() -> Self {
        Self {
            step: 0,
            single_cpu: single_cpu(),
        }
    }

    /// Light backoff for CAS-retry loops.
    pub(crate) fn spin(&mut self) {
        if self.single_cpu {
            yield_now();
        } else {
            spin_wait(1u32 << self.step.min(Self::SPIN_LIMIT));
        }
        self.step = self.step.saturating_add(1);
    }

    /// Spin, escalating to `yield_now` after the spin budget.  Returns `true`
    /// while waiting longer still makes sense (below the parking threshold).
    pub(crate) fn snooze(&mut self) -> bool {
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

// ---------------------------------------------------------------------------
// Bounded: Vyukov MPMC array queue.
// ---------------------------------------------------------------------------

struct BoundedSlot<T> {
    /// Lap marker over a *doubled* position space: `2*pos` for an empty slot
    /// awaiting the producer of position `pos`, `2*pos + 1` once that value
    /// is in, `2*(pos + capacity)` once the consumer freed it for the next
    /// lap.  Doubling keeps the "full" and "free for the next lap" markers
    /// distinct even at capacity 1 (with plain `pos + 1` / `pos + capacity`
    /// markers they collide there, and a `bounded(1)` channel — the shape of
    /// a request/ack handshake — would corrupt).
    sequence: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Vyukov-style bounded MPMC queue with exactly `capacity` slots.
pub(crate) struct Bounded<T> {
    slots: Box<[BoundedSlot<T>]>,
    capacity: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: the only non-Sync state is the slot value cells, and each is
// handed off through its slot's `sequence` stamp: the producer writes the
// cell before the Release store of `2*pos + 1`, the consumer reads it after
// the Acquire load of that stamp, and the doubled-lap encoding ensures one
// producer and one consumer per (slot, lap).  `T: Send` is required because
// values move across threads.
unsafe impl<T: Send> Send for Bounded<T> {}
// SAFETY: as above — all shared slot access is serialized by the stamp
// protocol; the positions are atomics.
unsafe impl<T: Send> Sync for Bounded<T> {}

impl<T> Bounded<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|i| BoundedSlot {
                sequence: AtomicUsize::new(2 * i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            capacity,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Lock-free push; hands the value back when the queue is full.
    pub(crate) fn try_push(&self, value: T) -> Result<(), T> {
        let mut backoff = Backoff::new();
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos % self.capacity];
            let seq = slot.sequence.load(Ordering::Acquire);
            let diff = seq as isize - (2 * pos) as isize;
            if diff == 0 {
                // The slot is free on this lap: claim the ticket.
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed ticket `pos`, so we are the
                        // sole writer of this slot until the consumer of this
                        // lap frees it; the consumer reads only after the
                        // Release store below publishes the write.
                        unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                        slot.sequence.store(2 * pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => {
                        pos = current;
                        backoff.spin();
                    }
                }
            } else if diff < 0 {
                // The slot still holds last lap's value: the queue is full.
                return Err(value);
            } else {
                // Another producer claimed this position; catch up.
                backoff.spin();
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Lock-free pop; `None` when the queue is empty (a claimed-but-unwritten
    /// slot counts as empty — the caller retries or parks, and the producer's
    /// wakeup follows its sequence store).
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos % self.capacity];
            let seq = slot.sequence.load(Ordering::Acquire);
            let diff = seq as isize - (2 * pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the Acquire load of `2*pos + 1` above saw
                        // the producer's Release store, so the value write
                        // happens-before this read; the CAS claimed ticket
                        // `pos`, so no other consumer reads this (slot, lap).
                        let value = unsafe { slot.value.get().read().assume_init() };
                        slot.sequence
                            .store(2 * (pos + self.capacity), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => {
                        pos = current;
                        backoff.spin();
                    }
                }
            } else if diff < 0 {
                return None;
            } else {
                // Another consumer claimed this position; catch up.
                backoff.spin();
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        loop {
            let tail = self.enqueue_pos.0.load(Ordering::SeqCst);
            let head = self.dequeue_pos.0.load(Ordering::SeqCst);
            // Re-read to make sure the pair is consistent.
            if self.enqueue_pos.0.load(Ordering::SeqCst) == tail {
                return tail.saturating_sub(head);
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }
}

impl<T> Drop for Bounded<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

// ---------------------------------------------------------------------------
// Unbounded: segmented (block-linked) MPMC queue.
// ---------------------------------------------------------------------------

/// Messages per block.  One position per lap ([`LAP`]) is a sentinel no
/// message occupies: the producer that claims the last real slot of a block
/// installs the next block and bumps the index past the sentinel.
#[cfg(not(feature = "loom-model"))]
pub(crate) const BLOCK_CAP: usize = 31;
/// Shrunk under the model checker so a model test crosses block boundaries
/// and reaches the WRITE/READ/DESTROY reclamation protocol within a few
/// operations (the arithmetic nowhere assumes a particular block size).
#[cfg(feature = "loom-model")]
pub(crate) const BLOCK_CAP: usize = 3;
const LAP: usize = BLOCK_CAP + 1;

/// Slot states (bit flags).
const WRITE: usize = 1;
const READ: usize = 2;
const DESTROY: usize = 4;

struct Slot<T> {
    value: UnsafeCell<MaybeUninit<T>>,
    state: AtomicUsize,
}

struct Block<T> {
    next: AtomicPtr<Block<T>>,
    slots: [Slot<T>; BLOCK_CAP],
}

impl<T> Block<T> {
    fn new() -> Box<Self> {
        Box::new(Self {
            next: AtomicPtr::new(std::ptr::null_mut()),
            slots: std::array::from_fn(|_| Slot {
                value: UnsafeCell::new(MaybeUninit::uninit()),
                state: AtomicUsize::new(0),
            }),
        })
    }

    /// Wait for the producer that claimed the last slot to link the next
    /// block (it does so before writing its own value, so this is short).
    fn wait_next(&self) -> *mut Block<T> {
        let mut backoff = Backoff::new();
        loop {
            let next = self.next.load(Ordering::Acquire);
            if !next.is_null() {
                return next;
            }
            backoff.snooze();
        }
    }

    /// Free the block once every reader is done with it.  A slot whose reader
    /// is still mid-read receives the `DESTROY` baton instead; that reader
    /// continues the destruction from the next slot when it finishes.
    ///
    /// # Safety
    ///
    /// `this` must be a block unlinked from the queue (head has moved past
    /// it), with slots `0..start` already known read — so the only threads
    /// still touching it are readers of `start..`, and the baton protocol
    /// below picks exactly one thread to free it.
    ///
    /// ## Audit note (reclamation)
    ///
    /// The freeing decision is per-slot two-phase: a reader is "done" only
    /// once it `fetch_or(READ)`s *after* its value read, and destroy only
    /// proceeds past a slot when it observes READ — either directly
    /// (Acquire, pairing with the reader's AcqRel RMW) or by losing the
    /// `fetch_or(DESTROY)` race, in which case that reader saw DESTROY and
    /// continues destruction itself *after* finishing its read.  Hence no
    /// thread can free the block while another still holds a `&slot` —
    /// the use-after-free candidate here is a reader still between its
    /// value read and its READ flag, and the baton handoff is what makes
    /// that window safe.  `model_unbounded_block_reclamation` explores this
    /// under the checker.
    unsafe fn destroy(this: *mut Block<T>, start: usize) {
        // The last slot's reader is the one that starts destruction, so the
        // last slot itself never needs the baton.
        for i in start..BLOCK_CAP - 1 {
            // SAFETY: caller guarantees `this` is unlinked and not yet
            // freed; only the single baton holder runs this loop.
            let slot = unsafe { &(*this).slots[i] };
            if slot.state.load(Ordering::Acquire) & READ == 0
                && slot.state.fetch_or(DESTROY, Ordering::AcqRel) & READ == 0
            {
                return;
            }
        }
        // SAFETY: every slot is READ (loop above) and the block came from
        // `Box::into_raw` in `push`; we are the unique freeing thread.
        unsafe { drop(Box::from_raw(this)) };
    }
}

struct Position<T> {
    index: AtomicUsize,
    block: AtomicPtr<Block<T>>,
}

/// Unbounded block-linked MPMC queue.
pub(crate) struct Unbounded<T> {
    head: CachePadded<Position<T>>,
    tail: CachePadded<Position<T>>,
}

// SAFETY: slot value cells are handed off through the slot's WRITE flag
// (Release on the producer side, Acquire on the consumer side) and each
// position is claimed by exactly one producer and one consumer via the
// index CASes; block lifetime is governed by the READ/DESTROY protocol
// (see `Block::destroy`).  `T: Send` because values move across threads.
unsafe impl<T: Send> Send for Unbounded<T> {}
// SAFETY: as above — shared access is serialized by the index/flag
// protocols; everything else is atomics.
unsafe impl<T: Send> Sync for Unbounded<T> {}

impl<T> Unbounded<T> {
    pub(crate) fn new() -> Self {
        let first = Box::into_raw(Block::new());
        Self {
            head: CachePadded(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            }),
            tail: CachePadded(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            }),
        }
    }

    /// Lock-free push (never fails; allocates a new block every
    /// [`BLOCK_CAP`] messages).
    pub(crate) fn push(&self, value: T) {
        let mut backoff = Backoff::new();
        let mut tail = self.tail.0.index.load(Ordering::Acquire);
        let mut block = self.tail.0.block.load(Ordering::Acquire);
        let mut next_block: Option<Box<Block<T>>> = None;
        loop {
            let offset = tail % LAP;
            if offset == BLOCK_CAP {
                // Another producer claimed the last slot and is installing
                // the next block; wait for it to bump the index.
                backoff.snooze();
                tail = self.tail.0.index.load(Ordering::Acquire);
                block = self.tail.0.block.load(Ordering::Acquire);
                continue;
            }
            // About to claim the last slot: pre-allocate the next block so
            // the critical install step is just two stores.
            if offset + 1 == BLOCK_CAP && next_block.is_none() {
                next_block = Some(Block::new());
            }
            match self.tail.0.index.compare_exchange_weak(
                tail,
                tail + 1,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                // SAFETY: the CAS claimed position `tail`, making us the
                // sole writer of that slot; `block` is alive because head
                // cannot pass a slot whose WRITE flag is unset, so the
                // READ/DESTROY protocol cannot free it under us.
                Ok(_) => unsafe {
                    if offset + 1 == BLOCK_CAP {
                        // Install the next block and skip the sentinel.  The
                        // block pointer is published *before* the index so a
                        // thread that sees the new index also sees the new
                        // block (Release/Acquire pairing on the index).
                        let next = Box::into_raw(next_block.take().unwrap());
                        self.tail.0.block.store(next, Ordering::Release);
                        self.tail.0.index.fetch_add(1, Ordering::Release);
                        (*block).next.store(next, Ordering::Release);
                    }
                    let slot = &(*block).slots[offset];
                    slot.value.get().write(MaybeUninit::new(value));
                    slot.state.fetch_or(WRITE, Ordering::Release);
                    return;
                },
                Err(current) => {
                    tail = current;
                    block = self.tail.0.block.load(Ordering::Acquire);
                    backoff.spin();
                }
            }
        }
    }

    /// Lock-free pop; `None` when no message has been claimed by a producer.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        let mut head = self.head.0.index.load(Ordering::Acquire);
        let mut block = self.head.0.block.load(Ordering::Acquire);
        loop {
            let offset = head % LAP;
            if offset == BLOCK_CAP {
                // The consumer of the last slot is moving head to the next
                // block; wait for the bump.
                backoff.snooze();
                head = self.head.0.index.load(Ordering::Acquire);
                block = self.head.0.block.load(Ordering::Acquire);
                continue;
            }
            // Empty check: no producer has claimed position `head` yet.  The
            // fence orders this tail load after our head load (Dekker-style
            // with the producer's SeqCst CAS on the tail index).
            fence(Ordering::SeqCst);
            let tail = self.tail.0.index.load(Ordering::Relaxed);
            if head == tail {
                return None;
            }
            match self.head.0.index.compare_exchange_weak(
                head,
                head + 1,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                // SAFETY: the CAS claimed position `head`, making us the
                // sole reader of that slot; the block stays alive until this
                // reader sets its READ flag (or takes the DESTROY baton) —
                // see the audit note on `Block::destroy`.
                Ok(_) => unsafe {
                    if offset + 1 == BLOCK_CAP {
                        // We claimed the last slot: advance head to the next
                        // block (installed by the producer of that slot) and
                        // skip the sentinel.  Block pointer first, index
                        // second — see `push`.
                        let next = (*block).wait_next();
                        self.head.0.block.store(next, Ordering::Release);
                        self.head.0.index.fetch_add(1, Ordering::Release);
                    }
                    let slot = &(*block).slots[offset];
                    // The producer claimed this position before us (head <
                    // tail) but may not have finished writing; wait for it.
                    let mut write_backoff = Backoff::new();
                    while slot.state.load(Ordering::Acquire) & WRITE == 0 {
                        write_backoff.snooze();
                    }
                    let value = slot.value.get().read().assume_init();
                    if offset + 1 == BLOCK_CAP {
                        // Last reader of the block starts its destruction.
                        Block::destroy(block, 0);
                    } else if slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0 {
                        // The destruction baton was handed to us; continue.
                        Block::destroy(block, offset + 1);
                    }
                    return Some(value);
                },
                Err(current) => {
                    head = current;
                    block = self.head.0.block.load(Ordering::Acquire);
                    backoff.spin();
                }
            }
        }
    }

    /// Real messages in positions `0..pos` (sentinels excluded).
    fn message_count(pos: usize) -> usize {
        (pos / LAP) * BLOCK_CAP + (pos % LAP).min(BLOCK_CAP)
    }

    pub(crate) fn len(&self) -> usize {
        loop {
            let tail = self.tail.0.index.load(Ordering::SeqCst);
            let head = self.head.0.index.load(Ordering::SeqCst);
            if self.tail.0.index.load(Ordering::SeqCst) == tail {
                return Self::message_count(tail).saturating_sub(Self::message_count(head));
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Unbounded<T> {
    fn drop(&mut self) {
        // Exclusive access: drop the claimed-but-unpopped values and free the
        // remaining block chain.  Blocks before `head` were already freed by
        // the READ/DESTROY protocol.
        let mut head = *self.head.0.index.get_mut();
        let tail = *self.tail.0.index.get_mut();
        let mut block = *self.head.0.block.get_mut();
        // SAFETY: `&mut self` proves no concurrent access; every position in
        // `head..tail` holds an initialized, unread value, and the block
        // chain from `head`'s block onward is owned by the queue.
        unsafe {
            while head != tail {
                let offset = head % LAP;
                if offset == BLOCK_CAP {
                    let next = *(*block).next.get_mut();
                    drop(Box::from_raw(block));
                    block = next;
                } else {
                    let slot = &mut (*block).slots[offset];
                    slot.value.get_mut().assume_init_drop();
                }
                head += 1;
            }
            if !block.is_null() {
                drop(Box::from_raw(block));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_and_capacity() {
        let q = Bounded::new(3);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.try_push(4), Err(4));
        assert!(q.is_full());
        assert_eq!(q.try_pop(), Some(1));
        assert!(q.try_push(4).is_ok());
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), Some(4));
        assert_eq!(q.try_pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_capacity_one_never_overwrites() {
        // Regression: with single-space lap markers, capacity 1 confused
        // "full" with "free for the next lap" and a second push silently
        // overwrote the queued value (then try_pop livelocked).
        let q = Bounded::new(1);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
        assert!(q.is_full());
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), None);
        for lap in 0..100u64 {
            assert!(q.try_push(lap).is_ok());
            assert_eq!(q.try_push(lap), Err(lap));
            assert_eq!(q.try_pop(), Some(lap));
        }
    }

    #[test]
    fn unbounded_crosses_many_blocks_in_order() {
        let q = Unbounded::new();
        let n = (BLOCK_CAP * 5 + 7) as u64;
        for i in 0..n {
            q.push(i);
        }
        assert_eq!(q.len(), n as usize);
        for i in 0..n {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn unbounded_drop_releases_pending_values() {
        // Drop with values still queued across a block boundary; run under
        // the test suite's normal leak checks (asan when available).
        let q = Unbounded::new();
        for i in 0..(BLOCK_CAP * 3) as u64 {
            q.push(vec![i; 4]);
        }
        for _ in 0..BLOCK_CAP + 5 {
            q.try_pop().unwrap();
        }
        drop(q);
    }

    #[test]
    #[cfg_attr(miri, ignore = "20k-element spin transfer is too slow under miri")]
    fn bounded_concurrent_transfer() {
        let q = std::sync::Arc::new(Bounded::new(8));
        let total = 20_000u64;
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..total {
                    let mut v = i;
                    loop {
                        match q.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut seen = 0u64;
        let mut expected = 0u64;
        while seen < total {
            if let Some(v) = q.try_pop() {
                assert_eq!(v, expected);
                expected += 1;
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
