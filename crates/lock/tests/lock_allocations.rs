//! Once warm, an uncontended lock costs no heap allocation: neither a
//! partition's [`LocalLockTable`] nor the central [`LockManager`] allocates
//! per `acquire` + `release_all` round.  A counting global allocator counts
//! the calling thread's allocations (this file is its own crate, so it may
//! install one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plp_instrument::StatsRegistry;
use plp_lock::{LocalLockTable, LockId, LockManager, LockMode};

struct Counting;

thread_local! {
    /// `(counting, allocations)` of this thread.
    static COUNTS: Cell<(bool, u64)> = const { Cell::new((false, 0)) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTS.try_with(|c| {
        let (on, allocs) = c.get();
        if on {
            c.set((on, allocs + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNTS.with(|c| c.set((true, 0)));
    f();
    COUNTS.with(|c| c.replace((false, 0))).1
}

const ROUNDS: u64 = 10_000;

#[test]
fn a_warm_local_lock_table_allocates_nothing_per_round() {
    let mut table = LocalLockTable::new();
    let mut round = |k: u64| {
        table.acquire(1, LockId::Key(0, k), LockMode::X);
        table.acquire(1, LockId::Key(0, k + 1), LockMode::S);
        table.release_all(1);
    };
    round(0);
    assert_eq!(allocations(|| (1..=ROUNDS).for_each(&mut round)), 0);
}

#[test]
fn a_warm_central_lock_manager_allocates_nothing_per_round() {
    let manager = LockManager::new(StatsRegistry::new_shared());
    let round = |k: u64| {
        let id = LockId::Key(0, k % 4_096);
        let acquired = manager
            .acquire_hierarchical(1, id, LockMode::X, None)
            .expect("an uncontended lock is granted");
        manager.release_all(1, &acquired);
    };
    // Every key once: each shard's head table and spare list are warm.
    (0..4_096).for_each(round);
    assert_eq!(allocations(|| (0..ROUNDS).for_each(round)), 0);
    assert_eq!(manager.live_heads(), 0);
}
