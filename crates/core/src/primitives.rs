//! Concurrency-primitive facade for the reply rendezvous, the worker inbox
//! and the partition claim: `std` + `parking_lot` in normal builds, the
//! `loom`-subset model checker under the `loom-model` feature.
//!
//! [`crate::reply`] and [`crate::inbox`] import their atomics, fences,
//! park/unpark handles and mutexes from here instead of naming `std`
//! directly, and [`crate::worker`] takes the partition claim
//! (`Mutex::try_lock` / `lock`) through it, so the exact protocol that runs
//! in production is the one the model checker explores.  In normal builds
//! everything below is a plain re-export: zero cost, no behavior change.

#[cfg(not(feature = "loom-model"))]
mod imp {
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::Arc;
    pub use std::thread::{current, park, yield_now, Thread};

    /// Spin budget for `ReplySlot::wait` before parking: under load the
    /// worker usually answers within this many pause-loop turns.
    pub const SPIN_BUDGET: u32 = 64;

    /// One turn of the pre-park spin loop.
    #[inline]
    pub fn spin_hint() {
        std::hint::spin_loop();
    }

    /// Busy-wait `rounds` pause-loop turns (one backoff step).
    #[inline]
    pub fn spin_wait(rounds: u32) {
        for _ in 0..rounds {
            std::hint::spin_loop();
        }
    }
}

#[cfg(feature = "loom-model")]
mod imp {
    pub use loom::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
    pub use loom::sync::{Arc, MutexGuard};
    pub use loom::thread::{current, park, yield_now, Thread};

    /// One spin turn is enough under the model: the interesting executions
    /// are the ones where the spin loses the race, and the checker reaches
    /// them by scheduling, not by repetition.
    pub const SPIN_BUDGET: u32 = 1;

    /// A spin must be a model-visible yield so the scheduler runs the peer
    /// whose progress the spin awaits.
    #[inline]
    pub fn spin_hint() {
        loom::thread::yield_now();
    }

    /// A backoff step is one model-visible yield, whatever its length: a
    /// hint loop would monopolize the deterministic schedule and read as a
    /// livelock.
    #[inline]
    pub fn spin_wait(_rounds: u32) {
        loom::thread::yield_now();
    }

    /// `parking_lot::Mutex`-shaped facade over the model mutex: `lock()`
    /// returns the guard directly and `try_lock()` an `Option` (no poison in
    /// parking_lot's API).
    pub struct Mutex<T>(loom::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Self(loom::sync::Mutex::new(value))
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(guard) => Some(guard),
                Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }
    }
}

pub(crate) use imp::*;

/// Whether this host exposes a single hardware thread (spinning for another
/// thread's progress is then pointless).
pub(crate) fn single_cpu() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(false)
    })
}
