//! Concurrency-primitive facade for the reply rendezvous and the partition
//! claim: `std` + `parking_lot` in normal builds, the `loom`-subset model
//! checker under `--cfg plp_loom` or the `loom-model` feature.
//!
//! [`crate::reply`] imports its atomics, park/unpark handles and the mailbox
//! mutex from here instead of naming `std` directly, and [`crate::worker`]
//! takes the partition claim (`Mutex::try_lock` / `lock`) through it, so the
//! exact protocol that runs in production is the one the model checker
//! explores.  In normal builds everything below is a plain re-export: zero
//! cost, no behavior change.

#[cfg(not(any(plp_loom, feature = "loom-model")))]
mod imp {
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::sync::atomic::{AtomicU64, Ordering};
    pub use std::sync::Arc;
    pub use std::thread::{current, park, Thread};

    /// Spin budget for `ReplySlot::wait` before parking: under load the
    /// worker usually answers within this many pause-loop turns.
    pub const SPIN_BUDGET: u32 = 64;

    /// One turn of the pre-park spin loop.
    #[inline]
    pub fn spin_hint() {
        std::hint::spin_loop();
    }
}

#[cfg(any(plp_loom, feature = "loom-model"))]
mod imp {
    pub use loom::sync::atomic::{AtomicU64, Ordering};
    pub use loom::sync::{Arc, MutexGuard};
    pub use loom::thread::{current, park, Thread};

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
