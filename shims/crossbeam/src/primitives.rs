//! Concurrency-primitive facade: `std` in normal builds, the `loom`-subset
//! model checker under the `loom-model` feature.
//!
//! Everything in `queue` and `channel` that the model checker needs to
//! observe — atomics, fences, mutexes, condvars, yields — is imported from
//! here instead of `std`, so the *same source* runs under std normally and
//! under systematic interleaving exploration in the model-check lane.  In
//! normal builds this module is plain re-exports of the std items: zero
//! cost, same types, no behavior change (the `fig_msgcost` perf gate pins
//! that).
//!
//! The loom shim's types delegate to `std` whenever no model execution is
//! active, so even with the feature enabled the ordinary test suite behaves
//! identically; only code inside a `loom::model(..)` closure is checked.

#[cfg(not(feature = "loom-model"))]
mod imp {
    pub use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
    pub use std::sync::{Arc, Condvar, Mutex};
    pub use std::thread::yield_now;

    /// Busy-wait `rounds` iterations (a CAS-retry / in-flight-write pause).
    #[inline]
    pub fn spin_wait(rounds: u32) {
        for _ in 0..rounds {
            std::hint::spin_loop();
        }
    }
}

#[cfg(feature = "loom-model")]
mod imp {
    pub use loom::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
    pub use loom::sync::{Arc, Condvar, Mutex};
    pub use loom::thread::yield_now;

    /// Under the model a busy-wait must be a *visible* yield: the scheduler
    /// deprioritizes yielded threads, so the peer whose progress the spin
    /// awaits actually runs (a hint-loop would monopolize the deterministic
    /// schedule and read as a livelock).
    #[inline]
    pub fn spin_wait(_rounds: u32) {
        yield_now();
    }
}

pub(crate) use imp::*;
