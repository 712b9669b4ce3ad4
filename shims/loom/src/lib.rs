//! Offline stand-in for the `loom` model checker — the subset the workspace
//! uses to exhaustively test its lock-free protocols.
//!
//! # What it is
//!
//! [`model`] runs a closure under a cooperative scheduler many times,
//! exploring every thread interleaving within a preemption bound *and* every
//! weak-memory value a `Relaxed`/`Acquire`/`Release`/`SeqCst` load is
//! allowed to observe (see `rt`'s module docs for the memory model and its
//! documented approximations).  Code is threaded through the types in
//! [`sync`] and [`thread`]; outside a model run those types delegate
//! directly to `std`, so a binary built with this crate linked in — but no
//! `model` call active — behaves exactly like one built against `std`.
//!
//! That dual mode is deliberate and differs from the real loom (which
//! replaces std globally under `cfg(loom)` and cannot run ordinary code):
//! it lets `cargo test --features loom-model` run the *entire* ordinary
//! test suite plus the model tests in one invocation.
//!
//! # What it is not
//!
//! Not a verifier for `unsafe` data races on non-atomic memory (Miri/TSan
//! cover that lane, see `docs/concurrency.md`), and not the real loom:
//! swap the real crate in when network access is available — call sites
//! need no changes for the API subset used here.
//!
//! # Example
//!
//! ```
//! use loom::sync::atomic::{AtomicUsize, Ordering};
//! use loom::sync::Arc;
//!
//! loom::model(|| {
//!     let n = Arc::new(AtomicUsize::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = n.clone();
//!             loom::thread::spawn(move || n.fetch_add(1, Ordering::Relaxed))
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join().unwrap();
//!     }
//!     assert_eq!(n.load(Ordering::Relaxed), 2);
//! });
//! ```

#![forbid(unsafe_code)]

#[doc(hidden)]
pub mod atomic;
mod rt;
pub mod sync;
pub mod thread;

pub use rt::{explore, Config, Stats};

/// Check `f` under the model with default bounds; panic with the failing
/// execution's report if a bug is found.
///
/// # Panics
///
/// Panics when any explored execution fails an assertion, deadlocks (which
/// is also how lost wakeups manifest), or livelocks past the step cap — the
/// panic message carries the failing schedule.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Config::default(), f)
}

/// [`model`] with explicit exploration bounds.
pub fn model_with<F>(cfg: Config, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    if let Err(report) = rt::explore(cfg, f) {
        panic!("{report}");
    }
}
