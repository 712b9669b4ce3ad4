//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the subset of `crossbeam::channel` the workspace uses — MPMC
//! `bounded`/`unbounded` channels whose `Sender` and `Receiver` are both
//! `Clone + Send + Sync`, with `send`, `recv`, `try_recv`, `recv_timeout`,
//! `len`/`is_empty` and crossbeam's disconnect semantics.  Swap the
//! workspace dependency back to the real crate when network access is
//! available; call sites need no changes.
//!
//! # Implementation
//!
//! The worker request/reply exchange in `plp-core` is the engine's hot path
//! (the "Message passing" component of the paper's Figure 1), so since PR 5
//! the channels are **lock-free on the hot path**:
//!
//! * `bounded(n)` is a Vyukov-style array queue (`queue` has the
//!   algorithm and the memory-ordering argument);
//! * `unbounded()` is a segmented block-linked queue in the style of
//!   crossbeam-channel's "list" flavor, with cooperative block reclamation;
//! * blocking is layered on top: a bounded spin-then-yield phase, then a
//!   park on a mutex+condvar gate that is touched only while a thread
//!   actually sleeps ([`channel`] documents the lost-wakeup argument and
//!   the wake-one vs wake-all policy).
//!
//! # Extensions over the real crate
//!
//! Two additive modules exist only in the shim:
//!
//! * [`channel::mutex_baseline`] — the previous mutex+condvar
//!   implementation, kept as the measurement baseline for the message-cost
//!   experiment and as a correctness oracle for the semantics tests;
//! * [`metrics`] — process-global slow-path counters (enqueue/dequeue
//!   spins, parks, wakeups).
//!
//! When swapping in the real crossbeam, the workspace code that touches
//! these extensions is confined to `plp_core::Database::sync_channel_metrics`
//! and the `fig_msgcost` benchmark; everything else uses the real crate's
//! API surface.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod channel;
pub mod metrics;
#[cfg(all(test, any(plp_loom, feature = "loom-model")))]
mod model_tests;
mod primitives;
mod queue;
