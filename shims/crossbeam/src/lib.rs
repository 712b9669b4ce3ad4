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
//! The channels are **lock-free on the hot path**.  They were the engine's
//! worker queues until the worker inbox moved into `plp-core`; today only
//! the message-cost benchmark uses them, as its shared-queue rows:
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
//! # Extension over the real crate
//!
//! [`channel::mutex_baseline`] exists only in the shim: the previous
//! mutex+condvar implementation, kept as the measurement baseline for the
//! message-cost experiment and as a correctness oracle for the semantics
//! tests.  Everything else is the real crate's API surface.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod channel;
#[cfg(all(test, feature = "loom-model"))]
mod model_tests;
mod primitives;
mod queue;
