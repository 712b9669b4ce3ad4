//! Database locking for the PLP reproduction.
//!
//! The paper compares three approaches to logical-level concurrency control:
//!
//! * the **conventional** shared-everything engine, which funnels every lock
//!   request through a centralized lock manager and uses *Speculative Lock
//!   Inheritance* (SLI, Johnson et al. 2009) to sidestep the hottest
//!   lock-manager critical sections;
//! * **logical-only partitioning** (data-oriented execution), which replaces
//!   the central lock manager with *thread-local* lock state — no critical
//!   sections at all for locking;
//! * **PLP**, which inherits the thread-local locking of logical-only
//!   partitioning.
//!
//! This crate provides all three building blocks: a hierarchical
//! [`manager::LockManager`] (IS/IX/S/X, database → table → key), an
//! [`sli::AgentLockCache`] implementing the SLI fast path for intention locks,
//! and a [`local::LocalLockTable`] for the partitioned designs.

#![forbid(unsafe_code)]

pub mod key;
pub mod local;
pub mod manager;
pub mod mode;
pub mod sli;

pub use key::{LockId, LockList};
pub use local::LocalLockTable;
pub use manager::{LockError, LockManager};
pub use mode::LockMode;
pub use sli::AgentLockCache;
