//! The PLP execution engines.
//!
//! This crate is the paper's primary contribution rendered as a library: five
//! transaction-execution designs built over the same storage substrate
//! (`plp-storage`, `plp-wal`, `plp-lock`, `plp-btree`, `plp-txn`):
//!
//! | Design | Locking | Index pages | Heap pages |
//! |---|---|---|---|
//! | `Conventional` (± SLI) | centralized lock manager | latched | latched |
//! | `LogicalOnly` (DORA) | thread-local per partition | latched | latched |
//! | `PlpRegular` | thread-local | **latch-free** (MRBTree) | latched |
//! | `PlpPartition` | thread-local | latch-free | **latch-free** (partition-owned) |
//! | `PlpLeaf` | thread-local | latch-free | **latch-free** (leaf-owned) |
//!
//! The [`engine::Engine`] front-end accepts [`action::TransactionPlan`]s (the
//! directed graphs of Section 3.1, produced by the workload crate), executes
//! them inline (conventional) or by routing actions to logical partitions
//! (partitioned designs) — where the session runs an action group itself if
//! it can claim the partition idle, and messages the partition's worker
//! thread otherwise (see [`worker`]) — and reports every critical section,
//! page latch and wait into the shared instrumentation registry.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod action;
pub mod catalog;
mod ctx;
pub mod database;
pub mod dlb;
pub mod engine;
pub mod error;
pub mod inbox;
pub mod partition;
pub(crate) mod primitives;
pub mod reply;
pub mod request;
pub mod table;
pub mod topology;
pub mod worker;

pub use action::{Action, ActionOutput, DataContext, TransactionPlan};
pub use catalog::{Design, EngineConfig, IndexKind, TableId, TableSpec};
pub use database::Database;
pub use engine::Engine;
pub use error::EngineError;
pub use partition::PartitionManager;
pub use plp_instrument::{DlbDecision, DlbOutcome, PhaseBreakdown, SlowTxn};
pub use reply::{ReplyPromise, ReplySlot};
pub use request::{ErrorCode, Op, Request, Response};
pub use table::Table;
