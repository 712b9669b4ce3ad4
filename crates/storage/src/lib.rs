//! Page-based in-memory storage manager substrate for the PLP reproduction.
//!
//! The PLP paper builds on the Shore-MT storage manager.  This crate rebuilds
//! the pieces of such a storage manager that matter for the paper's claims:
//!
//! * fixed-size (8 KiB) byte-addressed [`page::Page`]s and slotted-page record
//!   layout ([`slotted::SlottedPage`]),
//! * instrumented **page latches** on every buffer-pool frame
//!   ([`frame::Frame`]), with both the conventional latched access path and the
//!   PLP *owner* (latch-free) access path,
//! * a memory-resident [`bufferpool::BufferPool`] with background page
//!   cleaning ([`cleaner`]),
//! * [`heapfile::HeapFile`]s with free-space management ([`freespace`]) and the
//!   three heap-page placement policies of the paper (regular, partition-owned,
//!   leaf-owned).
//!
//! Durability (actual disk I/O, recovery) is intentionally out of scope — the
//! paper evaluates memory-resident databases — but the *critical sections*
//! that a durable implementation would take (frame latches, free-space map
//! latches, buffer-pool cleaner handshakes) are all present and instrumented,
//! because counting them is the point of the reproduction.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bufferpool;
pub mod cleaner;
pub mod error;
pub mod frame;
pub mod freespace;
pub mod heapfile;
pub mod page;
pub mod rid;
pub mod slotted;

pub use bufferpool::BufferPool;
pub use cleaner::PageCleaner;
pub use error::{StorageError, StorageResult};
pub use frame::{Access, Frame, OwnerToken};
pub use freespace::{FreeSpaceMap, HintKey};
pub use heapfile::{HeapFile, PlacementHint, PlacementPolicy};
pub use page::{Page, PageId, PAGE_SIZE};
pub use rid::Rid;
pub use slotted::SlottedPage;
