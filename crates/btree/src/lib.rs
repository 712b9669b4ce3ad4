//! B+Tree and multi-rooted B+Tree (MRBTree) access methods.
//!
//! This crate contains the paper's central data-structure contribution:
//!
//! * [`tree::BTree`] — a page-resident B+Tree in the ARIES/KVL tradition:
//!   probes descend the tree taking share latches, inserts take an exclusive
//!   latch on the target leaf, and structure-modification operations (SMOs —
//!   page splits) are serialised by a per-tree SMO mutex, exactly the
//!   restriction the paper calls out ("only one SMO at a time").  Every page
//!   access goes through the [`plp_storage::Access`] abstraction, so the same
//!   code runs latched (conventional / logical-only) or latch-free (PLP).
//! * [`mrbtree::MrbTree`] — the multi-rooted B+Tree: a partition (routing)
//!   table maps disjoint key ranges to independent sub-trees.  Each sub-tree
//!   has its own SMO mutex (parallel SMOs, Figure 10), probes skip the shared
//!   root level (the ~10% conventional-system win of Figure 9), and the
//!   [`mrbtree::MrbTree::slice`] / [`mrbtree::MrbTree::meld`] operations
//!   implement the cheap repartitioning of Section A.3.
//! * [`costmodel`] — the analytical repartitioning cost model of Table 2,
//!   used to regenerate Table 1.

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod mrbtree;
pub mod node;
pub mod parttable;
pub mod tree;

pub use costmodel::{CostModelParams, RepartitionCost, SystemKind};
pub use mrbtree::MrbTree;
pub use node::{NodeView, ENTRY_SIZE, MAX_NODE_ENTRIES};
pub use parttable::{PartitionId, PartitionTable};
pub use tree::{BTree, InsertOutcome};
