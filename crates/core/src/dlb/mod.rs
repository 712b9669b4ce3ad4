//! Dynamic load balancing (Section 5 of the paper).
//!
//! PLP's second headline contribution: because the multi-rooted B+Tree makes
//! repartitioning cheap (Table 1), the system can afford to *continuously*
//! adapt its range partitioning to the observed access skew.  This module is
//! that mechanism, built from three parts that map one-to-one onto the
//! paper's §5:
//!
//! * **Aging access histograms** (§5.1 — [`histogram`]): each table gets a
//!   two-level histogram over its key space.  A coarse fixed-width top level
//!   is updated from the routing hot path with one relaxed atomic increment
//!   per access; inside ranges the controller has identified as hot, a finer
//!   second level of sub-buckets localizes the skew so boundaries can be
//!   placed *inside* a hot range.  Counters decay geometrically every aging
//!   tick, so the histogram tracks current load and stale hotspots fade.
//!
//! * **The load balancer** (§5.2 — [`planner`], [`controller`]): a
//!   background thread snapshots the histograms, computes the per-worker
//!   imbalance (hottest worker's predicted load over the mean), and when it
//!   exceeds the configured trigger proposes boundaries that equalize
//!   predicted load.  The proposal is priced with the analytical
//!   repartitioning cost model (`plp_btree::costmodel`, Table 2): the
//!   execution design determines how many records a boundary move physically
//!   relocates (PLP-Regular none, PLP-Leaf only boundary leaves,
//!   PLP-Partition everything), and the controller acts only when predicted
//!   gain net of movement cost is positive.
//!
//! * **Repartition integration** (§5.3): accepted plans are applied through
//!   [`crate::partition::PartitionManager::repartition`], which drains the
//!   transactions, takes every claim, slices/melds the MRBTrees, propagates
//!   boundaries across the alignment group and journals old boundaries so a
//!   failed sibling repartition rolls back instead of wedging the engine.
//!
//! The whole subsystem is off by default ([`DlbConfig::enabled`] is
//! `false`): no histograms are allocated and the routing path is unchanged.
//! Enable it with [`crate::catalog::EngineConfig::with_dlb`]; observe it via
//! [`plp_instrument::stats::DlbStats`] (decisions taken/skipped, predicted vs.
//! observed imbalance) and drive it manually with
//! [`crate::engine::Engine::dlb`].

pub mod controller;
pub mod histogram;
pub mod planner;

pub use controller::{DlbConfig, LoadBalancerHandle};
pub use histogram::HistogramSet;
pub use planner::{imbalance, LoadSnapshot};
