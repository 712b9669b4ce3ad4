//! Engine configuration and table catalogue types.

use std::path::PathBuf;
use std::time::Duration;

use plp_storage::PlacementPolicy;
use plp_wal::{DurabilityMode, InsertProtocol};

/// Identifier of a table (dense, assigned at schema definition time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// The execution design under test (Section 4.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Shared-everything with a centralized lock manager.  `sli` enables
    /// Speculative Lock Inheritance (the paper's tuned baseline).
    Conventional { sli: bool },
    /// Logical-only partitioning (data-oriented execution): thread-local
    /// locking, latched page accesses.
    LogicalOnly,
    /// PLP with latch-free index pages, regular (latched) heap pages.
    PlpRegular,
    /// PLP with heap pages owned by a logical partition.
    PlpPartition,
    /// PLP with heap pages owned by a single MRBTree leaf.
    PlpLeaf,
}

impl Design {
    pub const ALL: [Design; 6] = [
        Design::Conventional { sli: false },
        Design::Conventional { sli: true },
        Design::LogicalOnly,
        Design::PlpRegular,
        Design::PlpPartition,
        Design::PlpLeaf,
    ];

    /// Whether transactions are decomposed into partition-routed actions.
    pub fn is_partitioned(self) -> bool {
        !matches!(self, Design::Conventional { .. })
    }

    /// Whether index pages are accessed latch-free by partition owners.
    pub fn latch_free_index(self) -> bool {
        matches!(
            self,
            Design::PlpRegular | Design::PlpPartition | Design::PlpLeaf
        )
    }

    /// Whether heap pages are accessed latch-free by partition owners.
    pub fn latch_free_heap(self) -> bool {
        matches!(self, Design::PlpPartition | Design::PlpLeaf)
    }

    /// Heap-page placement policy implied by the design.
    pub fn placement_policy(self) -> PlacementPolicy {
        match self {
            Design::PlpPartition => PlacementPolicy::PartitionOwned,
            Design::PlpLeaf => PlacementPolicy::LeafOwned,
            _ => PlacementPolicy::Regular,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Design::Conventional { sli: false } => "Baseline",
            Design::Conventional { sli: true } => "Conventional (SLI)",
            Design::LogicalOnly => "Logical-only",
            Design::PlpRegular => "PLP-Regular",
            Design::PlpPartition => "PLP-Partition",
            Design::PlpLeaf => "PLP-Leaf",
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How primary indexes are physically organised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// One conventional B+Tree per table.
    SingleBTree,
    /// A multi-rooted B+Tree per table (required by the PLP designs; optional
    /// for the conventional and logical designs — the Figure 9/10 ablation).
    MrbTree,
}

/// Definition of a table in the schema.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub id: TableId,
    pub name: String,
    /// Whether the table has a secondary index (mapping an alternate 64-bit
    /// key to the primary key).  Secondary indexes are accessed as in the
    /// conventional system in every design (they are not partition-aligned).
    pub has_secondary: bool,
    /// Upper bound of the primary-key space, used to build the initial uniform
    /// range partitioning.
    pub key_space: u64,
    /// Partition boundaries are rounded down to a multiple of this value.
    ///
    /// Workloads encode composite keys as `driver_key * multiplier + rest`;
    /// setting the granularity to that multiplier keeps every table's
    /// partition boundaries aligned with the driver table's boundaries, so all
    /// actions of a transaction land on the same logical partition regardless
    /// of how the key space divides by the partition count.
    pub partition_granularity: u64,
    /// Declared partition alignment: when `Some(driver)`, this table's
    /// partition boundaries are kept aligned with `driver`'s (scaled by the
    /// granularity ratio) whenever the driver is repartitioned.
    ///
    /// The declared relationship replaces the old inference from
    /// coincidentally equal `key_space / granularity` ratios, so unrelated
    /// tables (e.g. TPC-C's `item`) are never co-repartitioned by accident.
    /// The driver must itself be a root (its `partitioned_with` is `None`),
    /// and the key-space/granularity ratios of the whole group must agree —
    /// both are validated when the database is created.
    pub partitioned_with: Option<TableId>,
}

impl TableSpec {
    pub fn new(id: u32, name: impl Into<String>, key_space: u64) -> Self {
        Self {
            id: TableId(id),
            name: name.into(),
            has_secondary: false,
            key_space,
            partition_granularity: 1,
            partitioned_with: None,
        }
    }

    pub fn with_secondary(mut self) -> Self {
        self.has_secondary = true;
        self
    }

    /// Set the partition-boundary granularity (see the field docs).
    pub fn with_granularity(mut self, granularity: u64) -> Self {
        self.partition_granularity = granularity.max(1);
        self
    }

    /// Declare this table partition-aligned with `driver` (see the
    /// [`Self::partitioned_with`] field docs).
    pub fn aligned_with(mut self, driver: TableId) -> Self {
        self.partitioned_with = Some(driver);
        self
    }

    /// The initial uniform partition boundaries for this table.
    pub fn partition_bounds(&self, partitions: usize) -> Vec<u64> {
        partition_bounds(self.key_space, partitions, self.partition_granularity)
    }
}

/// Compute `partitions` range-partition start keys over `[0, key_space)`,
/// each rounded down to a multiple of `granularity` and kept strictly
/// increasing.
pub fn partition_bounds(key_space: u64, partitions: usize, granularity: u64) -> Vec<u64> {
    let p = partitions.max(1) as u64;
    let g = granularity.max(1);
    let mut bounds = Vec::with_capacity(partitions.max(1));
    let mut prev: Option<u64> = None;
    for i in 0..p {
        let raw = (i as u128 * key_space as u128 / p as u128) as u64;
        let mut b = raw / g * g;
        if let Some(prev) = prev {
            if b <= prev {
                b = prev + g;
            }
        }
        bounds.push(b);
        prev = Some(b);
    }
    bounds
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub design: Design,
    /// Number of logical partitions (and partition worker threads) for the
    /// partitioned designs.  Ignored by the conventional design.
    pub partitions: usize,
    /// Physical organisation of primary indexes.
    pub index_kind: IndexKind,
    /// Maximum entries per index node (small values force deeper trees, which
    /// several experiments rely on).
    pub index_fanout: usize,
    /// Log-buffer insert protocol.
    pub log_protocol: InsertProtocol,
    /// Whether commits wait for the group-commit flusher.
    pub durability: DurabilityMode,
    /// Pad heap records to a full page so unrelated rows never share a page
    /// (the classic false-sharing workaround the paper mentions; Figure 7 runs
    /// TPC-B with padding disabled).
    pub pad_records: bool,
    /// Dynamic load balancing (Section 5): aging access histograms plus a
    /// background repartition controller.  Off by default; its timings and
    /// thresholds are constants in [`crate::dlb::controller`].
    pub dlb: bool,
    /// Directory for the file-backed log device.  `None` (the default) keeps
    /// the log memory-only — durability is simulated, nothing survives a
    /// process exit.  Required for [`DurabilityMode::Strict`].
    pub log_dir: Option<PathBuf>,
    /// Segment roll target for the log device.
    pub log_segment_bytes: u64,
    /// When set (and a log device is attached), a background thread writes a
    /// fuzzy checkpoint record this often.
    pub checkpoint_interval: Option<Duration>,
    /// When set, a background sampler thread snapshots stats deltas and
    /// histogram summaries into the engine's flight recorder this often
    /// (see `docs/observability.md`).
    pub metrics_interval: Option<Duration>,
    /// When set, the flight recorder (time series + latency summaries +
    /// trace rings) is dumped to this file if any thread panics, and again on
    /// clean shutdown.  Implies a flight recorder even without
    /// [`Self::metrics_interval`].
    pub flight_dump: Option<PathBuf>,
    /// When set, a background thread serves the live observability endpoint
    /// on this TCP address (`"127.0.0.1:9464"`; port 0 binds an ephemeral
    /// port, resolved via `Engine::obs_addr`): `/metrics` Prometheus
    /// exposition, `/stats.json`, `/trace.json`, `/flight.json`,
    /// `/decisions.json` and `/slow.json`.  Implies a flight recorder.
    /// Ignored (no listener) in `obs-stub` builds, where there is nothing to
    /// expose.
    pub obs_endpoint: Option<String>,
}

impl EngineConfig {
    pub fn new(design: Design) -> Self {
        let index_kind = if design.latch_free_index() {
            IndexKind::MrbTree
        } else {
            IndexKind::SingleBTree
        };
        Self {
            design,
            partitions: 4,
            index_kind,
            index_fanout: plp_btree::MAX_NODE_ENTRIES,
            log_protocol: InsertProtocol::Consolidated,
            durability: DurabilityMode::Lazy,
            pad_records: false,
            dlb: false,
            log_dir: None,
            log_segment_bytes: plp_wal::segment::DEFAULT_SEGMENT_BYTES,
            checkpoint_interval: None,
            metrics_interval: None,
            flight_dump: None,
            obs_endpoint: None,
        }
    }

    pub fn with_partitions(mut self, n: usize) -> Self {
        self.partitions = n.max(1);
        self
    }

    pub fn with_index_kind(mut self, kind: IndexKind) -> Self {
        assert!(
            !(self.design.latch_free_index() && kind == IndexKind::SingleBTree),
            "PLP designs require MRBTree indexes"
        );
        self.index_kind = kind;
        self
    }

    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.index_fanout = fanout;
        self
    }

    pub fn with_log_protocol(mut self, protocol: InsertProtocol) -> Self {
        self.log_protocol = protocol;
        self
    }

    pub fn with_durability(mut self, durability: DurabilityMode) -> Self {
        self.durability = durability;
        self
    }

    /// Attach a file-backed log device rooted at `dir` (created on demand).
    pub fn with_log_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.log_dir = Some(dir.into());
        self
    }

    /// Segment roll target for the log device (small values force rolling,
    /// used by tests).
    pub fn with_log_segment_bytes(mut self, bytes: u64) -> Self {
        self.log_segment_bytes = bytes.max(64);
        self
    }

    /// Enable the background fuzzy checkpointer.
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    pub fn with_padding(mut self, pad: bool) -> Self {
        self.pad_records = pad;
        self
    }

    /// Turn on dynamic load balancing (only meaningful for the partitioned
    /// designs; the conventional design has no partitions to balance).
    pub fn with_dlb(mut self) -> Self {
        self.dlb = true;
        self
    }

    /// Enable the background metrics sampler (see [`Self::metrics_interval`]).
    pub fn with_metrics_interval(mut self, interval: Duration) -> Self {
        self.metrics_interval = Some(interval);
        self
    }

    /// Dump the flight recorder to `path` on panic and on shutdown (see
    /// [`Self::flight_dump`]).
    pub fn with_flight_dump(mut self, path: impl Into<PathBuf>) -> Self {
        self.flight_dump = Some(path.into());
        self
    }

    /// Serve the live observability endpoint on `addr` (see
    /// [`Self::obs_endpoint`]).
    pub fn with_obs_endpoint(mut self, addr: impl Into<String>) -> Self {
        self.obs_endpoint = Some(addr.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_properties_match_table() {
        assert!(!Design::Conventional { sli: true }.is_partitioned());
        assert!(Design::LogicalOnly.is_partitioned());
        assert!(!Design::LogicalOnly.latch_free_index());
        assert!(Design::PlpRegular.latch_free_index());
        assert!(!Design::PlpRegular.latch_free_heap());
        assert!(Design::PlpLeaf.latch_free_heap());
        assert_eq!(
            Design::PlpPartition.placement_policy(),
            PlacementPolicy::PartitionOwned
        );
        assert_eq!(
            Design::PlpLeaf.placement_policy(),
            PlacementPolicy::LeafOwned
        );
        assert_eq!(
            Design::LogicalOnly.placement_policy(),
            PlacementPolicy::Regular
        );
    }

    #[test]
    fn config_defaults_follow_design() {
        let c = EngineConfig::new(Design::PlpLeaf);
        assert_eq!(c.index_kind, IndexKind::MrbTree);
        let c = EngineConfig::new(Design::Conventional { sli: true });
        assert_eq!(c.index_kind, IndexKind::SingleBTree);
        let c = c.with_index_kind(IndexKind::MrbTree).with_partitions(8);
        assert_eq!(c.partitions, 8);
        assert_eq!(c.index_kind, IndexKind::MrbTree);
    }

    #[test]
    #[should_panic(expected = "require MRBTree")]
    fn plp_cannot_use_single_btree() {
        EngineConfig::new(Design::PlpRegular).with_index_kind(IndexKind::SingleBTree);
    }

    #[test]
    fn design_names_are_unique() {
        let mut names: Vec<&str> = Design::ALL.iter().map(|d| d.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Design::ALL.len());
    }
}
