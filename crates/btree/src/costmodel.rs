//! Analytical repartitioning cost model (Tables 1 and 2 of the paper).
//!
//! The model computes, for a partition split, how many records and index
//! entries have to be moved, how many pages must be read, how many pointers
//! must be updated and how many primary/secondary index operations are
//! required — for each of the systems the paper compares:
//! PLP-Regular, PLP-Leaf, PLP-Partition, a Shared-Nothing system, and the
//! clustered-index variants.
//!
//! Notation (Section C of the paper):
//!
//! * `h` — number of levels of the B+Tree being split,
//! * `n` — number of entries per B+Tree node,
//! * `m_i` — number of entries that must be moved from the node at level `i`
//!   on the boundary path (level 1 = leaf, level `h` = root),
//! * `M` — number of heap records that must be moved.

/// Secondary/primary index maintenance work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexChanges {
    pub updates: u64,
    pub inserts: u64,
    pub deletes: u64,
}

impl IndexChanges {
    fn none() -> Self {
        Self::default()
    }

    pub fn updates(n: u64) -> Self {
        Self {
            updates: n,
            ..Self::default()
        }
    }

    fn rebuild(n: u64) -> Self {
        Self {
            updates: 0,
            inserts: n,
            deletes: n,
        }
    }

    pub fn total_ops(&self) -> u64 {
        self.updates + self.inserts + self.deletes
    }

    /// Render like the paper's Table 1 cells ("85 U", "2.44M I + 2.44M D").
    pub fn describe(&self) -> String {
        if self.total_ops() == 0 {
            return "-".to_string();
        }
        let fmt = |v: u64| {
            if v >= 1_000_000 {
                format!("{:.2}M", v as f64 / 1_000_000.0)
            } else if v >= 10_000 {
                format!("{:.1}K", v as f64 / 1_000.0)
            } else {
                format!("{v}")
            }
        };
        let mut parts = Vec::new();
        if self.updates > 0 {
            parts.push(format!("{} U", fmt(self.updates)));
        }
        if self.inserts > 0 {
            parts.push(format!("{} I", fmt(self.inserts)));
        }
        if self.deletes > 0 {
            parts.push(format!("{} D", fmt(self.deletes)));
        }
        parts.join(" + ")
    }
}

/// The systems compared in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    PlpRegular,
    PlpLeaf,
    PlpPartition,
    SharedNothing,
    /// All PLP variants coincide when the primary index is clustered.
    PlpClustered,
    SharedNothingClustered,
}

impl SystemKind {
    pub const ALL: [SystemKind; 6] = [
        SystemKind::PlpRegular,
        SystemKind::PlpLeaf,
        SystemKind::PlpPartition,
        SystemKind::SharedNothing,
        SystemKind::PlpClustered,
        SystemKind::SharedNothingClustered,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SystemKind::PlpRegular => "PLP-Regular",
            SystemKind::PlpLeaf => "PLP-Leaf",
            SystemKind::PlpPartition => "PLP-Partition",
            SystemKind::SharedNothing => "Shared-Nothing",
            SystemKind::PlpClustered => "PLP (Clustered)",
            SystemKind::SharedNothingClustered => "Shared-Nothing (Clustered)",
        }
    }
}

/// Parameters of the repartitioning scenario.
#[derive(Debug, Clone, Copy)]
pub struct CostModelParams {
    /// Number of B+Tree levels (`h`).
    pub levels: u32,
    /// Entries per B+Tree node (`n`).
    pub entries_per_node: u64,
    /// Entries to move at each level, `m[0]` = leaf level (`m_1` in the
    /// paper) up to `m[levels-1]` = root.
    pub entries_to_move: [u64; 8],
    /// Record payload size in bytes (for byte-volume reporting).
    pub record_size: u64,
    /// Index entry size in bytes.
    pub entry_size: u64,
    /// Whether a secondary index exists (the paper's scenario has one).
    pub has_secondary: bool,
}

impl CostModelParams {
    /// The scenario of Table 1: a 466 MB partition of 100-byte records under a
    /// non-clustered primary index of height 3 with 170 entries (32 bytes
    /// each) per node, split in half.
    pub fn table1_scenario() -> Self {
        let mut entries_to_move = [0u64; 8];
        // Splitting in half lands the boundary in the middle of every node on
        // the path: m_i = n / 2 = 85.
        for m in entries_to_move.iter_mut().take(3) {
            *m = 85;
        }
        Self {
            levels: 3,
            entries_per_node: 170,
            entries_to_move,
            record_size: 100,
            entry_size: 32,
            has_secondary: true,
        }
    }

    fn m(&self, level_from_leaf_1: u32) -> u64 {
        self.entries_to_move[(level_from_leaf_1 - 1) as usize]
    }

    /// Sum of entries moved across all levels of the path.
    fn sum_entries_moved(&self) -> u64 {
        (1..=self.levels).map(|l| self.m(l)).sum()
    }

    /// Sum of entries moved across levels `2..=h` (clustered variant).
    fn sum_entries_moved_above_leaf(&self) -> u64 {
        (2..=self.levels).map(|l| self.m(l)).sum()
    }

    /// Records that must move when an entire half-partition relocates
    /// (PLP-Partition worst case and Shared-Nothing):
    /// `M = m_1 + sum_{l=0}^{h-2} n^(h-l-1) * (m_{h-l} - 1)`.
    pub fn records_moved_full(&self) -> u64 {
        let h = self.levels;
        let mut total = self.m(1);
        for l in 0..=(h.saturating_sub(2)) {
            let exp = h - l - 1;
            let level = h - l; // m_{h-l}
            if level < 2 {
                continue;
            }
            let factor = self.entries_per_node.pow(exp);
            total += factor * self.m(level).saturating_sub(1);
        }
        total
    }

    /// Records moved in the PLP-Leaf / clustered-PLP case: only the leaf-page
    /// boundary entries (`m_1`).
    fn records_moved_leaf_only(&self) -> u64 {
        self.m(1)
    }
}

/// Cost of one repartitioning (splitting a partition) for one system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepartitionCost {
    pub system: SystemKind,
    /// Heap records that must be physically moved.
    pub records_moved: u64,
    /// Bytes of record data moved.
    pub record_bytes_moved: u64,
    /// Primary-index entries moved between index pages.
    pub entries_moved: u64,
    /// Bytes of index entries moved.
    pub entry_bytes_moved: u64,
    /// Heap/leaf pages that must be read to find the records to move.
    pub pages_read: u64,
    /// Pointer updates (leaf chains, parent pointers, routing table).
    pub pointer_updates: u64,
    /// Primary-index maintenance operations.
    pub primary_changes: IndexChanges,
    /// Secondary-index maintenance operations.
    pub secondary_changes: IndexChanges,
}

impl RepartitionCost {
    /// Evaluate the cost model (Table 2) for one system.
    pub fn evaluate(system: SystemKind, p: &CostModelParams) -> Self {
        let h = p.levels as u64;
        let pointer_updates_plp = 2 * h + 1;
        let sec = |c: IndexChanges| {
            if p.has_secondary {
                c
            } else {
                IndexChanges::none()
            }
        };
        match system {
            SystemKind::PlpRegular => Self {
                system,
                records_moved: 0,
                record_bytes_moved: 0,
                entries_moved: p.sum_entries_moved(),
                entry_bytes_moved: p.sum_entries_moved() * p.entry_size,
                pages_read: 0,
                pointer_updates: pointer_updates_plp,
                primary_changes: IndexChanges::none(),
                secondary_changes: IndexChanges::none(),
            },
            SystemKind::PlpLeaf => {
                let m = p.records_moved_leaf_only();
                Self {
                    system,
                    records_moved: m,
                    record_bytes_moved: m * p.record_size,
                    entries_moved: p.sum_entries_moved(),
                    entry_bytes_moved: p.sum_entries_moved() * p.entry_size,
                    pages_read: 1,
                    pointer_updates: pointer_updates_plp,
                    primary_changes: IndexChanges::updates(m),
                    secondary_changes: sec(IndexChanges::updates(m)),
                }
            }
            SystemKind::PlpPartition => {
                let m = p.records_moved_full();
                Self {
                    system,
                    records_moved: m,
                    record_bytes_moved: m * p.record_size,
                    entries_moved: p.sum_entries_moved(),
                    entry_bytes_moved: p.sum_entries_moved() * p.entry_size,
                    pages_read: 1 + (m - p.records_moved_leaf_only()) / p.entries_per_node,
                    pointer_updates: pointer_updates_plp,
                    primary_changes: IndexChanges::updates(m),
                    secondary_changes: sec(IndexChanges::updates(m)),
                }
            }
            SystemKind::SharedNothing => {
                let m = p.records_moved_full();
                Self {
                    system,
                    records_moved: m,
                    record_bytes_moved: m * p.record_size,
                    entries_moved: 0,
                    entry_bytes_moved: 0,
                    pages_read: 1 + (m - p.records_moved_leaf_only()) / p.entries_per_node,
                    pointer_updates: 0,
                    primary_changes: IndexChanges::rebuild(m),
                    secondary_changes: sec(IndexChanges::rebuild(m)),
                }
            }
            SystemKind::PlpClustered => {
                let m = p.records_moved_leaf_only();
                Self {
                    system,
                    records_moved: m,
                    record_bytes_moved: m * p.record_size,
                    entries_moved: p.sum_entries_moved_above_leaf(),
                    entry_bytes_moved: p.sum_entries_moved_above_leaf() * p.entry_size,
                    pages_read: 0,
                    pointer_updates: pointer_updates_plp,
                    primary_changes: IndexChanges::none(),
                    secondary_changes: sec(IndexChanges::updates(m)),
                }
            }
            SystemKind::SharedNothingClustered => {
                let m = p.records_moved_full();
                Self {
                    system,
                    records_moved: m,
                    record_bytes_moved: m * p.record_size,
                    entries_moved: 0,
                    entry_bytes_moved: 0,
                    pages_read: 0,
                    pointer_updates: 0,
                    primary_changes: IndexChanges::rebuild(m),
                    secondary_changes: sec(IndexChanges::rebuild(m)),
                }
            }
        }
    }

    /// Evaluate every system of Table 1 under the same parameters.
    pub fn table(p: &CostModelParams) -> Vec<RepartitionCost> {
        SystemKind::ALL
            .iter()
            .map(|&s| Self::evaluate(s, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_scenario_orders_systems_correctly() {
        let p = CostModelParams::table1_scenario();
        let costs = RepartitionCost::table(&p);
        let get = |s: SystemKind| costs.iter().find(|c| c.system == s).unwrap().clone();

        let regular = get(SystemKind::PlpRegular);
        let leaf = get(SystemKind::PlpLeaf);
        let partition = get(SystemKind::PlpPartition);
        let sn = get(SystemKind::SharedNothing);

        // PLP-Regular moves no records at all.
        assert_eq!(regular.records_moved, 0);
        // PLP-Leaf moves only the boundary leaf's records (85 in the paper).
        assert_eq!(leaf.records_moved, 85);
        // PLP-Partition and Shared-Nothing move the whole half partition.
        assert_eq!(partition.records_moved, sn.records_moved);
        assert!(partition.records_moved > 2_000_000);
        // Ordering of record movement matches the paper.
        assert!(regular.records_moved < leaf.records_moved);
        assert!(leaf.records_moved < partition.records_moved);
        // Shared-Nothing must rebuild indexes (inserts + deletes), PLP updates.
        assert_eq!(sn.primary_changes.inserts, sn.records_moved);
        assert_eq!(sn.primary_changes.deletes, sn.records_moved);
        assert_eq!(partition.primary_changes.updates, partition.records_moved);
        assert_eq!(leaf.secondary_changes.updates, 85);
    }

    #[test]
    fn paper_headline_numbers() {
        // Table 1: PLP-Leaf moves 8.3 KB of records and 8 KB of index entries;
        // PLP-Partition moves 233 MB; pointer updates are 7 for all PLP designs.
        let p = CostModelParams::table1_scenario();
        let leaf = RepartitionCost::evaluate(SystemKind::PlpLeaf, &p);
        assert_eq!(leaf.record_bytes_moved, 8_500); // 8.3 KB
        assert_eq!(leaf.entry_bytes_moved, 85 * 3 * 32); // ~8 KB
        assert_eq!(leaf.pointer_updates, 7);

        let part = RepartitionCost::evaluate(SystemKind::PlpPartition, &p);
        let mb = part.record_bytes_moved as f64 / (1024.0 * 1024.0);
        assert!((mb - 233.0).abs() < 15.0, "expected ~233MB, got {mb:.1}MB");
        // Pages read ~ 14365 in the paper.
        assert!(
            (part.pages_read as i64 - 14365).abs() < 200,
            "pages_read = {}",
            part.pages_read
        );

        let clustered = RepartitionCost::evaluate(SystemKind::PlpClustered, &p);
        assert_eq!(clustered.records_moved, 85);
        assert_eq!(clustered.record_bytes_moved, 8_500);
        // Clustered PLP moves index entries only above the leaf level (5.3KB in
        // the paper at 32-byte entries ~ 85*2*32 = 5440 bytes).
        assert_eq!(clustered.entry_bytes_moved, 85 * 2 * 32);
    }

    #[test]
    fn taller_trees_explode_shared_nothing_cost() {
        let mut p = CostModelParams::table1_scenario();
        let cost_h3 = RepartitionCost::evaluate(SystemKind::SharedNothing, &p).records_moved;
        p.levels = 4;
        p.entries_to_move[3] = 85;
        let cost_h4 = RepartitionCost::evaluate(SystemKind::SharedNothing, &p).records_moved;
        assert!(cost_h4 > cost_h3 * 100);
        // PLP-Regular stays trivially cheap.
        let reg = RepartitionCost::evaluate(SystemKind::PlpRegular, &p);
        assert_eq!(reg.records_moved, 0);
        assert_eq!(reg.entries_moved, 4 * 85);
    }

    #[test]
    fn no_secondary_index_drops_secondary_changes() {
        let mut p = CostModelParams::table1_scenario();
        p.has_secondary = false;
        let leaf = RepartitionCost::evaluate(SystemKind::PlpLeaf, &p);
        assert_eq!(leaf.secondary_changes, IndexChanges::none());
        assert_eq!(leaf.primary_changes.updates, 85);
    }

    #[test]
    fn index_changes_description() {
        assert_eq!(IndexChanges::none().describe(), "-");
        assert_eq!(IndexChanges::updates(85).describe(), "85 U");
        let r = IndexChanges::rebuild(2_440_000);
        assert_eq!(r.describe(), "2.44M I + 2.44M D");
        assert_eq!(r.total_ops(), 4_880_000);
    }
}
