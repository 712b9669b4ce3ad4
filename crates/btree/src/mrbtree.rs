//! The multi-rooted B+Tree (MRBTree).
//!
//! An MRBTree is a forest of independent B+Trees ("sub-trees"), one per
//! logical partition, glued together by a [`PartitionTable`] that maps
//! disjoint key ranges to sub-tree roots.  Compared with a single B+Tree it
//! provides:
//!
//! * **no root latch contention and one fewer level per probe** — threads
//!   consult the in-memory ranges map (or, under PLP, skip even that because
//!   the partition manager already routed the request) and land directly on a
//!   sub-tree root (Figure 9);
//! * **parallel structure modifications** — each sub-tree has its own SMO
//!   serialisation, so inserts into different partitions never block on each
//!   other's splits (Figure 10);
//! * **cheap repartitioning** — the [`MrbTree::slice`] and [`MrbTree::meld`]
//!   operations move a handful of index entries and update the routing page
//!   instead of physically moving partitions (Table 1, Figure 8).
//!
//! Leaf chains are maintained *per partition*: slice cuts the chain at the
//! partition boundary and meld reconnects it, so per-partition scans stay
//! contained, which is what the PLP execution model requires.

use std::sync::Arc;

use parking_lot::RwLock;
use plp_instrument::{CsCategory, PageKind, StatsRegistry};
use plp_storage::{Access, BufferPool, Frame, OwnerToken, PageId};

use crate::node::NodeView;
use crate::parttable::{PartitionId, PartitionTable, RangeEntry};
use crate::tree::{BTree, BTreeError, InsertOutcome};

/// Statistics describing the physical work done by a slice or meld, used by
/// the repartitioning experiments (Figure 8) and to validate the analytical
/// cost model (Tables 1 and 2).
#[derive(Debug, Clone, Default)]
pub struct RepartitionReport {
    /// Index entries copied between pages.
    pub entries_moved: usize,
    /// Index pages read while locating the boundary.
    pub pages_read: usize,
    /// New index pages allocated.
    pub pages_allocated: usize,
    /// Pointer fields updated (leaf chain links, leftmost-child pointers,
    /// routing-table entries).
    pub pointer_updates: usize,
    /// Leaf entries whose home leaf page changed — the records they reference
    /// must be relocated under the PLP-Leaf heap placement (the storage
    /// manager callback of Section 3.3).
    pub moved_leaf_entries: Vec<(u64, u64)>,
    /// Partition that was created (slice) or absorbed (meld).
    pub partition: PartitionId,
}

/// The multi-rooted B+Tree.
pub struct MrbTree {
    pool: Arc<BufferPool>,
    table: PartitionTable,
    subtrees: RwLock<Vec<Arc<BTree>>>,
    max_entries: usize,
    stats: Arc<StatsRegistry>,
}

impl MrbTree {
    /// Create an MRBTree with one empty sub-tree per entry of
    /// `partition_starts` (must be sorted ascending; the first entry should be
    /// the minimum routable key, typically 0).
    pub fn create(pool: Arc<BufferPool>, max_entries: usize, partition_starts: &[u64]) -> Self {
        assert!(!partition_starts.is_empty());
        let stats = pool.stats().clone();
        let subtrees: Vec<Arc<BTree>> = partition_starts
            .iter()
            .map(|_| Arc::new(BTree::create(pool.clone(), max_entries)))
            .collect();
        let ranges = partition_starts
            .iter()
            .zip(&subtrees)
            .map(|(&start_key, t)| RangeEntry {
                start_key,
                root: t.root(),
            })
            .collect();
        let table = PartitionTable::new(&pool, ranges);
        Self {
            pool,
            table,
            subtrees: RwLock::new(subtrees),
            max_entries,
            stats,
        }
    }

    /// Create an MRBTree whose partitions evenly divide `[0, key_space)`.
    pub fn create_uniform(
        pool: Arc<BufferPool>,
        max_entries: usize,
        partitions: usize,
        key_space: u64,
    ) -> Self {
        assert!(partitions >= 1);
        let step = (key_space / partitions as u64).max(1);
        let starts: Vec<u64> = (0..partitions as u64).map(|i| i * step).collect();
        Self::create(pool, max_entries, &starts)
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    pub fn partition_table(&self) -> &PartitionTable {
        &self.table
    }

    pub fn partition_count(&self) -> usize {
        self.table.partition_count()
    }

    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Partition covering `key`.
    pub fn partition_of(&self, key: u64) -> PartitionId {
        self.table.route(key).0
    }

    /// Key range `[start, end)` of a partition.
    pub fn range_of(&self, partition: PartitionId) -> (u64, Option<u64>) {
        self.table.range_of(partition)
    }

    /// The sub-tree serving a partition.
    pub fn subtree(&self, partition: PartitionId) -> Arc<BTree> {
        self.subtrees.read()[partition as usize].clone()
    }

    /// Route a key to its (partition, sub-tree) pair — the in-memory ranges
    /// map lookup that replaces the root-node visit of a single B+Tree.
    pub fn route(&self, key: u64) -> (PartitionId, Arc<BTree>) {
        let (p, _root) = self.table.route(key);
        (p, self.subtrees.read()[p as usize].clone())
    }

    // ------------------------------------------------------------------
    // Point operations (route + delegate)
    // ------------------------------------------------------------------

    pub fn insert(
        &self,
        key: u64,
        value: u64,
        access: Access,
    ) -> Result<InsertOutcome, BTreeError> {
        self.route(key).1.insert(key, value, access)
    }

    pub fn probe(&self, key: u64, access: Access) -> Result<Option<u64>, BTreeError> {
        self.route(key).1.probe(key, access)
    }

    pub fn update_value(&self, key: u64, value: u64, access: Access) -> Result<bool, BTreeError> {
        self.route(key).1.update_value(key, value, access)
    }

    pub fn delete(&self, key: u64, access: Access) -> Result<Option<u64>, BTreeError> {
        self.route(key).1.delete(key, access)
    }

    pub fn locate_leaf(&self, key: u64, access: Access) -> Result<PageId, BTreeError> {
        self.route(key).1.locate_leaf(key, access)
    }

    /// Range scan that may span multiple partitions.
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        access: Access,
    ) -> Result<Vec<(u64, u64)>, BTreeError> {
        let mut out = Vec::new();
        let first = self.partition_of(lo) as usize;
        let last = self.partition_of(hi) as usize;
        let subtrees = self.subtrees.read().clone();
        for tree in subtrees.iter().take(last + 1).skip(first) {
            out.extend(tree.range_scan(lo, hi, access)?);
        }
        Ok(out)
    }

    /// Total entries across all partitions.
    pub fn entry_count(&self) -> usize {
        let subtrees = self.subtrees.read().clone();
        subtrees.iter().map(|t| t.entry_count()).sum()
    }

    /// Height (in levels) of one partition's sub-tree.
    pub fn height_of(&self, partition: PartitionId) -> u16 {
        self.subtree(partition).height()
    }

    /// All index pages across partitions plus the routing page.
    pub fn all_pages(&self) -> Vec<PageId> {
        let mut out = vec![self.table.routing_page()];
        let subtrees = self.subtrees.read().clone();
        for t in subtrees.iter() {
            out.extend(t.all_pages());
        }
        out
    }

    /// Assign latch-free ownership of one partition's pages.
    pub fn assign_partition_owner(&self, partition: PartitionId, token: OwnerToken) {
        self.subtree(partition).assign_owner(token);
    }

    /// Clear ownership on every page (return to the latched protocol).
    pub fn clear_owners(&self) {
        let subtrees = self.subtrees.read().clone();
        for t in subtrees.iter() {
            t.clear_owners();
        }
    }

    /// Validate every sub-tree and the partition table (test helper).
    pub fn validate(&self) {
        assert!(self.table.verify_durable(), "routing page out of sync");
        let ranges = self.table.ranges();
        let subtrees = self.subtrees.read().clone();
        assert_eq!(ranges.len(), subtrees.len());
        for (range, tree) in ranges.iter().zip(subtrees.iter()) {
            assert_eq!(range.root, tree.root(), "partition table root mismatch");
            tree.validate();
        }
        // Keys must respect their partition's range.
        for (i, tree) in subtrees.iter().enumerate() {
            let (lo, hi) = self.table.range_of(i as PartitionId);
            tree.for_each_entry(Access::Latched, |k, _| {
                assert!(k >= lo, "key {k} below partition {i} start {lo}");
                if let Some(hi) = hi {
                    assert!(k < hi, "key {k} beyond partition {i} end {hi}");
                }
            })
            .unwrap();
        }
    }

    // ------------------------------------------------------------------
    // Repartitioning: slice and meld
    // ------------------------------------------------------------------

    fn frame(&self, id: PageId) -> Arc<Frame> {
        self.pool.get(id).expect("mrbtree page")
    }

    /// Split the partition containing `at_key` into two partitions:
    /// `[start, at_key)` stays in the existing sub-tree, `[at_key, end)` moves
    /// to a newly created sub-tree.  Only the entries on the root-to-leaf path
    /// of `at_key` are copied; whole sub-trees to the right of the path are
    /// re-parented by pointer (Section A.3.2).
    ///
    /// The caller is responsible for excluding every other user of the
    /// affected partition (the partition manager drains transactions and
    /// holds every claim); the operation itself takes the sub-tree's SMO
    /// serialisation implicitly by being single-threaded per partition.
    pub fn slice(&self, at_key: u64) -> Result<RepartitionReport, BTreeError> {
        let (old_pid, old_tree) = self.route(at_key);
        let (start, _end) = self.table.range_of(old_pid);
        assert!(
            at_key > start,
            "slice key {at_key} must be strictly inside the partition (start {start})"
        );
        let mut report = RepartitionReport::default();

        // Walk the path from the sub-tree root towards the leaf that covers
        // `at_key`.  The walk stops early if an interior node holds an entry
        // whose key is exactly `at_key`: that entry's whole child sub-tree
        // belongs to the new partition and can be re-parented by pointer, with
        // no need to split anything below.
        enum PathEnd {
            Leaf,
            ExactInterior { child: PageId },
        }
        let mut path = Vec::new();
        let mut current = self.frame(old_tree.root());
        let path_end;
        loop {
            report.pages_read += 1;
            enum Step {
                Leaf,
                Exact(PageId),
                Descend(PageId),
            }
            let step = current.with_page(|page| {
                if NodeView::is_leaf(page) {
                    Step::Leaf
                } else {
                    match NodeView::search(page, at_key) {
                        Ok(idx) => Step::Exact(PageId(NodeView::value_at(page, idx))),
                        Err(_) => Step::Descend(NodeView::child_for(page, at_key)),
                    }
                }
            });
            path.push(current.clone());
            match step {
                Step::Leaf => {
                    path_end = PathEnd::Leaf;
                    break;
                }
                Step::Exact(child) => {
                    path_end = PathEnd::ExactInterior { child };
                    break;
                }
                Step::Descend(child) => current = self.frame(child),
            }
        }

        // Build the new sub-tree top-down: for each path node, move the
        // entries >= at_key to a fresh node of the same level.
        let mut new_nodes: Vec<Arc<Frame>> = Vec::with_capacity(path.len());
        for node in &path {
            let level = node.with_page(NodeView::level);
            let fresh = self.pool.alloc(PageKind::Index);
            fresh.with_page_mut(|p| NodeView::init(p, level));
            report.pages_allocated += 1;
            new_nodes.push(fresh);
        }
        let last_idx = path.len() - 1;
        for (i, node) in path.iter().enumerate() {
            let fresh = &new_nodes[i];
            let is_leaf = node.with_page(NodeView::is_leaf);
            // Gather facts first, then mutate, to keep borrows simple.
            let split_idx = node.with_page(|old| match NodeView::search(old, at_key) {
                Ok(idx) => idx,
                Err(idx) => idx,
            });
            let mut leaf_chain_fix: Option<(PageId, PageId)> = None;
            node.with_page_mut(|old| {
                fresh.with_page_mut(|newp| {
                    let moved = NodeView::move_upper_half(old, newp, split_idx);
                    report.entries_moved += moved;
                    if is_leaf {
                        report.moved_leaf_entries.extend(NodeView::entries(newp));
                        // Cut the leaf chain at the partition boundary and hand
                        // the upper key range to the new partition's leaf.
                        let old_next = NodeView::next_leaf(old);
                        NodeView::set_next_leaf(newp, old_next);
                        NodeView::set_prev_leaf(newp, PageId::INVALID);
                        NodeView::set_next_leaf(old, PageId::INVALID);
                        NodeView::set_high_key(newp, NodeView::high_key(old));
                        NodeView::set_high_key(old, at_key);
                        report.pointer_updates += 3;
                        if old_next.is_valid() {
                            leaf_chain_fix = Some((old_next, fresh.id()));
                        }
                    } else if i < last_idx {
                        // The new interior node's leftmost child is the new
                        // node one level below.
                        NodeView::set_leftmost_child(newp, new_nodes[i + 1].id());
                        report.pointer_updates += 1;
                    } else {
                        // Exact-match interior boundary: the first moved entry
                        // is (at_key -> child); that child becomes the new
                        // node's leftmost child and the entry disappears.
                        let (k, v) = NodeView::remove_at(newp, 0);
                        debug_assert_eq!(k, at_key);
                        NodeView::set_leftmost_child(newp, PageId(v));
                        report.pointer_updates += 1;
                    }
                });
            });
            if let Some((next_id, new_prev)) = leaf_chain_fix {
                self.frame(next_id)
                    .with_page_mut(|p| NodeView::set_prev_leaf(p, new_prev));
                report.pointer_updates += 1;
            }
        }

        // If the boundary was an exact interior match, the leaf chain still
        // crosses the partition boundary somewhere below: cut it between the
        // last old-partition leaf and the first new-partition leaf.
        if let PathEnd::ExactInterior { child } = path_end {
            // First leaf of the re-parented child sub-tree.
            let mut cur = self.frame(child);
            loop {
                report.pages_read += 1;
                let next = cur.with_page(|page| {
                    if NodeView::is_leaf(page) {
                        None
                    } else {
                        Some(NodeView::leftmost_child(page))
                    }
                });
                match next {
                    None => break,
                    Some(c) => cur = self.frame(c),
                }
            }
            let first_new_leaf = cur;
            let prev = first_new_leaf.with_page(NodeView::prev_leaf);
            if prev.is_valid() {
                self.frame(prev).with_page_mut(|p| {
                    NodeView::set_next_leaf(p, PageId::INVALID);
                    NodeView::set_high_key(p, at_key);
                });
                first_new_leaf.with_page_mut(|p| NodeView::set_prev_leaf(p, PageId::INVALID));
                report.pointer_updates += 2;
            }
        }

        // Register the new partition.
        let new_root = new_nodes[0].id();
        self.table.insert_partition(at_key, new_root);
        report.pointer_updates += 1;
        self.stats.cs().enter(CsCategory::Metadata, false);
        let new_tree = Arc::new(BTree::attach(self.pool.clone(), new_root, self.max_entries));
        {
            let mut subtrees = self.subtrees.write();
            subtrees.insert(old_pid as usize + 1, new_tree);
        }
        report.partition = old_pid + 1;
        self.stats.smo_performed(0);
        Ok(report)
    }

    /// Merge partition `p` into its left neighbour `p - 1` (Section A.3.1).
    /// Returns the physical work done.
    pub fn meld(&self, p: PartitionId) -> Result<RepartitionReport, BTreeError> {
        assert!(p > 0, "cannot meld the first partition");
        let mut report = RepartitionReport {
            partition: p,
            ..RepartitionReport::default()
        };
        let (start_h, _) = self.table.range_of(p);
        let (low_tree, high_tree) = {
            let subtrees = self.subtrees.read();
            (
                subtrees[p as usize - 1].clone(),
                subtrees[p as usize].clone(),
            )
        };
        let hl = low_tree.height();
        let hh = high_tree.height();

        // Reconnect the leaf chain across the boundary.
        let low_last = low_tree.last_leaf(Access::Latched)?;
        let high_first = high_tree.first_leaf(Access::Latched)?;
        let surviving_root;

        if hl == hh {
            // Same height: absorb the high root's entries into the low root.
            let low_root = self.frame(low_tree.root());
            let high_root = self.frame(high_tree.root());
            let high_is_leaf = high_root.with_page(NodeView::is_leaf);
            let high_entries = high_root.with_page(NodeView::entries);
            let high_leftmost = high_root.with_page(NodeView::leftmost_child);
            let needed = high_entries.len() + usize::from(!high_is_leaf);
            let low_count = low_root.with_page(NodeView::entry_count);
            if low_count + needed <= self.max_entries {
                let high_bound = high_root.with_page(NodeView::high_key);
                low_root.with_page_mut(|low| {
                    if !high_is_leaf {
                        NodeView::append(low, start_h, high_leftmost.0, self.max_entries);
                        report.entries_moved += 1;
                    }
                    for (k, v) in &high_entries {
                        NodeView::append(low, *k, *v, self.max_entries);
                        report.entries_moved += 1;
                    }
                    if high_is_leaf {
                        NodeView::set_high_key(low, high_bound);
                    }
                });
                if high_is_leaf {
                    report.moved_leaf_entries = high_entries;
                    // The high root leaf is now empty and unreferenced; its
                    // leaf-chain neighbours (none, single-leaf tree) need no fix.
                }
                report.pages_read += 2;
                surviving_root = low_tree.root();
                self.pool.free(high_tree.root());
            } else {
                // No room: create a new root above both trees.
                let new_root = self.pool.alloc(PageKind::Index);
                let level = hl; // heights equal; new root is one level up
                new_root.with_page_mut(|p_| {
                    NodeView::init(p_, level);
                    NodeView::set_leftmost_child(p_, low_tree.root());
                    NodeView::insert(p_, start_h, high_tree.root().0, self.max_entries);
                });
                report.pages_allocated += 1;
                report.pointer_updates += 2;
                surviving_root = new_root.id();
            }
        } else if hl > hh {
            // Descend the low tree's rightmost spine to the level just above
            // the high tree's root and hang the high root there.
            let target_level = hh; // high root level is hh - 1
            let mut current = self.frame(low_tree.root());
            loop {
                report.pages_read += 1;
                let (level, next) = current.with_page(|page| {
                    let level = NodeView::level(page);
                    let next = if level > target_level {
                        let n = NodeView::entry_count(page);
                        if n == 0 {
                            Some(NodeView::leftmost_child(page))
                        } else {
                            Some(PageId(NodeView::value_at(page, n - 1)))
                        }
                    } else {
                        None
                    };
                    (level, next)
                });
                if level == target_level {
                    break;
                }
                current = self.frame(next.expect("interior node"));
            }
            let ok = current.with_page_mut(|page| {
                NodeView::insert(page, start_h, high_tree.root().0, self.max_entries)
            });
            if !ok {
                // Rightmost node full: fall back to a new root over both trees.
                let new_root = self.pool.alloc(PageKind::Index);
                new_root.with_page_mut(|p_| {
                    NodeView::init(p_, hl);
                    NodeView::set_leftmost_child(p_, low_tree.root());
                    NodeView::insert(p_, start_h, high_tree.root().0, self.max_entries);
                });
                report.pages_allocated += 1;
                surviving_root = new_root.id();
            } else {
                report.entries_moved += 1;
                surviving_root = low_tree.root();
            }
        } else {
            // hh > hl: the low tree hangs off the leftmost spine of the high
            // tree, becoming its new leftmost child at the right level.
            let target_level = hl;
            let mut current = self.frame(high_tree.root());
            loop {
                report.pages_read += 1;
                let (level, next) = current.with_page(|page| {
                    let level = NodeView::level(page);
                    let next = if level > target_level {
                        Some(NodeView::leftmost_child(page))
                    } else {
                        None
                    };
                    (level, next)
                });
                if level == target_level {
                    break;
                }
                current = self.frame(next.expect("interior node"));
            }
            let ok = current.with_page_mut(|page| {
                let old_leftmost = NodeView::leftmost_child(page);
                if NodeView::insert(page, start_h, old_leftmost.0, self.max_entries) {
                    NodeView::set_leftmost_child(page, low_tree.root());
                    true
                } else {
                    false
                }
            });
            if !ok {
                let new_root = self.pool.alloc(PageKind::Index);
                new_root.with_page_mut(|p_| {
                    NodeView::init(p_, hh);
                    NodeView::set_leftmost_child(p_, low_tree.root());
                    NodeView::insert(p_, start_h, high_tree.root().0, self.max_entries);
                });
                report.pages_allocated += 1;
                surviving_root = new_root.id();
            } else {
                report.entries_moved += 1;
                report.pointer_updates += 2;
                surviving_root = high_tree.root();
            }
        }

        // Reconnect the leaf chain at the boundary (unless the high tree's
        // single leaf was dissolved into the low root).
        if self.pool.contains(high_first) && low_last != high_first {
            self.frame(low_last)
                .with_page_mut(|pg| NodeView::set_next_leaf(pg, high_first));
            self.frame(high_first)
                .with_page_mut(|pg| NodeView::set_prev_leaf(pg, low_last));
            report.pointer_updates += 2;
        }

        // Update the partition table and the sub-tree list.
        self.table.remove_partition(p);
        self.table.set_root(p - 1, surviving_root);
        self.stats.cs().enter(CsCategory::Metadata, false);
        report.pointer_updates += 2;
        {
            let mut subtrees = self.subtrees.write();
            subtrees.remove(p as usize);
            subtrees[p as usize - 1] = Arc::new(BTree::attach(
                self.pool.clone(),
                surviving_root,
                self.max_entries,
            ));
        }
        self.stats.smo_performed(0);
        Ok(report)
    }
}

impl std::fmt::Debug for MrbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MrbTree")
            .field("partitions", &self.partition_count())
            .field("max_entries", &self.max_entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrb(partitions: usize, key_space: u64, fanout: usize) -> MrbTree {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        MrbTree::create_uniform(pool, fanout, partitions, key_space)
    }

    #[test]
    fn create_uniform_partitions() {
        let t = mrb(4, 1000, 8);
        assert_eq!(t.partition_count(), 4);
        assert_eq!(t.partition_of(0), 0);
        assert_eq!(t.partition_of(249), 0);
        assert_eq!(t.partition_of(250), 1);
        assert_eq!(t.partition_of(999), 3);
        assert_eq!(t.partition_of(10_000), 3);
        t.validate();
    }

    #[test]
    fn insert_probe_across_partitions() {
        let t = mrb(4, 1000, 8);
        for k in 0..1000u64 {
            t.insert(k, k * 3, Access::Latched).unwrap();
        }
        for k in 0..1000u64 {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k * 3));
        }
        assert_eq!(t.entry_count(), 1000);
        t.validate();
        // Deletes and updates route correctly too.
        assert!(t.update_value(500, 1, Access::Latched).unwrap());
        assert_eq!(t.probe(500, Access::Latched).unwrap(), Some(1));
        assert_eq!(t.delete(500, Access::Latched).unwrap(), Some(1));
        assert_eq!(t.probe(500, Access::Latched).unwrap(), None);
    }

    #[test]
    fn range_scan_spans_partitions() {
        let t = mrb(4, 1000, 8);
        for k in 0..1000u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        let hits = t.range_scan(200, 300, Access::Latched).unwrap();
        assert_eq!(hits.len(), 101);
        assert_eq!(hits.first().unwrap().0, 200);
        assert_eq!(hits.last().unwrap().0, 300);
        // Entirely inside one partition.
        assert_eq!(t.range_scan(10, 20, Access::Latched).unwrap().len(), 11);
    }

    #[test]
    fn subtree_heights_shrink_with_partitioning() {
        let single = mrb(1, 100_000, 16);
        let multi = mrb(16, 100_000, 16);
        for k in (0..20_000u64).map(|i| i * 5) {
            single.insert(k, k, Access::Latched).unwrap();
            multi.insert(k, k, Access::Latched).unwrap();
        }
        let h_single = single.height_of(0);
        let h_multi: u16 = (0..16).map(|p| multi.height_of(p)).max().unwrap();
        assert!(
            h_multi < h_single,
            "partitioned sub-trees ({h_multi}) should be shallower than the single tree ({h_single})"
        );
    }

    #[test]
    fn slice_splits_partition_correctly() {
        let t = mrb(2, 1000, 8);
        for k in 0..1000u64 {
            t.insert(k, k + 7, Access::Latched).unwrap();
        }
        let report = t.slice(250).unwrap();
        assert_eq!(t.partition_count(), 3);
        assert!(report.pages_allocated >= 1);
        assert!(report.entries_moved > 0);
        assert_eq!(report.partition, 1);
        // All keys still readable and routed to the right partitions.
        t.validate();
        for k in 0..1000u64 {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k + 7), "key {k}");
        }
        assert_eq!(t.partition_of(249), 0);
        assert_eq!(t.partition_of(250), 1);
        assert_eq!(t.partition_of(499), 1);
        assert_eq!(t.partition_of(500), 2);
        // Inserting after the slice still works (routes to the last partition).
        t.insert(2_000, 1, Access::Latched).unwrap();
        assert_eq!(t.probe(2_000, Access::Latched).unwrap(), Some(1));
    }

    #[test]
    fn slice_then_insert_both_sides() {
        let t = mrb(1, 1_000, 6);
        for k in (0..500u64).map(|i| i * 2) {
            t.insert(k, k, Access::Latched).unwrap();
        }
        t.slice(400).unwrap();
        t.validate();
        // Odd keys on both sides of the boundary.
        for k in [1u64, 399, 401, 999] {
            t.insert(k, k, Access::Latched).unwrap();
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k));
        }
        t.validate();
        assert_eq!(t.entry_count(), 504);
    }

    #[test]
    fn slice_moves_few_entries() {
        // The headline property of the MRBTree: slicing a large partition
        // moves O(height * fanout) entries, not O(records).
        let t = mrb(1, 1_000_000, 32);
        for k in 0..20_000u64 {
            t.insert(k * 7 % 1_000_000, k, Access::Latched).ok();
        }
        let total = t.entry_count();
        let report = t.slice(500_000).unwrap();
        assert!(total > 15_000);
        assert!(
            report.entries_moved < 32 * 6,
            "slice moved {} entries for a {}-entry partition",
            report.entries_moved,
            total
        );
        t.validate();
    }

    #[test]
    fn meld_equal_height_partitions() {
        let t = mrb(2, 100, 8);
        for k in 0..100u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        assert_eq!(t.partition_count(), 2);
        let report = t.meld(1).unwrap();
        assert_eq!(t.partition_count(), 1);
        assert!(report.entries_moved >= 1 || report.pages_allocated >= 1);
        t.validate();
        for k in 0..100u64 {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k), "key {k}");
        }
        // Range scans now cross the old boundary through the joined leaf chain.
        assert_eq!(t.range_scan(0, 99, Access::Latched).unwrap().len(), 100);
    }

    #[test]
    fn meld_uneven_heights() {
        // Low partition big (tall), high partition small (short).
        let t = mrb(2, 1000, 6);
        for k in 0..500u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        for k in 500..520u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        assert!(t.height_of(0) > t.height_of(1));
        t.meld(1).unwrap();
        t.validate();
        assert_eq!(t.entry_count(), 520);
        for k in [0u64, 499, 500, 519] {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k));
        }

        // Mirror case: low partition small, high partition big.
        let t = mrb(2, 1000, 6);
        for k in 0..20u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        for k in 500..1000u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        assert!(t.height_of(1) > t.height_of(0));
        t.meld(1).unwrap();
        t.validate();
        assert_eq!(t.entry_count(), 520);
        for k in [0u64, 19, 500, 999] {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k));
        }
    }

    #[test]
    fn slice_then_meld_roundtrip() {
        let t = mrb(1, 10_000, 8);
        for k in (0..2_000u64).map(|i| i * 5) {
            t.insert(k, k, Access::Latched).unwrap();
        }
        let before = t.entry_count();
        t.slice(5_000).unwrap();
        assert_eq!(t.partition_count(), 2);
        t.validate();
        t.meld(1).unwrap();
        assert_eq!(t.partition_count(), 1);
        t.validate();
        assert_eq!(t.entry_count(), before);
    }

    #[test]
    fn ownership_assignment_per_partition() {
        let t = mrb(2, 100, 8);
        for k in 0..100u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        t.assign_partition_owner(0, OwnerToken(11));
        t.assign_partition_owner(1, OwnerToken(22));
        // Owned probes work per partition with the right token.
        assert_eq!(
            t.probe(10, Access::Owned(OwnerToken(11))).unwrap(),
            Some(10)
        );
        assert_eq!(
            t.probe(60, Access::Owned(OwnerToken(22))).unwrap(),
            Some(60)
        );
        t.clear_owners();
        assert_eq!(t.probe(10, Access::Latched).unwrap(), Some(10));
    }

    #[test]
    fn parallel_smos_across_partitions() {
        // Inserting into different partitions concurrently must not serialise
        // on a single SMO mutex — this test mainly asserts correctness under
        // concurrency; the performance claim is exercised by the benchmarks.
        let t = Arc::new(mrb(8, 8 * 10_000, 6));
        let mut handles = Vec::new();
        for p in 0..8u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                let base = p * 10_000;
                for i in 0..2_000u64 {
                    t.insert(base + i, i, Access::Latched).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.validate();
        assert_eq!(t.entry_count(), 8 * 2_000);
    }
}
