//! The MRBTree partition (routing) table.
//!
//! The "root" of an MRBTree is not a B+Tree node but a partition table that
//! maps disjoint key ranges to sub-tree roots (Section A.1 of the paper).  It
//! has two representations:
//!
//! * a **durable routing page** (a catalog/space page holding
//!   `(start_key, root page id)` pairs in a simple slotted layout), updated
//!   whenever the partitioning changes and latched like any other metadata
//!   page, and
//! * an **in-memory ranges map** cached by the partition manager.  During
//!   normal processing the PLP worker threads never consult either — the
//!   partition manager routes work to them — which is exactly why the paper's
//!   MRBTree probes are "effectively one level shallower".

use std::sync::Arc;

use parking_lot::RwLock;
use plp_instrument::PageKind;
use plp_storage::{BufferPool, Frame, Page, PageId};

/// Index of a partition within an MRBTree (dense, 0-based).
pub type PartitionId = u32;

/// One entry of the ranges map: the partition covers `[start_key, next.start_key)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeEntry {
    pub start_key: u64,
    pub root: PageId,
}

const OFF_COUNT: usize = 0;
const ENTRIES_START: usize = 8;
const ENTRY_BYTES: usize = 16;

/// The partition table: durable routing page + cached ranges map.
pub struct PartitionTable {
    routing_page: Arc<Frame>,
    ranges: RwLock<Vec<RangeEntry>>,
}

impl PartitionTable {
    /// Create a partition table with the given initial ranges (must be sorted
    /// by `start_key`).
    pub fn new(pool: &BufferPool, ranges: Vec<RangeEntry>) -> Self {
        assert!(
            !ranges.is_empty(),
            "partition table needs at least one range"
        );
        assert!(
            ranges.windows(2).all(|w| w[0].start_key < w[1].start_key),
            "ranges must be sorted and disjoint"
        );
        let routing_page = pool.alloc(PageKind::CatalogSpace);
        let table = Self {
            routing_page,
            ranges: RwLock::new(ranges),
        };
        table.persist();
        table
    }

    /// The durable routing page (its latch traffic is part of the metadata /
    /// catalog-space category).
    pub fn routing_page(&self) -> PageId {
        self.routing_page.id()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.ranges.read().len()
    }

    /// Route a key to its partition: returns (partition index, sub-tree root).
    ///
    /// This is the *in-memory* ranges map lookup; it takes no latch, matching
    /// the paper's design where threads bypass the routing page entirely.
    pub fn route(&self, key: u64) -> (PartitionId, PageId) {
        let ranges = self.ranges.read();
        let idx = match ranges.binary_search_by(|e| e.start_key.cmp(&key)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        (idx as PartitionId, ranges[idx].root)
    }

    /// The key range `[start, end)` covered by a partition (`end` is `None`
    /// for the last partition).
    pub fn range_of(&self, partition: PartitionId) -> (u64, Option<u64>) {
        let ranges = self.ranges.read();
        let start = ranges[partition as usize].start_key;
        let end = ranges.get(partition as usize + 1).map(|e| e.start_key);
        (start, end)
    }

    /// Snapshot of all ranges.
    pub fn ranges(&self) -> Vec<RangeEntry> {
        self.ranges.read().clone()
    }

    /// Insert a new partition starting at `start_key` with sub-tree `root`
    /// (used by the slice operation).  Returns its index.
    pub fn insert_partition(&self, start_key: u64, root: PageId) -> PartitionId {
        let mut ranges = self.ranges.write();
        let idx = match ranges.binary_search_by(|e| e.start_key.cmp(&start_key)) {
            Ok(_) => panic!("partition starting at {start_key} already exists"),
            Err(i) => i,
        };
        ranges.insert(idx, RangeEntry { start_key, root });
        drop(ranges);
        self.persist();
        idx as PartitionId
    }

    /// Remove the partition at `index`, merging its range into its left
    /// neighbour (used by the meld operation).  The first partition cannot be
    /// removed.
    pub fn remove_partition(&self, index: PartitionId) {
        let mut ranges = self.ranges.write();
        assert!(index > 0, "cannot remove the first partition");
        assert!((index as usize) < ranges.len(), "no such partition");
        ranges.remove(index as usize);
        drop(ranges);
        self.persist();
    }

    /// Replace the sub-tree root recorded for a partition (used when a meld
    /// re-roots the surviving sub-tree).
    pub fn set_root(&self, index: PartitionId, root: PageId) {
        {
            let mut ranges = self.ranges.write();
            ranges[index as usize].root = root;
        }
        self.persist();
    }

    /// Write the ranges map to the durable routing page.  One catalog-space
    /// page latch per change, as in the paper (changes are rare: only
    /// repartitioning touches the routing page).
    fn persist(&self) {
        let ranges = self.ranges.read();
        let (mut guard, _) = self.routing_page.write_latched();
        Self::encode(&mut guard, &ranges);
    }

    fn encode(page: &mut Page, ranges: &[RangeEntry]) {
        page.write_u64(OFF_COUNT, ranges.len() as u64);
        for (i, r) in ranges.iter().enumerate() {
            let off = ENTRIES_START + i * ENTRY_BYTES;
            page.write_u64(off, r.start_key);
            page.write_page_id(off + 8, r.root);
        }
    }

    /// Decode the durable routing page (recovery / verification path).
    pub fn decode(page: &Page) -> Vec<RangeEntry> {
        let n = page.read_u64(OFF_COUNT) as usize;
        (0..n)
            .map(|i| {
                let off = ENTRIES_START + i * ENTRY_BYTES;
                RangeEntry {
                    start_key: page.read_u64(off),
                    root: page.read_page_id(off + 8),
                }
            })
            .collect()
    }

    /// Verify that the durable routing page matches the in-memory ranges map.
    pub fn verify_durable(&self) -> bool {
        let ranges = self.ranges.read();
        let decoded = self.routing_page.with_page(Self::decode);
        decoded == *ranges
    }
}

impl std::fmt::Debug for PartitionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionTable")
            .field("partitions", &self.partition_count())
            .field("routing_page", &self.routing_page.id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_instrument::StatsRegistry;

    fn table(bounds: &[u64]) -> (Arc<BufferPool>, PartitionTable) {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let ranges = bounds
            .iter()
            .enumerate()
            .map(|(i, &k)| RangeEntry {
                start_key: k,
                root: PageId(1000 + i as u64),
            })
            .collect();
        let t = PartitionTable::new(&pool, ranges);
        (pool, t)
    }

    #[test]
    fn routing_picks_covering_partition() {
        let (_p, t) = table(&[0, 100, 200]);
        assert_eq!(t.route(0), (0, PageId(1000)));
        assert_eq!(t.route(99), (0, PageId(1000)));
        assert_eq!(t.route(100), (1, PageId(1001)));
        assert_eq!(t.route(150), (1, PageId(1001)));
        assert_eq!(t.route(5000), (2, PageId(1002)));
        assert_eq!(t.partition_count(), 3);
    }

    #[test]
    fn range_bounds() {
        let (_p, t) = table(&[0, 100, 200]);
        assert_eq!(t.range_of(0), (0, Some(100)));
        assert_eq!(t.range_of(1), (100, Some(200)));
        assert_eq!(t.range_of(2), (200, None));
    }

    #[test]
    fn insert_and_remove_partitions() {
        let (_p, t) = table(&[0, 100]);
        let idx = t.insert_partition(50, PageId(2000));
        assert_eq!(idx, 1);
        assert_eq!(t.route(75), (1, PageId(2000)));
        assert_eq!(t.partition_count(), 3);
        t.remove_partition(1);
        assert_eq!(t.route(75), (0, PageId(1000)));
        assert_eq!(t.partition_count(), 2);
        assert!(t.verify_durable());
    }

    #[test]
    fn durable_form_tracks_changes() {
        let (_p, t) = table(&[0, 500]);
        assert!(t.verify_durable());
        t.insert_partition(250, PageId(3000));
        assert!(t.verify_durable());
        t.set_root(1, PageId(4000));
        assert!(t.verify_durable());
        assert_eq!(t.ranges()[1].root, PageId(4000));
    }

    #[test]
    fn routing_page_is_catalog_space_kind() {
        let (pool, t) = table(&[0]);
        let frame = pool.get(t.routing_page()).unwrap();
        assert_eq!(frame.kind(), PageKind::CatalogSpace);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_ranges_rejected() {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        PartitionTable::new(
            &pool,
            vec![
                RangeEntry {
                    start_key: 10,
                    root: PageId(1),
                },
                RangeEntry {
                    start_key: 5,
                    root: PageId(2),
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_partition_start_rejected() {
        let (_p, t) = table(&[0, 100]);
        t.insert_partition(100, PageId(9));
    }
}
