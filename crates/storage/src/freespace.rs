//! Free-space management for heap files.
//!
//! The free-space map tracks which heap pages still have room for new
//! records, bucketed by *placement key*: a single global bucket for the
//! regular heap layout, one bucket per logical partition for PLP-Partition,
//! and one bucket per owning MRBTree leaf for PLP-Leaf.
//!
//! Every operation latches an anchor page of kind
//! [`PageKind::CatalogSpace`], so free-space management shows up in the
//! paper's statistics exactly where it does in Shore-MT: as "catalog / space"
//! page latches (Figures 2 and 3) and as metadata critical sections
//! (Figure 1).  Notably this is the one latch the PLP designs do *not*
//! eliminate — the paper reports that the ~1% of page latching remaining
//! under PLP-Leaf is exactly this.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use plp_instrument::{PageKind, StatsRegistry};

use crate::bufferpool::BufferPool;
use crate::frame::Frame;
use crate::page::PageId;

/// Key identifying the bucket a heap page belongs to for placement purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintKey {
    /// Regular heap layout: one shared pool of pages.
    Global,
    /// PLP-Partition: pages belong to a logical partition.
    Partition(u32),
    /// PLP-Leaf: pages belong to a single index leaf page.
    Leaf(PageId),
}

/// Tracks heap pages with available free space, per placement bucket.
pub struct FreeSpaceMap {
    /// Anchor catalog/space page whose latch serialises (and instruments) all
    /// free-space-map operations.
    anchor: Arc<Frame>,
    buckets: Mutex<HashMap<HintKey, Vec<PageId>>>,
}

impl FreeSpaceMap {
    pub fn new(pool: &BufferPool) -> Self {
        Self {
            anchor: pool.alloc(PageKind::CatalogSpace),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        self.anchor.stats()
    }

    /// Pick a candidate page with free space for the given bucket, if any.
    pub fn candidate(&self, key: HintKey) -> Option<PageId> {
        let (_latch, _) = self.anchor.write_latched();
        let buckets = self.buckets.lock();
        buckets.get(&key).and_then(|v| v.last().copied())
    }

    /// Register a page as having free space in the given bucket.
    pub fn register(&self, key: HintKey, page: PageId) {
        let (_latch, _) = self.anchor.write_latched();
        let mut buckets = self.buckets.lock();
        let v = buckets.entry(key).or_default();
        if !v.contains(&page) {
            v.push(page);
        }
    }

    /// Remove a page from a bucket (it is full, or it migrated to another
    /// bucket during repartitioning).
    pub fn unregister(&self, key: HintKey, page: PageId) {
        let (_latch, _) = self.anchor.write_latched();
        let mut buckets = self.buckets.lock();
        if let Some(v) = buckets.get_mut(&key) {
            v.retain(|&p| p != page);
            if v.is_empty() {
                buckets.remove(&key);
            }
        }
    }

    /// Number of pages currently registered across all buckets.
    fn registered_pages(&self) -> usize {
        let (_latch, _) = self.anchor.write_latched();
        self.buckets.lock().values().map(|v| v.len()).sum()
    }

    /// Number of distinct buckets.
    fn bucket_count(&self) -> usize {
        let (_latch, _) = self.anchor.write_latched();
        self.buckets.lock().len()
    }
}

impl std::fmt::Debug for FreeSpaceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeSpaceMap")
            .field("buckets", &self.bucket_count())
            .field("pages", &self.registered_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fsm() -> (Arc<BufferPool>, FreeSpaceMap) {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let fsm = FreeSpaceMap::new(&pool);
        (pool, fsm)
    }

    #[test]
    fn register_and_candidate() {
        let (_pool, fsm) = fsm();
        assert!(fsm.candidate(HintKey::Global).is_none());
        fsm.register(HintKey::Global, PageId(10));
        fsm.register(HintKey::Global, PageId(11));
        assert_eq!(fsm.candidate(HintKey::Global), Some(PageId(11)));
        assert_eq!(fsm.registered_pages(), 2);
    }

    #[test]
    fn duplicate_registration_is_ignored() {
        let (_pool, fsm) = fsm();
        fsm.register(HintKey::Partition(1), PageId(5));
        fsm.register(HintKey::Partition(1), PageId(5));
        assert_eq!(fsm.registered_pages(), 1);
    }

    #[test]
    fn buckets_are_independent() {
        let (_pool, fsm) = fsm();
        fsm.register(HintKey::Partition(1), PageId(1));
        fsm.register(HintKey::Partition(2), PageId(2));
        fsm.register(HintKey::Leaf(PageId(9)), PageId(3));
        assert_eq!(fsm.candidate(HintKey::Partition(1)), Some(PageId(1)));
        assert_eq!(fsm.candidate(HintKey::Partition(2)), Some(PageId(2)));
        assert_eq!(fsm.candidate(HintKey::Leaf(PageId(9))), Some(PageId(3)));
        assert_eq!(fsm.bucket_count(), 3);
    }

    #[test]
    fn unregister_and_drain() {
        let (_pool, fsm) = fsm();
        fsm.register(HintKey::Global, PageId(1));
        fsm.register(HintKey::Global, PageId(2));
        fsm.unregister(HintKey::Global, PageId(2));
        assert_eq!(fsm.candidate(HintKey::Global), Some(PageId(1)));
        // Unregistering the last page drops the bucket itself.
        fsm.unregister(HintKey::Global, PageId(1));
        assert_eq!(fsm.registered_pages(), 0);
        assert_eq!(fsm.bucket_count(), 0);
        assert!(fsm.candidate(HintKey::Global).is_none());
    }

    #[test]
    fn operations_latch_catalog_space_page() {
        let (pool, fsm) = fsm();
        let before = pool.stats().snapshot();
        fsm.register(HintKey::Global, PageId(1));
        fsm.candidate(HintKey::Global);
        let after = pool.stats().snapshot();
        let delta = after.latches.delta(&before.latches);
        assert_eq!(delta.acquired(PageKind::CatalogSpace), 2);
        assert_eq!(delta.acquired(PageKind::Heap), 0);
    }
}
