//! The buffer pool: an in-memory frame table.
//!
//! The reproduction keeps the whole database memory resident (as the paper
//! does), so the buffer pool never evicts and a page fix is a hash-table
//! lookup.  The lookup path is deliberately *not* counted as a critical
//! section: with a memory-resident database Shore-MT pins pages through
//! pointer swizzling-like shortcuts, and the paper attributes buffer-pool
//! critical sections mainly to "communication between cleaner threads".  The
//! operations that *are* counted under [`CsCategory::Bpool`] are page
//! allocation, dirty-page scans and cleaner handshakes, matching that
//! narrative.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use plp_instrument::{CsCategory, PageKind, StatsRegistry};

use crate::error::{StorageError, StorageResult};
use crate::frame::Frame;
use crate::page::PageId;

const N_SHARDS: usize = 64;

/// An in-memory, non-evicting buffer pool.
pub struct BufferPool {
    shards: Vec<RwLock<HashMap<u64, Arc<Frame>>>>,
    next_page_id: AtomicU64,
    stats: Arc<StatsRegistry>,
}

impl BufferPool {
    pub fn new(stats: Arc<StatsRegistry>) -> Self {
        Self {
            shards: (0..N_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            next_page_id: AtomicU64::new(1),
            stats,
        }
    }

    pub fn new_shared(stats: Arc<StatsRegistry>) -> Arc<Self> {
        Arc::new(Self::new(stats))
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    fn shard(&self, id: PageId) -> &RwLock<HashMap<u64, Arc<Frame>>> {
        &self.shards[(id.0 as usize) % N_SHARDS]
    }

    /// Allocate a fresh page of the given kind.  Counted as a buffer-pool
    /// critical section (frame-table insertion is a shared-structure update).
    pub fn alloc(&self, kind: PageKind) -> Arc<Frame> {
        let id = PageId(self.next_page_id.fetch_add(1, Ordering::Relaxed));
        let frame = Arc::new(Frame::new(id, kind, self.stats.clone()));
        let shard = self.shard(id);
        let contended = {
            match shard.try_write() {
                Some(mut g) => {
                    g.insert(id.0, frame.clone());
                    false
                }
                None => {
                    let mut g = shard.write();
                    g.insert(id.0, frame.clone());
                    true
                }
            }
        };
        self.stats.cs().enter(CsCategory::Bpool, contended);
        frame
    }

    /// Fix (look up) a page.  Not counted as a critical section — see the
    /// module-level discussion.
    pub fn get(&self, id: PageId) -> StorageResult<Arc<Frame>> {
        self.shard(id)
            .read()
            .get(&id.0)
            .cloned()
            .ok_or(StorageError::PageNotFound(id))
    }

    /// Whether a page exists.
    pub fn contains(&self, id: PageId) -> bool {
        self.shard(id).read().contains_key(&id.0)
    }

    /// Total number of pages currently in the pool.
    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Collect the ids of all dirty pages.  Used by the page cleaner; counted
    /// as one buffer-pool critical section per shard scanned.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let g = shard.read();
            self.stats.cs().enter(CsCategory::Bpool, false);
            out.extend(g.values().filter(|f| f.is_dirty()).map(|f| f.id()));
        }
        out
    }

    /// Drop a page from the pool entirely (used when melds recycle empty
    /// routing pages).  Rarely called; counted as a buffer-pool CS.
    pub fn free(&self, id: PageId) -> bool {
        let mut g = self.shard(id).write();
        self.stats.cs().enter(CsCategory::Bpool, false);
        g.remove(&id.0).is_some()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("pages", &self.page_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufferPool {
        BufferPool::new(StatsRegistry::new_shared())
    }

    #[test]
    fn alloc_and_get() {
        let bp = pool();
        let f = bp.alloc(PageKind::Index);
        assert!(f.id().is_valid());
        let g = bp.get(f.id()).unwrap();
        assert_eq!(g.id(), f.id());
        assert_eq!(bp.page_count(), 1);
    }

    #[test]
    fn missing_page_errors() {
        let bp = pool();
        assert!(matches!(
            bp.get(PageId(999)),
            Err(StorageError::PageNotFound(_))
        ));
        assert!(!bp.contains(PageId(999)));
    }

    #[test]
    fn page_ids_are_unique() {
        let bp = pool();
        let ids: Vec<_> = (0..100).map(|_| bp.alloc(PageKind::Heap).id()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn dirty_page_tracking() {
        let bp = pool();
        let a = bp.alloc(PageKind::Heap);
        let b = bp.alloc(PageKind::Heap);
        a.mark_dirty();
        let dirty = bp.dirty_pages();
        assert!(dirty.contains(&a.id()));
        assert!(!dirty.contains(&b.id()));
    }

    #[test]
    fn alloc_counts_bpool_cs() {
        let bp = pool();
        bp.alloc(PageKind::Heap);
        bp.alloc(PageKind::Heap);
        let snap = bp.stats().snapshot();
        assert_eq!(snap.cs.entries(CsCategory::Bpool), 2);
    }

    #[test]
    fn get_does_not_count_cs() {
        let bp = pool();
        let f = bp.alloc(PageKind::Heap);
        let before = bp.stats().snapshot().cs.entries(CsCategory::Bpool);
        for _ in 0..10 {
            bp.get(f.id()).unwrap();
        }
        let after = bp.stats().snapshot().cs.entries(CsCategory::Bpool);
        assert_eq!(before, after);
    }

    #[test]
    fn free_removes_page() {
        let bp = pool();
        let f = bp.alloc(PageKind::CatalogSpace);
        assert!(bp.free(f.id()));
        assert!(!bp.contains(f.id()));
        assert!(!bp.free(f.id()));
    }

    #[test]
    fn concurrent_alloc_and_get() {
        let bp = Arc::new(pool());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let bp = bp.clone();
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for _ in 0..200 {
                    ids.push(bp.alloc(PageKind::Heap).id());
                }
                for id in &ids {
                    assert!(bp.get(*id).is_ok());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bp.page_count(), 1600);
    }
}
