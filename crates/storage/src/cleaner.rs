//! Page cleaning.
//!
//! A conventional storage manager runs a pool of cleaner threads that scan the
//! buffer pool for dirty pages and write them back, latching each page while
//! it is copied.  Under PLP this would violate the single-thread-per-page
//! invariant, so the paper routes cleaning requests to the partition-owning
//! worker via a per-partition *system queue* (Appendix A.4).
//!
//! This module supports both modes:
//!
//! * [`PageCleaner::clean_pass`] — the conventional path: the cleaner thread
//!   itself latches dirty pages and "writes" them (the write is simulated by a
//!   configurable latency because the database is memory resident).
//! * [`PageCleaner::collect_requests`] — the PLP path: the cleaner only
//!   collects the dirty page ids, grouped by owner token, and the engine
//!   forwards them to the owning workers, which call
//!   [`PageCleaner::clean_owned`] on their own pages.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use plp_instrument::CsCategory;

use crate::bufferpool::BufferPool;
use crate::frame::OwnerToken;
use crate::page::PageId;

/// Cleans dirty pages in the buffer pool.
pub struct PageCleaner {
    pool: Arc<BufferPool>,
    /// Simulated write latency per page (0 for pure in-memory operation).
    write_latency: Duration,
}

impl PageCleaner {
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self {
            pool,
            write_latency: Duration::ZERO,
        }
    }

    /// Conventional cleaning: latch each dirty page shared, "write" it, then
    /// mark it clean.  Returns the number of pages cleaned.
    pub fn clean_pass(&self) -> usize {
        let dirty = self.pool.dirty_pages();
        let mut cleaned = 0;
        for id in dirty {
            if let Ok(frame) = self.pool.get(id) {
                if !frame.is_dirty() {
                    continue;
                }
                // Page cleaning is a read-only operation: share-latch the page
                // while copying it out.
                let (_guard, _) = frame.read_latched();
                self.simulate_write();
                frame.mark_clean();
                cleaned += 1;
            }
        }
        cleaned
    }

    /// PLP cleaning, phase 1: group dirty pages by their owner token.  Pages
    /// without an owner (shared pages such as catalog pages) are returned
    /// under [`OwnerToken::NONE`] and cleaned by the cleaner thread itself.
    ///
    /// The grouping handshake is counted as buffer-pool communication
    /// (cleaner threads talking to workers), matching the paper's attribution
    /// of remaining buffer-pool critical sections.
    pub fn collect_requests(&self) -> HashMap<OwnerToken, Vec<PageId>> {
        let mut out: HashMap<OwnerToken, Vec<PageId>> = HashMap::new();
        for id in self.pool.dirty_pages() {
            if let Ok(frame) = self.pool.get(id) {
                out.entry(frame.owner()).or_default().push(id);
            }
        }
        self.pool
            .stats()
            .cs()
            .enter_n(CsCategory::Bpool, out.len() as u64, false);
        out
    }

    /// PLP cleaning, phase 2: the owning worker cleans its own pages without
    /// taking any latch (it is the only thread touching them).
    pub fn clean_owned(&self, token: OwnerToken, pages: &[PageId]) -> usize {
        let mut cleaned = 0;
        for &id in pages {
            if let Ok(frame) = self.pool.get(id) {
                if frame.is_owned_by(token) && frame.is_dirty() {
                    // Read-only copy-out; the owner keeps working meanwhile in
                    // a real system, here we only simulate the write latency.
                    self.simulate_write();
                    frame.mark_clean();
                    cleaned += 1;
                }
            }
        }
        cleaned
    }

    /// Clean un-owned (shared) pages from a PLP collection pass.
    pub fn clean_unowned(&self, pages: &[PageId]) -> usize {
        let mut cleaned = 0;
        for &id in pages {
            if let Ok(frame) = self.pool.get(id) {
                if frame.owner() == OwnerToken::NONE && frame.is_dirty() {
                    let (_guard, _) = frame.read_latched();
                    self.simulate_write();
                    frame.mark_clean();
                    cleaned += 1;
                }
            }
        }
        cleaned
    }

    fn simulate_write(&self) {
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_instrument::{PageKind, StatsRegistry};

    #[test]
    fn conventional_clean_pass() {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let cleaner = PageCleaner::new(pool.clone());
        let a = pool.alloc(PageKind::Heap);
        let b = pool.alloc(PageKind::Heap);
        a.mark_dirty();
        b.mark_dirty();
        assert_eq!(cleaner.clean_pass(), 2);
        assert!(!a.is_dirty() && !b.is_dirty());
        assert_eq!(cleaner.clean_pass(), 0);
    }

    #[test]
    fn plp_cleaning_respects_ownership() {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let cleaner = PageCleaner::new(pool.clone());
        let owned = pool.alloc(PageKind::Heap);
        let shared = pool.alloc(PageKind::CatalogSpace);
        owned.set_owner(OwnerToken(9));
        owned.mark_dirty();
        shared.mark_dirty();

        let requests = cleaner.collect_requests();
        assert_eq!(requests[&OwnerToken(9)], vec![owned.id()]);
        assert_eq!(requests[&OwnerToken::NONE], vec![shared.id()]);

        // The owner cleans its page latch-free.
        let before = pool.stats().snapshot();
        assert_eq!(
            cleaner.clean_owned(OwnerToken(9), &requests[&OwnerToken(9)]),
            1
        );
        let after = pool.stats().snapshot();
        assert_eq!(
            after
                .latches
                .delta(&before.latches)
                .acquired(PageKind::Heap),
            0
        );
        assert!(!owned.is_dirty());

        // A wrong owner cleans nothing.
        owned.mark_dirty();
        assert_eq!(cleaner.clean_owned(OwnerToken(4), &[owned.id()]), 0);
        assert!(owned.is_dirty());

        // Shared pages are cleaned by the cleaner thread with a latch.
        assert_eq!(cleaner.clean_unowned(&requests[&OwnerToken::NONE]), 1);
        assert!(!shared.is_dirty());
    }

    #[test]
    fn clean_unowned_skips_owned_pages() {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let cleaner = PageCleaner::new(pool.clone());
        let f = pool.alloc(PageKind::Heap);
        f.set_owner(OwnerToken(2));
        f.mark_dirty();
        assert_eq!(cleaner.clean_unowned(&[f.id()]), 0);
        assert!(f.is_dirty());
    }
}
