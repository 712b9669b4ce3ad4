//! Heap files: unordered collections of variable-length records.
//!
//! A heap file stores the non-clustered records of one table.  The paper
//! studies three placements of records into heap pages (Section 3.3):
//!
//! * **Regular** — any record may land on any page with room.  Heap pages are
//!   shared between partitions, so the PLP-Regular design must still latch
//!   them.
//! * **Partition-owned** (PLP-Partition) — each heap page holds records of a
//!   single logical partition, so the partition's worker may access it
//!   latch-free.  Repartitioning may have to move many heap pages.
//! * **Leaf-owned** (PLP-Leaf) — each heap page is referenced by exactly one
//!   MRBTree leaf page.  Latch-free, and repartitioning moves few records, at
//!   the cost of heap fragmentation (Figure 11).
//!
//! The placement policy is fixed per heap file; the caller supplies the
//! placement *hint* (partition id or owning leaf) on every insert.

use std::sync::Arc;

use parking_lot::Mutex;
use plp_instrument::{PageKind, StatsRegistry};

use crate::bufferpool::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::frame::{Access, Frame};
use crate::freespace::{FreeSpaceMap, HintKey};
use crate::page::PageId;
use crate::rid::Rid;
use crate::slotted::{SlottedPage, MAX_RECORD_SIZE};

/// Placement policy of a heap file (fixed at creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Classic shared heap pages (conventional, logical-only, PLP-Regular).
    Regular,
    /// Each heap page belongs to one logical partition (PLP-Partition).
    PartitionOwned,
    /// Each heap page belongs to one MRBTree leaf page (PLP-Leaf).
    LeafOwned,
}

/// Placement hint supplied on insert, interpreted according to the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementHint {
    /// No constraint (Regular policy).
    None,
    /// The record belongs to this logical partition (PartitionOwned policy).
    Partition(u32),
    /// The record is referenced by this index leaf (LeafOwned policy).
    Leaf(PageId),
}

impl PlacementHint {
    fn key(self) -> HintKey {
        match self {
            PlacementHint::None => HintKey::Global,
            PlacementHint::Partition(p) => HintKey::Partition(p),
            PlacementHint::Leaf(l) => HintKey::Leaf(l),
        }
    }
}

/// An unordered record store over slotted heap pages.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    policy: PlacementPolicy,
    fsm: FreeSpaceMap,
    pages: Mutex<Vec<PageId>>,
}

impl HeapFile {
    pub fn new(pool: Arc<BufferPool>, policy: PlacementPolicy) -> Self {
        let fsm = FreeSpaceMap::new(&pool);
        Self {
            pool,
            policy,
            fsm,
            pages: Mutex::new(Vec::new()),
        }
    }

    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        self.pool.stats()
    }

    /// Number of heap pages allocated so far (Figure 11's space-overhead metric).
    pub fn page_count(&self) -> usize {
        self.pages.lock().len()
    }

    /// Snapshot of all page ids in allocation order.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.pages.lock().clone()
    }

    fn check_hint(&self, hint: PlacementHint) -> StorageResult<()> {
        let ok = matches!(
            (self.policy, hint),
            (PlacementPolicy::Regular, PlacementHint::None)
                | (PlacementPolicy::PartitionOwned, PlacementHint::Partition(_))
                | (PlacementPolicy::LeafOwned, PlacementHint::Leaf(_))
        );
        if ok {
            Ok(())
        } else {
            Err(StorageError::Corrupt(format!(
                "placement hint {hint:?} incompatible with policy {:?}",
                self.policy
            )))
        }
    }

    fn alloc_heap_page(&self, hint: PlacementHint, access: Access) -> Arc<Frame> {
        let frame = self.pool.alloc(PageKind::Heap);
        // A brand-new page is private to this thread until it is registered in
        // the free-space map, so initialise it without instrumentation.
        frame.with_page_mut(|page| {
            SlottedPage::init(page);
            match hint {
                PlacementHint::None => {}
                PlacementHint::Partition(p) => SlottedPage::set_partition_owner(page, p),
                PlacementHint::Leaf(l) => SlottedPage::set_owner_leaf(page, l),
            }
        });
        if let Access::Owned(token) = access {
            frame.set_owner(token);
        }
        self.pages.lock().push(frame.id());
        frame
    }

    /// Insert a record, returning its RID.
    ///
    /// `access` selects latched vs latch-free page access; the hint must match
    /// the file's placement policy.
    pub fn insert(&self, record: &[u8], hint: PlacementHint, access: Access) -> StorageResult<Rid> {
        if record.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD_SIZE,
            });
        }
        self.check_hint(hint)?;
        let key = hint.key();
        // Try an existing page with space first.
        loop {
            let candidate = self.fsm.candidate(key);
            let frame = match candidate {
                Some(id) => self.pool.get(id)?,
                None => {
                    let frame = self.alloc_heap_page(hint, access);
                    self.fsm.register(key, frame.id());
                    frame
                }
            };
            let slot = frame.with_write_access(access, |page| SlottedPage::insert(page, record));
            match slot {
                Some(slot) => {
                    return Ok(Rid::new(frame.id(), slot));
                }
                None => {
                    // Page is full for this record size: retire it from the
                    // free-space map and retry with another page.
                    self.fsm.unregister(key, frame.id());
                }
            }
        }
    }

    /// Read a record by RID.
    pub fn get(&self, rid: Rid, access: Access) -> StorageResult<Vec<u8>> {
        let frame = self.pool.get(rid.page)?;
        frame
            .with_read_access(access, |page| {
                SlottedPage::get(page, rid.slot).map(|r| r.to_vec())
            })
            .ok_or(StorageError::RecordNotFound(rid))
    }

    /// Update a record in place through a closure.
    pub fn update_with(
        &self,
        rid: Rid,
        access: Access,
        f: impl FnOnce(&mut [u8]),
    ) -> StorageResult<()> {
        let frame = self.pool.get(rid.page)?;
        let ok =
            frame.with_write_access(access, |page| SlottedPage::update_with(page, rid.slot, f));
        if ok {
            Ok(())
        } else {
            Err(StorageError::RecordNotFound(rid))
        }
    }

    /// Overwrite a record (same size only).
    pub fn update(&self, rid: Rid, record: &[u8], access: Access) -> StorageResult<()> {
        let frame = self.pool.get(rid.page)?;
        let ok =
            frame.with_write_access(access, |page| SlottedPage::update(page, rid.slot, record));
        if ok {
            Ok(())
        } else {
            Err(StorageError::RecordNotFound(rid))
        }
    }

    /// Delete a record.  The page is re-registered with the free-space map so
    /// its space can be reused.
    ///
    /// For the owned placement policies the free-space bucket is derived from
    /// the page's own ownership metadata, so a caller-supplied hint can never
    /// re-bucket a page under the wrong owner.
    pub fn delete(&self, rid: Rid, hint: PlacementHint, access: Access) -> StorageResult<()> {
        self.check_hint(hint)?;
        let frame = self.pool.get(rid.page)?;
        let (ok, key) = frame.with_write_access(access, |page| {
            let deleted = SlottedPage::delete(page, rid.slot);
            let key = match self.policy {
                PlacementPolicy::Regular => HintKey::Global,
                PlacementPolicy::PartitionOwned => {
                    HintKey::Partition(SlottedPage::partition_owner(page))
                }
                PlacementPolicy::LeafOwned => HintKey::Leaf(SlottedPage::owner_leaf(page)),
            };
            (deleted, key)
        });
        if ok {
            self.fsm.register(key, rid.page);
            Ok(())
        } else {
            Err(StorageError::RecordNotFound(rid))
        }
    }

    /// Scan every live record in the file, invoking `f(rid, bytes)`.
    ///
    /// The scan visits pages in allocation order; with `Access::Latched` each
    /// page is share-latched for the duration of its visit.
    pub fn scan(&self, access: Access, mut f: impl FnMut(Rid, &[u8])) -> StorageResult<usize> {
        let pages = self.page_ids();
        let mut visited = 0;
        for id in pages {
            let frame = self.pool.get(id)?;
            frame.with_read_access(access, |page| {
                for (slot, bytes) in SlottedPage::iter(page) {
                    f(Rid::new(id, slot), bytes);
                    visited += 1;
                }
            });
        }
        Ok(visited)
    }

    /// Total live records across the file (test/verification helper).
    pub fn live_records(&self) -> usize {
        let mut n = 0;
        for id in self.page_ids() {
            if let Ok(frame) = self.pool.get(id) {
                n += frame.with_page(SlottedPage::live_records);
            }
        }
        n
    }

    /// Buffer pool this file allocates from.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("policy", &self.policy)
            .field("pages", &self.page_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::OwnerToken;

    fn heap(policy: PlacementPolicy) -> HeapFile {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        HeapFile::new(pool, policy)
    }

    #[test]
    fn insert_get_update_delete_latched() {
        let h = heap(PlacementPolicy::Regular);
        let rid = h
            .insert(b"record-1", PlacementHint::None, Access::Latched)
            .unwrap();
        assert_eq!(h.get(rid, Access::Latched).unwrap(), b"record-1");
        h.update(rid, b"record-2", Access::Latched).unwrap();
        assert_eq!(h.get(rid, Access::Latched).unwrap(), b"record-2");
        h.update_with(rid, Access::Latched, |r| r[0] = b'X')
            .unwrap();
        assert_eq!(h.get(rid, Access::Latched).unwrap()[0], b'X');
        h.delete(rid, PlacementHint::None, Access::Latched).unwrap();
        assert!(h.get(rid, Access::Latched).is_err());
        assert_eq!(h.live_records(), 0);
    }

    #[test]
    fn hint_policy_mismatch_rejected() {
        let h = heap(PlacementPolicy::Regular);
        assert!(h
            .insert(b"x", PlacementHint::Partition(1), Access::Latched)
            .is_err());
        let h = heap(PlacementPolicy::PartitionOwned);
        assert!(h
            .insert(b"x", PlacementHint::None, Access::Latched)
            .is_err());
        let h = heap(PlacementPolicy::LeafOwned);
        assert!(h
            .insert(b"x", PlacementHint::Partition(2), Access::Latched)
            .is_err());
    }

    #[test]
    fn records_spill_to_new_pages() {
        let h = heap(PlacementPolicy::Regular);
        let rec = vec![9u8; 2000];
        for _ in 0..20 {
            h.insert(&rec, PlacementHint::None, Access::Latched)
                .unwrap();
        }
        // 2000-byte records, ~4 per page -> at least 5 pages.
        assert!(h.page_count() >= 5, "pages = {}", h.page_count());
        assert_eq!(h.live_records(), 20);
    }

    #[test]
    fn partition_placement_separates_pages() {
        let h = heap(PlacementPolicy::PartitionOwned);
        let rec = vec![1u8; 100];
        let rid_a = h
            .insert(&rec, PlacementHint::Partition(1), Access::Latched)
            .unwrap();
        let rid_b = h
            .insert(&rec, PlacementHint::Partition(2), Access::Latched)
            .unwrap();
        // Different partitions never share a page.
        assert_ne!(rid_a.page, rid_b.page);
        let rid_a2 = h
            .insert(&rec, PlacementHint::Partition(1), Access::Latched)
            .unwrap();
        assert_eq!(rid_a.page, rid_a2.page);
    }

    #[test]
    fn leaf_placement_separates_pages() {
        let h = heap(PlacementPolicy::LeafOwned);
        let rec = vec![2u8; 64];
        let a = h
            .insert(&rec, PlacementHint::Leaf(PageId(100)), Access::Latched)
            .unwrap();
        let b = h
            .insert(&rec, PlacementHint::Leaf(PageId(200)), Access::Latched)
            .unwrap();
        assert_ne!(a.page, b.page);
    }

    #[test]
    fn owned_access_path() {
        let h = heap(PlacementPolicy::PartitionOwned);
        let token = OwnerToken(5);
        let rid = h
            .insert(b"owned", PlacementHint::Partition(3), Access::Owned(token))
            .unwrap();
        assert_eq!(h.get(rid, Access::Owned(token)).unwrap(), b"owned");
        let snap = h.stats().snapshot();
        // Heap page accesses were latch-free; only the catalog/space anchor was latched.
        assert_eq!(snap.latches.acquired(PageKind::Heap), 0);
        assert!(snap.latches.bypassed(PageKind::Heap) >= 2);
        assert!(snap.latches.acquired(PageKind::CatalogSpace) > 0);
    }

    #[test]
    fn scan_visits_all_records() {
        let h = heap(PlacementPolicy::Regular);
        let mut rids = Vec::new();
        for i in 0..50u32 {
            let rec = i.to_le_bytes();
            rids.push(
                h.insert(&rec, PlacementHint::None, Access::Latched)
                    .unwrap(),
            );
        }
        h.delete(rids[10], PlacementHint::None, Access::Latched)
            .unwrap();
        let mut seen = Vec::new();
        let n = h
            .scan(Access::Latched, |_rid, bytes| {
                seen.push(u32::from_le_bytes(bytes.try_into().unwrap()));
            })
            .unwrap();
        assert_eq!(n, 49);
        assert!(!seen.contains(&10));
        assert!(seen.contains(&49));
    }

    #[test]
    fn oversized_record_rejected() {
        let h = heap(PlacementPolicy::Regular);
        let r = vec![0u8; MAX_RECORD_SIZE + 1];
        assert!(matches!(
            h.insert(&r, PlacementHint::None, Access::Latched),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn deleted_space_is_reused() {
        let h = heap(PlacementPolicy::Regular);
        let rec = vec![3u8; 500];
        let rid = h
            .insert(&rec, PlacementHint::None, Access::Latched)
            .unwrap();
        let pages_before = h.page_count();
        h.delete(rid, PlacementHint::None, Access::Latched).unwrap();
        let rid2 = h
            .insert(&rec, PlacementHint::None, Access::Latched)
            .unwrap();
        assert_eq!(rid2.page, rid.page);
        assert_eq!(h.page_count(), pages_before);
    }
}
