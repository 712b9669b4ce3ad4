//! Tables: primary index + heap file + optional secondary index.

use std::sync::Arc;

use plp_btree::tree::BTreeError;
use plp_btree::{BTree, InsertOutcome, MrbTree, PartitionId};
use plp_storage::{Access, BufferPool, HeapFile, PageId, PlacementHint, PlacementPolicy, Rid};

use crate::catalog::{IndexKind, TableSpec};
use crate::error::EngineError;

/// A table's primary index: either one conventional B+Tree or an MRBTree.
pub(crate) enum PrimaryIndex {
    Single(BTree),
    Multi(MrbTree),
}

impl PrimaryIndex {
    pub fn probe(&self, key: u64, access: Access) -> Result<Option<u64>, BTreeError> {
        match self {
            PrimaryIndex::Single(t) => t.probe(key, access),
            PrimaryIndex::Multi(t) => t.probe(key, access),
        }
    }

    pub fn insert(
        &self,
        key: u64,
        value: u64,
        access: Access,
    ) -> Result<InsertOutcome, BTreeError> {
        match self {
            PrimaryIndex::Single(t) => t.insert(key, value, access),
            PrimaryIndex::Multi(t) => t.insert(key, value, access),
        }
    }

    pub fn update_value(&self, key: u64, value: u64, access: Access) -> Result<bool, BTreeError> {
        match self {
            PrimaryIndex::Single(t) => t.update_value(key, value, access),
            PrimaryIndex::Multi(t) => t.update_value(key, value, access),
        }
    }

    pub fn delete(&self, key: u64, access: Access) -> Result<Option<u64>, BTreeError> {
        match self {
            PrimaryIndex::Single(t) => t.delete(key, access),
            PrimaryIndex::Multi(t) => t.delete(key, access),
        }
    }

    pub fn locate_leaf(&self, key: u64, access: Access) -> Result<PageId, BTreeError> {
        match self {
            PrimaryIndex::Single(t) => t.locate_leaf(key, access),
            PrimaryIndex::Multi(t) => t.locate_leaf(key, access),
        }
    }

    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        access: Access,
    ) -> Result<Vec<(u64, u64)>, BTreeError> {
        match self {
            PrimaryIndex::Single(t) => t.range_scan(lo, hi, access),
            PrimaryIndex::Multi(t) => t.range_scan(lo, hi, access),
        }
    }

    pub fn entry_count(&self) -> usize {
        match self {
            PrimaryIndex::Single(t) => t.entry_count(),
            PrimaryIndex::Multi(t) => t.entry_count(),
        }
    }

    /// The MRBTree, if this index is multi-rooted.
    pub fn as_mrb(&self) -> Option<&MrbTree> {
        match self {
            PrimaryIndex::Single(_) => None,
            PrimaryIndex::Multi(t) => Some(t),
        }
    }
}

/// A table: spec, primary index on the 64-bit primary key (values are packed
/// RIDs into the heap file), the heap file itself, and an optional secondary
/// index mapping an alternate key to the primary key.
pub struct Table {
    spec: TableSpec,
    primary: PrimaryIndex,
    heap: HeapFile,
    secondary: Option<BTree>,
}

impl Table {
    pub fn create(
        pool: Arc<BufferPool>,
        spec: TableSpec,
        index_kind: IndexKind,
        fanout: usize,
        partitions: usize,
        placement: PlacementPolicy,
    ) -> Self {
        let primary = match index_kind {
            IndexKind::SingleBTree => PrimaryIndex::Single(BTree::create(pool.clone(), fanout)),
            IndexKind::MrbTree => PrimaryIndex::Multi(MrbTree::create(
                pool.clone(),
                fanout,
                &spec.partition_bounds(partitions),
            )),
        };
        let secondary = if spec.has_secondary {
            Some(BTree::create(pool.clone(), fanout))
        } else {
            None
        };
        let heap = HeapFile::new(pool, placement);
        Self {
            spec,
            primary,
            heap,
            secondary,
        }
    }

    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    pub(crate) fn primary(&self) -> &PrimaryIndex {
        &self.primary
    }

    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    pub fn secondary(&self) -> Option<&BTree> {
        self.secondary.as_ref()
    }

    /// The logical partition a key belongs to (0 for single-rooted indexes).
    pub fn partition_of(&self, key: u64) -> PartitionId {
        match &self.primary {
            PrimaryIndex::Single(_) => 0,
            PrimaryIndex::Multi(t) => t.partition_of(key),
        }
    }

    /// Compute the heap placement hint for a record with `key` under the
    /// table's placement policy.  For leaf-owned placement the covering index
    /// leaf must be located first (the callback of Section 3.3).
    fn placement_hint(&self, key: u64, access: Access) -> Result<PlacementHint, EngineError> {
        match self.heap.policy() {
            PlacementPolicy::Regular => Ok(PlacementHint::None),
            PlacementPolicy::PartitionOwned => Ok(PlacementHint::Partition(self.partition_of(key))),
            PlacementPolicy::LeafOwned => {
                let leaf = self
                    .primary
                    .locate_leaf(key, access)
                    .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
                Ok(PlacementHint::Leaf(leaf))
            }
        }
    }

    /// Read a record by primary key.  `access` governs index pages,
    /// `heap_access` governs heap pages (they differ under PLP-Regular).
    pub fn read(
        &self,
        key: u64,
        access: Access,
        heap_access: Access,
    ) -> Result<Option<Vec<u8>>, EngineError> {
        let rid = self
            .primary
            .probe(key, access)
            .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
        match rid {
            None => Ok(None),
            Some(packed) => {
                let rid = Rid::unpack(packed);
                Ok(Some(self.heap.get(rid, heap_access)?))
            }
        }
    }

    /// Insert a record; returns the heap RID, or a duplicate-key error.
    pub fn insert(
        &self,
        key: u64,
        record: &[u8],
        secondary_key: Option<u64>,
        access: Access,
        heap_access: Access,
    ) -> Result<Rid, EngineError> {
        // Identify the placement target before touching the heap (PLP-Leaf
        // callback ordering), then insert the record, then the index entry.
        let hint = self.placement_hint(key, access)?;
        let rid = self.heap.insert(record, hint, heap_access)?;
        let outcome = self.primary.insert(key, rid.pack(), access).map_err(|e| {
            // Undo the heap insert on duplicate key so the heap does not leak.
            let _ = self.heap.delete(rid, hint, heap_access);
            EngineError::from_btree(self.spec.id, e)
        })?;
        // Leaf-owned placement: a leaf split (or landing on a different leaf
        // than predicted) invalidates placement of the records involved;
        // relocate them so the "one leaf owns each heap page" invariant holds.
        if self.heap.policy() == PlacementPolicy::LeafOwned {
            if let Some(split) = &outcome.leaf_split {
                self.relocate_records_to_leaf(&split.moved, split.new_leaf, access, heap_access)?;
            }
            if let PlacementHint::Leaf(predicted) = hint {
                if outcome.leaf != predicted {
                    self.relocate_records_to_leaf(
                        &[(key, rid.pack())],
                        outcome.leaf,
                        access,
                        heap_access,
                    )?;
                }
            }
        }
        // Maintain the secondary index (conventional, latched access in every
        // design: it is not partition aligned).
        if let (Some(sec), Some(sk)) = (&self.secondary, secondary_key) {
            sec.insert(sk, key, Access::Latched)
                .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
        }
        // Under leaf-owned placement the relocation above may have moved our
        // own record; re-read the RID in that case only.
        if self.heap.policy() == PlacementPolicy::LeafOwned {
            let final_rid = self
                .primary
                .probe(key, access)
                .map_err(|e| EngineError::from_btree(self.spec.id, e))?
                .map(Rid::unpack)
                .unwrap_or(rid);
            Ok(final_rid)
        } else {
            Ok(rid)
        }
    }

    /// Move the records referenced by `entries` into heap pages owned by
    /// `new_leaf`, updating the primary index RIDs (the record-relocation
    /// callback of Section 3.3).  Also used by the partition manager when a
    /// slice/meld moves leaf entries between leaf pages.
    pub fn relocate_records_to_leaf(
        &self,
        entries: &[(u64, u64)],
        new_leaf: PageId,
        access: Access,
        heap_access: Access,
    ) -> Result<(), EngineError> {
        for &(k, packed) in entries {
            let old_rid = Rid::unpack(packed);
            if !old_rid.is_valid() {
                continue;
            }
            let Ok(record) = self.heap.get(old_rid, heap_access) else {
                continue;
            };
            let new_rid = self
                .heap
                .insert(&record, PlacementHint::Leaf(new_leaf), heap_access)?;
            self.heap
                .delete(old_rid, PlacementHint::Leaf(new_leaf), heap_access)
                .ok();
            self.primary
                .update_value(k, new_rid.pack(), access)
                .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
        }
        Ok(())
    }

    /// Update a record in place through a closure.  Returns `false` if the key
    /// does not exist.
    pub fn update_with(
        &self,
        key: u64,
        access: Access,
        heap_access: Access,
        f: impl FnOnce(&mut [u8]),
    ) -> Result<bool, EngineError> {
        let rid = self
            .primary
            .probe(key, access)
            .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
        match rid {
            None => Ok(false),
            Some(packed) => {
                self.heap.update_with(Rid::unpack(packed), heap_access, f)?;
                Ok(true)
            }
        }
    }

    /// Delete a record by primary key.  Returns `false` if absent.
    pub fn delete(
        &self,
        key: u64,
        secondary_key: Option<u64>,
        access: Access,
        heap_access: Access,
    ) -> Result<bool, EngineError> {
        let removed = self
            .primary
            .delete(key, access)
            .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
        match removed {
            None => Ok(false),
            Some(packed) => {
                let hint = match self.heap.policy() {
                    PlacementPolicy::Regular => PlacementHint::None,
                    PlacementPolicy::PartitionOwned => {
                        PlacementHint::Partition(self.partition_of(key))
                    }
                    PlacementPolicy::LeafOwned => PlacementHint::Leaf(Rid::unpack(packed).page),
                };
                self.heap.delete(Rid::unpack(packed), hint, heap_access)?;
                if let (Some(sec), Some(sk)) = (&self.secondary, secondary_key) {
                    sec.delete(sk, Access::Latched)
                        .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
                }
                Ok(true)
            }
        }
    }

    /// Probe the secondary index: alternate key → primary key.
    pub fn secondary_probe(&self, sec_key: u64) -> Result<Option<u64>, EngineError> {
        match &self.secondary {
            None => Ok(None),
            Some(sec) => sec
                .probe(sec_key, Access::Latched)
                .map_err(|e| EngineError::from_btree(self.spec.id, e)),
        }
    }

    /// Range scan on the primary index returning (key, record) pairs.
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        access: Access,
        heap_access: Access,
    ) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        let hits = self
            .primary
            .range_scan(lo, hi, access)
            .map_err(|e| EngineError::from_btree(self.spec.id, e))?;
        let mut out = Vec::with_capacity(hits.len());
        for (k, packed) in hits {
            out.push((k, self.heap.get(Rid::unpack(packed), heap_access)?));
        }
        Ok(out)
    }

    /// Number of live records (walks the primary index).
    pub fn record_count(&self) -> usize {
        self.primary.entry_count()
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.spec.name)
            .field("records", &self.record_count())
            .field("heap_pages", &self.heap.page_count())
            .finish()
    }
}
