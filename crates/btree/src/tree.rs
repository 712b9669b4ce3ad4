//! A page-resident B+Tree with ARIES/KVL-style SMO serialization.
//!
//! Design notes:
//!
//! * The **root page is fixed**: it never relocates, so external references
//!   (the MRBTree partition table, the catalog) stay valid across splits.
//!   When the root overflows, its contents move into two fresh children and
//!   the root becomes an interior node one level higher.
//! * **Probes** descend level by level without holding parent latches across
//!   child fetches (interior pages are only modified by SMOs, which are
//!   serialised; a probe that races with a leaf split recovers by following
//!   the leaf chain to the right, the standard "move right" rule).
//! * **Inserts** are optimistic: descend, exclusively latch only the target
//!   leaf, insert if it fits.  If the leaf is full the insert falls back to the
//!   pessimistic path: acquire the per-tree **SMO mutex** (only one structure
//!   modification at a time, as in ARIES/KVL — the very restriction the
//!   MRBTree relaxes by giving each sub-tree its own mutex) and split pages
//!   bottom-up along the recorded root-to-leaf path.
//! * Every page access goes through [`Access`], so the identical code path
//!   runs latched (conventional, logical-only) or latch-free (PLP owner
//!   access).  Page-latch counts, contention and SMO waits all flow into the
//!   shared [`StatsRegistry`].
//! * Leaf underflow is tolerated (no leaf merging): deletes leave sparse
//!   leaves behind, which is the common engineering choice for OLTP trees and
//!   does not affect any experiment in the paper.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use plp_instrument::{CsCategory, PageKind, StatsRegistry};
use plp_storage::{Access, BufferPool, Frame, OwnerToken, PageId, StorageError};

use crate::node::NodeView;

/// Errors returned by B+Tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreeError {
    /// The key already exists (unique index).
    DuplicateKey(u64),
    /// Underlying storage error.
    Storage(StorageError),
}

impl From<StorageError> for BTreeError {
    fn from(e: StorageError) -> Self {
        BTreeError::Storage(e)
    }
}

impl std::fmt::Display for BTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreeError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            BTreeError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for BTreeError {}

/// A broken structural invariant, reported instead of asserted so a release
/// build fails the operation rather than writing through it.
fn corrupt(what: String) -> BTreeError {
    BTreeError::Storage(StorageError::Corrupt(what))
}

/// Information about one leaf split, reported to the caller so that
/// heap-placement invariants (PLP-Leaf) can be restored via the callback
/// mechanism described in Section 3.3 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSplitInfo {
    /// The leaf that overflowed.
    pub old_leaf: PageId,
    /// The newly allocated right sibling.
    pub new_leaf: PageId,
    /// Entries (key, value) that migrated from `old_leaf` to `new_leaf`.
    pub moved: Vec<(u64, u64)>,
}

/// Result of a successful insert.
#[derive(Debug, Clone)]
pub struct InsertOutcome {
    /// The leaf the key now lives on.
    pub leaf: PageId,
    /// Leaf split triggered by this insert, if any.
    pub leaf_split: Option<LeafSplitInfo>,
}

/// A B+Tree over pages of a [`BufferPool`].
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    max_entries: usize,
    smo_mutex: Mutex<()>,
    stats: Arc<StatsRegistry>,
}

impl BTree {
    /// Create an empty tree.  `max_entries` caps the node fan-out (useful for
    /// forcing multi-level trees in tests and experiments); it is clamped to
    /// the physical page capacity.
    pub fn create(pool: Arc<BufferPool>, max_entries: usize) -> Self {
        let stats = pool.stats().clone();
        let root_frame = pool.alloc(PageKind::Index);
        root_frame.with_page_mut(|p| NodeView::init(p, 0));
        Self {
            root: root_frame.id(),
            pool,
            max_entries: max_entries.clamp(4, crate::node::MAX_NODE_ENTRIES),
            smo_mutex: Mutex::new(()),
            stats,
        }
    }

    /// Wrap an existing root page as a `BTree` handle (used by the MRBTree
    /// when slice/meld create or re-root sub-trees).  The new handle gets its
    /// own SMO mutex, which is exactly the point: each sub-tree serialises its
    /// own structure modifications independently.
    pub fn attach(pool: Arc<BufferPool>, root: PageId, max_entries: usize) -> Self {
        let stats = pool.stats().clone();
        Self {
            root,
            pool,
            max_entries: max_entries.clamp(4, crate::node::MAX_NODE_ENTRIES),
            smo_mutex: Mutex::new(()),
            stats,
        }
    }

    pub fn root(&self) -> PageId {
        self.root
    }

    /// Right-most leaf of the tree.
    pub fn last_leaf(&self, access: Access) -> Result<PageId, BTreeError> {
        let mut current = self.frame(self.root)?;
        loop {
            let next = current.with_read_access(access, |page| {
                if NodeView::is_leaf(page) {
                    None
                } else if NodeView::entry_count(page) == 0 {
                    Some(NodeView::leftmost_child(page))
                } else {
                    Some(PageId(NodeView::value_at(
                        page,
                        NodeView::entry_count(page) - 1,
                    )))
                }
            });
            match next {
                None => return Ok(current.id()),
                Some(child) => current = self.frame(child)?,
            }
        }
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// Height of the tree in levels (1 = root is a leaf).
    pub fn height(&self) -> u16 {
        let root = self.pool.get(self.root).expect("root page");
        root.with_page(NodeView::level) + 1
    }

    fn frame(&self, id: PageId) -> Result<Arc<Frame>, BTreeError> {
        Ok(self.pool.get(id)?)
    }

    // ------------------------------------------------------------------
    // Descent
    // ------------------------------------------------------------------

    /// Descend from the root to the leaf that covers `key`, returning the leaf
    /// frame.  Interior nodes are read under `access`.
    fn descend(&self, key: u64, access: Access) -> Result<Arc<Frame>, BTreeError> {
        let mut current = self.frame(self.root)?;
        loop {
            let next = current.with_read_access(access, |page| {
                if NodeView::is_leaf(page) {
                    None
                } else {
                    Some(NodeView::child_for(page, key))
                }
            });
            match next {
                None => return Ok(current),
                Some(child) => current = self.frame(child)?,
            }
        }
    }

    /// Descend recording the full root-to-leaf path (used by the pessimistic
    /// split path, which runs under the SMO mutex).
    fn descend_with_path(&self, key: u64, access: Access) -> Result<Vec<Arc<Frame>>, BTreeError> {
        let mut path = Vec::with_capacity(4);
        let mut current = self.frame(self.root)?;
        loop {
            let next = current.with_read_access(access, |page| {
                if NodeView::is_leaf(page) {
                    None
                } else {
                    Some(NodeView::child_for(page, key))
                }
            });
            path.push(current.clone());
            match next {
                None => return Ok(path),
                Some(child) => current = self.frame(child)?,
            }
        }
    }

    /// Whether the latched `page` a descent arrived at is the leaf covering
    /// `key`: `Err(Some(next))` means move right, `Err(None)` restart the
    /// descent.
    ///
    /// The descent does not hold parent latches, so between reading a parent
    /// and latching the child a racing split may have moved the key range to
    /// a right sibling — each leaf carries a *high key* (exclusive upper
    /// bound, Blink-tree style), and a key outside it moves right along the
    /// leaf chain.  The split may also have grown the root, which re-inits
    /// the fixed root page in place as an interior node: a descent that
    /// stopped at the root-as-leaf finds an interior node here and starts
    /// over.  Both checks run *inside* the latched closure, so they cannot
    /// race with the split itself.
    fn covering_step(page: &plp_storage::Page, key: u64) -> Result<(), Option<PageId>> {
        if !NodeView::is_leaf(page) {
            return Err(None);
        }
        let next = NodeView::next_leaf(page);
        if !NodeView::covers(page, key) && next.is_valid() {
            Err(Some(next))
        } else {
            Ok(())
        }
    }

    /// Apply a read-only operation to the leaf that covers `key` (see
    /// [`Self::covering_step`] for how it copes with racing splits).
    fn with_covering_leaf_read<R>(
        &self,
        key: u64,
        access: Access,
        mut f: impl FnMut(&plp_storage::Page) -> R,
    ) -> Result<(PageId, R), BTreeError> {
        let mut leaf = self.descend(key, access)?;
        #[cfg(test)]
        tests::after_descent();
        loop {
            let out = leaf.with_read_access(access, |page| {
                Self::covering_step(page, key).map(|()| f(page))
            });
            match out {
                Ok(r) => return Ok((leaf.id(), r)),
                Err(Some(next)) => leaf = self.frame(next)?,
                Err(None) => leaf = self.descend(key, access)?,
            }
        }
    }

    /// Apply a mutating operation to the leaf that covers `key` (same
    /// protocol as [`Self::with_covering_leaf_read`]).
    fn with_covering_leaf_write<R>(
        &self,
        key: u64,
        access: Access,
        mut f: impl FnMut(&mut plp_storage::Page) -> R,
    ) -> Result<(PageId, R), BTreeError> {
        let mut leaf = self.descend(key, access)?;
        #[cfg(test)]
        tests::after_descent();
        loop {
            let out = leaf.with_write_access(access, |page| {
                Self::covering_step(page, key).map(|()| f(page))
            });
            match out {
                Ok(r) => return Ok((leaf.id(), r)),
                Err(Some(next)) => leaf = self.frame(next)?,
                Err(None) => leaf = self.descend(key, access)?,
            }
        }
    }

    /// The leaf page that covers `key`.
    pub fn locate_leaf(&self, key: u64, access: Access) -> Result<PageId, BTreeError> {
        let (id, _) = self.with_covering_leaf_read(key, access, |_| ())?;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Point operations
    // ------------------------------------------------------------------

    /// Look up `key`.
    pub fn probe(&self, key: u64, access: Access) -> Result<Option<u64>, BTreeError> {
        let (_, found) = self.with_covering_leaf_read(key, access, |page| {
            NodeView::search(page, key)
                .ok()
                .map(|i| NodeView::value_at(page, i))
        })?;
        Ok(found)
    }

    /// Update the value stored under `key`.  Returns `false` if absent.
    pub fn update_value(&self, key: u64, value: u64, access: Access) -> Result<bool, BTreeError> {
        let (_, updated) =
            self.with_covering_leaf_write(key, access, |page| match NodeView::search(page, key) {
                Ok(i) => {
                    NodeView::set_value_at(page, i, value);
                    true
                }
                Err(_) => false,
            })?;
        Ok(updated)
    }

    /// Delete `key`, returning its value if present.
    pub fn delete(&self, key: u64, access: Access) -> Result<Option<u64>, BTreeError> {
        let (_, removed) =
            self.with_covering_leaf_write(key, access, |page| NodeView::remove(page, key))?;
        Ok(removed)
    }

    /// Insert a unique key.
    pub fn insert(
        &self,
        key: u64,
        value: u64,
        access: Access,
    ) -> Result<InsertOutcome, BTreeError> {
        #[derive(Clone, Copy)]
        enum Attempt {
            Done,
            Duplicate,
            Full,
        }
        // Optimistic attempt: only the target leaf is touched for writing.
        let (leaf_id, attempt) = self.with_covering_leaf_write(key, access, |page| {
            if NodeView::search(page, key).is_ok() {
                Attempt::Duplicate
            } else if NodeView::insert(page, key, value, self.max_entries) {
                Attempt::Done
            } else {
                Attempt::Full
            }
        })?;
        match attempt {
            Attempt::Duplicate => return Err(BTreeError::DuplicateKey(key)),
            Attempt::Done => {
                return Ok(InsertOutcome {
                    leaf: leaf_id,
                    leaf_split: None,
                })
            }
            Attempt::Full => {}
        }
        // Pessimistic path: serialise with other SMOs on this (sub)tree.
        self.insert_with_split(key, value, access)
    }

    fn acquire_smo(&self) -> parking_lot::MutexGuard<'_, ()> {
        match self.smo_mutex.try_lock() {
            Some(g) => {
                self.stats.cs().enter(CsCategory::PageLatch, false);
                self.stats.smo_performed(0);
                g
            }
            None => {
                let start = Instant::now();
                let g = self.smo_mutex.lock();
                let waited = start.elapsed().as_nanos() as u64;
                self.stats.cs().enter(CsCategory::PageLatch, true);
                self.stats.smo_performed(waited);
                g
            }
        }
    }

    fn alloc_node(&self, level: u16, access: Access) -> Arc<Frame> {
        let frame = self.pool.alloc(PageKind::Index);
        frame.with_page_mut(|p| NodeView::init(p, level));
        if let Access::Owned(token) = access {
            frame.set_owner(token);
        }
        frame
    }

    fn insert_with_split(
        &self,
        key: u64,
        value: u64,
        access: Access,
    ) -> Result<InsertOutcome, BTreeError> {
        let _smo = self.acquire_smo();
        // Re-descend with the full path; interior nodes cannot change while we
        // hold the SMO mutex (only SMOs modify them), so the path's last node
        // is the covering leaf.
        let path = self.descend_with_path(key, access)?;
        let leaf = path.last().expect("non-empty path").clone();

        // Re-check: another thread's earlier split may have made room.
        enum Attempt {
            Done,
            Duplicate,
            Full,
            NotCovering,
        }
        let attempt = leaf.with_write_access(access, |page| {
            if !NodeView::is_leaf(page) || !NodeView::covers(page, key) {
                Attempt::NotCovering
            } else if NodeView::search(page, key).is_ok() {
                Attempt::Duplicate
            } else if NodeView::insert(page, key, value, self.max_entries) {
                Attempt::Done
            } else {
                Attempt::Full
            }
        });
        match attempt {
            Attempt::Duplicate => return Err(BTreeError::DuplicateKey(key)),
            Attempt::Done => {
                return Ok(InsertOutcome {
                    leaf: leaf.id(),
                    leaf_split: None,
                })
            }
            Attempt::NotCovering => {
                return Err(corrupt(format!(
                    "descent under the SMO mutex reached {}, not the leaf covering key {key}",
                    leaf.id()
                )))
            }
            Attempt::Full => {}
        }

        // Split the leaf. The pending key is placed inside the same
        // write-latched closure that performs the split: the SMO mutex only
        // excludes other *splits* — optimistic inserters still reach both
        // halves via the move-right protocol the moment the closure returns,
        // and could refill them before a separate key insert ran. Inside the
        // closure the old leaf is write-latched and the new leaf is not yet
        // reachable, so both halves provably have room.
        let new_leaf = self.alloc_node(0, access);
        let mut moved = Vec::new();
        let (separator, old_next, into_new, inserted) = leaf.with_write_access(access, |old| {
            let n = NodeView::entry_count(old);
            let split_at = n / 2;
            let separator = new_leaf.with_page_mut(|newp| {
                NodeView::move_upper_half(old, newp, split_at);
                moved = NodeView::entries(newp);
                // Wire the leaf chain and hand the upper key range (and high
                // key) over to the new right sibling.
                NodeView::set_prev_leaf(newp, leaf.id());
                NodeView::set_next_leaf(newp, NodeView::next_leaf(old));
                NodeView::set_high_key(newp, NodeView::high_key(old));
                moved[0].0
            });
            let old_next = NodeView::next_leaf(old);
            NodeView::set_next_leaf(old, new_leaf.id());
            NodeView::set_high_key(old, separator);
            let into_new = key >= separator;
            let inserted = if into_new {
                new_leaf.with_page_mut(|newp| NodeView::insert(newp, key, value, self.max_entries))
            } else {
                NodeView::insert(old, key, value, self.max_entries)
            };
            (separator, old_next, into_new, inserted)
        });
        if !inserted {
            return Err(corrupt(format!(
                "leaf {} has no room for key {key} after its split",
                leaf.id()
            )));
        }
        if old_next.is_valid() {
            let next_frame = self.frame(old_next)?;
            next_frame.with_write_access(access, |p| NodeView::set_prev_leaf(p, new_leaf.id()));
        }
        let split_info = LeafSplitInfo {
            old_leaf: leaf.id(),
            new_leaf: new_leaf.id(),
            moved: moved.clone(),
        };
        let target_id = if into_new { new_leaf.id() } else { leaf.id() };

        // Insert the separator into the ancestors, splitting upward as needed.
        self.insert_into_parent(&path, path.len() - 1, separator, new_leaf.id(), access)?;

        Ok(InsertOutcome {
            leaf: target_id,
            leaf_split: Some(split_info),
        })
    }

    /// Insert (separator, child) into the parent of `path[child_idx]`,
    /// splitting interior nodes and growing the root as necessary.
    fn insert_into_parent(
        &self,
        path: &[Arc<Frame>],
        child_idx: usize,
        separator: u64,
        new_child: PageId,
        access: Access,
    ) -> Result<(), BTreeError> {
        if child_idx == 0 {
            // The split child was the root: grow the tree in place.
            return self.grow_root(separator, new_child, access);
        }
        let parent = &path[child_idx - 1];
        let inserted = parent.with_write_access(access, |page| {
            NodeView::insert(page, separator, new_child.0, self.max_entries)
        });
        if inserted {
            return Ok(());
        }
        // Parent is full: split it, then retry into the proper half.
        let parent_level = parent.with_page(NodeView::level);
        let new_parent = self.alloc_node(parent_level, access);
        let push_up = parent.with_write_access(access, |old| {
            let n = NodeView::entry_count(old);
            let split_at = n / 2;
            new_parent.with_page_mut(|newp| {
                NodeView::move_upper_half(old, newp, split_at);
                // Interior split: the first key of the new node moves up as the
                // separator; its child becomes the new node's leftmost child.
                let (k, v) = NodeView::remove_at(newp, 0);
                NodeView::set_leftmost_child(newp, PageId(v));
                k
            })
        });
        // Route the pending separator into the correct half.
        let target = if separator >= push_up {
            &new_parent
        } else {
            parent
        };
        let ok = target.with_write_access(access, |page| {
            NodeView::insert(page, separator, new_child.0, self.max_entries)
        });
        if !ok {
            return Err(corrupt(format!(
                "interior node {} has no room for separator {separator} after its split",
                target.id()
            )));
        }
        // Recurse upward with the pushed-up separator.
        self.insert_into_parent(path, child_idx - 1, push_up, new_parent.id(), access)
    }

    /// Grow the tree when the (fixed) root splits: move the root's contents
    /// into a fresh left child, and make the root an interior node over the
    /// left child and `new_child`.
    fn grow_root(
        &self,
        separator: u64,
        new_child: PageId,
        access: Access,
    ) -> Result<(), BTreeError> {
        let root = self.frame(self.root)?;
        let root_level = root.with_page(NodeView::level);
        let left = self.alloc_node(root_level, access);
        root.with_write_access(access, |rootp| {
            left.with_page_mut(|leftp| {
                // Copy the root wholesale into the new left child.
                *leftp = rootp.clone();
            });
            NodeView::init(rootp, root_level + 1);
            NodeView::set_leftmost_child(rootp, left.id());
            NodeView::insert(rootp, separator, new_child.0, self.max_entries);
        });
        // If the old root was a leaf, the left child inherits its leaf links
        // (next = `new_child`, set by the split); the new right sibling's prev
        // pointer must be redirected to it.
        if root_level == 0 {
            let right = self.frame(new_child)?;
            right.with_write_access(access, |p| NodeView::set_prev_leaf(p, left.id()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scans and bulk operations
    // ------------------------------------------------------------------

    /// Left-most leaf of the tree.
    pub fn first_leaf(&self, access: Access) -> Result<PageId, BTreeError> {
        let mut current = self.frame(self.root)?;
        loop {
            let next = current.with_read_access(access, |page| {
                if NodeView::is_leaf(page) {
                    None
                } else {
                    Some(NodeView::leftmost_child(page))
                }
            });
            match next {
                None => return Ok(current.id()),
                Some(child) => current = self.frame(child)?,
            }
        }
    }

    /// Visit leaves in key order, starting at the one covering `lo`, until
    /// `visit` returns `false` or the chain ends.  The first leaf is located
    /// and read under one latch, so a root that grows in between cannot hand
    /// the walk an interior node.
    fn walk_leaves(
        &self,
        lo: u64,
        access: Access,
        mut visit: impl FnMut(&plp_storage::Page) -> bool,
    ) -> Result<(), BTreeError> {
        let mut step = |page: &plp_storage::Page| {
            if visit(page) {
                NodeView::next_leaf(page)
            } else {
                PageId::INVALID
            }
        };
        let (_, mut next) = self.with_covering_leaf_read(lo, access, &mut step)?;
        while next.is_valid() {
            next = self.frame(next)?.with_read_access(access, &mut step);
        }
        Ok(())
    }

    /// Collect all entries with `lo <= key <= hi`.
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        access: Access,
    ) -> Result<Vec<(u64, u64)>, BTreeError> {
        let mut out = Vec::new();
        self.walk_leaves(lo, access, |page| {
            for i in 0..NodeView::entry_count(page) {
                let k = NodeView::key_at(page, i);
                if k > hi {
                    return false;
                }
                if k >= lo {
                    out.push((k, NodeView::value_at(page, i)));
                }
            }
            true
        })?;
        Ok(out)
    }

    /// Visit every leaf entry in key order.
    pub fn for_each_entry(
        &self,
        access: Access,
        mut f: impl FnMut(u64, u64),
    ) -> Result<usize, BTreeError> {
        let mut count = 0;
        self.walk_leaves(0, access, |page| {
            for i in 0..NodeView::entry_count(page) {
                f(NodeView::key_at(page, i), NodeView::value_at(page, i));
                count += 1;
            }
            true
        })?;
        Ok(count)
    }

    /// Total number of entries (walks the leaf chain).
    pub fn entry_count(&self) -> usize {
        self.for_each_entry(Access::Latched, |_, _| {}).unwrap_or(0)
    }

    /// Page ids of every node in the tree (breadth-first), used for ownership
    /// assignment and space accounting.
    pub fn all_pages(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        let mut queue = vec![self.root];
        while let Some(id) = queue.pop() {
            out.push(id);
            if let Ok(frame) = self.pool.get(id) {
                frame.with_page(|page| {
                    if !NodeView::is_leaf(page) {
                        let lm = NodeView::leftmost_child(page);
                        if lm.is_valid() {
                            queue.push(lm);
                        }
                        for i in 0..NodeView::entry_count(page) {
                            queue.push(PageId(NodeView::value_at(page, i)));
                        }
                    }
                });
            }
        }
        out
    }

    /// Assign latch-free ownership of every page in this tree to `token`.
    pub fn assign_owner(&self, token: OwnerToken) {
        for id in self.all_pages() {
            if let Ok(frame) = self.pool.get(id) {
                frame.set_owner(token);
            }
        }
    }

    /// Return every page to the shared (latched) protocol.
    pub fn clear_owners(&self) {
        for id in self.all_pages() {
            if let Ok(frame) = self.pool.get(id) {
                frame.clear_owner();
            }
        }
    }

    /// Verify structural invariants: sorted nodes, consistent child ranges and
    /// an ordered, connected leaf chain.  Panics on violation (test helper).
    pub fn validate(&self) {
        self.validate_node(self.root, None, None);
        // Leaf chain is ordered.
        let mut leaf_id = self.first_leaf(Access::Latched).expect("first leaf");
        let mut last_key: Option<u64> = None;
        loop {
            let frame = self.pool.get(leaf_id).expect("leaf");
            let next = frame.with_page(|page| {
                assert!(NodeView::is_leaf(page), "leaf chain hit interior node");
                assert!(NodeView::is_sorted(page), "unsorted leaf {leaf_id}");
                if let Some(first) = NodeView::first_key(page) {
                    if let Some(last) = last_key {
                        assert!(first > last, "leaf chain out of order at {leaf_id}");
                    }
                }
                if let Some(l) = NodeView::last_key(page) {
                    last_key = Some(l);
                }
                NodeView::next_leaf(page)
            });
            if !next.is_valid() {
                break;
            }
            leaf_id = next;
        }
    }

    fn validate_node(&self, id: PageId, lo: Option<u64>, hi: Option<u64>) {
        let frame = self.pool.get(id).expect("node");
        let (is_leaf, entries, leftmost) = frame.with_page(|page| {
            assert!(NodeView::is_sorted(page), "unsorted node {id}");
            (
                NodeView::is_leaf(page),
                NodeView::entries(page),
                NodeView::leftmost_child(page),
            )
        });
        for (k, _) in &entries {
            if let Some(lo) = lo {
                assert!(*k >= lo, "key {k} below bound {lo} in {id}");
            }
            if let Some(hi) = hi {
                assert!(*k < hi, "key {k} above bound {hi} in {id}");
            }
        }
        if !is_leaf {
            assert!(leftmost.is_valid(), "interior {id} missing leftmost child");
            let mut bounds = Vec::new();
            bounds.push((leftmost, lo, entries.first().map(|(k, _)| *k)));
            for (i, (k, v)) in entries.iter().enumerate() {
                let upper = entries.get(i + 1).map(|(k2, _)| *k2).or(hi);
                bounds.push((PageId(*v), Some(*k), upper));
            }
            for (child, lo, hi) in bounds {
                self.validate_node(child, lo, hi);
            }
        }
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("root", &self.root)
            .field("height", &self.height())
            .field("max_entries", &self.max_entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::mpsc;

    thread_local! {
        /// One-shot pause point between a descent and the leaf latch, set per
        /// thread: the window in which a concurrent split can change the page
        /// the descent arrived at.
        static AFTER_DESCENT: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
    }

    /// Run (and clear) the calling thread's pause hook, if one is set.
    pub(super) fn after_descent() {
        if let Some(hook) = AFTER_DESCENT.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    fn tree(max_entries: usize) -> BTree {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        BTree::create(pool, max_entries)
    }

    /// A tree whose root is a full leaf (keys 0, 10, 20, 30 at the minimum
    /// fan-out of 4): the next insert splits it and grows the root in place.
    fn full_root_leaf() -> Arc<BTree> {
        let t = Arc::new(tree(4));
        for k in [0u64, 10, 20, 30] {
            t.insert(k, k, Access::Latched).unwrap();
        }
        assert_eq!(t.height(), 1);
        t
    }

    /// Run `op` on a thread that parks right after its descent reached the
    /// root-as-leaf, grow the root from this thread, then let `op` latch the
    /// page it descended to — which is now an interior node.
    fn race_root_grow<R: Send + 'static>(
        t: &Arc<BTree>,
        op: impl FnOnce(&BTree) -> R + Send + 'static,
    ) -> R {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let racer = {
            let t = t.clone();
            std::thread::spawn(move || {
                AFTER_DESCENT.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        parked_tx.send(()).unwrap();
                        go_rx.recv().unwrap();
                    }))
                });
                op(&t)
            })
        };
        parked_rx.recv().expect("racer descended");
        t.insert(100, 100, Access::Latched).unwrap();
        assert_eq!(t.height(), 2, "the root grew while the racer was parked");
        go_tx.send(()).unwrap();
        racer.join().expect("racer thread")
    }

    #[test]
    fn insert_racing_a_root_grow_lands_in_a_leaf() {
        let t = full_root_leaf();
        race_root_grow(&t, |t| t.insert(15, 15, Access::Latched)).expect("insert");
        t.validate();
        assert_eq!(t.probe(15, Access::Latched).unwrap(), Some(15));
        assert_eq!(t.entry_count(), 6);
    }

    #[test]
    fn probe_racing_a_root_grow_finds_the_key() {
        let t = full_root_leaf();
        let found = race_root_grow(&t, |t| t.probe(0, Access::Latched)).expect("probe");
        assert_eq!(found, Some(0));
        t.validate();
    }

    #[test]
    fn range_scan_racing_a_root_grow_sees_every_key() {
        let t = full_root_leaf();
        let hits = race_root_grow(&t, |t| t.range_scan(0, 30, Access::Latched)).expect("scan");
        let keys: Vec<u64> = hits.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![0, 10, 20, 30]);
    }

    #[test]
    fn empty_tree_probes_none() {
        let t = tree(8);
        assert_eq!(t.probe(42, Access::Latched).unwrap(), None);
        assert_eq!(t.height(), 1);
        assert_eq!(t.entry_count(), 0);
        assert_eq!(t.delete(42, Access::Latched).unwrap(), None);
        assert!(!t.update_value(42, 1, Access::Latched).unwrap());
    }

    #[test]
    fn insert_probe_roundtrip_small() {
        let t = tree(8);
        for k in 0..100u64 {
            t.insert(k, k * 2, Access::Latched).unwrap();
        }
        t.validate();
        for k in 0..100u64 {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k * 2), "key {k}");
        }
        assert_eq!(t.probe(1000, Access::Latched).unwrap(), None);
        assert_eq!(t.entry_count(), 100);
        assert!(
            t.height() >= 3,
            "fanout 8 with 100 keys must be multi-level"
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let t = tree(8);
        t.insert(5, 50, Access::Latched).unwrap();
        assert_eq!(
            t.insert(5, 51, Access::Latched).unwrap_err(),
            BTreeError::DuplicateKey(5)
        );
        assert_eq!(t.probe(5, Access::Latched).unwrap(), Some(50));
    }

    #[test]
    fn update_and_delete() {
        let t = tree(8);
        for k in 0..50u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        assert!(t.update_value(30, 999, Access::Latched).unwrap());
        assert_eq!(t.probe(30, Access::Latched).unwrap(), Some(999));
        assert_eq!(t.delete(30, Access::Latched).unwrap(), Some(999));
        assert_eq!(t.probe(30, Access::Latched).unwrap(), None);
        assert_eq!(t.delete(30, Access::Latched).unwrap(), None);
        assert_eq!(t.entry_count(), 49);
        t.validate();
    }

    #[test]
    fn descending_and_random_insert_orders() {
        let t = tree(6);
        for k in (0..200u64).rev() {
            t.insert(k, k + 1, Access::Latched).unwrap();
        }
        t.validate();
        for k in 0..200u64 {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k + 1));
        }

        let t = tree(6);
        // Deterministic pseudo-random permutation.
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 2654435761u64) % 10_000).collect();
        keys.sort();
        keys.dedup();
        let mut shuffled = keys.clone();
        shuffled.reverse();
        shuffled.rotate_left(keys.len() / 3);
        for &k in &shuffled {
            t.insert(k, k, Access::Latched).unwrap();
        }
        t.validate();
        for &k in &keys {
            assert_eq!(t.probe(k, Access::Latched).unwrap(), Some(k));
        }
    }

    #[test]
    fn range_scan_and_iteration() {
        let t = tree(8);
        for k in (0..100u64).map(|k| k * 10) {
            t.insert(k, k, Access::Latched).unwrap();
        }
        let hits = t.range_scan(250, 500, Access::Latched).unwrap();
        let keys: Vec<u64> = hits.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (25..=50).map(|k| k * 10).collect::<Vec<_>>());
        let mut seen = Vec::new();
        let n = t
            .for_each_entry(Access::Latched, |k, _| seen.push(k))
            .unwrap();
        assert_eq!(n, 100);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        // Empty range.
        assert!(t.range_scan(251, 255, Access::Latched).unwrap().is_empty());
    }

    #[test]
    fn leaf_split_info_reports_moved_entries() {
        let t = tree(4);
        let mut split_seen = false;
        for k in 0..20u64 {
            let out = t.insert(k, k, Access::Latched).unwrap();
            if let Some(split) = out.leaf_split {
                split_seen = true;
                assert!(!split.moved.is_empty());
                assert_ne!(split.old_leaf, split.new_leaf);
                // Every moved entry must now be reachable on the new leaf.
                for (mk, _) in &split.moved {
                    let leaf = t.locate_leaf(*mk, Access::Latched).unwrap();
                    assert_eq!(leaf, split.new_leaf);
                }
            }
        }
        assert!(split_seen);
    }

    #[test]
    fn smo_counter_increments_on_splits() {
        let t = tree(4);
        for k in 0..100u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        assert!(t.stats().smo_count() > 10);
    }

    #[test]
    fn owned_access_is_latch_free() {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let t = BTree::create(pool.clone(), 8);
        let token = OwnerToken(3);
        t.assign_owner(token);
        for k in 0..200u64 {
            t.insert(k, k, Access::Owned(token)).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(t.probe(k, Access::Owned(token)).unwrap(), Some(k));
        }
        // Snapshot before validate(): validation itself uses latched access.
        let snap = pool.stats().snapshot();
        assert_eq!(snap.latches.acquired(PageKind::Index), 0);
        assert!(snap.latches.bypassed(PageKind::Index) > 0);
        t.validate();
    }

    #[test]
    fn latched_access_counts_index_latches() {
        let t = tree(8);
        for k in 0..50u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        let snap = t.stats().snapshot();
        assert!(snap.latches.acquired(PageKind::Index) > 50);
        assert_eq!(snap.latches.bypassed(PageKind::Index), 0);
    }

    #[test]
    fn concurrent_latched_inserts_disjoint_ranges() {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let t = Arc::new(BTree::create(pool, 32));
        let mut handles = Vec::new();
        for thread in 0..8u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = thread * 10_000 + i;
                    t.insert(key, key, Access::Latched).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.validate();
        assert_eq!(t.entry_count(), 8 * 500);
        for thread in 0..8u64 {
            for i in (0..500u64).step_by(37) {
                let key = thread * 10_000 + i;
                assert_eq!(t.probe(key, Access::Latched).unwrap(), Some(key));
            }
        }
    }

    #[test]
    fn concurrent_mixed_read_write() {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let t = Arc::new(BTree::create(pool, 16));
        for k in 0..2_000u64 {
            t.insert(k * 2, k, Access::Latched).unwrap();
        }
        let mut handles = Vec::new();
        // Writers insert odd keys; readers probe even keys.
        for thread in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = 1 + 2 * (thread * 500 + i);
                    t.insert(key, key, Access::Latched).unwrap();
                }
            }));
        }
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..2_000u64 {
                    assert_eq!(t.probe(k * 2, Access::Latched).unwrap(), Some(k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.validate();
        assert_eq!(t.entry_count(), 2_000 + 4 * 500);
    }

    #[test]
    fn all_pages_and_ownership_assignment() {
        let t = tree(4);
        for k in 0..100u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        let pages = t.all_pages();
        assert!(pages.len() > 10);
        assert!(pages.contains(&t.root()));
        t.assign_owner(OwnerToken(7));
        for id in &pages {
            assert!(t.pool().get(*id).unwrap().is_owned_by(OwnerToken(7)));
        }
        t.clear_owners();
        assert!(!t.pool().get(pages[0]).unwrap().is_owned_by(OwnerToken(7)));
    }

    #[test]
    fn locate_leaf_matches_probe_location() {
        let t = tree(4);
        for k in 0..300u64 {
            t.insert(k, k, Access::Latched).unwrap();
        }
        for k in [0u64, 13, 144, 299] {
            let leaf = t.locate_leaf(k, Access::Latched).unwrap();
            let frame = t.pool().get(leaf).unwrap();
            let found = frame.with_page(|p| NodeView::search(p, k).is_ok());
            assert!(found, "key {k} not on located leaf");
        }
    }
}
