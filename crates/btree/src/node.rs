//! On-page layout of B+Tree nodes.
//!
//! Every node (interior or leaf) lives in one 8 KiB page:
//!
//! ```text
//! offset  size  field
//! 0       2     level (0 = leaf, counting up towards the root)
//! 2       2     number of entries
//! 4       12    prev leaf page id (leaf chain; INVALID for interior nodes)
//! 12      8     next leaf page id (leaf chain; INVALID for interior nodes)
//! 20      8     leftmost child page id (interior nodes only)
//! 28      8     reserved
//! 36      16*n  entries: (key u64, value u64), sorted by key
//! ```
//!
//! Interior-node semantics: the leftmost child covers keys `< key[0]`; the
//! child stored in entry `i` covers keys `>= key[i]` and `< key[i+1]`.
//! Leaf-node semantics: entry `i` maps `key[i]` to an opaque 8-byte value
//! (a packed RID for non-clustered indexes, or an application value).

use plp_storage::{Page, PageId, PAGE_SIZE};

/// Size of the fixed node header in bytes.
const NODE_HEADER_SIZE: usize = 36;
/// Size of one (key, value) entry in bytes.
pub const ENTRY_SIZE: usize = 16;
/// Hard capacity of a node given the page size.
pub const MAX_NODE_ENTRIES: usize = (PAGE_SIZE - NODE_HEADER_SIZE) / ENTRY_SIZE;

const OFF_LEVEL: usize = 0;
const OFF_NENTRIES: usize = 2;
const OFF_PREV: usize = 4;
const OFF_NEXT: usize = 12;
const OFF_LEFTMOST: usize = 20;
const OFF_HIGH_KEY: usize = 28;

/// Sentinel meaning "no upper bound" for a node's high key.
const NO_HIGH_KEY: u64 = u64::MAX;

/// Typed, stateless view over a [`Page`] holding a B+Tree node.
pub struct NodeView;

impl NodeView {
    /// Initialise a page as an empty node at `level`.
    pub fn init(page: &mut Page, level: u16) {
        page.write_u16(OFF_LEVEL, level);
        page.write_u16(OFF_NENTRIES, 0);
        page.write_page_id(OFF_PREV, PageId::INVALID);
        page.write_page_id(OFF_NEXT, PageId::INVALID);
        page.write_page_id(OFF_LEFTMOST, PageId::INVALID);
        page.write_u64(OFF_HIGH_KEY, NO_HIGH_KEY);
    }

    /// Exclusive upper bound of keys this leaf may hold (`NO_HIGH_KEY` means
    /// unbounded).  Used by probes/inserts to detect that a racing split moved
    /// their key range to the right sibling (Blink-tree style "move right").
    pub fn high_key(page: &Page) -> u64 {
        page.read_u64(OFF_HIGH_KEY)
    }

    pub fn set_high_key(page: &mut Page, key: u64) {
        page.write_u64(OFF_HIGH_KEY, key);
    }

    /// Whether `key` lies inside this node's key range upper bound.
    pub fn covers(page: &Page, key: u64) -> bool {
        key < Self::high_key(page)
    }

    pub fn level(page: &Page) -> u16 {
        page.read_u16(OFF_LEVEL)
    }

    pub fn is_leaf(page: &Page) -> bool {
        Self::level(page) == 0
    }

    pub fn entry_count(page: &Page) -> usize {
        page.read_u16(OFF_NENTRIES) as usize
    }

    fn set_entry_count(page: &mut Page, n: usize) {
        debug_assert!(n <= MAX_NODE_ENTRIES);
        page.write_u16(OFF_NENTRIES, n as u16);
    }

    pub fn prev_leaf(page: &Page) -> PageId {
        page.read_page_id(OFF_PREV)
    }

    pub fn set_prev_leaf(page: &mut Page, id: PageId) {
        page.write_page_id(OFF_PREV, id);
    }

    pub fn next_leaf(page: &Page) -> PageId {
        page.read_page_id(OFF_NEXT)
    }

    pub fn set_next_leaf(page: &mut Page, id: PageId) {
        page.write_page_id(OFF_NEXT, id);
    }

    pub fn leftmost_child(page: &Page) -> PageId {
        page.read_page_id(OFF_LEFTMOST)
    }

    pub fn set_leftmost_child(page: &mut Page, id: PageId) {
        page.write_page_id(OFF_LEFTMOST, id);
    }

    fn entry_offset(idx: usize) -> usize {
        NODE_HEADER_SIZE + idx * ENTRY_SIZE
    }

    pub fn key_at(page: &Page, idx: usize) -> u64 {
        debug_assert!(idx < Self::entry_count(page));
        page.read_u64(Self::entry_offset(idx))
    }

    pub fn value_at(page: &Page, idx: usize) -> u64 {
        debug_assert!(idx < Self::entry_count(page));
        page.read_u64(Self::entry_offset(idx) + 8)
    }

    pub fn set_value_at(page: &mut Page, idx: usize, value: u64) {
        debug_assert!(idx < Self::entry_count(page));
        page.write_u64(Self::entry_offset(idx) + 8, value);
    }

    fn write_entry(page: &mut Page, idx: usize, key: u64, value: u64) {
        let off = Self::entry_offset(idx);
        page.write_u64(off, key);
        page.write_u64(off + 8, value);
    }

    /// Binary search for `key`.  `Ok(idx)` if the key exists, `Err(idx)` with
    /// the insertion point otherwise.
    pub fn search(page: &Page, key: u64) -> Result<usize, usize> {
        let n = Self::entry_count(page);
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = Self::key_at(page, mid);
            if k == key {
                return Ok(mid);
            } else if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Err(lo)
    }

    /// For an interior node, the child page covering `key`.
    pub fn child_for(page: &Page, key: u64) -> PageId {
        debug_assert!(!Self::is_leaf(page));
        match Self::search(page, key) {
            Ok(idx) => PageId(Self::value_at(page, idx)),
            Err(0) => Self::leftmost_child(page),
            Err(idx) => PageId(Self::value_at(page, idx - 1)),
        }
    }

    /// Insert an entry keeping keys sorted.  Returns `false` if the node is at
    /// `max_entries` capacity (the caller must split first) or the key exists.
    pub fn insert(page: &mut Page, key: u64, value: u64, max_entries: usize) -> bool {
        let n = Self::entry_count(page);
        if n >= max_entries.min(MAX_NODE_ENTRIES) {
            return false;
        }
        let idx = match Self::search(page, key) {
            Ok(_) => return false,
            Err(idx) => idx,
        };
        // Shift entries [idx..n) one slot right.
        let src = Self::entry_offset(idx);
        let dst = src + ENTRY_SIZE;
        let len = (n - idx) * ENTRY_SIZE;
        page.bytes_mut().copy_within(src..src + len, dst);
        Self::write_entry(page, idx, key, value);
        Self::set_entry_count(page, n + 1);
        true
    }

    /// Remove the entry for `key`.  Returns its value if present.
    pub fn remove(page: &mut Page, key: u64) -> Option<u64> {
        let idx = Self::search(page, key).ok()?;
        let value = Self::value_at(page, idx);
        let n = Self::entry_count(page);
        let dst = Self::entry_offset(idx);
        let src = dst + ENTRY_SIZE;
        let len = (n - idx - 1) * ENTRY_SIZE;
        page.bytes_mut().copy_within(src..src + len, dst);
        Self::set_entry_count(page, n - 1);
        Some(value)
    }

    /// Remove the entry at a position, returning (key, value).
    pub fn remove_at(page: &mut Page, idx: usize) -> (u64, u64) {
        let n = Self::entry_count(page);
        debug_assert!(idx < n);
        let key = Self::key_at(page, idx);
        let value = Self::value_at(page, idx);
        let dst = Self::entry_offset(idx);
        let src = dst + ENTRY_SIZE;
        let len = (n - idx - 1) * ENTRY_SIZE;
        page.bytes_mut().copy_within(src..src + len, dst);
        Self::set_entry_count(page, n - 1);
        (key, value)
    }

    /// Append an entry whose key is known to be greater than every existing
    /// key (bulk-loading and meld fast path).  Returns `false` when full or
    /// out of order.
    pub fn append(page: &mut Page, key: u64, value: u64, max_entries: usize) -> bool {
        let n = Self::entry_count(page);
        if n >= max_entries.min(MAX_NODE_ENTRIES) {
            return false;
        }
        if n > 0 && Self::key_at(page, n - 1) >= key {
            return false;
        }
        Self::write_entry(page, n, key, value);
        Self::set_entry_count(page, n + 1);
        true
    }

    /// Move the entries from `from_idx` onward into `target` (which must be an
    /// empty node of the same level), returning how many moved.  Used by page
    /// splits and by the MRBTree slice operation.
    pub fn move_upper_half(page: &mut Page, target: &mut Page, from_idx: usize) -> usize {
        let n = Self::entry_count(page);
        debug_assert!(from_idx <= n);
        debug_assert_eq!(Self::entry_count(target), 0);
        let moved = n - from_idx;
        let src = Self::entry_offset(from_idx);
        let len = moved * ENTRY_SIZE;
        let dst = Self::entry_offset(0);
        target.bytes_mut()[dst..dst + len].copy_from_slice(&page.bytes()[src..src + len]);
        Self::set_entry_count(target, moved);
        Self::set_entry_count(page, from_idx);
        moved
    }

    /// All entries as (key, value) pairs (diagnostics, repartitioning, tests).
    pub fn entries(page: &Page) -> Vec<(u64, u64)> {
        (0..Self::entry_count(page))
            .map(|i| (Self::key_at(page, i), Self::value_at(page, i)))
            .collect()
    }

    /// First key on the node (`None` when empty).
    pub fn first_key(page: &Page) -> Option<u64> {
        if Self::entry_count(page) == 0 {
            None
        } else {
            Some(Self::key_at(page, 0))
        }
    }

    /// Last key on the node (`None` when empty).
    pub fn last_key(page: &Page) -> Option<u64> {
        let n = Self::entry_count(page);
        if n == 0 {
            None
        } else {
            Some(Self::key_at(page, n - 1))
        }
    }

    /// Verify intra-node ordering (test helper).
    pub fn is_sorted(page: &Page) -> bool {
        let n = Self::entry_count(page);
        (1..n).all(|i| Self::key_at(page, i - 1) < Self::key_at(page, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> Page {
        let mut p = Page::new();
        NodeView::init(&mut p, 0);
        p
    }

    #[test]
    fn init_and_header_fields() {
        let mut p = Page::new();
        NodeView::init(&mut p, 2);
        assert_eq!(NodeView::level(&p), 2);
        assert!(!NodeView::is_leaf(&p));
        assert_eq!(NodeView::entry_count(&p), 0);
        assert_eq!(NodeView::next_leaf(&p), PageId::INVALID);
        NodeView::set_next_leaf(&mut p, PageId(5));
        NodeView::set_prev_leaf(&mut p, PageId(4));
        NodeView::set_leftmost_child(&mut p, PageId(3));
        assert_eq!(NodeView::next_leaf(&p), PageId(5));
        assert_eq!(NodeView::prev_leaf(&p), PageId(4));
        assert_eq!(NodeView::leftmost_child(&p), PageId(3));
    }

    #[test]
    fn sorted_insert_and_search() {
        let mut p = leaf();
        for key in [50u64, 10, 30, 20, 40] {
            assert!(NodeView::insert(&mut p, key, key * 100, 16));
        }
        assert!(NodeView::is_sorted(&p));
        assert_eq!(NodeView::entry_count(&p), 5);
        assert_eq!(NodeView::search(&p, 30), Ok(2));
        assert_eq!(NodeView::search(&p, 35), Err(3));
        assert_eq!(NodeView::search(&p, 5), Err(0));
        assert_eq!(NodeView::search(&p, 99), Err(5));
        assert_eq!(NodeView::value_at(&p, 2), 3000);
        assert_eq!(NodeView::first_key(&p), Some(10));
        assert_eq!(NodeView::last_key(&p), Some(50));
    }

    #[test]
    fn duplicate_and_capacity_rejection() {
        let mut p = leaf();
        assert!(NodeView::insert(&mut p, 1, 1, 4));
        assert!(!NodeView::insert(&mut p, 1, 2, 4));
        for k in 2..=4u64 {
            assert!(NodeView::insert(&mut p, k, k, 4));
        }
        assert!(!NodeView::insert(&mut p, 9, 9, 4));
        assert_eq!(NodeView::entry_count(&p), 4);
    }

    #[test]
    fn remove_shifts_entries() {
        let mut p = leaf();
        for k in 1..=5u64 {
            NodeView::insert(&mut p, k, k * 10, 16);
        }
        assert_eq!(NodeView::remove(&mut p, 3), Some(30));
        assert_eq!(NodeView::remove(&mut p, 3), None);
        assert_eq!(NodeView::entry_count(&p), 4);
        assert!(NodeView::is_sorted(&p));
        assert_eq!(
            NodeView::entries(&p),
            vec![(1, 10), (2, 20), (4, 40), (5, 50)]
        );
        let (k, v) = NodeView::remove_at(&mut p, 0);
        assert_eq!((k, v), (1, 10));
        assert_eq!(NodeView::entry_count(&p), 3);
    }

    #[test]
    fn child_routing() {
        let mut p = Page::new();
        NodeView::init(&mut p, 1);
        NodeView::set_leftmost_child(&mut p, PageId(100));
        NodeView::insert(&mut p, 10, 101, 16);
        NodeView::insert(&mut p, 20, 102, 16);
        assert_eq!(NodeView::child_for(&p, 5), PageId(100));
        assert_eq!(NodeView::child_for(&p, 10), PageId(101));
        assert_eq!(NodeView::child_for(&p, 15), PageId(101));
        assert_eq!(NodeView::child_for(&p, 20), PageId(102));
        assert_eq!(NodeView::child_for(&p, 2000), PageId(102));
    }

    #[test]
    fn move_upper_half_splits_entries() {
        let mut p = leaf();
        for k in 1..=10u64 {
            NodeView::insert(&mut p, k, k, 32);
        }
        let mut q = Page::new();
        NodeView::init(&mut q, 0);
        let moved = NodeView::move_upper_half(&mut p, &mut q, 5);
        assert_eq!(moved, 5);
        assert_eq!(NodeView::entry_count(&p), 5);
        assert_eq!(NodeView::entry_count(&q), 5);
        assert_eq!(NodeView::last_key(&p), Some(5));
        assert_eq!(NodeView::first_key(&q), Some(6));
        assert!(NodeView::is_sorted(&p) && NodeView::is_sorted(&q));
    }

    #[test]
    fn append_fast_path() {
        let mut p = leaf();
        assert!(NodeView::append(&mut p, 1, 10, 4));
        assert!(NodeView::append(&mut p, 2, 20, 4));
        assert!(!NodeView::append(&mut p, 2, 30, 4)); // out of order
        assert!(NodeView::append(&mut p, 5, 50, 4));
        assert!(NodeView::append(&mut p, 9, 90, 4));
        assert!(!NodeView::append(&mut p, 99, 990, 4)); // full
        assert!(NodeView::is_sorted(&p));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time fanout sanity check
    fn max_capacity_matches_page_size() {
        assert_eq!(
            MAX_NODE_ENTRIES,
            (PAGE_SIZE - NODE_HEADER_SIZE) / ENTRY_SIZE
        );
        assert!(MAX_NODE_ENTRIES >= 500);
        let mut p = leaf();
        for k in 0..MAX_NODE_ENTRIES as u64 {
            assert!(NodeView::insert(&mut p, k, k, MAX_NODE_ENTRIES));
        }
        assert!(!NodeView::insert(&mut p, u64::MAX, 0, MAX_NODE_ENTRIES));
        assert_eq!(NodeView::entry_count(&p), MAX_NODE_ENTRIES);
        assert_eq!(NodeView::last_key(&p), Some(MAX_NODE_ENTRIES as u64 - 1));
    }

    #[test]
    fn set_value_in_place() {
        let mut p = leaf();
        NodeView::insert(&mut p, 7, 70, 8);
        NodeView::set_value_at(&mut p, 0, 71);
        assert_eq!(NodeView::value_at(&p, 0), 71);
        assert_eq!(NodeView::key_at(&p, 0), 7);
    }
}
