//! Slotted-page record layout for heap pages.
//!
//! Layout of the page byte array:
//!
//! ```text
//! offset  size  field
//! 0       2     number of slots (including deleted ones)
//! 2       2     free-space pointer: offset of the lowest byte used by record
//!               data (records grow downward from PAGE_SIZE)
//! 4       4     partition owner id (PLP-Partition placement) or 0
//! 8       8     owning leaf page id (PLP-Leaf placement) or INVALID
//! 16      4*n   slot directory: (offset u16, len u16) per slot; len 0 = free
//! ...           free space
//! ...PAGE_SIZE  record data, newest records at lower offsets
//! ```
//!
//! The layout intentionally mirrors the classic slotted page used by
//! Shore-MT: a slot directory growing from the header and record bytes
//! growing from the end of the page.  Deleted slots are reusable; record data
//! of deleted slots is reclaimed only by compaction.

use crate::page::{Page, PageId, PAGE_SIZE};

const OFF_NSLOTS: usize = 0;
const OFF_FREE_PTR: usize = 2;
const OFF_PARTITION: usize = 4;
const OFF_OWNER_LEAF: usize = 8;
const SLOT_DIR_START: usize = 16;
const SLOT_ENTRY_SIZE: usize = 4;

/// Maximum record payload that can ever fit in one page.
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - SLOT_DIR_START - SLOT_ENTRY_SIZE;

/// A typed view over a [`Page`] interpreted as a slotted heap page.
///
/// The view borrows the page mutably or immutably; it holds no state of its
/// own, so constructing it is free.
pub struct SlottedPage;

impl SlottedPage {
    /// Initialise an empty slotted page.
    pub fn init(page: &mut Page) {
        page.write_u16(OFF_NSLOTS, 0);
        page.write_u16(OFF_FREE_PTR, PAGE_SIZE as u16);
        page.write_u32(OFF_PARTITION, 0);
        page.write_page_id(OFF_OWNER_LEAF, PageId::INVALID);
    }

    fn slot_count(page: &Page) -> u16 {
        page.read_u16(OFF_NSLOTS)
    }

    fn free_ptr(page: &Page) -> usize {
        let v = page.read_u16(OFF_FREE_PTR) as usize;
        if v == 0 {
            PAGE_SIZE
        } else {
            v
        }
    }

    /// Partition owner id (PLP-Partition heap placement), 0 when unset.
    pub fn partition_owner(page: &Page) -> u32 {
        page.read_u32(OFF_PARTITION)
    }

    pub fn set_partition_owner(page: &mut Page, partition: u32) {
        page.write_u32(OFF_PARTITION, partition);
    }

    /// Owning MRBTree leaf (PLP-Leaf heap placement).
    pub fn owner_leaf(page: &Page) -> PageId {
        page.read_page_id(OFF_OWNER_LEAF)
    }

    pub fn set_owner_leaf(page: &mut Page, leaf: PageId) {
        page.write_page_id(OFF_OWNER_LEAF, leaf);
    }

    fn slot_entry_offset(slot: u16) -> usize {
        SLOT_DIR_START + slot as usize * SLOT_ENTRY_SIZE
    }

    fn slot(page: &Page, slot: u16) -> (usize, usize) {
        let off = Self::slot_entry_offset(slot);
        (page.read_u16(off) as usize, page.read_u16(off + 2) as usize)
    }

    fn set_slot(page: &mut Page, slot: u16, offset: usize, len: usize) {
        let off = Self::slot_entry_offset(slot);
        page.write_u16(off, offset as u16);
        page.write_u16(off + 2, len as u16);
    }

    /// Bytes of contiguous free space (between the slot directory and data).
    fn free_space(page: &Page) -> usize {
        let nslots = Self::slot_count(page) as usize;
        let dir_end = SLOT_DIR_START + nslots * SLOT_ENTRY_SIZE;
        Self::free_ptr(page).saturating_sub(dir_end)
    }

    /// Whether a record of `len` bytes can be inserted (possibly reusing a
    /// deleted slot, otherwise growing the directory by one entry).
    fn can_fit(page: &Page, len: usize) -> bool {
        if len > MAX_RECORD_SIZE {
            return false;
        }
        let reuse = Self::find_free_slot(page).is_some();
        let needed = len + if reuse { 0 } else { SLOT_ENTRY_SIZE };
        Self::free_space(page) >= needed
    }

    fn find_free_slot(page: &Page) -> Option<u16> {
        let n = Self::slot_count(page);
        (0..n).find(|&s| Self::slot(page, s).1 == 0)
    }

    /// Insert a record, returning the slot number, or `None` if it does not fit.
    pub fn insert(page: &mut Page, record: &[u8]) -> Option<u16> {
        if record.is_empty() || !Self::can_fit(page, record.len()) {
            return None;
        }
        let slot = match Self::find_free_slot(page) {
            Some(s) => s,
            None => {
                let s = Self::slot_count(page);
                page.write_u16(OFF_NSLOTS, s + 1);
                s
            }
        };
        let new_free = Self::free_ptr(page) - record.len();
        page.write_bytes(new_free, record);
        page.write_u16(OFF_FREE_PTR, new_free as u16);
        Self::set_slot(page, slot, new_free, record.len());
        Some(slot)
    }

    /// Read a record; `None` if the slot is out of range or deleted.
    pub fn get(page: &Page, slot: u16) -> Option<&[u8]> {
        if slot >= Self::slot_count(page) {
            return None;
        }
        let (off, len) = Self::slot(page, slot);
        if len == 0 {
            None
        } else {
            Some(page.read_bytes(off, len))
        }
    }

    /// Delete a record (the slot becomes reusable; data space is reclaimed by
    /// [`SlottedPage::compact`]).
    pub fn delete(page: &mut Page, slot: u16) -> bool {
        if slot >= Self::slot_count(page) {
            return false;
        }
        let (_, len) = Self::slot(page, slot);
        if len == 0 {
            return false;
        }
        Self::set_slot(page, slot, 0, 0);
        true
    }

    /// Update a record in place.  Only same-size updates are supported (all
    /// benchmark records in this reproduction are fixed-size); a differently
    /// sized payload returns `false`.
    pub fn update(page: &mut Page, slot: u16, record: &[u8]) -> bool {
        if slot >= Self::slot_count(page) {
            return false;
        }
        let (off, len) = Self::slot(page, slot);
        if len == 0 || len != record.len() {
            return false;
        }
        page.write_bytes(off, record);
        true
    }

    /// Apply a closure to a record's bytes in place.
    pub fn update_with(page: &mut Page, slot: u16, f: impl FnOnce(&mut [u8])) -> bool {
        if slot >= Self::slot_count(page) {
            return false;
        }
        let (off, len) = Self::slot(page, slot);
        if len == 0 {
            return false;
        }
        f(page.slice_mut(off, len));
        true
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(page: &Page) -> usize {
        let n = Self::slot_count(page);
        (0..n).filter(|&s| Self::slot(page, s).1 != 0).count()
    }

    /// Iterate over live (slot, bytes) pairs.
    pub fn iter<'p>(page: &'p Page) -> impl Iterator<Item = (u16, &'p [u8])> + 'p {
        let n = Self::slot_count(page);
        (0..n).filter_map(move |s| Self::get(page, s).map(|r| (s, r)))
    }

    /// Compact the page: rewrite live records contiguously at the end of the
    /// page, reclaiming space freed by deletions.  Slot numbers are preserved.
    pub fn compact(page: &mut Page) {
        let n = Self::slot_count(page);
        let live: Vec<(u16, Vec<u8>)> = (0..n)
            .filter_map(|s| Self::get(page, s).map(|r| (s, r.to_vec())))
            .collect();
        let mut free = PAGE_SIZE;
        // Clear all slots first.
        for s in 0..n {
            let (_, len) = Self::slot(page, s);
            if len != 0 {
                Self::set_slot(page, s, 0, 1); // temporarily non-zero; fixed below
            }
        }
        for (s, data) in &live {
            free -= data.len();
            page.write_bytes(free, data);
            Self::set_slot(page, *s, free, data.len());
        }
        page.write_u16(OFF_FREE_PTR, free as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Page {
        let mut p = Page::new();
        SlottedPage::init(&mut p);
        p
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = page();
        let s0 = SlottedPage::insert(&mut p, b"hello").unwrap();
        let s1 = SlottedPage::insert(&mut p, b"world!").unwrap();
        assert_eq!(SlottedPage::get(&p, s0).unwrap(), b"hello");
        assert_eq!(SlottedPage::get(&p, s1).unwrap(), b"world!");
        assert_eq!(SlottedPage::slot_count(&p), 2);
        assert_eq!(SlottedPage::live_records(&p), 2);
    }

    #[test]
    fn delete_and_slot_reuse() {
        let mut p = page();
        let s0 = SlottedPage::insert(&mut p, b"aaaa").unwrap();
        let _s1 = SlottedPage::insert(&mut p, b"bbbb").unwrap();
        assert!(SlottedPage::delete(&mut p, s0));
        assert!(SlottedPage::get(&p, s0).is_none());
        assert_eq!(SlottedPage::live_records(&p), 1);
        // Reinsert reuses the freed slot.
        let s2 = SlottedPage::insert(&mut p, b"cccc").unwrap();
        assert_eq!(s2, s0);
        assert_eq!(SlottedPage::slot_count(&p), 2);
        // Double delete fails.
        assert!(!SlottedPage::delete(&mut p, 99));
    }

    #[test]
    fn update_same_size_only() {
        let mut p = page();
        let s = SlottedPage::insert(&mut p, b"12345678").unwrap();
        assert!(SlottedPage::update(&mut p, s, b"abcdefgh"));
        assert_eq!(SlottedPage::get(&p, s).unwrap(), b"abcdefgh");
        assert!(!SlottedPage::update(&mut p, s, b"tooshort"[..4].as_ref()));
        assert!(SlottedPage::update_with(&mut p, s, |r| r[0] = b'Z'));
        assert_eq!(SlottedPage::get(&p, s).unwrap()[0], b'Z');
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = page();
        let rec = vec![7u8; 1000];
        let mut inserted = 0;
        while SlottedPage::insert(&mut p, &rec).is_some() {
            inserted += 1;
        }
        // 8 records of ~1004 bytes each fit into 8 KiB.
        assert!((7..=8).contains(&inserted), "inserted {inserted}");
        assert!(!SlottedPage::can_fit(&p, 1000));
        assert!(SlottedPage::can_fit(&p, 8));
    }

    #[test]
    fn rejects_oversized_and_empty() {
        let mut p = page();
        assert!(SlottedPage::insert(&mut p, &vec![0u8; PAGE_SIZE]).is_none());
        assert!(SlottedPage::insert(&mut p, b"").is_none());
    }

    #[test]
    fn compact_reclaims_space() {
        let mut p = page();
        let rec = vec![1u8; 1500];
        let mut slots = Vec::new();
        while let Some(s) = SlottedPage::insert(&mut p, &rec) {
            slots.push(s);
        }
        let full_free = SlottedPage::free_space(&p);
        // Delete every other record.
        for s in slots.iter().step_by(2) {
            SlottedPage::delete(&mut p, *s);
        }
        // Space is not reclaimed until compaction.
        assert_eq!(SlottedPage::free_space(&p), full_free);
        SlottedPage::compact(&mut p);
        assert!(SlottedPage::free_space(&p) > full_free + 1000);
        // Survivors keep their slots and data.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(SlottedPage::get(&p, *s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn placement_metadata() {
        let mut p = page();
        assert_eq!(SlottedPage::partition_owner(&p), 0);
        SlottedPage::set_partition_owner(&mut p, 42);
        assert_eq!(SlottedPage::partition_owner(&p), 42);
        assert_eq!(SlottedPage::owner_leaf(&p), PageId::INVALID);
        SlottedPage::set_owner_leaf(&mut p, PageId(9));
        assert_eq!(SlottedPage::owner_leaf(&p), PageId(9));
    }

    #[test]
    fn iterator_skips_deleted() {
        let mut p = page();
        let s0 = SlottedPage::insert(&mut p, b"one").unwrap();
        let _s1 = SlottedPage::insert(&mut p, b"two").unwrap();
        SlottedPage::delete(&mut p, s0);
        let items: Vec<_> = SlottedPage::iter(&p).collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].1, b"two");
    }
}
