//! Lockable resource identifiers, the inline list a transaction keeps them
//! in, and the hasher the lock tables key them with.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;

/// A lockable resource in the database → table → key hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockId {
    /// The whole database.
    Database,
    /// One table.
    Table(u32),
    /// One key value within a table (key-value locking à la ARIES/KVL).
    Key(u32, u64),
}

impl LockId {
    /// The parent resource in the hierarchy (None for the database root).
    pub fn parent(self) -> Option<LockId> {
        match self {
            LockId::Database => None,
            LockId::Table(_) => Some(LockId::Database),
            LockId::Key(table, _) => Some(LockId::Table(table)),
        }
    }

    pub fn table(self) -> Option<u32> {
        match self {
            LockId::Database => None,
            LockId::Table(t) | LockId::Key(t, _) => Some(t),
        }
    }
}

/// How many ids a [`LockList`] holds before it spills onto the heap.
const INLINE: usize = 16;

/// Lock ids in the order they were pushed: the first sixteen live inline,
/// so a transaction's lock list and one hierarchical request's ids cost no
/// allocation; a longer list moves into a `Vec`.
#[derive(Debug, Clone)]
pub struct LockList {
    inline: [LockId; INLINE],
    len: usize,
    /// Every id once `len > INLINE`, empty before.
    spill: Vec<LockId>,
}

impl Default for LockList {
    fn default() -> Self {
        Self {
            inline: [LockId::Database; INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl LockList {
    pub fn push(&mut self, id: LockId) {
        if self.len < INLINE {
            self.inline[self.len] = id;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(id);
        }
        self.len += 1;
    }
}

impl Deref for LockList {
    type Target = [LockId];

    fn deref(&self) -> &[LockId] {
        if self.len <= INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// A multiply-rotate hasher (the `FxHash` step) for the lock tables' maps:
/// a [`LockId`] is at most three machine words, which SipHash would spend
/// most of a lock request's time on.  Keys come from requests, so a client
/// can craft colliding ones; but an entry lives only while its lock is held,
/// so a collision chain is no longer than the locks held at once.
#[derive(Debug, Default)]
pub(crate) struct MixHasher(u64);

/// The maps' `BuildHasher`.
pub(crate) type BuildMixHasher = BuildHasherDefault<MixHasher>;

impl MixHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockId::Database => write!(f, "db"),
            LockId::Table(t) => write!(f, "table({t})"),
            LockId::Key(t, k) => write!(f, "key({t},{k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy() {
        let k = LockId::Key(3, 77);
        assert_eq!(k.parent(), Some(LockId::Table(3)));
        assert_eq!(LockId::Table(3).parent(), Some(LockId::Database));
        assert_eq!(LockId::Database.parent(), None);
    }

    #[test]
    fn lock_list_spills_past_its_inline_ids_in_order() {
        let mut list = LockList::default();
        assert!(list.is_empty());
        let ids: Vec<LockId> = (0..INLINE as u64 + 3).map(|k| LockId::Key(1, k)).collect();
        for (n, &id) in ids.iter().enumerate() {
            list.push(id);
            assert_eq!(&*list, &ids[..=n]);
        }
    }

    #[test]
    fn accessors_and_display() {
        assert_eq!(LockId::Key(1, 2).table(), Some(1));
        assert_eq!(LockId::Database.table(), None);
        assert_eq!(LockId::Key(1, 2).to_string(), "key(1,2)");
        assert_eq!(LockId::Table(9).to_string(), "table(9)");
        assert_eq!(LockId::Database.to_string(), "db");
    }
}
