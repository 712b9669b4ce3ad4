//! Lockable resource identifiers.

use std::fmt;

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

    /// Full ancestor chain from the database root down to (excluding) `self`.
    pub fn ancestors(self) -> Vec<LockId> {
        let mut chain = Vec::new();
        let mut cur = self.parent();
        while let Some(p) = cur {
            chain.push(p);
            cur = p.parent();
        }
        chain.reverse();
        chain
    }

    pub fn table(self) -> Option<u32> {
        match self {
            LockId::Database => None,
            LockId::Table(t) | LockId::Key(t, _) => Some(t),
        }
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
        assert_eq!(k.ancestors(), vec![LockId::Database, LockId::Table(3)]);
        assert_eq!(LockId::Database.ancestors(), vec![]);
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
