//! Thread-local lock tables for the logically-partitioned designs.
//!
//! Under data-oriented execution (and therefore under PLP), each logical
//! partition is served by exactly one thread at a time, and the partition
//! manager routes every action touching a key range to its owning partition.
//! Isolation within the partition therefore does not need a shared lock
//! table: the partition keeps a *private* lock table, reachable only by the
//! thread currently acting for it, which costs no critical sections at all —
//! this is precisely why the "Logical" and "PLP" bars of Figure 1 have
//! (almost) no lock-manager component.
//!
//! The table still performs real conflict checking, because a multi-action
//! transaction may hold locks in several partitions while other transactions'
//! actions are queued behind it in the same worker.  Conflicts are resolved by
//! the caller (typically by deferring the action until the holder commits).

use std::collections::HashMap;

use crate::key::LockId;
use crate::mode::LockMode;

/// Outcome of a local lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalLockOutcome {
    Granted,
    AlreadyHeld,
    /// A different transaction holds an incompatible mode; the action must
    /// wait until that transaction finishes.
    Conflict {
        holder: u64,
    },
}

/// A lock table private to one partition.  No interior synchronization — the
/// thread acting for the partition (one at a time) is the only user.
#[derive(Debug, Default)]
pub struct LocalLockTable {
    heads: HashMap<LockId, Vec<(u64, LockMode)>>,
    acquisitions: u64,
}

impl LocalLockTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lock requests served (diagnostic; shows work happens even though
    /// no critical sections are entered).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Request `id` in `mode` for `txn`.
    pub fn acquire(&mut self, txn: u64, id: LockId, mode: LockMode) -> LocalLockOutcome {
        self.acquisitions += 1;
        let head = self.heads.entry(id).or_default();
        if let Some((_, held)) = head.iter().find(|(t, _)| *t == txn) {
            if held.covers(mode) {
                return LocalLockOutcome::AlreadyHeld;
            }
        }
        if let Some((holder, _)) = head
            .iter()
            .find(|(t, held)| *t != txn && !held.compatible(mode))
        {
            return LocalLockOutcome::Conflict { holder: *holder };
        }
        if let Some(entry) = head.iter_mut().find(|(t, _)| *t == txn) {
            entry.1 = entry.1.combine(mode);
        } else {
            head.push((txn, mode));
        }
        LocalLockOutcome::Granted
    }

    /// Release everything `txn` holds.
    pub fn release_all(&mut self, txn: u64) {
        self.heads.retain(|_, holders| {
            holders.retain(|(t, _)| *t != txn);
            !holders.is_empty()
        });
    }

    /// Locks currently held by any transaction (diagnostic helper).
    pub fn held_count(&self) -> usize {
        self.heads.values().map(|v| v.len()).sum()
    }

    pub fn held_mode(&self, txn: u64, id: LockId) -> Option<LockMode> {
        self.heads
            .get(&id)?
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_and_reentrancy() {
        let mut t = LocalLockTable::new();
        assert_eq!(
            t.acquire(1, LockId::Key(1, 5), LockMode::X),
            LocalLockOutcome::Granted
        );
        assert_eq!(
            t.acquire(1, LockId::Key(1, 5), LockMode::S),
            LocalLockOutcome::AlreadyHeld
        );
        assert_eq!(t.held_mode(1, LockId::Key(1, 5)), Some(LockMode::X));
        assert_eq!(t.acquisitions(), 2);
    }

    #[test]
    fn conflicts_are_reported_with_holder() {
        let mut t = LocalLockTable::new();
        t.acquire(1, LockId::Key(1, 5), LockMode::X);
        assert_eq!(
            t.acquire(2, LockId::Key(1, 5), LockMode::S),
            LocalLockOutcome::Conflict { holder: 1 }
        );
        // Compatible shares coexist.
        t.acquire(3, LockId::Key(1, 6), LockMode::S);
        assert_eq!(
            t.acquire(4, LockId::Key(1, 6), LockMode::S),
            LocalLockOutcome::Granted
        );
    }

    #[test]
    fn release_unblocks() {
        let mut t = LocalLockTable::new();
        t.acquire(1, LockId::Key(2, 9), LockMode::X);
        t.release_all(1);
        assert_eq!(
            t.acquire(2, LockId::Key(2, 9), LockMode::X),
            LocalLockOutcome::Granted
        );
        assert_eq!(t.held_count(), 1);
        t.release_all(2);
        assert_eq!(t.held_count(), 0);
    }

    #[test]
    fn mode_upgrade_when_sole_holder() {
        let mut t = LocalLockTable::new();
        t.acquire(1, LockId::Key(1, 1), LockMode::S);
        assert_eq!(
            t.acquire(1, LockId::Key(1, 1), LockMode::X),
            LocalLockOutcome::Granted
        );
        assert_eq!(t.held_mode(1, LockId::Key(1, 1)), Some(LockMode::X));
        // Upgrade blocked by another shared holder.
        let mut t = LocalLockTable::new();
        t.acquire(1, LockId::Key(1, 1), LockMode::S);
        t.acquire(2, LockId::Key(1, 1), LockMode::S);
        assert_eq!(
            t.acquire(1, LockId::Key(1, 1), LockMode::X),
            LocalLockOutcome::Conflict { holder: 2 }
        );
    }
}
