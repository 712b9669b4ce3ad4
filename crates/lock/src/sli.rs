//! Speculative Lock Inheritance (SLI).
//!
//! SLI (Johnson, Pandis, Ailamaki, PVLDB 2009) lets an agent thread carry hot
//! locks across transaction boundaries: instead of releasing a hot lock at
//! commit and re-acquiring it microseconds later for the next transaction, the
//! agent keeps the lock "speculatively" and the next transaction inherits it
//! without visiting the centralized lock manager at all.
//!
//! The hottest locks by far are the *intention* locks on the database and on
//! each table — every transaction takes them, they are almost always mutually
//! compatible, and in the baseline system each costs a lock-manager critical
//! section.  This reproduction therefore inherits exactly those: a per-agent
//! [`AgentLockCache`] retains IS/IX locks across transactions, and requests
//! covered by a cached lock bypass the lock manager.  Key-value locks are
//! never inherited (they are not hot in the paper's workloads and inheriting
//! them would require an invalidation protocol).
//!
//! The simplification relative to full SLI — no de-inheritance when a
//! conflicting request shows up — is safe for the workloads in this repository
//! because nothing ever requests S/X table or database locks; the engine
//! asserts this invariant.

use std::collections::HashMap;

use plp_instrument::PhaseBreakdown;

use crate::key::{BuildMixHasher, LockId};
use crate::manager::{LockError, LockManager};
use crate::mode::LockMode;

/// Per-agent (per worker thread) cache of inherited locks.
#[derive(Debug, Default)]
pub struct AgentLockCache {
    /// Lock ids held speculatively by this agent, with the inherited mode.
    inherited: HashMap<LockId, LockMode, BuildMixHasher>,
    /// The "lock owner" transaction id under which inherited locks are
    /// registered in the central manager.  SLI transfers ownership of the lock
    /// head to the agent itself rather than any single transaction.
    agent_txn_id: u64,
    hits: u64,
    misses: u64,
}

impl AgentLockCache {
    /// `agent_txn_id` must be unique per agent and never collide with real
    /// transaction ids (the engine reserves a high id range for agents).
    pub fn new(agent_txn_id: u64) -> Self {
        Self {
            inherited: HashMap::default(),
            agent_txn_id,
            hits: 0,
            misses: 0,
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Acquire `id` in `mode` on behalf of transaction `txn`, using the cache
    /// for inheritable (intention) locks and the central `manager` otherwise.
    ///
    /// Returns the lock that was acquired centrally for the transaction and
    /// must be released by it at commit, if any (inherited locks are not —
    /// the agent keeps them).
    pub fn acquire(
        &mut self,
        manager: &LockManager,
        txn: u64,
        id: LockId,
        mode: LockMode,
        mut phases: Option<&mut PhaseBreakdown>,
    ) -> Result<Option<LockId>, LockError> {
        // Walk the hierarchy from the database down: ancestors take
        // intention locks, which are the inheritable ones.
        let parent = id.parent();
        for ancestor in [parent.and_then(LockId::parent), parent]
            .into_iter()
            .flatten()
        {
            let want = mode.intention();
            if self.covered(ancestor, want) {
                self.hits += 1;
                continue;
            }
            self.misses += 1;
            manager.acquire(self.agent_txn_id, ancestor, want, phases.as_deref_mut())?;
            let prev = self.inherited.get(&ancestor).copied();
            let combined = prev.map_or(want, |p| p.combine(want));
            self.inherited.insert(ancestor, combined);
        }
        // The leaf lock itself: inheritable only if it is an intention lock
        // (never the case for key locks, which our engines request).
        if mode.is_intention() {
            if !self.covered(id, mode) {
                self.misses += 1;
                manager.acquire(self.agent_txn_id, id, mode, phases)?;
                let prev = self.inherited.get(&id).copied();
                self.inherited
                    .insert(id, prev.map_or(mode, |p| p.combine(mode)));
            } else {
                self.hits += 1;
            }
            Ok(None)
        } else {
            manager.acquire(txn, id, mode, phases)?;
            Ok(Some(id))
        }
    }

    fn covered(&self, id: LockId, mode: LockMode) -> bool {
        self.inherited
            .get(&id)
            .is_some_and(|held| held.covers(mode))
    }

    /// Number of locks currently inherited by the agent.
    #[cfg(test)]
    fn inherited_count(&self) -> usize {
        self.inherited.len()
    }

    /// Drop every inherited lock back to the central manager (agent shutdown).
    pub fn release_inherited(&mut self, manager: &LockManager) {
        let ids: Vec<LockId> = self.inherited.keys().copied().collect();
        manager.release_all(self.agent_txn_id, &ids);
        self.inherited.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_instrument::{CsCategory, StatsRegistry};
    use std::sync::Arc;

    fn setup() -> (Arc<StatsRegistry>, LockManager, AgentLockCache) {
        let stats = StatsRegistry::new_shared();
        let mgr = LockManager::new(stats.clone());
        let cache = AgentLockCache::new(u64::MAX - 1);
        (stats, mgr, cache)
    }

    #[test]
    fn first_transaction_pays_then_next_inherits() {
        let (stats, mgr, mut cache) = setup();
        // Txn 1: full cost (db IX, table IX centrally; key X centrally).
        let rel = cache
            .acquire(&mgr, 1, LockId::Key(1, 10), LockMode::X, None)
            .unwrap();
        assert_eq!(rel, Some(LockId::Key(1, 10)));
        let after_first = stats.snapshot().cs.entries(CsCategory::LockMgr);
        assert_eq!(after_first, 3);
        mgr.release_all(1, rel.as_slice());

        // Txn 2 on the same table: intention locks are inherited, only the key
        // lock goes to the manager.
        let rel2 = cache
            .acquire(&mgr, 2, LockId::Key(1, 11), LockMode::X, None)
            .unwrap();
        assert_eq!(rel2, Some(LockId::Key(1, 11)));
        let after_second = stats.snapshot().cs.entries(CsCategory::LockMgr);
        // +1 release CS (release_all groups into one shard visit) +1 key acquire.
        assert!(
            after_second - after_first <= 2,
            "delta = {}",
            after_second - after_first
        );
        assert!(cache.hits() >= 2);
        assert_eq!(cache.inherited_count(), 2);
    }

    #[test]
    fn inherited_locks_do_not_block_other_intents() {
        let (_stats, mgr, mut cache) = setup();
        cache
            .acquire(&mgr, 1, LockId::Key(3, 1), LockMode::X, None)
            .unwrap();
        // Another agent (plain manager user) can still take IX on the table.
        assert!(mgr
            .acquire(500, LockId::Table(3), LockMode::IX, None)
            .is_ok());
    }

    #[test]
    fn intention_mode_escalation_in_cache() {
        let (_stats, mgr, mut cache) = setup();
        cache
            .acquire(&mgr, 1, LockId::Key(2, 1), LockMode::S, None)
            .unwrap();
        assert_eq!(cache.inherited_count(), 2); // db IS, table IS
        cache
            .acquire(&mgr, 2, LockId::Key(2, 2), LockMode::X, None)
            .unwrap();
        // Cache should now hold IX (covers IS) on both ancestors.
        assert!(cache.covered(LockId::Table(2), LockMode::IX));
        assert!(cache.covered(LockId::Table(2), LockMode::IS));
    }

    #[test]
    fn release_inherited_returns_locks() {
        let (_stats, mgr, mut cache) = setup();
        cache
            .acquire(&mgr, 1, LockId::Key(1, 1), LockMode::X, None)
            .unwrap();
        assert!(mgr.live_heads() >= 2);
        mgr.release_all(1, &[LockId::Key(1, 1)]);
        cache.release_inherited(&mgr);
        assert_eq!(cache.inherited_count(), 0);
        assert_eq!(mgr.live_heads(), 0);
    }

    #[test]
    fn direct_intention_requests_are_cached() {
        let (_stats, mgr, mut cache) = setup();
        let rel = cache
            .acquire(&mgr, 1, LockId::Table(9), LockMode::IS, None)
            .unwrap();
        assert_eq!(rel, None);
        let rel2 = cache
            .acquire(&mgr, 2, LockId::Table(9), LockMode::IS, None)
            .unwrap();
        assert_eq!(rel2, None);
        assert!(cache.hits() >= 1);
    }
}
