//! The centralized hierarchical lock manager.
//!
//! This is the structure whose critical sections dominate the conventional
//! bar of Figure 1.  Lock heads live in a sharded hash table; acquiring or
//! releasing any lock enters the owning shard's critical section (counted
//! under [`CsCategory::LockMgr`]).  Conflicting requests wait on the shard's
//! condition variable with a timeout (timeout-based deadlock resolution, as
//! is common for short OLTP transactions).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Condvar;
use plp_instrument::{CsCategory, InstrumentedMutex, PhaseBreakdown, StatsRegistry};

use crate::key::LockId;
use crate::mode::LockMode;

/// Errors returned by lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// The request waited longer than the deadlock timeout; the caller should
    /// abort the transaction.
    Timeout { id: LockId, mode: LockMode },
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Timeout { id, mode } => {
                write!(f, "lock timeout waiting for {id} in {mode:?}")
            }
        }
    }
}

impl std::error::Error for LockError {}

/// How an acquisition was satisfied (used by tests and the SLI layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockRequestOutcome {
    /// Granted immediately.
    Granted,
    /// Granted after waiting for conflicting holders.
    GrantedAfterWait,
    /// The transaction already held a covering mode; nothing to do.
    AlreadyHeld,
}

#[derive(Debug, Default)]
struct LockHead {
    /// (txn id, granted mode, reference count).
    granted: Vec<(u64, LockMode, u32)>,
}

impl LockHead {
    fn mode_of(&self, txn: u64) -> Option<LockMode> {
        self.granted
            .iter()
            .filter(|(t, _, _)| *t == txn)
            .map(|(_, m, _)| *m)
            .next()
    }

    fn compatible_for(&self, txn: u64, mode: LockMode) -> bool {
        self.granted
            .iter()
            .filter(|(t, _, _)| *t != txn)
            .all(|(_, m, _)| m.compatible(mode))
    }

    fn grant(&mut self, txn: u64, mode: LockMode) {
        if let Some(entry) = self.granted.iter_mut().find(|(t, _, _)| *t == txn) {
            entry.1 = entry.1.combine(mode);
            entry.2 += 1;
        } else {
            self.granted.push((txn, mode, 1));
        }
    }

    fn release(&mut self, txn: u64) -> bool {
        let before = self.granted.len();
        self.granted.retain(|(t, _, _)| *t != txn);
        self.granted.len() != before
    }

    fn is_free(&self) -> bool {
        self.granted.is_empty()
    }
}

struct Shard {
    heads: HashMap<LockId, LockHead>,
}

/// The centralized lock manager.
pub struct LockManager {
    shards: Vec<(InstrumentedMutex<Shard>, Condvar)>,
    timeout: Duration,
    stats: Arc<StatsRegistry>,
    /// Set once the engine has finished loading ([`Self::mark_loaded`]).
    /// The conventional designs admit transactions here, the structure
    /// every one of them goes through; nothing writes it afterwards.
    loaded: AtomicBool,
}

const N_SHARDS: usize = 64;

impl LockManager {
    pub fn new(stats: Arc<StatsRegistry>) -> Self {
        Self::with_timeout(stats, Duration::from_millis(100))
    }

    fn with_timeout(stats: Arc<StatsRegistry>, timeout: Duration) -> Self {
        Self {
            shards: (0..N_SHARDS)
                .map(|_| {
                    (
                        InstrumentedMutex::new(
                            Shard {
                                heads: HashMap::new(),
                            },
                            CsCategory::LockMgr,
                            stats.clone(),
                        ),
                        Condvar::new(),
                    )
                })
                .collect(),
            timeout,
            stats,
            loaded: AtomicBool::new(false),
        }
    }

    /// Record that loading has finished: [`Self::loaded`] is `true` from now
    /// on.
    pub fn mark_loaded(&self) {
        self.loaded.store(true, Ordering::SeqCst);
    }

    pub fn loaded(&self) -> bool {
        self.loaded.load(Ordering::SeqCst)
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    fn shard_of(&self, id: &LockId) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        id.hash(&mut h);
        (h.finish() as usize) % N_SHARDS
    }

    /// Acquire `id` in `mode` for transaction `txn`, taking intention locks on
    /// all ancestors first.  Returns the list of (id, outcome) pairs actually
    /// acquired in order, so the caller can record them for release.
    pub fn acquire_hierarchical(
        &self,
        txn: u64,
        id: LockId,
        mode: LockMode,
        mut phases: Option<&mut PhaseBreakdown>,
    ) -> Result<Vec<(LockId, LockRequestOutcome)>, LockError> {
        let mut acquired = Vec::new();
        for ancestor in id.ancestors() {
            let outcome = self.acquire(txn, ancestor, mode.intention(), phases.as_deref_mut())?;
            acquired.push((ancestor, outcome));
        }
        let outcome = self.acquire(txn, id, mode, phases)?;
        acquired.push((id, outcome));
        Ok(acquired)
    }

    /// Acquire a single lock (no hierarchy walk).  A request that has to wait
    /// records the wait in the `lock_wait` histogram and adds it to the
    /// requesting transaction's `phases`, when given.
    pub fn acquire(
        &self,
        txn: u64,
        id: LockId,
        mode: LockMode,
        phases: Option<&mut PhaseBreakdown>,
    ) -> Result<LockRequestOutcome, LockError> {
        let shard_idx = self.shard_of(&id);
        let (mutex, condvar) = &self.shards[shard_idx];
        // Taken at the first conflict, so an uncontended request reads no
        // clock; the deadline derives from it.
        let mut wait_start: Option<Instant> = None;

        let (mut shard, _) = mutex.lock();
        loop {
            let head = shard.heads.entry(id).or_default();
            if let Some(held) = head.mode_of(txn) {
                if held.covers(mode) {
                    // Re-entrant acquisition: bump the refcount so releases stay
                    // balanced, but report it as already held.
                    head.grant(txn, mode);
                    return Ok(LockRequestOutcome::AlreadyHeld);
                }
            }
            if head.compatible_for(txn, mode) {
                head.grant(txn, mode);
                return Ok(match wait_start {
                    Some(start) => {
                        self.record_wait(start, phases);
                        LockRequestOutcome::GrantedAfterWait
                    }
                    None => LockRequestOutcome::Granted,
                });
            }
            // Conflict: wait on the shard condvar.
            let start = *wait_start.get_or_insert_with(Instant::now);
            if condvar
                .wait_until(&mut shard, start + self.timeout)
                .timed_out()
            {
                self.record_wait(start, phases);
                return Err(LockError::Timeout { id, mode });
            }
        }
    }

    fn record_wait(&self, start: Instant, phases: Option<&mut PhaseBreakdown>) {
        let waited = start.elapsed();
        self.stats.latency().lock_wait.record_duration(waited);
        if let Some(phases) = phases {
            phases.lock_nanos = phases.lock_nanos.saturating_add(waited.as_nanos() as u64);
        }
    }

    /// Release every lock `txn` holds among `ids` (the transaction's lock
    /// list), waking any waiters.
    pub fn release_all(&self, txn: u64, ids: &[LockId]) {
        // Group by shard so each shard is entered exactly once.
        let mut by_shard: HashMap<usize, Vec<LockId>> = HashMap::new();
        for id in ids {
            by_shard.entry(self.shard_of(id)).or_default().push(*id);
        }
        for (shard_idx, ids) in by_shard {
            let (mutex, condvar) = &self.shards[shard_idx];
            let (mut shard, _) = mutex.lock();
            let mut released_any = false;
            for id in ids {
                let mut remove = false;
                if let Some(head) = shard.heads.get_mut(&id) {
                    released_any |= head.release(txn);
                    remove = head.is_free();
                }
                if remove {
                    shard.heads.remove(&id);
                }
            }
            if released_any {
                condvar.notify_all();
            }
        }
    }

    /// Mode currently held by `txn` on `id`, if any (diagnostic helper).
    pub fn held_mode(&self, txn: u64, id: LockId) -> Option<LockMode> {
        let (mutex, _) = &self.shards[self.shard_of(&id)];
        let shard = mutex.lock_uninstrumented();
        shard.heads.get(&id).and_then(|h| h.mode_of(txn))
    }

    /// Number of live lock heads (diagnostic helper).
    pub fn live_heads(&self) -> usize {
        self.shards
            .iter()
            .map(|(m, _)| m.lock_uninstrumented().heads.len())
            .sum()
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("live_heads", &self.live_heads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn mgr() -> LockManager {
        LockManager::with_timeout(StatsRegistry::new_shared(), Duration::from_millis(50))
    }

    #[test]
    fn grant_compatible_share_locks() {
        let m = mgr();
        assert_eq!(
            m.acquire(1, LockId::Key(1, 5), LockMode::S, None).unwrap(),
            LockRequestOutcome::Granted
        );
        assert_eq!(
            m.acquire(2, LockId::Key(1, 5), LockMode::S, None).unwrap(),
            LockRequestOutcome::Granted
        );
        assert_eq!(m.held_mode(1, LockId::Key(1, 5)), Some(LockMode::S));
    }

    #[test]
    fn conflicting_lock_times_out() {
        let m = mgr();
        m.acquire(1, LockId::Key(1, 5), LockMode::X, None).unwrap();
        let err = m
            .acquire(2, LockId::Key(1, 5), LockMode::X, None)
            .unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }));
    }

    #[test]
    fn waiter_is_woken_by_release() {
        let m = Arc::new(LockManager::with_timeout(
            StatsRegistry::new_shared(),
            Duration::from_secs(5),
        ));
        m.acquire(1, LockId::Key(1, 9), LockMode::X, None).unwrap();
        let m2 = m.clone();
        let waiter = thread::spawn(move || m2.acquire(2, LockId::Key(1, 9), LockMode::X, None));
        thread::sleep(Duration::from_millis(20));
        m.release_all(1, &[LockId::Key(1, 9)]);
        let outcome = waiter.join().unwrap().unwrap();
        assert_eq!(outcome, LockRequestOutcome::GrantedAfterWait);
    }

    #[test]
    fn reentrant_and_covering_acquisitions() {
        let m = mgr();
        m.acquire(1, LockId::Table(2), LockMode::X, None).unwrap();
        assert_eq!(
            m.acquire(1, LockId::Table(2), LockMode::S, None).unwrap(),
            LockRequestOutcome::AlreadyHeld
        );
        assert_eq!(m.held_mode(1, LockId::Table(2)), Some(LockMode::X));
    }

    #[test]
    fn upgrade_when_alone() {
        let m = mgr();
        m.acquire(1, LockId::Key(1, 3), LockMode::S, None).unwrap();
        // Upgrade S -> X succeeds because no other holders.
        let out = m.acquire(1, LockId::Key(1, 3), LockMode::X, None).unwrap();
        assert_eq!(out, LockRequestOutcome::Granted);
        assert_eq!(m.held_mode(1, LockId::Key(1, 3)), Some(LockMode::X));
        // Now a second txn cannot get S.
        assert!(m.acquire(2, LockId::Key(1, 3), LockMode::S, None).is_err());
    }

    #[test]
    fn hierarchical_acquires_intents() {
        let m = mgr();
        let acquired = m
            .acquire_hierarchical(1, LockId::Key(4, 10), LockMode::X, None)
            .unwrap();
        assert_eq!(acquired.len(), 3);
        assert_eq!(m.held_mode(1, LockId::Database), Some(LockMode::IX));
        assert_eq!(m.held_mode(1, LockId::Table(4)), Some(LockMode::IX));
        assert_eq!(m.held_mode(1, LockId::Key(4, 10)), Some(LockMode::X));
        // Another transaction can still read a different key in the same table.
        assert!(m
            .acquire_hierarchical(2, LockId::Key(4, 11), LockMode::S, None)
            .is_ok());
        // ...but not the locked key.
        assert!(m
            .acquire_hierarchical(3, LockId::Key(4, 10), LockMode::S, None)
            .is_err());
    }

    #[test]
    fn release_all_cleans_heads() {
        let m = mgr();
        let ids = [LockId::Database, LockId::Table(1), LockId::Key(1, 2)];
        m.acquire_hierarchical(1, LockId::Key(1, 2), LockMode::X, None)
            .unwrap();
        assert_eq!(m.live_heads(), 3);
        m.release_all(1, &ids);
        assert_eq!(m.live_heads(), 0);
        // Release of non-held locks is a no-op.
        m.release_all(1, &ids);
    }

    #[test]
    fn lock_acquisitions_count_cs() {
        let stats = StatsRegistry::new_shared();
        let m = LockManager::new(stats.clone());
        m.acquire_hierarchical(1, LockId::Key(1, 2), LockMode::S, None)
            .unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.cs.entries(CsCategory::LockMgr), 3);
    }

    #[test]
    fn lock_wait_is_attributed_to_the_transaction() {
        let stats = StatsRegistry::new_shared();
        let m = Arc::new(LockManager::with_timeout(
            stats.clone(),
            Duration::from_secs(5),
        ));
        let mut phases = PhaseBreakdown::default();
        m.acquire(1, LockId::Key(1, 1), LockMode::X, Some(&mut phases))
            .unwrap();
        assert_eq!(phases, PhaseBreakdown::default(), "no wait, nothing added");
        let m2 = m.clone();
        let waiter = thread::spawn(move || {
            let mut phases = PhaseBreakdown::default();
            let outcome = m2.acquire(2, LockId::Key(1, 1), LockMode::X, Some(&mut phases));
            (outcome, phases)
        });
        // The waiter's request is the manager's second critical section; it
        // holds the shard until it blocks, so the release below follows it.
        while stats.snapshot().cs.entries(CsCategory::LockMgr) < 2 {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(15));
        m.release_all(1, &[LockId::Key(1, 1)]);
        let (outcome, phases) = waiter.join().unwrap();
        assert_eq!(outcome, Ok(LockRequestOutcome::GrantedAfterWait));
        assert!(phases.lock_nanos >= 10_000_000, "{phases:?}");
        assert_eq!(phases.total(), phases.lock_nanos);
        assert_eq!(stats.latency().snapshot().lock_wait.count, 1);
    }

    #[test]
    fn stress_many_threads_disjoint_keys() {
        let m = Arc::new(mgr());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            handles.push(thread::spawn(move || {
                for i in 0..200u64 {
                    let key = LockId::Key(1, t * 1000 + i);
                    m.acquire_hierarchical(t, key, LockMode::X, None).unwrap();
                    m.release_all(t, &[key, LockId::Table(1), LockId::Database]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.live_heads(), 0);
    }
}
