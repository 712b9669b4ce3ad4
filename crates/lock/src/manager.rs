//! The centralized hierarchical lock manager.
//!
//! This is the structure whose critical sections dominate the conventional
//! bar of Figure 1.  Lock heads live in a sharded hash table; acquiring or
//! releasing any lock enters the owning shard's critical section (counted
//! under [`CsCategory::LockMgr`]).  Conflicting requests wait on the shard's
//! condition variable with a timeout (timeout-based deadlock resolution, as
//! is common for short OLTP transactions).
//!
//! An uncontended request makes no system call and touches no heap inside
//! its critical section: a waiter registers in its shard's `waiters` count
//! (under the shard mutex) before it blocks, and a release notifies the
//! condition variable only when that count is above zero; a head's holder
//! vector comes from the shard's spare list and goes back to it; and the
//! heads are keyed with a multiply-rotate hash, not SipHash.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Condvar;
use plp_instrument::{CsCategory, InstrumentedMutex, PhaseBreakdown, StatsRegistry};

use crate::key::{BuildMixHasher, LockId, LockList};
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

/// (txn id, granted mode, reference count) of each holder.
type Holders = Vec<(u64, LockMode, u32)>;

#[derive(Debug)]
struct LockHead {
    granted: Holders,
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
    heads: HashMap<LockId, LockHead, BuildMixHasher>,
    /// Emptied holder vectors of removed heads, at most [`SPARE_HOLDERS`]:
    /// a new head takes one, so a warm shard allocates nothing per lock.
    spare: Vec<Holders>,
    /// Requests blocked on this shard's condition variable.  Changed only
    /// under the shard mutex, +1 before the wait and −1 after it returns
    /// (also on timeout), so a release that reads zero has no one to wake.
    waiters: u32,
}

impl Shard {
    /// Drop `txn`'s hold on `id`; a head left without holders goes, and its
    /// vector joins the spare list.  Returns whether `txn` held `id`.
    fn release(&mut self, txn: u64, id: LockId) -> bool {
        let Entry::Occupied(mut entry) = self.heads.entry(id) else {
            return false;
        };
        let released = entry.get_mut().release(txn);
        if entry.get().is_free() {
            let head = entry.remove();
            if self.spare.len() < SPARE_HOLDERS {
                self.spare.push(head.granted);
            }
        }
        released
    }
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
/// [`LockManager::release_all`] marks the shards it has entered in one
/// `u64`.
const _: () = assert!(N_SHARDS <= 64);
/// Spare holder vectors a shard keeps.
const SPARE_HOLDERS: usize = 8;
/// Ids whose shard indices [`LockManager::release_all`] keeps on the stack.
const RELEASE_INLINE: usize = 16;

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
                                heads: HashMap::default(),
                                spare: Vec::new(),
                                waiters: 0,
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
    /// its ancestors first, from the database down.  Returns the ids acquired,
    /// in that order, so the caller can record them for release.
    pub fn acquire_hierarchical(
        &self,
        txn: u64,
        id: LockId,
        mode: LockMode,
        mut phases: Option<&mut PhaseBreakdown>,
    ) -> Result<LockList, LockError> {
        let mut acquired = LockList::default();
        let parent = id.parent();
        for ancestor in [parent.and_then(LockId::parent), parent]
            .into_iter()
            .flatten()
        {
            self.acquire(txn, ancestor, mode.intention(), phases.as_deref_mut())?;
            acquired.push(ancestor);
        }
        self.acquire(txn, id, mode, phases)?;
        acquired.push(id);
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
            let Shard { heads, spare, .. } = &mut *shard;
            let head = heads.entry(id).or_insert_with(|| LockHead {
                granted: spare.pop().unwrap_or_default(),
            });
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
            // Conflict: register, then wait on the shard condvar.
            let start = *wait_start.get_or_insert_with(Instant::now);
            shard.waiters += 1;
            let waited = condvar.wait_until(&mut shard, start + self.timeout);
            shard.waiters -= 1;
            if waited.timed_out() {
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
    /// list), waking the shard's waiters if it has any.  Each shard is
    /// entered once, in the order its first id appears in `ids`.
    pub fn release_all(&self, txn: u64, ids: &[LockId]) {
        // Shard indices, hashed once and outside every shard; on the stack
        // for a short list.
        let mut inline = [0u8; RELEASE_INLINE];
        let mut spilled = Vec::new();
        let shard_of = if ids.len() <= RELEASE_INLINE {
            &mut inline[..ids.len()]
        } else {
            spilled.resize(ids.len(), 0u8);
            &mut spilled[..]
        };
        for (slot, id) in shard_of.iter_mut().zip(ids) {
            *slot = self.shard_of(id) as u8;
        }
        let mut entered = 0u64;
        for (first, &shard_idx) in shard_of.iter().enumerate() {
            if entered & 1 << shard_idx != 0 {
                continue;
            }
            entered |= 1 << shard_idx;
            let (mutex, condvar) = &self.shards[usize::from(shard_idx)];
            let (mut shard, _) = mutex.lock();
            let mut released_any = false;
            for (&id, _) in ids[first..]
                .iter()
                .zip(&shard_of[first..])
                .filter(|&(_, &s)| s == shard_idx)
            {
                released_any |= shard.release(txn, id);
            }
            if released_any && shard.waiters > 0 {
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

    /// Requests blocked on any shard's condition variable.
    #[cfg(test)]
    fn waiters(&self) -> u32 {
        self.shards
            .iter()
            .map(|(m, _)| m.lock_uninstrumented().waiters)
            .sum()
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
        assert_eq!(
            &*acquired,
            &[LockId::Database, LockId::Table(4), LockId::Key(4, 10)]
        );
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

    /// Eight threads take one key in X in turn: each release wakes the
    /// next registered waiter, so every request is granted well inside the
    /// timeout, and no head or waiter is left behind.
    #[test]
    fn eight_threads_take_one_key_in_turn() {
        let m = Arc::new(LockManager::with_timeout(
            StatsRegistry::new_shared(),
            Duration::from_secs(5),
        ));
        let key = LockId::Key(1, 7);
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..50 {
                        m.acquire_hierarchical(t, key, LockMode::X, None)
                            .expect("granted before the timeout");
                        thread::yield_now();
                        m.release_all(t, &[key, LockId::Table(1), LockId::Database]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.live_heads(), 0);
        assert_eq!(m.waiters(), 0);
    }

    /// A waiter that times out deregisters, and one that waits later is
    /// registered again: its holder's release wakes it at once, not at its
    /// timeout.
    #[test]
    fn a_timed_out_waiter_leaves_the_next_one_wakeable() {
        let timeout = Duration::from_millis(500);
        let m = Arc::new(LockManager::with_timeout(
            StatsRegistry::new_shared(),
            timeout,
        ));
        let key = LockId::Key(2, 3);
        m.acquire(1, key, LockMode::X, None).unwrap();
        assert!(m.acquire(2, key, LockMode::X, None).is_err());
        assert_eq!(m.waiters(), 0, "the timed-out waiter deregistered");
        let m2 = m.clone();
        let waiter = thread::spawn(move || {
            let start = Instant::now();
            let outcome = m2.acquire(3, key, LockMode::X, None);
            (outcome, start.elapsed())
        });
        let registered_by = Instant::now() + timeout;
        while m.waiters() == 0 {
            assert!(
                Instant::now() < registered_by,
                "the waiter never registered"
            );
            thread::yield_now();
        }
        m.release_all(1, &[key]);
        let (outcome, waited) = waiter.join().unwrap();
        assert_eq!(outcome, Ok(LockRequestOutcome::GrantedAfterWait));
        assert!(waited < timeout / 2, "woken after {waited:?}");
        assert_eq!(m.waiters(), 0);
    }

    /// A lock list longer than the inline shard indices still enters every
    /// shard it names and frees every head.
    #[test]
    fn release_all_past_the_inline_ids_frees_every_head() {
        let m = mgr();
        let mut held = LockList::default();
        for k in 0..40 {
            for id in m
                .acquire_hierarchical(9, LockId::Key(3, k), LockMode::S, None)
                .unwrap()
                .iter()
            {
                if !held.contains(id) {
                    held.push(*id);
                }
            }
        }
        assert_eq!(held.len(), 42);
        assert!(held.len() > RELEASE_INLINE);
        let shards: std::collections::HashSet<usize> =
            held.iter().map(|id| m.shard_of(id)).collect();
        assert!(shards.len() > 1, "the ids span shards");
        assert_eq!(m.live_heads(), 42);
        m.release_all(9, &held);
        assert_eq!(m.live_heads(), 0);
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
