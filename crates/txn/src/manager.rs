//! The transaction manager.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use plp_instrument::{CsCategory, StatsRegistry};
use plp_wal::{LogFailed, LogManager, Lsn};

use crate::xct::{Transaction, TxnState};

/// Allocates transaction ids, tracks begin/commit/abort transitions and drives
/// the commit protocol (commit log record, durability wait).
pub struct TxnManager {
    next_id: AtomicU64,
    log: Arc<LogManager>,
    stats: Arc<StatsRegistry>,
    /// Transactions begun but not yet committed/aborted — the active-txn
    /// table a fuzzy checkpoint captures.  (A `Transaction` dropped without
    /// commit/abort stays listed; the engine API always finishes
    /// transactions.)
    active: Mutex<BTreeSet<u64>>,
}

impl TxnManager {
    pub fn new(log: Arc<LogManager>, stats: Arc<StatsRegistry>) -> Self {
        // Id 0 is reserved; very high ids are reserved for SLI agents.
        Self::new_at(log, stats, 1)
    }

    /// A transaction manager whose first transaction id is `first_id` — used
    /// after recovery so new transactions never reuse a logged id.
    pub fn new_at(log: Arc<LogManager>, stats: Arc<StatsRegistry>, first_id: u64) -> Self {
        Self {
            next_id: AtomicU64::new(first_id.max(1)),
            log,
            stats,
            active: Mutex::new(BTreeSet::new()),
        }
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    pub fn log_manager(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// Begin a new transaction.  The state transition on the transaction
    /// object is a fixed-contention critical section (Figure 1, "Xct mgr").
    pub fn begin(&self) -> Transaction {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.stats.cs().enter(CsCategory::XctMgr, false);
        self.active.lock().insert(id);
        Transaction::new(id, self.log.begin(id))
    }

    /// The transactions currently active (begun, not yet finished) — what a
    /// fuzzy checkpoint records.
    pub fn active_txns(&self) -> Vec<u64> {
        self.active.lock().iter().copied().collect()
    }

    /// The next transaction id that would be handed out.
    pub fn next_txn_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Commit without waiting for durability: append the commit record
    /// ([`LogManager::commit_deferred`]), flip the state, and return the LSN
    /// the commit's reply must wait for ([`LogManager::wait_durable`]).
    ///
    /// A transaction that logged nothing appends no commit record; under
    /// `Synchronous`/`Strict` it must still wait until the log is
    /// written/synced through the tail it observed, so nothing it read can
    /// be lost after it is acknowledged (see `docs/durability.md`).
    ///
    /// The transaction counts as committed here.  If the wait later fails,
    /// the log device has failed and the commit may not be durable; the
    /// caller answers `Storage`, and the count stays.  Central locks the
    /// transaction recorded stay with it for the caller to release.
    pub fn commit_deferred(&self, txn: &mut Transaction) -> Lsn {
        assert!(txn.is_active(), "commit of a finished transaction");
        // One critical section per attached action to serialise the state
        // transition against action-completion notifications (fixed
        // contention: only the transaction's own actions participate).
        self.stats
            .cs()
            .enter_n(CsCategory::XctMgr, txn.action_count() as u64, false);
        let target = self.log.commit_deferred(txn.log_handle_mut());
        self.active.lock().remove(&txn.id());
        txn.set_state(TxnState::Committed);
        self.stats.txn_committed();
        target
    }

    /// [`Self::commit_deferred`], then [`LogManager::wait_durable`].  On
    /// `Err` the log device has failed and the commit may not be durable.
    pub fn commit(&self, txn: &mut Transaction) -> Result<(), LogFailed> {
        let target = self.commit_deferred(txn);
        self.log.wait_durable(target)
    }

    /// Abort: write the abort record, flip the state, and return the LSN the
    /// abort's reply must wait for — the record's end, or the tail the
    /// transaction observed when it logged nothing (`Lsn::ZERO` under
    /// `Lazy`), the same rule a read-only commit follows: an abort after a
    /// read must not answer before what it read is durable.  Central locks
    /// it recorded stay with it for the caller to release.  There is no
    /// undo: changes the transaction already applied in memory stay there
    /// (a multi-op request can abort after some of its actions wrote), and
    /// only recovery drops them, because it replays committed transactions
    /// alone.
    pub fn abort(&self, txn: &mut Transaction) -> Lsn {
        assert!(txn.is_active(), "abort of a finished transaction");
        self.stats.cs().enter(CsCategory::XctMgr, false);
        let target = self.log.abort(txn.log_handle_mut());
        txn.set_state(TxnState::Aborted);
        self.active.lock().remove(&txn.id());
        self.stats.txn_aborted();
        target
    }
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("next_id", &self.next_id.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_lock::{LockId, LockManager, LockMode};
    use plp_wal::{DurabilityMode, InsertProtocol};

    fn setup() -> (Arc<StatsRegistry>, Arc<LockManager>, TxnManager) {
        let stats = StatsRegistry::new_shared();
        let log = Arc::new(LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            stats.clone(),
        ));
        let locks = Arc::new(LockManager::new(stats.clone()));
        (stats.clone(), locks, TxnManager::new(log, stats))
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let (_s, _l, mgr) = setup();
        let a = mgr.begin();
        let b = mgr.begin();
        assert!(b.id() > a.id());
    }

    #[test]
    fn commit_leaves_central_locks_to_the_caller() {
        let (stats, locks, mgr) = setup();
        let mut txn = mgr.begin();
        let acquired = locks
            .acquire_hierarchical(txn.id(), LockId::Key(1, 9), LockMode::X, None)
            .unwrap();
        txn.record_locks(acquired.iter().copied());
        txn.log_update(1, 5, b"old-value", b"new-value");
        assert_eq!(mgr.commit(&mut txn), Ok(()));
        assert_eq!(txn.state(), TxnState::Committed);
        assert_eq!(txn.held_locks().len(), 3);
        assert_eq!(locks.live_heads(), 3);
        assert_eq!(stats.committed(), 1);
        assert_eq!(stats.aborted(), 0);
        assert!(mgr.active_txns().is_empty());
    }

    #[test]
    fn abort_counts_and_leaves_central_locks_to_the_caller() {
        let (stats, locks, mgr) = setup();
        let mut txn = mgr.begin();
        let acquired = locks
            .acquire_hierarchical(txn.id(), LockId::Key(1, 9), LockMode::S, None)
            .unwrap();
        txn.record_locks(acquired.iter().copied());
        mgr.abort(&mut txn);
        assert_eq!(txn.held_locks().len(), 3);
        assert_eq!(txn.state(), TxnState::Aborted);
        assert_eq!(stats.aborted(), 1);
        assert!(mgr.active_txns().is_empty());
    }

    #[test]
    #[should_panic(expected = "finished transaction")]
    fn double_commit_panics() {
        let (_s, _l, mgr) = setup();
        let mut txn = mgr.begin();
        mgr.commit(&mut txn).unwrap();
        let _ = mgr.commit(&mut txn);
    }

    #[test]
    fn xct_manager_cs_scale_with_action_count() {
        let (stats, _l, mgr) = setup();
        let mut txn = mgr.begin();
        txn.set_action_count(4);
        mgr.commit(&mut txn).unwrap();
        // 1 (begin) + 4 (commit, one per action rendezvous).
        assert_eq!(stats.snapshot().cs.entries(CsCategory::XctMgr), 5);
    }
}
