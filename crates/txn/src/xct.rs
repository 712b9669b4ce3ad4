//! The transaction object.

use plp_lock::{LockId, LockList};
use plp_wal::{LogRecord, LogRecordKind, TxnLogHandle, UpdatePayload};

/// Transaction identifier.
pub(crate) type TxnId = u64;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// A transaction: identity, state, the central locks it holds (empty for the
/// partitioned designs, which use thread-local lock tables instead) and its
/// staged log records.
#[derive(Debug)]
pub struct Transaction {
    id: TxnId,
    state: TxnState,
    /// Locks acquired from the *central* lock manager that must be released at
    /// the end of the transaction.  SLI-inherited locks are not listed here —
    /// the agent keeps them.  Inline up to sixteen ids: recording them does
    /// not allocate.
    held_locks: LockList,
    log: TxnLogHandle,
    /// Number of actions this transaction was decomposed into (1 for the
    /// conventional design, >= 1 for the partitioned designs).
    actions: u32,
}

impl Transaction {
    pub(crate) fn new(id: TxnId, log: TxnLogHandle) -> Self {
        Self {
            id,
            state: TxnState::Active,
            held_locks: LockList::default(),
            log,
            actions: 1,
        }
    }

    pub fn id(&self) -> TxnId {
        self.id
    }

    pub fn state(&self) -> TxnState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: TxnState) {
        self.state = state;
    }

    pub fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }

    // ------------------------------------------------------------------
    // Lock bookkeeping (central lock manager designs only)
    // ------------------------------------------------------------------

    /// Remember a central lock so it is released at commit/abort.
    fn record_lock(&mut self, id: LockId) {
        if !self.held_locks.contains(&id) {
            self.held_locks.push(id);
        }
    }

    pub fn record_locks(&mut self, ids: impl IntoIterator<Item = LockId>) {
        for id in ids {
            self.record_lock(id);
        }
    }

    pub fn held_locks(&self) -> &[LockId] {
        &self.held_locks
    }

    /// Hand the recorded central locks to the caller, which releases them
    /// once the log commit or abort has returned.
    pub fn take_locks(&mut self) -> LockList {
        std::mem::take(&mut self.held_locks)
    }

    // ------------------------------------------------------------------
    // Logging
    // ------------------------------------------------------------------

    pub fn log_handle_mut(&mut self) -> &mut TxnLogHandle {
        &mut self.log
    }

    /// Stage a *physiological redo* record (real payload bytes) locally; it
    /// reaches the shared buffer at commit/abort time.
    pub fn log_update(&mut self, table: u32, key: u64, before: &[u8], after: &[u8]) {
        self.log.push_record(LogRecord::with_payload(
            self.id,
            LogRecordKind::Update,
            table,
            key,
            None,
            UpdatePayload::encode(before, after),
        ));
    }

    pub fn records_logged(&self) -> u64 {
        self.log.records_logged()
    }

    // ------------------------------------------------------------------
    // Action bookkeeping (partitioned designs)
    // ------------------------------------------------------------------

    pub fn set_action_count(&mut self, n: u32) {
        self.actions = n.max(1);
    }

    pub fn action_count(&self) -> u32 {
        self.actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_wal::{DurabilityMode, InsertProtocol, LogManager};

    fn txn() -> Transaction {
        let log = LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            plp_instrument::StatsRegistry::new_shared(),
        );
        Transaction::new(42, log.begin(42))
    }

    #[test]
    fn lock_bookkeeping_dedups() {
        let mut t = txn();
        t.record_lock(LockId::Table(1));
        t.record_lock(LockId::Table(1));
        t.record_lock(LockId::Key(1, 5));
        assert_eq!(t.held_locks().len(), 2);
        let taken = t.take_locks();
        assert_eq!(taken.len(), 2);
        assert!(t.held_locks().is_empty());
    }

    #[test]
    fn logging_wrappers_stage_records() {
        let mut t = txn();
        t.log_update(0, 2, b"before", b"after!");
        t.log_update(0, 3, b"after!", b"again!");
        assert_eq!(t.records_logged(), 2);
    }

    #[test]
    fn action_count_is_at_least_one() {
        let mut t = txn();
        assert_eq!(t.action_count(), 1);
        t.set_action_count(0);
        assert_eq!(t.action_count(), 1);
        t.set_action_count(4);
        assert_eq!(t.action_count(), 4);
        assert_eq!(t.id(), 42);
        assert!(t.is_active());
    }
}
