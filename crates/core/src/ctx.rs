//! The one [`DataContext`] implementation, shared by every execution design.
//!
//! An action reaches storage the same way in every design; what differs is
//! how it is isolated and where its redo records go ([`Isolation`]), and
//! whether its pages are latched or opened by the partition's owner token
//! (the [`Access`] modes fixed when the context is built).

use plp_instrument::PhaseBreakdown;
use plp_lock::{AgentLockCache, LocalLockTable, LockId, LockMode};
use plp_storage::{Access, OwnerToken};
use plp_txn::Transaction;
use plp_wal::{LogRecord, LogRecordKind, UpdatePayload};

use crate::action::DataContext;
use crate::catalog::{Design, TableId};
use crate::database::Database;
use crate::error::EngineError;

/// What differs between the designs' data contexts.
pub(crate) trait Isolation {
    /// Whether a range read locks every row before it reads it (central
    /// locking) or only the range's two ends (a partition's thread-local
    /// locking).
    const LOCKS_EVERY_ROW: bool;

    /// Lock `key` of `table` in `mode` for the action's transaction.
    fn lock(&mut self, table: TableId, key: u64, mode: LockMode) -> Result<(), EngineError>;

    /// Hand over one redo record the action produced.
    fn log(&mut self, record: LogRecord);

    fn txn_id(&self) -> u64;
}

/// Centralized hierarchical locking (optionally through the SLI agent cache)
/// for the conventional design.  Locks are recorded in the transaction,
/// which releases them after commit or abort; redo records go straight into
/// the transaction's log handle.
pub(crate) struct CentralLocks<'a> {
    db: &'a Database,
    txn: &'a mut Transaction,
    sli: Option<&'a mut AgentLockCache>,
    /// The transaction's phases: central lock waits land in `lock_nanos`.
    phases: &'a mut PhaseBreakdown,
}

impl Isolation for CentralLocks<'_> {
    const LOCKS_EVERY_ROW: bool = true;

    fn lock(&mut self, table: TableId, key: u64, mode: LockMode) -> Result<(), EngineError> {
        let id = LockId::Key(table.0, key);
        match self.sli.as_deref_mut() {
            Some(cache) => {
                let to_release = cache.acquire(
                    self.db.lock_manager(),
                    self.txn.id(),
                    id,
                    mode,
                    Some(&mut *self.phases),
                )?;
                self.txn.record_locks(to_release);
            }
            None => {
                let acquired = self.db.lock_manager().acquire_hierarchical(
                    self.txn.id(),
                    id,
                    mode,
                    Some(&mut *self.phases),
                )?;
                self.txn
                    .record_locks(acquired.into_iter().map(|(id, _)| id));
            }
        }
        Ok(())
    }

    fn log(&mut self, record: LogRecord) {
        self.db
            .log_manager()
            .log_record(self.txn.log_handle_mut(), record);
    }

    fn txn_id(&self) -> u64 {
        self.txn.id()
    }
}

/// Thread-local locking in the partition's own lock table (logical-only and
/// PLP designs), by whichever thread holds the partition's claim.  Log
/// records are accumulated and handed back to the coordinating thread with
/// the action's reply.  The action's locks are released when this drops —
/// also when the action unwinds, so a panicking action cannot leave the
/// partition's lock table poisoned with entries nobody will release.
pub(crate) struct LocalLocks<'a> {
    local_locks: &'a mut LocalLockTable,
    txn_id: u64,
    log: Vec<LogRecord>,
}

impl Drop for LocalLocks<'_> {
    fn drop(&mut self) {
        self.local_locks.release_all(self.txn_id);
    }
}

impl Isolation for LocalLocks<'_> {
    const LOCKS_EVERY_ROW: bool = false;

    fn lock(&mut self, table: TableId, key: u64, mode: LockMode) -> Result<(), EngineError> {
        // No critical section, no contention.  Conflicts cannot arise
        // because the claim holder executes one action at a time and the
        // action's locks are released when it finishes (see `Drop`).
        let _ = self
            .local_locks
            .acquire(self.txn_id, LockId::Key(table.0, key), mode);
        Ok(())
    }

    fn log(&mut self, record: LogRecord) {
        self.log.push(record);
    }

    fn txn_id(&self) -> u64 {
        self.txn_id
    }
}

/// The data context an action runs against: one table access per call,
/// isolated and logged by `I`, with the page-access modes of the design.
pub(crate) struct ActionCtx<'a, I: Isolation> {
    db: &'a Database,
    index: Access,
    heap: Access,
    isolation: I,
}

impl<'a> ActionCtx<'a, CentralLocks<'a>> {
    /// The conventional design's context: central locks, latched pages.
    /// Runs on the client thread itself.
    pub(crate) fn conventional(
        db: &'a Database,
        txn: &'a mut Transaction,
        sli: Option<&'a mut AgentLockCache>,
        phases: &'a mut PhaseBreakdown,
    ) -> Self {
        Self {
            db,
            index: Access::Latched,
            heap: Access::Latched,
            isolation: CentralLocks {
                db,
                txn,
                sli,
                phases,
            },
        }
    }
}

impl<'a> ActionCtx<'a, LocalLocks<'a>> {
    /// The context of a partition's claim holder: thread-local locks, and
    /// pages opened latch-free by `owner` where `design` says so.
    pub(crate) fn partition(
        db: &'a Database,
        design: Design,
        owner: OwnerToken,
        local_locks: &'a mut LocalLockTable,
        txn_id: u64,
    ) -> Self {
        let access = |latch_free: bool| {
            if latch_free {
                Access::Owned(owner)
            } else {
                Access::Latched
            }
        };
        Self {
            db,
            index: access(design.latch_free_index()),
            heap: access(design.latch_free_heap()),
            isolation: LocalLocks {
                local_locks,
                txn_id,
                log: Vec::new(),
            },
        }
    }

    /// Log records accumulated by the action, handed back to the coordinator.
    pub(crate) fn take_log(&mut self) -> Vec<LogRecord> {
        std::mem::take(&mut self.isolation.log)
    }
}

impl<I: Isolation> ActionCtx<'_, I> {
    fn log(
        &mut self,
        kind: LogRecordKind,
        table: TableId,
        key: u64,
        sec: Option<u64>,
        payload: Vec<u8>,
    ) {
        let record =
            LogRecord::with_payload(self.isolation.txn_id(), kind, table.0, key, sec, payload);
        self.isolation.log(record);
    }
}

impl<I: Isolation> DataContext for ActionCtx<'_, I> {
    fn read(&mut self, table: TableId, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        self.isolation.lock(table, key, LockMode::S)?;
        self.db.table(table)?.read(key, self.index, self.heap)
    }

    fn update(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<bool, EngineError> {
        self.isolation.lock(table, key, LockMode::X)?;
        // Capture the before/after images at the storage layer so the log
        // record carries real redo (and future undo) bytes.
        let mut images: Option<(Vec<u8>, Vec<u8>)> = None;
        let found = self
            .db
            .table(table)?
            .update_with(key, self.index, self.heap, |bytes| {
                let before = bytes.to_vec();
                f(bytes);
                images = Some((before, bytes.to_vec()));
            })?;
        if let Some((before, after)) = images {
            let payload = UpdatePayload::encode(&before, &after);
            self.log(LogRecordKind::Update, table, key, None, payload);
        }
        Ok(found)
    }

    fn insert(
        &mut self,
        table: TableId,
        key: u64,
        record: &[u8],
        secondary_key: Option<u64>,
    ) -> Result<(), EngineError> {
        self.isolation.lock(table, key, LockMode::X)?;
        self.db
            .table(table)?
            .insert(key, record, secondary_key, self.index, self.heap)?;
        self.log(
            LogRecordKind::Insert,
            table,
            key,
            secondary_key,
            record.to_vec(),
        );
        Ok(())
    }

    fn delete(
        &mut self,
        table: TableId,
        key: u64,
        secondary_key: Option<u64>,
    ) -> Result<bool, EngineError> {
        self.isolation.lock(table, key, LockMode::X)?;
        let found = self
            .db
            .table(table)?
            .delete(key, secondary_key, self.index, self.heap)?;
        if found {
            self.log(LogRecordKind::Delete, table, key, secondary_key, Vec::new());
        }
        Ok(found)
    }

    fn secondary_probe(
        &mut self,
        table: TableId,
        sec_key: u64,
    ) -> Result<Option<u64>, EngineError> {
        // Secondary indexes are not partition aligned; every design accesses
        // them as the conventional system does (latched), per Section 3.1 of
        // the paper.
        self.db.table(table)?.secondary_probe(sec_key)
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        let t = self.db.table(table)?;
        if !I::LOCKS_EVERY_ROW {
            for k in [lo, hi] {
                self.isolation.lock(table, k, LockMode::S)?;
            }
            return t.range_scan(lo, hi, self.index, self.heap, |_| true);
        }
        // Central locking reads a row only under its S lock: one index scan
        // names the keys, each is locked, and a second scan reads those still
        // there (a key deleted before its lock was granted is gone).
        let keys = t
            .primary()
            .range_scan(lo, hi, self.index)
            .map_err(|e| EngineError::from_btree(table, e))?;
        let (Some(&(first, _)), Some(&(last, _))) = (keys.first(), keys.last()) else {
            return Ok(Vec::new());
        };
        for &(k, _) in &keys {
            self.isolation.lock(table, k, LockMode::S)?;
        }
        t.range_scan(first, last, self.index, self.heap, |k| {
            keys.binary_search_by_key(&k, |&(key, _)| key).is_ok()
        })
    }
}
