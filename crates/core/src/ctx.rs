//! [`DataContext`] implementations for the execution designs.

use plp_instrument::PhaseBreakdown;
use plp_lock::{AgentLockCache, LocalLockTable, LockId, LockMode};
use plp_storage::{Access, OwnerToken};
use plp_txn::Transaction;
use plp_wal::{LogRecord, LogRecordKind, UpdatePayload};

use crate::action::DataContext;
use crate::catalog::{Design, TableId};
use crate::database::Database;
use crate::error::EngineError;

/// Data context for the conventional shared-everything design: centralized
/// hierarchical locking (optionally through the SLI agent cache) and latched
/// page accesses.  Runs on the client thread itself.
pub struct ConventionalCtx<'a> {
    db: &'a Database,
    txn: &'a mut Transaction,
    sli: Option<&'a mut AgentLockCache>,
    /// The transaction's phases: central lock waits land in `lock_nanos`.
    phases: &'a mut PhaseBreakdown,
}

impl<'a> ConventionalCtx<'a> {
    pub fn new(
        db: &'a Database,
        txn: &'a mut Transaction,
        sli: Option<&'a mut AgentLockCache>,
        phases: &'a mut PhaseBreakdown,
    ) -> Self {
        Self {
            db,
            txn,
            sli,
            phases,
        }
    }

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
}

impl DataContext for ConventionalCtx<'_> {
    fn read(&mut self, table: TableId, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        self.lock(table, key, LockMode::S)?;
        self.db
            .table(table)?
            .read(key, Access::Latched, Access::Latched)
    }

    fn update(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<bool, EngineError> {
        self.lock(table, key, LockMode::X)?;
        // Capture the before/after images at the storage layer so the log
        // record carries real redo (and future undo) bytes.
        let mut images: Option<(Vec<u8>, Vec<u8>)> = None;
        let found =
            self.db
                .table(table)?
                .update_with(key, Access::Latched, Access::Latched, |bytes| {
                    let before = bytes.to_vec();
                    f(bytes);
                    images = Some((before, bytes.to_vec()));
                })?;
        if let Some((before, after)) = images {
            self.log(LogRecord::with_payload(
                self.txn.id(),
                LogRecordKind::Update,
                table.0,
                key,
                None,
                UpdatePayload::encode(&before, &after),
            ));
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
        self.lock(table, key, LockMode::X)?;
        self.db.table(table)?.insert(
            key,
            record,
            secondary_key,
            Access::Latched,
            Access::Latched,
        )?;
        self.log(LogRecord::with_payload(
            self.txn.id(),
            LogRecordKind::Insert,
            table.0,
            key,
            secondary_key,
            record.to_vec(),
        ));
        Ok(())
    }

    fn delete(
        &mut self,
        table: TableId,
        key: u64,
        secondary_key: Option<u64>,
    ) -> Result<bool, EngineError> {
        self.lock(table, key, LockMode::X)?;
        let found =
            self.db
                .table(table)?
                .delete(key, secondary_key, Access::Latched, Access::Latched)?;
        if found {
            self.log(LogRecord::with_payload(
                self.txn.id(),
                LogRecordKind::Delete,
                table.0,
                key,
                secondary_key,
                Vec::new(),
            ));
        }
        Ok(found)
    }

    fn secondary_probe(
        &mut self,
        table: TableId,
        sec_key: u64,
    ) -> Result<Option<u64>, EngineError> {
        self.db.table(table)?.secondary_probe(sec_key)
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        let rows = self
            .db
            .table(table)?
            .range_scan(lo, hi, Access::Latched, Access::Latched)?;
        for (k, _) in &rows {
            self.lock(table, *k, LockMode::S)?;
        }
        Ok(rows)
    }
}

/// Data context of whichever thread holds a partition's claim (logical-only
/// and PLP designs): thread-local locking and design-dependent page access
/// modes.  Log records are accumulated locally and handed back to the
/// coordinating thread with the action's reply.  The action's locks are
/// released when the context drops — also when the action unwinds, so a
/// panicking action cannot leave the partition's lock table poisoned with
/// entries nobody will release.
pub struct PartitionCtx<'a> {
    db: &'a Database,
    design: Design,
    owner: OwnerToken,
    local_locks: &'a mut LocalLockTable,
    txn_id: u64,
    log: Vec<LogRecord>,
}

impl<'a> PartitionCtx<'a> {
    pub fn new(
        db: &'a Database,
        design: Design,
        owner: OwnerToken,
        local_locks: &'a mut LocalLockTable,
        txn_id: u64,
    ) -> Self {
        Self {
            db,
            design,
            owner,
            local_locks,
            txn_id,
            log: Vec::new(),
        }
    }

    fn index_access(&self) -> Access {
        if self.design.latch_free_index() {
            Access::Owned(self.owner)
        } else {
            Access::Latched
        }
    }

    fn heap_access(&self) -> Access {
        if self.design.latch_free_heap() {
            Access::Owned(self.owner)
        } else {
            Access::Latched
        }
    }

    fn local_lock(&mut self, table: TableId, key: u64, mode: LockMode) {
        // Thread-local locking: no critical section, no contention.  Conflicts
        // cannot arise because the claim holder executes one action at a time
        // and the action's locks are released when it finishes (see `Drop`).
        let _ = self
            .local_locks
            .acquire(self.txn_id, LockId::Key(table.0, key), mode);
    }

    /// Log records accumulated by the action, handed back to the coordinator.
    pub fn take_log(&mut self) -> Vec<LogRecord> {
        std::mem::take(&mut self.log)
    }
}

impl Drop for PartitionCtx<'_> {
    fn drop(&mut self) {
        self.local_locks.release_all(self.txn_id);
    }
}

impl DataContext for PartitionCtx<'_> {
    fn read(&mut self, table: TableId, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        self.local_lock(table, key, LockMode::S);
        self.db
            .table(table)?
            .read(key, self.index_access(), self.heap_access())
    }

    fn update(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<bool, EngineError> {
        self.local_lock(table, key, LockMode::X);
        // Capture the before/after images at the storage layer; the record
        // rides back to the coordinator with the action's reply.
        let mut images: Option<(Vec<u8>, Vec<u8>)> = None;
        let found = self.db.table(table)?.update_with(
            key,
            self.index_access(),
            self.heap_access(),
            |bytes| {
                let before = bytes.to_vec();
                f(bytes);
                images = Some((before, bytes.to_vec()));
            },
        )?;
        if let Some((before, after)) = images {
            self.log.push(LogRecord::with_payload(
                self.txn_id,
                LogRecordKind::Update,
                table.0,
                key,
                None,
                UpdatePayload::encode(&before, &after),
            ));
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
        self.local_lock(table, key, LockMode::X);
        self.db.table(table)?.insert(
            key,
            record,
            secondary_key,
            self.index_access(),
            self.heap_access(),
        )?;
        self.log.push(LogRecord::with_payload(
            self.txn_id,
            LogRecordKind::Insert,
            table.0,
            key,
            secondary_key,
            record.to_vec(),
        ));
        Ok(())
    }

    fn delete(
        &mut self,
        table: TableId,
        key: u64,
        secondary_key: Option<u64>,
    ) -> Result<bool, EngineError> {
        self.local_lock(table, key, LockMode::X);
        let found = self.db.table(table)?.delete(
            key,
            secondary_key,
            self.index_access(),
            self.heap_access(),
        )?;
        if found {
            self.log.push(LogRecord::with_payload(
                self.txn_id,
                LogRecordKind::Delete,
                table.0,
                key,
                secondary_key,
                Vec::new(),
            ));
        }
        Ok(found)
    }

    fn secondary_probe(
        &mut self,
        table: TableId,
        sec_key: u64,
    ) -> Result<Option<u64>, EngineError> {
        // Secondary indexes are not partition aligned; they are accessed as in
        // the conventional system (latched), per Section 3.1 of the paper.
        self.db.table(table)?.secondary_probe(sec_key)
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        for k in [lo, hi] {
            self.local_lock(table, k, LockMode::S);
        }
        self.db
            .table(table)?
            .range_scan(lo, hi, self.index_access(), self.heap_access())
    }
}
