//! The shared database: buffer pool, managers and tables.

use std::sync::Arc;
use std::time::Duration;

use plp_instrument::{StatsRegistry, TimeBreakdown};
use plp_lock::LockManager;
use plp_storage::{Access, BufferPool, PageCleaner};
use plp_txn::TxnManager;
use plp_wal::{DurabilityMode, LogManager};

use crate::catalog::{EngineConfig, TableId, TableSpec};
use crate::error::EngineError;
use crate::table::Table;

/// Everything the execution designs share: one buffer pool, one log, one
/// (central) lock manager, one transaction manager, and the tables.
pub struct Database {
    config: EngineConfig,
    stats: Arc<StatsRegistry>,
    breakdown: Arc<TimeBreakdown>,
    pool: Arc<BufferPool>,
    locks: Arc<LockManager>,
    log: Arc<LogManager>,
    txns: Arc<TxnManager>,
    tables: Vec<Table>,
    /// Last-synced view of the channel shim's process-global slow-path
    /// counters `[enqueue spins, dequeue spins, parks, wakeups]`; deltas are
    /// folded into this engine's [`plp_instrument::MsgStats`] by
    /// [`Self::sync_channel_metrics`].
    chan_metrics_base: parking_lot::Mutex<[u64; 4]>,
}

/// Current values of the channel shim's global slow-path counters.
fn channel_metrics_now() -> [u64; 4] {
    // NOTE: this (and the `fig_msgcost` benchmark) are the only places the
    // workspace touches the crossbeam *shim's* metrics extension.  When the
    // real crossbeam crate is swapped in, replace this body with
    // `[0, 0, 0, 0]` — the MsgStats queue columns then read zero and
    // everything else keeps working.
    let m = crossbeam::metrics::snapshot();
    [m.enqueue_spins, m.dequeue_spins, m.parks, m.wakeups]
}

impl Database {
    /// Create a database with the given schema under a configuration.
    ///
    /// Panics if a declared partition alignment is inconsistent: the driver
    /// of a `partitioned_with` declaration must exist, be a root itself, and
    /// span the same number of driver units (`key_space / granularity`) as
    /// the dependent — otherwise boundary propagation could not keep the
    /// group aligned.
    pub fn create(config: EngineConfig, schema: &[TableSpec]) -> Arc<Self> {
        Self::create_at(config, schema, 1)
    }

    /// [`Self::create`] with the first transaction id set explicitly — used
    /// by recovery so new transactions never reuse an id from the replayed
    /// log.  Opening a configured `log_dir` truncates any torn tail and
    /// resumes the LSN stream after the last valid record.
    pub fn create_at(config: EngineConfig, schema: &[TableSpec], first_txn_id: u64) -> Arc<Self> {
        for spec in schema {
            let Some(root_id) = spec.partitioned_with else {
                continue;
            };
            assert_ne!(root_id, spec.id, "table {:?} aligned with itself", spec.id);
            let root = schema
                .iter()
                .find(|s| s.id == root_id)
                .unwrap_or_else(|| panic!("table {:?} aligned with unknown {root_id:?}", spec.id));
            assert!(
                root.partitioned_with.is_none(),
                "alignment driver {root_id:?} must be a root (no chained alignment)"
            );
            // `a/b == c/d` checked as `a*d == c*b` to avoid truncation.
            assert_eq!(
                spec.key_space as u128 * root.partition_granularity as u128,
                root.key_space as u128 * spec.partition_granularity as u128,
                "table {:?} does not span the same driver units as {root_id:?}",
                spec.id
            );
        }
        let stats = StatsRegistry::new_shared();
        let pool = BufferPool::new_shared(stats.clone());
        let locks = Arc::new(LockManager::new(stats.clone()));
        let log = match &config.log_dir {
            Some(dir) => Arc::new(
                LogManager::with_directory(
                    config.log_protocol,
                    config.durability,
                    stats.clone(),
                    dir,
                    config.log_segment_bytes,
                )
                .expect("open log device"),
            ),
            None => {
                assert!(
                    config.durability != DurabilityMode::Strict,
                    "DurabilityMode::Strict requires EngineConfig::with_log_dir"
                );
                Arc::new(LogManager::new(
                    config.log_protocol,
                    config.durability,
                    stats.clone(),
                ))
            }
        };
        if config.durability != DurabilityMode::Lazy || log.has_device() {
            log.start_flusher(Duration::from_micros(100));
        }
        let txns = Arc::new(TxnManager::new_at(log.clone(), stats.clone(), first_txn_id));
        let tables = schema
            .iter()
            .map(|spec| {
                Table::create(
                    pool.clone(),
                    spec.clone(),
                    config.index_kind,
                    config.index_fanout,
                    config.partitions,
                    config.design.placement_policy(),
                )
            })
            .collect();
        Arc::new(Self {
            config,
            stats,
            breakdown: Arc::new(TimeBreakdown::new()),
            pool,
            locks,
            log,
            txns,
            tables,
            chan_metrics_base: parking_lot::Mutex::new(channel_metrics_now()),
        })
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    pub fn breakdown(&self) -> &Arc<TimeBreakdown> {
        &self.breakdown
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn lock_manager(&self) -> &Arc<LockManager> {
        &self.locks
    }

    pub fn log_manager(&self) -> &Arc<LogManager> {
        &self.log
    }

    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    pub fn table(&self, id: TableId) -> Result<&Table, EngineError> {
        self.tables
            .get(id.0 as usize)
            .ok_or(EngineError::NoSuchTable(id))
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// A page cleaner over this database's buffer pool.
    pub fn cleaner(&self) -> PageCleaner {
        PageCleaner::new(self.pool.clone())
    }

    /// Bulk-load a record during database population.  Loading happens before
    /// any engine threads start, uses latched access and is excluded from the
    /// instrumented run statistics (the caller resets stats afterwards).
    ///
    /// With a file-backed log device attached, every load is also logged as a
    /// record of the *loader pseudo-transaction* (txn id 0, which recovery
    /// always replays): the log is then a complete history of the database,
    /// so `Engine::recover` rebuilds the loaded base data and the committed
    /// transactions from the log alone.
    pub fn load_record(
        &self,
        table: TableId,
        key: u64,
        record: &[u8],
        secondary_key: Option<u64>,
    ) -> Result<(), EngineError> {
        let t = self.table(table)?;
        t.insert(key, record, secondary_key, Access::Latched, Access::Latched)?;
        if self.log.has_device() {
            self.log.log_system(plp_wal::LogRecord::with_payload(
                0,
                plp_wal::LogRecordKind::Insert,
                table.0,
                key,
                secondary_key,
                record.to_vec(),
            ));
        }
        Ok(())
    }

    /// Fold the channel layer's slow-path counters (queue spins, parks,
    /// wakeups) accumulated since the last sync into this engine's
    /// [`plp_instrument::MsgStats`].  The underlying counters are
    /// process-global, so with several engines running concurrently in one
    /// process the attribution is approximate; the benchmark driver runs
    /// engines one at a time.
    pub fn sync_channel_metrics(&self) {
        let now = channel_metrics_now();
        let mut base = self.chan_metrics_base.lock();
        self.stats.msg().queue_activity(
            now[0].saturating_sub(base[0]),
            now[1].saturating_sub(base[1]),
            now[2].saturating_sub(base[2]),
            now[3].saturating_sub(base[3]),
        );
        *base = now;
    }

    /// Reset every statistic (done after loading, before measurement).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.breakdown.reset();
        // Re-base the global channel counters so pre-reset activity is not
        // attributed to the measured interval.
        *self.chan_metrics_base.lock() = channel_metrics_now();
    }

    /// Pad a record to the configured size if record padding is enabled
    /// (used by the TPC-B false-sharing ablation).
    pub fn maybe_pad(&self, record: Vec<u8>, padded_size: usize) -> Vec<u8> {
        if self.config.pad_records && record.len() < padded_size {
            let mut padded = record;
            padded.resize(padded_size, 0);
            padded
        } else {
            record
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("design", &self.config.design)
            .field("tables", &self.tables.len())
            .field("pages", &self.pool.page_count())
            .finish()
    }
}

/// The group-commit flusher thread owns an `Arc` of its `LogManager`, so it
/// would outlive a database that is dropped without [`Engine::shutdown`]
/// (which stops it explicitly); stop it with the last database handle.
///
/// [`Engine::shutdown`]: crate::engine::Engine::shutdown
impl Drop for Database {
    fn drop(&mut self) {
        self.log.stop_flusher();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Design;

    fn schema() -> Vec<TableSpec> {
        vec![
            TableSpec::new(0, "subscriber", 10_000).with_secondary(),
            TableSpec::new(1, "call_forwarding", 10_000 * 16),
        ]
    }

    #[test]
    fn create_load_read_roundtrip() {
        let db = Database::create(
            EngineConfig::new(Design::Conventional { sli: true }),
            &schema(),
        );
        db.load_record(TableId(0), 7, b"subscriber-7", Some(1007))
            .unwrap();
        let rec = db
            .table(TableId(0))
            .unwrap()
            .read(7, Access::Latched, Access::Latched)
            .unwrap();
        assert_eq!(rec.unwrap(), b"subscriber-7");
        assert_eq!(
            db.table(TableId(0)).unwrap().secondary_probe(1007).unwrap(),
            Some(7)
        );
        assert!(db.table(TableId(9)).is_err());
    }

    #[test]
    fn stats_reset_after_load() {
        let db = Database::create(EngineConfig::new(Design::LogicalOnly), &schema());
        for k in 0..100 {
            db.load_record(TableId(0), k, b"payload", None).unwrap();
        }
        assert!(db.stats().snapshot().latches.total_acquired() > 0);
        db.reset_stats();
        assert_eq!(db.stats().snapshot().latches.total_acquired(), 0);
    }

    #[test]
    fn padding_is_config_driven() {
        let mut cfg = EngineConfig::new(Design::Conventional { sli: false });
        cfg.pad_records = true;
        let db = Database::create(cfg, &schema());
        assert_eq!(db.maybe_pad(vec![1, 2, 3], 10).len(), 10);
        let db2 = Database::create(
            EngineConfig::new(Design::Conventional { sli: false }),
            &schema(),
        );
        assert_eq!(db2.maybe_pad(vec![1, 2, 3], 10).len(), 3);
    }
}
