//! The partition manager.
//!
//! The partition manager owns the worker threads, the routing tables that map
//! `(table, key)` to the owning worker, and the ownership assignment that
//! makes the PLP designs latch-free.  It also drives repartitioning: drain
//! the in-flight transactions, take every partition's claim, slice/meld the
//! MRBTrees to the new boundaries, relocate heap records where the placement
//! policy requires it, update the routing tables, re-assign page ownership
//! and let go (Section 3.1 and Appendix A.3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};
use plp_btree::PartitionId;
use plp_storage::SlottedPage;
use plp_storage::{Access, OwnerToken, PageId, PlacementHint, PlacementPolicy, Rid};

use crate::catalog::{Design, TableId, TableSpec};
use crate::database::Database;
use crate::dlb::HistogramSet;
use crate::error::EngineError;
use crate::worker::WorkerHandle;

/// Routing table for one table: sorted partition start keys; partition `i`
/// covers `[starts[i], starts[i+1])` and is served by worker `i`.
#[derive(Debug, Clone)]
struct Routing {
    starts: Vec<u64>,
}

impl Routing {
    fn route(&self, key: u64) -> usize {
        match self.starts.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

/// Owns workers and routing state for the partitioned designs.
pub struct PartitionManager {
    db: Arc<Database>,
    design: Design,
    workers: Vec<WorkerHandle>,
    routing: RwLock<HashMap<TableId, Routing>>,
    /// DLB access histograms, fed from [`Self::route`] (the worker routing
    /// path).  `None` unless dynamic load balancing is enabled.
    histograms: Option<Arc<HistogramSet>>,
    /// Test/bench hook: when `>= 0`, the repartition whose per-table progress
    /// reaches this count fails with an injected error (exercising the
    /// repartition journal's rollback).  `-1` = disabled.
    fail_after_tables: AtomicI64,
    /// Test/bench hook: `(table index, slice/meld ops)` after which the next
    /// repartition fails *inside* a table's slice/meld loop, leaving that
    /// table partially repartitioned for the journal to restore.  One-shot.
    fail_mid_table: Mutex<Option<(usize, usize)>>,
    /// In-flight transaction accounting used to drain multi-stage
    /// transactions before a repartition (see [`Self::txn_ticket`]).
    drain: Mutex<DrainState>,
    drain_cv: Condvar,
    /// Trace timeline for repartitions.  Writes are serialized by the ticket
    /// drain (one repartition holds it at a time), satisfying the ring's
    /// single-writer rule.
    trace_ring: Arc<plp_instrument::TraceRing>,
}

#[derive(Debug, Default)]
struct DrainState {
    /// Transactions between `txn_ticket` and ticket drop.
    inflight: usize,
    /// A repartition is draining: new transactions must wait.
    draining: bool,
    /// Page ownership has been assigned ([`PartitionManager::mark_loaded`]):
    /// until then a latch-free access would fault, so `txn_ticket` refuses.
    loaded: bool,
}

// The flag rides in the padding after `draining`: the state every
// transaction locks does not grow (ROADMAP finding 7).
const _: () = assert!(std::mem::size_of::<DrainState>() == 2 * std::mem::size_of::<usize>());

/// RAII registration of one in-flight transaction (see
/// [`PartitionManager::txn_ticket`]).
pub(crate) struct TxnTicket<'a> {
    pm: &'a PartitionManager,
}

impl Drop for TxnTicket<'_> {
    fn drop(&mut self) {
        let mut state = self.pm.drain.lock();
        state.inflight -= 1;
        // Wake a draining repartition waiting for in-flight count zero.
        self.pm.drain_cv.notify_all();
    }
}

/// RAII drain of the dispatch pipeline: while held, no new transaction can
/// start and none is in flight.  Dropping re-opens the gate.
struct DrainGuard<'a> {
    pm: &'a PartitionManager,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.pm.drain.lock();
        state.draining = false;
        self.pm.drain_cv.notify_all();
    }
}

impl PartitionManager {
    /// Spawn one worker per partition and build uniform routing tables.
    pub fn new(db: Arc<Database>, design: Design, partitions: usize) -> Self {
        let workers = (0..partitions)
            .map(|i| WorkerHandle::spawn(i, db.clone(), design))
            .collect();
        let mut routing = HashMap::new();
        for table in db.tables() {
            let spec = table.spec();
            routing.insert(
                spec.id,
                Routing {
                    starts: spec.partition_bounds(partitions),
                },
            );
        }
        let trace_ring = db.stats().trace().register("repartition");
        Self {
            db,
            design,
            workers,
            routing: RwLock::new(routing),
            histograms: None,
            fail_after_tables: AtomicI64::new(-1),
            fail_mid_table: Mutex::new(None),
            drain: Mutex::new(DrainState::default()),
            drain_cv: Condvar::new(),
            trace_ring,
        }
    }

    /// Register one in-flight transaction.  Coordinators hold the returned
    /// ticket for the transaction's whole lifetime (all stages); a
    /// repartition drains the pipeline by blocking new tickets and waiting
    /// for the in-flight count to reach zero.  A ticket outlives every stage
    /// of its transaction, so no stage is routed under boundaries different
    /// from its predecessors' (whose thread-local locks it relies on).
    ///
    /// Before [`Self::mark_loaded`] no page has a latch-free owner yet, so
    /// the ticket is refused with [`EngineError::NotReady`].
    pub(crate) fn txn_ticket(&self) -> Result<TxnTicket<'_>, EngineError> {
        let mut state = self.drain.lock();
        if !state.loaded {
            return Err(EngineError::NotReady);
        }
        while state.draining {
            self.drain_cv.wait(&mut state);
        }
        state.inflight += 1;
        Ok(TxnTicket { pm: self })
    }

    /// Open the ticket gate for good: loading (or recovery) has finished and
    /// ownership is assigned.
    pub(crate) fn mark_loaded(&self) {
        self.drain.lock().loaded = true;
    }

    /// Transactions currently holding a ticket (diagnostic helper).
    pub fn inflight_txns(&self) -> usize {
        self.drain.lock().inflight
    }

    /// Close the ticket gate and wait until every in-flight transaction has
    /// finished.  In-flight transactions can still run their remaining
    /// stages (no claim is held yet), so this cannot deadlock; it only waits
    /// out the tail of running transactions.
    fn quiesce_transactions(&self) -> DrainGuard<'_> {
        let mut state = self.drain.lock();
        while state.draining {
            self.drain_cv.wait(&mut state);
        }
        state.draining = true;
        while state.inflight > 0 {
            self.drain_cv.wait(&mut state);
        }
        DrainGuard { pm: self }
    }

    /// Attach the DLB access histograms; [`Self::route`] records into them
    /// from then on.  Called by the engine during startup, before the manager
    /// is shared.
    pub(crate) fn attach_histograms(&mut self, histograms: Arc<HistogramSet>) {
        self.histograms = Some(histograms);
    }

    /// Test/bench hook: make the next repartition fail (with an injected
    /// error) once `tables` tables of the alignment group have been
    /// repartitioned — `0` fails before the driver table, `1` after the
    /// driver but before the first sibling, and so on.  One-shot.
    #[doc(hidden)]
    pub fn inject_repartition_failure_after(&self, tables: usize) {
        self.fail_after_tables
            .store(tables as i64, Ordering::Relaxed);
    }

    /// Test/bench hook: make the next repartition fail *inside* table number
    /// `table_index` (0 = the driver) of the alignment group, after `ops`
    /// slice/meld operations on that table — leaving it partially
    /// repartitioned so the journal rollback must restore a half-moved
    /// table.  One-shot; rollback itself is never injected against.
    #[doc(hidden)]
    pub fn inject_repartition_failure_mid_table(&self, table_index: usize, ops: usize) {
        *self.fail_mid_table.lock() = Some((table_index, ops));
    }

    /// Consume a pending mid-table injection if `table_index`'s slice/meld
    /// progress reached it.
    fn take_midtable_failure(
        &self,
        table_index: usize,
        ops_done: usize,
    ) -> Result<(), EngineError> {
        let mut slot = self.fail_mid_table.lock();
        if let Some((t, ops)) = *slot {
            if t == table_index && ops_done >= ops {
                *slot = None;
                return Err(EngineError::Abort(
                    "injected mid-table repartition failure".into(),
                ));
            }
        }
        Ok(())
    }

    /// Consume a pending injected failure if per-table progress reached it.
    fn take_injected_failure(&self, tables_done: usize) -> Result<(), EngineError> {
        let fail_after = self.fail_after_tables.load(Ordering::Relaxed);
        if fail_after >= 0 && tables_done as i64 >= fail_after {
            self.fail_after_tables.store(-1, Ordering::Relaxed);
            return Err(EngineError::Abort("injected repartition failure".into()));
        }
        Ok(())
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    pub fn worker(&self, index: usize) -> &WorkerHandle {
        &self.workers[index]
    }

    /// The worker that owns `key` of `table`.  When dynamic load balancing is
    /// enabled this is also where access counts are fed into the aging
    /// histograms (one relaxed atomic increment on the routing path).
    pub fn route(&self, table: TableId, key: u64) -> usize {
        if let Some(h) = &self.histograms {
            h.record(table, key);
        }
        let routing = self.routing.read();
        routing
            .get(&table)
            .map(|r| r.route(key).min(self.workers.len() - 1))
            .unwrap_or(0)
    }

    /// Current partition boundaries of a table.
    pub fn bounds(&self, table: TableId) -> Vec<u64> {
        self.routing
            .read()
            .get(&table)
            .map(|r| r.starts.clone())
            .unwrap_or_default()
    }

    /// Assign latch-free ownership of every page to its partition's worker
    /// (index pages for all PLP designs; heap pages when the placement policy
    /// makes them partition- or leaf-owned).  Called after loading and after
    /// every repartitioning.
    pub fn assign_ownership(&self) {
        if !self.design.latch_free_index() {
            return;
        }
        for table in self.db.tables() {
            let Some(mrb) = table.primary().as_mrb() else {
                continue;
            };
            // Map every index page of partition p to worker p's token.
            let mut leaf_tokens: HashMap<PageId, OwnerToken> = HashMap::new();
            for p in 0..mrb.partition_count() {
                let worker = p.min(self.workers.len() - 1);
                let token = self.workers[worker].token;
                let subtree = mrb.subtree(p as PartitionId);
                for page in subtree.all_pages() {
                    if let Ok(frame) = self.db.pool().get(page) {
                        frame.set_owner(token);
                    }
                    leaf_tokens.insert(page, token);
                }
            }
            if !self.design.latch_free_heap() {
                continue;
            }
            // Heap pages follow their owner (partition or leaf).
            for page_id in table.heap().page_ids() {
                let Ok(frame) = self.db.pool().get(page_id) else {
                    continue;
                };
                let token = match table.heap().policy() {
                    PlacementPolicy::Regular => None,
                    PlacementPolicy::PartitionOwned => {
                        let partition = frame.with_page(SlottedPage::partition_owner) as usize;
                        Some(self.workers[partition.min(self.workers.len() - 1)].token)
                    }
                    PlacementPolicy::LeafOwned => {
                        let leaf = frame.with_page(SlottedPage::owner_leaf);
                        leaf_tokens.get(&leaf).copied()
                    }
                };
                if let Some(token) = token {
                    frame.set_owner(token);
                }
            }
        }
    }

    /// Whether `spec` belongs to `driver`'s declared alignment group (and is
    /// not the driver itself).  The group is the driver's root table plus
    /// every table whose [`TableSpec::partitioned_with`] names that root.
    fn in_alignment_group(spec: &TableSpec, driver: &TableSpec) -> bool {
        if spec.id == driver.id {
            return false;
        }
        let root = driver.partitioned_with.unwrap_or(driver.id);
        spec.id == root || spec.partitioned_with == Some(root)
    }

    /// Repartition the schema around `table_id`'s new boundary set (exactly
    /// one boundary per worker, starting at the same minimum key).
    ///
    /// Every table of `table_id`'s *declared alignment group* (its root plus
    /// all tables whose [`TableSpec::partitioned_with`] names that root) is
    /// repartitioned to boundaries scaled by the ratio of its
    /// `partition_granularity` to the driver table's: workloads encode
    /// composite keys as `driver_key * granularity + rest` (see
    /// [`crate::catalog::TableSpec::partition_granularity`]), so scaling
    /// keeps those tables' partitions aligned. Without the propagation, an
    /// action routed by the driver table's new boundaries would make
    /// latch-free accesses to sibling-table pages still owned by another
    /// worker. Independent tables — e.g. TPC-C's `item`, which declares no
    /// alignment — are left untouched.
    ///
    /// * Logical-only: only the routing tables change.
    /// * PLP designs: each MRBTree is sliced/melded to its new boundaries,
    ///   heap records are relocated as required by the placement policy, and
    ///   page ownership is re-assigned.
    ///
    /// Returns the number of heap records physically moved.
    ///
    /// Failure atomicity: the old boundaries of every table are journalled
    /// before it is touched. If a sibling slice/meld fails, the journal is
    /// replayed in reverse, driving the already-repartitioned tables back to
    /// their previous boundaries, so on `Err` the engine keeps serving with
    /// the *old* partitioning and cross-table alignment intact. Only if the
    /// rollback itself also fails is each table's routing re-derived from its
    /// tree's actual partition table (per-table routing == ownership still
    /// holds, but cross-table alignment may be broken — callers should treat
    /// *that* as fatal for latch-free execution; it is reported by a
    /// `routing re-derived` marker in the error's display).
    pub fn repartition(&self, table_id: TableId, new_bounds: &[u64]) -> Result<usize, EngineError> {
        assert_eq!(
            new_bounds.len(),
            self.workers.len(),
            "one partition per worker"
        );
        let old_bounds = self.bounds(table_id);
        assert_eq!(old_bounds.first(), new_bounds.first(), "first bound fixed");
        let driver = self.db.table(table_id)?.spec().clone();
        for &b in new_bounds {
            assert_eq!(
                b % driver.partition_granularity,
                0,
                "boundary {b} not aligned to the table's granularity {}",
                driver.partition_granularity
            );
        }

        // Drain the transaction pipeline first: no new transactions start
        // and every in-flight (possibly multi-stage) transaction finishes
        // before ownership moves.  Without this, a stage-2 action routed
        // under the new boundaries would look for the thread-local locks its
        // stage 1 took on the old owner.  The drain happens *before* any
        // claim is taken so in-flight transactions can still run their
        // remaining stages.
        let drain_start = Instant::now();
        let trace_t0 = plp_instrument::trace::now_nanos();
        let _drain = self.quiesce_transactions();
        // With no ticket out, no group is queued or running.  Every claim
        // keeps out what is left, a cleaning pass, until ownership has
        // moved.
        let claims: Vec<_> = self.workers.iter().map(WorkerHandle::claim).collect();
        // Drain latency: from first blocking step until every claim is held.
        let move_start = Instant::now();
        self.db
            .stats()
            .latency()
            .repartition_drain
            .record_duration(drain_start.elapsed());
        // Ownership must be re-assigned before the claims go, so errors must
        // not return before that.
        let mut journal: Vec<(TableId, Vec<u64>)> = Vec::new();
        let result = (|| {
            self.take_injected_failure(0)?;
            journal.push((table_id, self.bounds(table_id)));
            let mut records_moved = self.repartition_one(table_id, new_bounds, Some(0))?;
            let mut tables_done = 1usize;
            for table in self.db.tables() {
                let spec = table.spec();
                if !Self::in_alignment_group(spec, &driver) {
                    continue;
                }
                self.take_injected_failure(tables_done)?;
                let scaled: Vec<u64> = new_bounds
                    .iter()
                    .map(|&b| b / driver.partition_granularity * spec.partition_granularity)
                    .collect();
                journal.push((spec.id, self.bounds(spec.id)));
                records_moved += self.repartition_one(spec.id, &scaled, Some(tables_done))?;
                tables_done += 1;
            }
            Ok(records_moved)
        })();
        if result.is_err() {
            if self.rollback_journal(&journal).is_ok() {
                // Count only rollbacks that actually undid something (a
                // failure before the first table is journalled has nothing
                // to roll back).
                if !journal.is_empty() {
                    self.db.stats().dlb().rollback();
                }
            } else {
                // Rollback failed too: a slice/meld left some tree with
                // boundaries the routing map has never seen. Routing and
                // ownership are both derived from partition indexes, so
                // re-deriving routing from each tree's actual partition table
                // restores the per-table routing == ownership invariant
                // (cross-table alignment may be broken).
                let mut routing = self.routing.write();
                for table in self.db.tables() {
                    if let Some(mrb) = table.primary().as_mrb() {
                        let starts = mrb
                            .partition_table()
                            .ranges()
                            .iter()
                            .map(|r| r.start_key)
                            .collect();
                        routing.insert(table.spec().id, Routing { starts });
                    }
                }
            }
        }
        self.assign_ownership();
        drop(claims);
        // Move latency: boundary slicing + record movement + ownership
        // re-assignment, i.e. the stop-the-world window minus the drain.
        self.db
            .stats()
            .latency()
            .repartition_move
            .record_duration(move_start.elapsed());
        self.trace_ring.event(
            plp_instrument::TraceEvent::Repartition,
            u64::from(table_id.0),
            trace_t0,
            plp_instrument::trace::now_nanos().saturating_sub(trace_t0),
        );
        if result.is_ok() {
            // Make the boundary change recoverable: one repartition record
            // per touched table.  Durability rides the normal flusher — any
            // later durable commit implies these earlier records are durable
            // too (the log is written strictly in LSN order).
            let log = self.db.log_manager();
            for (table_id, _) in &journal {
                log.log_system(plp_wal::LogRecord::with_payload(
                    0,
                    plp_wal::LogRecordKind::Repartition,
                    table_id.0,
                    0,
                    None,
                    plp_wal::RepartitionPayload {
                        table: table_id.0,
                        bounds: self.bounds(*table_id),
                    }
                    .encode(),
                ));
            }
        }
        result
    }

    /// Replay the repartition journal in reverse, driving every table that
    /// was already repartitioned back to its previous boundaries.  Every
    /// claim must still be held; the caller re-assigns ownership afterwards.
    fn rollback_journal(&self, journal: &[(TableId, Vec<u64>)]) -> Result<(), EngineError> {
        for (table_id, old_bounds) in journal.iter().rev() {
            self.drive_to_bounds(*table_id, old_bounds, None)?;
        }
        Ok(())
    }

    /// Slice/meld one table to `new_bounds` and update its routing entry.
    /// Callers must hold every claim and re-assign ownership after.
    /// `inject` is the table's index in the alignment group, used by the
    /// mid-table failure injection hook (forward pass only — rollback passes
    /// `None`).
    fn repartition_one(
        &self,
        table_id: TableId,
        new_bounds: &[u64],
        inject: Option<usize>,
    ) -> Result<usize, EngineError> {
        if self.bounds(table_id) == new_bounds {
            return Ok(0);
        }
        self.drive_to_bounds(table_id, new_bounds, inject)
    }

    /// Drive one table's tree and routing to `new_bounds` regardless of what
    /// the routing map currently says (the slice/meld loop works off the
    /// tree's actual partition table, so this also recovers a partially
    /// repartitioned table during journal rollback).
    fn drive_to_bounds(
        &self,
        table_id: TableId,
        new_bounds: &[u64],
        inject: Option<usize>,
    ) -> Result<usize, EngineError> {
        let old_bounds = self.bounds(table_id);
        let mut records_moved = 0usize;
        let mut ops_done = 0usize;
        let table = self.db.table(table_id)?;
        let physical =
            self.design.latch_free_index() || self.db.config().design == Design::LogicalOnly;
        if physical {
            // Physical repartitioning only applies to MRBTree-backed tables.
            if let Some(mrb) = table.primary().as_mrb() {
                // Slice at every new boundary that does not exist yet.
                for &b in new_bounds {
                    let existing = mrb.partition_table().ranges();
                    if !existing.iter().any(|r| r.start_key == b) {
                        if let Some(idx) = inject {
                            self.take_midtable_failure(idx, ops_done)?;
                        }
                        let report = mrb
                            .slice(b)
                            .map_err(|e| EngineError::from_btree(table_id, e))?;
                        records_moved +=
                            self.fix_placement_after_slice(table_id, &report.moved_leaf_entries)?;
                        ops_done += 1;
                    }
                }
                // Meld away every old boundary that is no longer wanted.
                loop {
                    let existing = mrb.partition_table().ranges();
                    let obsolete = existing
                        .iter()
                        .enumerate()
                        .skip(1)
                        .find(|(_, r)| !new_bounds.contains(&r.start_key))
                        .map(|(i, _)| i as PartitionId);
                    match obsolete {
                        Some(p) => {
                            if let Some(idx) = inject {
                                self.take_midtable_failure(idx, ops_done)?;
                            }
                            let report = mrb
                                .meld(p)
                                .map_err(|e| EngineError::from_btree(table_id, e))?;
                            records_moved += self
                                .fix_placement_after_slice(table_id, &report.moved_leaf_entries)?;
                            ops_done += 1;
                        }
                        None => break,
                    }
                }
            }
        }

        // Update routing before rebucketing so the policy sees the *new*
        // assignment (rebucketing compares old vs current routing).
        self.routing.write().insert(
            table_id,
            Routing {
                starts: new_bounds.to_vec(),
            },
        );

        // PLP-Partition: heap pages are bucketed by partition id, so a
        // boundary move forces records whose partition changed onto pages of
        // their new partition.
        if physical
            && table.primary().as_mrb().is_some()
            && table.heap().policy() == PlacementPolicy::PartitionOwned
        {
            records_moved += self.rebucket_partition_records(table_id, &old_bounds)?;
        }
        Ok(records_moved)
    }

    /// PLP-Leaf record relocation after a slice/meld moved leaf entries to a
    /// different leaf page (the Section 3.3 callback).
    fn fix_placement_after_slice(
        &self,
        table_id: TableId,
        moved: &[(u64, u64)],
    ) -> Result<usize, EngineError> {
        let table = self.db.table(table_id)?;
        if table.heap().policy() != PlacementPolicy::LeafOwned || moved.is_empty() {
            return Ok(0);
        }
        let mut count = 0;
        for &(key, _) in moved {
            let leaf = table
                .primary()
                .locate_leaf(key, Access::Latched)
                .map_err(|e| EngineError::from_btree(table_id, e))?;
            let packed = table
                .primary()
                .probe(key, Access::Latched)
                .map_err(|e| EngineError::from_btree(table_id, e))?
                .unwrap_or(u64::MAX);
            table.relocate_records_to_leaf(
                &[(key, packed)],
                leaf,
                Access::Latched,
                Access::Latched,
            )?;
            count += 1;
        }
        Ok(count)
    }

    /// PLP-Partition record rebucketing: every record whose partition changed
    /// is moved to a heap page owned by the new partition.
    fn rebucket_partition_records(
        &self,
        table_id: TableId,
        old_bounds: &[u64],
    ) -> Result<usize, EngineError> {
        let table = self.db.table(table_id)?;
        let new_bounds = self.bounds(table_id);
        let route = |bounds: &[u64], key: u64| -> usize {
            match bounds.binary_search(&key) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            }
        };
        // Find the keys whose partition assignment changed.
        let mut moved = 0usize;
        let entries = table
            .primary()
            .range_scan(0, u64::MAX - 1, Access::Latched)
            .map_err(|e| EngineError::from_btree(table_id, e))?;
        for (key, packed) in entries {
            let old_p = route(old_bounds, key);
            let new_p = route(&new_bounds, key);
            if old_p == new_p {
                continue;
            }
            let rid = Rid::unpack(packed);
            let Ok(record) = table.heap().get(rid, Access::Latched) else {
                continue;
            };
            let new_rid = table.heap().insert(
                &record,
                PlacementHint::Partition(new_p as u32),
                Access::Latched,
            )?;
            table
                .heap()
                .delete(rid, PlacementHint::Partition(old_p as u32), Access::Latched)
                .ok();
            table
                .primary()
                .update_value(key, new_rid.pack(), Access::Latched)
                .map_err(|e| EngineError::from_btree(table_id, e))?;
            moved += 1;
        }
        Ok(moved)
    }

    /// One PLP cleaning pass: each partition's dirty pages are cleaned under
    /// its claim, waiting for whoever holds it; un-owned pages are cleaned
    /// latched.  Returns the number of pages cleaned.
    pub fn clean_pages(&self) -> usize {
        let cleaner = self.db.cleaner();
        let mut total = 0;
        for (token, pages) in cleaner.collect_requests() {
            if token == OwnerToken::NONE {
                total += cleaner.clean_unowned(&pages);
            } else if let Some(w) = self.workers.iter().find(|w| w.token == token) {
                total += cleaner.clean_owned(w.claim().token, &pages);
            }
        }
        total
    }

    /// Shut every worker down (joins their threads; idempotent).
    pub fn shutdown(&self) {
        for w in &self.workers {
            w.shutdown();
        }
    }
}

impl std::fmt::Debug for PartitionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionManager")
            .field("design", &self.design)
            .field("workers", &self.workers.len())
            .finish()
    }
}
