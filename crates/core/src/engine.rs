//! The engine front-end: sessions, transaction execution, repartitioning,
//! checkpointing and crash recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use plp_instrument::trace::now_nanos;
use plp_instrument::{
    obs_enabled, CsCategory, FlightRecorder, ObsServer, PhaseBreakdown, SlowTxn, TraceEvent,
    TraceRing,
};
use plp_lock::AgentLockCache;
use plp_txn::Transaction;
use plp_wal::{CheckpointData, Lsn};

use crate::action::{Action, ActionFn, ActionOutput, PlanContinuation, TransactionPlan};
use crate::catalog::{Design, EngineConfig, TableId, TableSpec};
use crate::ctx::ActionCtx;
use crate::database::Database;
use crate::dlb::{HistogramSet, LoadBalancerHandle};
use crate::error::EngineError;
use crate::partition::PartitionManager;
use crate::reply::BatchReplySlot;
use crate::request::{ErrorCode, Op, Request, Response};
use crate::worker::{obs_now, ActionReply, WorkerLink};

/// A running instance of one execution design over one database.
pub struct Engine {
    db: Arc<Database>,
    design: Design,
    // Field order matters for drop: the checkpointer, metrics sampler and
    // DLB controller must stop before the partition workers they observe are
    // torn down.
    checkpointer: Option<Periodic>,
    sampler: Option<Periodic>,
    /// Live observability endpoint, present when
    /// [`EngineConfig::obs_endpoint`] is configured (and the build is not
    /// `obs-stub`).  Reads only the shared stats registry and the flight
    /// recorder, so its position in the drop order is uncritical — it is
    /// stopped first anyway so shutdown never races a scrape.
    obs: Option<ObsServer>,
    /// Flight recorder, present when [`EngineConfig::metrics_interval`] or
    /// [`EngineConfig::flight_dump`] is configured.
    recorder: Option<Arc<FlightRecorder>>,
    /// Autopsy path registered with the panic hook (see
    /// [`EngineConfig::flight_dump`]).
    flight_dump: Option<PathBuf>,
    dlb: Option<LoadBalancerHandle>,
    partition_mgr: Option<Arc<PartitionManager>>,
    /// Links no session holds (see [`Session`]).
    links: Mutex<Vec<Vec<WorkerLink>>>,
}

/// What [`Engine::recover`] found and replayed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Committed *writers* whose effects were replayed: transactions with a
    /// commit record in the log.  Read-only transactions append none, so
    /// this is at most — not equal to — the pre-crash `committed()` count.
    pub committed_txns: u64,
    /// Redo records applied.
    pub records_replayed: u64,
    /// Transactions with logged work but no surviving outcome record (their
    /// effects were *not* replayed).
    pub loser_txns: u64,
    /// LSN of the checkpoint that seeded the analysis pass, if any.
    pub checkpoint_lsn: Option<Lsn>,
    /// Bytes discarded from the torn tail.
    pub torn_bytes: u64,
    /// LSN at which logging resumed.
    pub tail_lsn: Lsn,
    /// Tables whose partition boundaries were restored from the log.
    pub tables_rebounded: u64,
}

impl Engine {
    /// Create the database for `schema` and start the engine (worker threads
    /// for the partitioned designs; the dynamic-load-balancing controller
    /// when [`EngineConfig::dlb`] is enabled; the background checkpointer
    /// when a log device and [`EngineConfig::checkpoint_interval`] are
    /// configured).  Load data through [`Database::load_record`] (or a
    /// workload loader) and then call [`Engine::finish_loading`] before
    /// measuring — the DLB controller starts paused and only begins
    /// observing load after `finish_loading`.
    pub fn start(config: EngineConfig, schema: &[TableSpec]) -> Self {
        let db = Database::create(config, schema);
        Self::build(db)
    }

    /// [`Engine::start`] wrapped in an `Arc` — the handoff shape the network
    /// front end consumes.  Each `plp-server` connection thread clones the
    /// `Arc`, opens one [`Session`] and drives it entirely through the
    /// declarative [`Session::run_deferred`] entry point, so server code
    /// never builds closure plans.  Shutdown happens through the
    /// background-thread handles when the last clone drops.
    pub fn start_shared(config: EngineConfig, schema: &[TableSpec]) -> Arc<Self> {
        Arc::new(Self::start(config, schema))
    }

    /// Assemble the running engine (workers, DLB, checkpointer) over an
    /// already-created database.
    fn build(db: Arc<Database>) -> Self {
        let config = db.config().clone();
        let design = config.design;
        let partitions = config.partitions;
        let dlb_config = config.dlb.clone();
        let (partition_mgr, dlb) = if design.is_partitioned() {
            let mut pm = PartitionManager::new(db.clone(), design, partitions);
            let histograms = if dlb_config.enabled {
                let key_spaces: Vec<u64> = db.tables().iter().map(|t| t.spec().key_space).collect();
                let h = Arc::new(HistogramSet::new(
                    &key_spaces,
                    dlb_config.top_buckets,
                    dlb_config.sub_buckets,
                ));
                pm.attach_histograms(h.clone());
                Some(h)
            } else {
                None
            };
            let pm = Arc::new(pm);
            let dlb = histograms
                .map(|h| LoadBalancerHandle::start(db.clone(), pm.clone(), h, design, dlb_config));
            (Some(pm), dlb)
        } else {
            (None, None)
        };
        let checkpointer = match (config.checkpoint_interval, db.log_manager().has_device()) {
            (Some(interval), true) => {
                let (db, pm) = (db.clone(), partition_mgr.clone());
                Some(Periodic::start("plp-checkpointer", interval, move || {
                    let data = gather_checkpoint(&db, pm.as_deref());
                    db.log_manager().write_checkpoint(data);
                }))
            }
            _ => None,
        };
        // The flight recorder exists whenever anything consumes it: a
        // periodic sampler, a panic-time autopsy path, or the live
        // endpoint's `/flight.json` route.
        let recorder = if config.metrics_interval.is_some()
            || config.flight_dump.is_some()
            || config.obs_endpoint.is_some()
        {
            Some(Arc::new(FlightRecorder::default()))
        } else {
            None
        };
        if let (Some(rec), Some(path)) = (&recorder, &config.flight_dump) {
            plp_instrument::register_flight_dump(path.clone(), rec, db.stats());
        }
        let sampler = match (&recorder, config.metrics_interval) {
            (Some(rec), Some(interval)) => {
                let (db, rec) = (db.clone(), rec.clone());
                Some(Periodic::start("plp-metrics", interval, move || {
                    rec.sample_now(db.stats())
                }))
            }
            _ => None,
        };
        // In obs-stub builds there is nothing worth exposing (histograms and
        // traces compile to no-ops), so the endpoint is not started — which
        // also keeps the fig_obs instrumented-vs-stub comparison fair.
        let obs = match &config.obs_endpoint {
            Some(addr) if obs_enabled() => Some(
                ObsServer::start(addr, db.stats().clone(), recorder.clone())
                    .unwrap_or_else(|e| panic!("bind observability endpoint {addr}: {e}")),
            ),
            _ => None,
        };
        Self {
            db,
            design,
            checkpointer,
            sampler,
            obs,
            recorder,
            flight_dump: config.flight_dump,
            dlb,
            partition_mgr,
            links: Mutex::new(Vec::new()),
        }
    }

    /// Recover an engine from the log device in `log_dir` after a crash (or
    /// any exit without shutdown).  Scans the segments from the last
    /// checkpoint's analysis point, validates CRCs, tolerates a torn tail,
    /// replays every committed transaction's physiological redo records into
    /// a fresh database, and restores the partition boundaries recorded by
    /// the checkpoint and any later repartition records — so the recovered
    /// engine routes identically to the pre-crash one.  Uncommitted effects
    /// never reappear: losers (no commit record) are not replayed.
    ///
    /// `config` must describe the same design/schema the log was written
    /// under (the checkpoint's partition count is cross-checked); its
    /// `log_dir` is overridden with `log_dir`, and logging resumes where the
    /// valid log ends.
    pub fn recover(
        log_dir: impl AsRef<Path>,
        mut config: EngineConfig,
        schema: &[TableSpec],
    ) -> Result<(Self, RecoveryReport), EngineError> {
        let log_dir = log_dir.as_ref();
        let scan = plp_wal::recovery::scan_log(log_dir)
            .map_err(|e| EngineError::Recovery(format!("log scan failed: {e}")))?;
        if let Some((_, ckpt)) = &scan.checkpoint {
            if config.design.is_partitioned() && ckpt.partitions != config.partitions as u32 {
                return Err(EngineError::Recovery(format!(
                    "checkpoint was cut with {} partitions, config asks for {}",
                    ckpt.partitions, config.partitions
                )));
            }
        }
        config.log_dir = Some(log_dir.to_path_buf());
        let next_txn_id = scan.max_txn_id.saturating_add(1).max(
            scan.checkpoint
                .as_ref()
                .map(|(_, c)| c.next_txn_id)
                .unwrap_or(1),
        );
        let db = Database::create_at(config, schema, next_txn_id);

        // Redo pass: apply committed transactions' data records in LSN
        // order.  Single-threaded, latched access — workers do not exist
        // yet, exactly like the loading phase.
        let mut records_replayed = 0u64;
        for record in scan.redo_records() {
            Self::replay_record(&db, record)?;
            records_replayed += 1;
        }

        let engine = Self::build(db);

        // Restore partition boundaries (checkpoint overlaid with later
        // repartition records) so routing matches the pre-crash engine.
        // Roots go first; members then mostly no-op because the root's
        // repartition already propagated through the alignment group.
        let mut tables_rebounded = 0u64;
        if let Some(pm) = &engine.partition_mgr {
            let mut final_bounds = scan.final_bounds();
            final_bounds.sort_by_key(|(id, _)| {
                let is_member = engine
                    .db
                    .table(TableId(*id))
                    .ok()
                    .and_then(|t| t.spec().partitioned_with)
                    .is_some();
                (is_member, *id)
            });
            for (table, bounds) in final_bounds {
                let Ok(t) = engine.db.table(TableId(table)) else {
                    return Err(EngineError::Recovery(format!(
                        "log references unknown table {table}"
                    )));
                };
                if bounds.len() != pm.worker_count() {
                    return Err(EngineError::Recovery(format!(
                        "table {} has {} logged bounds but {} workers",
                        t.spec().name,
                        bounds.len(),
                        pm.worker_count()
                    )));
                }
                if pm.bounds(TableId(table)) != bounds {
                    pm.repartition(TableId(table), &bounds)?;
                    tables_rebounded += 1;
                }
            }
            pm.assign_ownership();
        }
        engine.mark_loaded();

        let report = RecoveryReport {
            committed_txns: scan.committed.len() as u64,
            records_replayed,
            loser_txns: scan.losers.len() as u64,
            checkpoint_lsn: scan.checkpoint.as_ref().map(|(l, _)| *l),
            torn_bytes: scan.torn_bytes,
            tail_lsn: scan.tail_lsn,
            tables_rebounded,
        };
        engine.db.stats().wal().set_recovery(
            report.committed_txns,
            report.records_replayed,
            report.torn_bytes,
        );
        Ok((engine, report))
    }

    /// Apply one committed redo record to a fresh database.
    fn replay_record(db: &Database, record: &plp_wal::LogRecord) -> Result<(), EngineError> {
        use plp_storage::Access;
        use plp_wal::{LogRecordKind, UpdatePayload};
        let table = db.table(TableId(record.table)).map_err(|_| {
            EngineError::Recovery(format!(
                "redo record references unknown table {}",
                record.table
            ))
        })?;
        match record.kind {
            LogRecordKind::Insert => {
                table.insert(
                    record.page,
                    record.payload(),
                    record.secondary,
                    Access::Latched,
                    Access::Latched,
                )?;
            }
            LogRecordKind::Update => {
                let Some(images) = UpdatePayload::decode(record.payload()) else {
                    return Err(EngineError::Recovery(format!(
                        "undecodable update payload at {}",
                        record.lsn
                    )));
                };
                let applied =
                    table.update_with(record.page, Access::Latched, Access::Latched, |bytes| {
                        if bytes.len() == images.after.len() {
                            bytes.copy_from_slice(&images.after);
                        }
                    })?;
                if !applied {
                    return Err(EngineError::Recovery(format!(
                        "update of missing key {} in table {} at {}",
                        record.page, record.table, record.lsn
                    )));
                }
            }
            LogRecordKind::Delete => {
                table.delete(
                    record.page,
                    record.secondary,
                    Access::Latched,
                    Access::Latched,
                )?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Cut a fuzzy checkpoint right now (requires a log device).  Returns
    /// the checkpoint record's LSN.
    fn checkpoint_now(&self) -> Lsn {
        let data = gather_checkpoint(&self.db, self.partition_mgr.as_deref());
        self.db.log_manager().write_checkpoint(data)
    }

    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    pub fn design(&self) -> Design {
        self.design
    }

    pub fn partition_manager(&self) -> Option<&PartitionManager> {
        self.partition_mgr.as_deref()
    }

    /// Handle to the dynamic-load-balancing controller, when enabled via
    /// [`EngineConfig::dlb`].  The controller starts paused and
    /// [`Engine::finish_loading`] resumes it; its activity counters live in
    /// the shared stats registry (`db().stats().dlb()`).
    pub fn dlb(&self) -> Option<&LoadBalancerHandle> {
        self.dlb.as_ref()
    }

    /// The flight recorder, when [`EngineConfig::metrics_interval`] or
    /// [`EngineConfig::flight_dump`] is configured.  Holds the bounded
    /// time-series of stats deltas the background sampler produces; use
    /// [`FlightRecorder::samples_json`] / [`FlightRecorder::samples_table`]
    /// to export it.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Address of the live observability endpoint, when
    /// [`EngineConfig::obs_endpoint`] is configured (resolves port 0 to the
    /// ephemeral port actually bound).  `None` in `obs-stub` builds.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(|o| o.addr())
    }

    /// Render every registered trace ring (sessions, workers, background
    /// threads) as chrome://tracing Trace Event JSON.
    pub fn trace_json(&self) -> String {
        self.db.stats().trace().chrome_json()
    }

    /// Finish the loading phase: assign latch-free page ownership (PLP),
    /// admit transactions (before this every one answers
    /// [`EngineError::NotReady`]), reset all statistics so the measured run
    /// starts from zero, and unpause the DLB controller (if enabled) now
    /// that the load phase's access pattern can no longer pollute the
    /// histograms.
    pub fn finish_loading(&self) {
        if let Some(pm) = &self.partition_mgr {
            pm.assign_ownership();
        }
        self.mark_loaded();
        self.db.reset_stats();
    }

    /// Admit transactions from now on and unpause the DLB controller, for
    /// [`Self::finish_loading`] and [`Self::recover`] alike.  Each design
    /// keeps the flag where its transactions already look: the partition
    /// manager's ticket gate, or the central lock manager.
    fn mark_loaded(&self) {
        match &self.partition_mgr {
            Some(pm) => pm.mark_loaded(),
            None => self.db.lock_manager().mark_loaded(),
        }
        if let Some(dlb) = &self.dlb {
            dlb.resume();
        }
    }

    /// Open a session (one per client thread).  Sessions hold per-agent state
    /// such as the SLI lock cache.
    pub fn session(&self) -> Session<'_> {
        let sli = match self.design {
            Design::Conventional { sli: true } => {
                // Agent ids live far above transaction ids to avoid collisions.
                static NEXT_AGENT: std::sync::atomic::AtomicU64 =
                    std::sync::atomic::AtomicU64::new(1);
                let id = u64::MAX - NEXT_AGENT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Some(AgentLockCache::new(id))
            }
            _ => None,
        };
        static NEXT_SESSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let session_id = NEXT_SESSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let ring = self
            .db
            .stats()
            .trace()
            .register(format!("session-{session_id}"));
        Session {
            engine: self,
            sli,
            ring,
            link: Vec::new(),
        }
    }

    /// Repartition a table to new boundaries (partitioned designs only).
    /// Returns the number of heap records physically moved.
    pub fn repartition(&self, table: TableId, new_bounds: &[u64]) -> Result<usize, EngineError> {
        match &self.partition_mgr {
            Some(pm) => pm.repartition(table, new_bounds),
            None => Ok(0), // the conventional design has nothing to repartition
        }
    }

    /// Run one page-cleaning round for the design; returns the pages cleaned.
    pub fn clean_pages(&self) -> usize {
        match &self.partition_mgr {
            Some(pm) if self.design.latch_free_index() => pm.clean_pages(),
            _ => self.db.cleaner().clean_pass(),
        }
    }

    /// Shut down the checkpointer, DLB controller, worker threads and the
    /// WAL group-commit flusher (idempotent; also happens on drop).  With a
    /// log device attached, a final checkpoint is cut and the log flushed,
    /// so a clean shutdown recovers without replaying the whole history's
    /// tail.
    pub fn shutdown(&mut self) {
        if let Some(mut obs) = self.obs.take() {
            obs.stop();
        }
        // Dropping a `Periodic` stops and joins its thread.
        drop(self.checkpointer.take());
        if self.db.log_manager().has_device() {
            self.checkpoint_now();
        }
        drop(self.sampler.take());
        if let Some(rec) = self.recorder.take() {
            // Final cut so the dump covers activity since the last tick, then
            // an explicit "shutdown" autopsy before the panic hook forgets us.
            rec.sample_now(self.db.stats());
            if let Some(path) = self.flight_dump.take() {
                rec.dump_to(&path, self.db.stats(), "shutdown");
            }
            plp_instrument::unregister_flight_dump(&rec);
        }
        if let Some(dlb) = self.dlb.take() {
            dlb.stop();
        }
        if let Some(pm) = &self.partition_mgr {
            pm.shutdown();
        }
        // Last: nothing above can append any more.  The flusher thread owns
        // an `Arc` of its `LogManager`, so without this it would outlive the
        // engine, waking every 100 µs for the rest of the process.
        self.db.log_manager().stop_flusher();
    }
}

/// Gather the fuzzy-checkpoint payload from the live engine state.
fn gather_checkpoint(db: &Database, pm: Option<&PartitionManager>) -> CheckpointData {
    let table_bounds = match pm {
        Some(pm) => db
            .tables()
            .iter()
            .map(|t| (t.spec().id.0, pm.bounds(t.spec().id)))
            .collect(),
        None => Vec::new(),
    };
    CheckpointData {
        active_txns: db.txn_manager().active_txns(),
        next_txn_id: db.txn_manager().next_txn_id(),
        partitions: pm.map(|p| p.worker_count() as u32).unwrap_or(0),
        table_bounds,
        allocated_pages: db.pool().page_count() as u64,
    }
}

/// A named background thread that runs `tick` every `interval` until the
/// handle drops, which stops and joins it (the checkpointer and the metrics
/// sampler).
struct Periodic {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Periodic {
    fn start(name: &str, interval: Duration, mut tick: impl FnMut() + Send + 'static) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let (lock, cv) = &*stop2;
                loop {
                    {
                        let mut stopped = lock.lock();
                        if !*stopped {
                            cv.wait_for(&mut stopped, interval);
                        }
                        if *stopped {
                            return;
                        }
                    }
                    tick();
                }
            })
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock() = true;
        cv.notify_all();
        if let Some(t) = self.thread.take() {
            crate::worker::join_unless_self(t);
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("design", &self.design)
            .field("partitioned", &self.partition_mgr.is_some())
            .finish()
    }
}

/// Per-client-thread execution handle.  A session that has to send borrows
/// a link from the engine's pool and gives it back when it drops, so the
/// engine holds as many links as sessions that sent at once.
pub struct Session<'e> {
    engine: &'e Engine,
    sli: Option<AgentLockCache>,
    /// This session's trace timeline (one chrome://tracing row); transaction,
    /// dispatch and reply-wait spans land here.
    ring: Arc<TraceRing>,
    /// One [`WorkerLink`] per worker; empty until the session first sends.
    link: Vec<WorkerLink>,
}

/// An SLI agent's inherited locks outlive its transactions, not its session:
/// a closing session hands them back to the central lock manager, and its
/// link back to the engine's pool.
impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(sli) = &mut self.sli {
            sli.release_inherited(self.engine.db.lock_manager());
        }
        if !self.link.is_empty() {
            let link = std::mem::take(&mut self.link);
            self.engine.links.lock().push(link);
        }
    }
}

/// One in-flight *message* of the current stage (a group the session could
/// not run itself), remembered with the stage indices its replies scatter
/// back into.
struct Pending {
    worker: usize,
    indices: Vec<usize>,
    slot: BatchReplySlot<ActionReply>,
    /// `now_nanos()` at dispatch — the trace clock, so the reply wake derives
    /// both the round-trip duration and its trace timestamp from a single
    /// clock read.
    sent_at: u64,
}

/// Close one stage: plan the next one (the continuation borrows this stage's
/// outputs), then move the outputs into the transaction's result — no clones.
/// `None` when the transaction has no further work.
fn next_stage(
    then: Option<PlanContinuation>,
    stage_outputs: Vec<ActionOutput>,
    all_outputs: &mut Vec<ActionOutput>,
) -> Option<TransactionPlan> {
    let next = then.map(|cont| cont(&stage_outputs));
    all_outputs.extend(stage_outputs);
    next.filter(|plan| !plan.actions.is_empty() || plan.then.is_some())
}

impl Session<'_> {
    /// Execute one declarative [`Request`] and return its [`Response`] —
    /// the value-typed entry point shared by in-process callers and the
    /// `plp-server` wire path.  The request is validated (tables exist;
    /// range scans stay inside one partition-granularity unit on the
    /// partitioned designs), lowered onto a single-stage
    /// [`TransactionPlan`], and executed through [`Session::execute`]'s
    /// usual commit/abort machinery; errors come back as wire-stable
    /// [`ErrorCode`]s instead of [`EngineError`]s.  Before
    /// [`Engine::finish_loading`] every request answers
    /// [`ErrorCode::NotReady`].
    pub fn run(&mut self, request: Request) -> Response {
        self.run_with(request, true).0
    }

    /// [`Self::run`] without the durability wait: the transaction commits
    /// (or aborts) and its locks go, but the response must not reach a
    /// client before the log is durable through the returned LSN
    /// ([`plp_wal::LogManager::wait_durable`]).  A caller holding several
    /// responses waits once, for the largest LSN.  Should that wait fail,
    /// every response that reached commit or abort — all but the validation
    /// rejects `BadRequest` and `NoSuchTable` — must answer
    /// [`ErrorCode::Storage`] instead.
    pub fn run_deferred(&mut self, request: Request) -> (Response, Lsn) {
        self.run_with(request, false)
    }

    fn run_with(&mut self, request: Request, wait: bool) -> (Response, Lsn) {
        if request.ops.is_empty() {
            return (
                Response::err(ErrorCode::BadRequest, "empty request"),
                Lsn::ZERO,
            );
        }
        if let Some(reject) = self.validate(&request) {
            return (reject, Lsn::ZERO);
        }
        let (result, lsn) = self.execute_with(request.lower(), wait);
        (result.into(), lsn)
    }

    /// Checks lowering cannot perform: referenced tables must exist, and on
    /// partitioned designs a range scan may not leave the granularity unit
    /// that routes it (a wider range could touch pages owned by another
    /// worker latch-free — see [`Op::ReadRange`]).
    fn validate(&self, request: &Request) -> Option<Response> {
        let partitioned = self.engine.design.is_partitioned();
        for op in &request.ops {
            let table = match self.engine.db.table(op.table()) {
                Ok(t) => t,
                Err(e) => return Some(Response::err((&e).into(), e.to_string())),
            };
            if let Op::ReadRange { lo, hi, .. } = *op {
                if lo > hi {
                    return Some(Response::err(
                        ErrorCode::BadRequest,
                        format!("range lo {lo} > hi {hi}"),
                    ));
                }
                let granularity = table.spec().partition_granularity.max(1);
                if partitioned && lo / granularity != hi / granularity {
                    return Some(Response::err(
                        ErrorCode::BadRequest,
                        format!(
                            "range [{lo}, {hi}] spans partition-granularity units \
                             (granularity {granularity}) on a partitioned design"
                        ),
                    ));
                }
            }
        }
        None
    }

    /// Execute one transaction described by `plan`.  Returns the concatenated
    /// outputs of all its actions, or the abort reason, once the log is
    /// durable through its commit or abort.
    pub fn execute(&mut self, plan: TransactionPlan) -> Result<Vec<ActionOutput>, EngineError> {
        self.execute_with(plan, true).0
    }

    /// The one execution path.  With `wait`, the durability wait runs here,
    /// inside the transaction's span and slow-log time, with its central
    /// locks held; without it, the locks go once the commit or abort record
    /// is appended and the caller waits for the returned LSN.
    fn execute_with(
        &mut self,
        plan: TransactionPlan,
        wait: bool,
    ) -> (Result<Vec<ActionOutput>, EngineError>, Lsn) {
        let trace_start = obs_now();
        let db = self.engine.db.clone();
        let mut txn = db.txn_manager().begin();
        let txn_id = txn.id();
        // The transaction's one time accumulator: the phases of every action
        // group it runs inline or dispatches (partitioned designs), its
        // central lock waits (conventional design), and the commit-time WAL
        // wait below.
        let mut phases = PhaseBreakdown::default();
        let result = self.run_stages(&db, &mut txn, plan, &mut phases);
        let commit_t0 = obs_now();
        // An abort waits too: what the transaction read may not be durable.
        let lsn = match result {
            Ok(_) => db.txn_manager().commit_deferred(&mut txn),
            Err(_) => db.txn_manager().abort(&mut txn),
        };
        let waited = if wait {
            db.log_manager().wait_durable(lsn)
        } else {
            Ok(())
        };
        let result = waited.map_err(EngineError::Log).and(result);
        // Central locks (only the conventional design records any) go once
        // the commit or abort record is appended (and, with `wait`, durable).
        let held = txn.take_locks();
        if !held.is_empty() {
            db.lock_manager().release_all(txn_id, &held);
        }
        if obs_enabled() {
            let now = now_nanos();
            let outcome = match result {
                Ok(_) => TraceEvent::Commit,
                Err(_) => TraceEvent::Abort,
            };
            self.ring.instant_at(outcome, txn_id, now);
            self.ring
                .event(TraceEvent::Txn, txn_id, trace_start, now - trace_start);
            // One histogram store per phase per *transaction* (the stage
            // loop only accumulates), so the sums still equal
            // `action_roundtrip`'s sum exactly while the per-group hot path
            // stays free of extra stores.  An aborted transaction's groups
            // are in `action_roundtrip` too, so their phases land as well.
            // Conventional records no `action_roundtrip`, so its lock waits
            // reach only `lock_wait` and the slow log.
            if self.engine.design.is_partitioned() {
                phases.record_roundtrip_phases(db.stats().latency());
            }
            if let Ok(outputs) = &result {
                phases.wal_nanos = now.saturating_sub(commit_t0);
                // One relaxed atomic load for the fast majority; only
                // candidates for the top-K reservoir take its lock.
                db.stats().slow().offer(SlowTxn {
                    txn_id,
                    started_at_nanos: trace_start,
                    total_nanos: now - trace_start,
                    actions: outputs.len() as u32,
                    phases,
                });
            }
        }
        (result, lsn)
    }

    /// The one stage driver.  It admits the transaction — the partitioned
    /// designs hold a `TxnTicket` for all its stages, the
    /// conventional design checks the lock manager's loaded flag — then runs
    /// the plan stage by stage until one fails or the plan ends.
    fn run_stages(
        &mut self,
        db: &Database,
        txn: &mut Transaction,
        mut plan: TransactionPlan,
        phases: &mut PhaseBreakdown,
    ) -> Result<Vec<ActionOutput>, EngineError> {
        let pm = self.engine.partition_mgr.as_deref();
        // Register the whole (possibly multi-stage) transaction as in
        // flight: a concurrent repartition drains these tickets to zero
        // before moving ownership, so no stage ever runs under boundaries
        // different from its predecessors'.  Before loading has finished
        // the ticket is refused (`NotReady`).
        let _ticket = match pm {
            Some(pm) => Some(pm.txn_ticket()?),
            None if db.lock_manager().loaded() => None,
            None => return Err(EngineError::NotReady),
        };
        let mut all_outputs = Vec::new();
        let mut total_actions = 0u32;
        let result = loop {
            total_actions += plan.actions.len() as u32;
            let stage = match pm {
                Some(pm) => self.partitioned_stage(pm, db, txn, plan.actions, phases),
                None => self.conventional_stage(db, txn, plan.actions, phases),
            };
            match stage.map(|outputs| next_stage(plan.then, outputs, &mut all_outputs)) {
                Ok(Some(next)) => plan = next,
                Ok(None) => break Ok(all_outputs),
                Err(e) => break Err(e),
            }
        };
        txn.set_action_count(total_actions);
        result
    }

    /// Run a stage's actions in order on this thread, under central locks,
    /// stopping at the first failure.
    fn conventional_stage(
        &mut self,
        db: &Database,
        txn: &mut Transaction,
        actions: Vec<Action>,
        phases: &mut PhaseBreakdown,
    ) -> Result<Vec<ActionOutput>, EngineError> {
        let mut outputs = Vec::with_capacity(actions.len());
        for action in actions {
            let mut ctx = ActionCtx::conventional(db, txn, self.sli.as_mut(), phases);
            outputs.push((action.run)(&mut ctx)?);
        }
        Ok(outputs)
    }

    /// Route a stage's actions to their partitions, run each partition's
    /// group inline if the partition is idle or send it as one message, and
    /// wait at the rendezvous point.  Every action runs; a failing stage
    /// answers its lowest-indexed error.
    fn partitioned_stage(
        &mut self,
        pm: &PartitionManager,
        db: &Database,
        txn: &mut Transaction,
        actions: Vec<Action>,
        txn_phases: &mut PhaseBreakdown,
    ) -> Result<Vec<ActionOutput>, EngineError> {
        let ring = &*self.ring;
        let stats = db.stats();
        let txn_id = txn.id();
        // The lowest-indexed failing action (a deterministic choice that
        // does not depend on how actions were grouped, or on which thread
        // ran them).
        let mut abort: Option<(usize, EngineError)> = None;
        let num_actions = actions.len();
        // Replies scatter back into stage order by original index.
        let mut stage_slots: Vec<Option<ActionOutput>> = Vec::with_capacity(num_actions);
        stage_slots.resize_with(num_actions, || None);
        let mut consume = |index: usize,
                           reply: ActionReply,
                           stage_slots: &mut Vec<Option<ActionOutput>>,
                           txn: &mut Transaction| {
            let ActionReply { result, log, .. } = reply;
            // Merge the action's log records into the transaction so the
            // commit record covers them (one consolidated insert).
            for record in log {
                db.log_manager().log_record(txn.log_handle_mut(), record);
            }
            match result {
                Ok(out) => stage_slots[index] = Some(out),
                Err(e) => {
                    if abort.as_ref().is_none_or(|(i, _)| index < *i) {
                        abort = Some((index, e));
                    }
                }
            }
        };
        // Every group ends the same way whichever thread ran it: its
        // session-observed time lands in `action_roundtrip`, and its
        // phases — reply wait derived as the remainder, so the four sum
        // to that time exactly (all reads come off one clock) — are
        // accumulated.  The phase histograms record once per
        // *transaction* (see `execute`), keeping this path free of
        // further histogram stores.
        let mut settle = |observed: u64, mut phases: PhaseBreakdown| {
            stats.latency().action_roundtrip.record(observed);
            if obs_enabled() {
                phases.reply_nanos = observed.saturating_sub(phases.total());
                txn_phases.merge(&phases);
            }
        };
        // Run or dispatch the whole stage, then wait at the rendezvous
        // point for whatever was dispatched.  The transaction's ticket
        // keeps a concurrent (DLB-triggered) repartition out of the
        // route → run-or-send window and until every reply is in, so
        // routing and ownership cannot move between routing an action and
        // executing or enqueueing it.
        let mut pending: Vec<Pending> = Vec::new();
        // One timestamp opens the dispatch span (which covers routing and
        // the groups this session runs itself), and one closes it AND
        // feeds the stage_dispatch histogram: on this path recording cost
        // is gated by fig_obs, so adjacent events share clock reads.
        let stage_t0 = obs_now();
        let mut inline_nanos = 0u64;
        // Group the stage's actions by routed worker: each partition is
        // claimed (or messaged, and woken) ONCE per stage instead of once
        // per action.  Stage fan-out is small, so a linear scan beats a map.
        let mut groups: Vec<(usize, Vec<usize>, Vec<ActionFn>)> = Vec::new();
        for (index, action) in actions.into_iter().enumerate() {
            let worker = pm.route(action.table, action.routing_key);
            match groups.iter_mut().find(|g| g.0 == worker) {
                Some(g) => {
                    g.1.push(index);
                    g.2.push(action.run);
                }
                None => groups.push((worker, vec![index], vec![action.run])),
            }
        }
        for (worker, indices, actions) in groups {
            // Caller runs: an idle partition (claim free, nothing queued for
            // its worker) is executed right here, through the same
            // `run_group` the worker uses.  The claim is the one critical
            // section this group costs.
            if let Some(mut partition) = pm.worker(worker).try_claim() {
                stats.cs().enter(CsCategory::MessagePassing, false);
                let started = obs_now();
                let ran = actions.len() as u64;
                let mut phases = PhaseBreakdown::default();
                let mut targets = indices.iter();
                let finished = partition.run_group(ring, txn_id, started, 0, actions, |reply| {
                    phases.merge(&reply.phases);
                    let index = *targets.next().expect("one reply per action");
                    consume(index, reply, &mut stage_slots, txn);
                });
                drop(partition);
                let observed = finished.saturating_sub(started);
                inline_nanos += observed;
                stats.msg().inline_ran(ran, observed);
                settle(observed, phases);
                continue;
            }
            // Contended: pay the message, through this session's link.
            if self.link.is_empty() {
                let pooled = self.engine.links.lock().pop();
                let fresh = || {
                    (0..pm.worker_count())
                        .map(|i| pm.worker(i).link())
                        .collect()
                };
                self.link = pooled.unwrap_or_else(fresh);
            }
            // One clock read serves as the round-trip origin AND the
            // queue-wait baseline the worker subtracts from its dequeue time
            // — taken just *before* the enqueue so the worker never sees a
            // timestamp from its future.
            let sent_at = now_nanos();
            let slot = self.link[worker].send(txn_id, actions, stats, sent_at);
            pending.push(Pending {
                worker,
                indices,
                slot,
                sent_at,
            });
        }
        let dispatch_end = obs_now();
        let num_pending = pending.len();
        if obs_enabled() {
            ring.event(
                TraceEvent::Dispatch,
                num_actions as u64,
                stage_t0,
                dispatch_end - stage_t0,
            );
            // Route + enqueue of a stage that sent something — not the
            // execution the session did in between, which
            // `phase_execute` already has.  A stage that ran entirely
            // inline dispatched nothing.
            if num_pending > 0 {
                stats
                    .latency()
                    .stage_dispatch
                    .record((dispatch_end - stage_t0).saturating_sub(inline_nanos));
            }
        }
        // The wake that consumes each reply stamps `wait_end`, so the
        // ReplyWait span closes without a clock read of its own.
        let mut wait_end = dispatch_end;
        // A group whose worker died answers no replies.  The stage still
        // waits for every other group it sent: none of them may run on
        // after the transaction's ticket is gone.
        let mut closed = false;
        for Pending {
            worker,
            indices,
            mut slot,
            sent_at,
        } in pending
        {
            let replies = slot.wait();
            wait_end = now_nanos();
            let Ok(mut replies) = replies else {
                closed = true;
                continue;
            };
            debug_assert_eq!(replies.len(), indices.len(), "one reply per action");
            // Sum the group's worker-side phases (queue wait rides on the
            // first reply only).
            let mut phases = PhaseBreakdown::default();
            for (index, reply) in indices.iter().copied().zip(replies.drain(..)) {
                phases.merge(&reply.phases);
                consume(index, reply, &mut stage_slots, txn);
            }
            // Hand the (now empty) reply Vec back to the slot so the next
            // message reuses its capacity.
            slot.recycle(replies);
            self.link[worker].slot = Some(slot);
            let rt = wait_end.saturating_sub(sent_at);
            stats.msg().roundtrip(rt);
            settle(rt, phases);
        }
        if obs_enabled() && num_pending > 0 {
            ring.event(
                TraceEvent::ReplyWait,
                num_pending as u64,
                dispatch_end,
                wait_end.saturating_sub(dispatch_end),
            );
        }
        if closed {
            return Err(EngineError::Shutdown);
        }
        if let Some((_, e)) = abort {
            return Err(e);
        }
        Ok(stage_slots
            .into_iter()
            .map(|o| o.expect("no abort, so every action produced an output"))
            .collect())
    }
}
