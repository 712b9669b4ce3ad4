//! The background load-balancer controller (Section 5.2–5.3 of the paper).
//!
//! A dedicated thread periodically ages the access histograms, checks the
//! per-worker load balance of every alignment-group root table, and — when
//! the observed imbalance exceeds the trigger threshold and the analytical
//! cost model predicts the move pays for itself — invokes
//! [`PartitionManager::repartition`] with boundaries that equalize predicted
//! load.  Every decision (taken or skipped, and why) is counted in
//! [`plp_instrument::stats::DlbStats`].

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use plp_btree::costmodel::CostModelParams;
use plp_instrument::trace::now_nanos;
use plp_instrument::{DecisionLog, DlbDecision, DlbOutcome};

use crate::catalog::Design;
use crate::database::Database;
use crate::dlb::histogram::HistogramSet;
use crate::dlb::planner::{self, LoadSnapshot};
use crate::partition::PartitionManager;
use crate::table::Table;

/// Configuration knobs of the dynamic load balancer.
///
/// The defaults favour stability (conservative trigger, 1 s between
/// repartitions); benchmarks and tests dial the intervals down.  All knobs
/// are plain data so a config can be built once and cloned into
/// [`crate::catalog::EngineConfig`].
#[derive(Debug, Clone)]
pub struct DlbConfig {
    /// Master switch.  When `false` (the default) no histograms are
    /// allocated, the routing path records nothing, and no controller thread
    /// is spawned — the engine behaves exactly as before this subsystem
    /// existed.
    pub enabled: bool,
    /// Coarse buckets per table histogram (max 64).
    pub top_buckets: usize,
    /// Fine sub-buckets inside each refined (hot) coarse bucket.
    pub sub_buckets: usize,
    /// A coarse bucket is refined when its load exceeds this multiple of the
    /// fair per-bucket share.
    pub refine_hot_factor: f64,
    /// Period of one aging tick (histogram decay + refinement refresh).
    pub aging_interval: Duration,
    /// Counters are right-shifted by this much per aging tick (1 = halve).
    pub decay_shift: u32,
    /// Evaluate balance every this many aging ticks.
    pub evaluate_every: u32,
    /// Act only when observed imbalance (hottest worker / mean) exceeds this.
    pub trigger_imbalance: f64,
    /// Require the plan to cut imbalance by at least this much.
    pub min_gain: f64,
    /// How many histogram windows of predicted gain a plan may amortize its
    /// movement cost over.  A hotspot's gain persists for as long as the
    /// skew does, so this is a floor on how long the controller assumes the
    /// observed pattern will last (64 windows is well under a second at the
    /// default aging interval).
    pub benefit_horizon: f64,
    /// Cost-model units (≈ one record move) per access of predicted gain;
    /// higher values make the controller more reluctant to move data.
    pub move_cost_weight: f64,
    /// Minimum wall-clock time between controller-triggered repartitions.
    pub min_repartition_gap: Duration,
    /// Ignore histograms with fewer total samples than this.
    pub min_samples: u64,
}

impl Default for DlbConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            top_buckets: 64,
            sub_buckets: 8,
            refine_hot_factor: 2.0,
            aging_interval: Duration::from_millis(100),
            decay_shift: 1,
            evaluate_every: 2,
            trigger_imbalance: 1.5,
            min_gain: 0.1,
            benefit_horizon: 64.0,
            move_cost_weight: 1.0,
            min_repartition_gap: Duration::from_secs(1),
            min_samples: 256,
        }
    }
}

impl DlbConfig {
    /// An enabled controller with the default knobs.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Aggressive intervals for tests and CI-friendly benchmarks: tight aging
    /// ticks and a short repartition cooldown so convergence happens within a
    /// few hundred milliseconds.
    pub fn aggressive() -> Self {
        Self {
            enabled: true,
            aging_interval: Duration::from_millis(20),
            evaluate_every: 2,
            min_repartition_gap: Duration::from_millis(100),
            min_samples: 128,
            ..Self::default()
        }
    }
}

enum DlbCommand {
    Resume,
    Stop,
}

/// Handle to the running controller thread.  Owned by the engine; dropping it
/// stops the thread.
pub struct LoadBalancerHandle {
    sender: Sender<DlbCommand>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl LoadBalancerHandle {
    /// Spawn the controller, paused: the engine resumes it in
    /// `finish_loading`, so the loading phase never triggers a repartition.
    pub(crate) fn start(
        db: Arc<Database>,
        pm: Arc<PartitionManager>,
        histograms: Arc<HistogramSet>,
        design: Design,
        config: DlbConfig,
    ) -> Self {
        let (tx, rx) = channel();
        let thread = std::thread::Builder::new()
            .name("plp-dlb".to_string())
            .spawn(move || controller_loop(db, pm, histograms, design, config, rx))
            .expect("spawn dlb controller");
        Self {
            sender: tx,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Resume aging and evaluation.
    pub fn resume(&self) {
        let _ = self.sender.send(DlbCommand::Resume);
    }

    /// Stop the controller and join its thread (idempotent).
    pub fn stop(&self) {
        let _ = self.sender.send(DlbCommand::Stop);
        if let Some(t) = self.thread.lock().take() {
            crate::worker::join_unless_self(t);
        }
    }
}

impl Drop for LoadBalancerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for LoadBalancerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadBalancerHandle").finish()
    }
}

fn controller_loop(
    db: Arc<Database>,
    pm: Arc<PartitionManager>,
    histograms: Arc<HistogramSet>,
    design: Design,
    config: DlbConfig,
    rx: Receiver<DlbCommand>,
) {
    let mut paused = true;
    let mut ticks = 0u32;
    let mut last_repartition: Option<Instant> = None;
    loop {
        match rx.recv_timeout(config.aging_interval) {
            Ok(DlbCommand::Stop) | Err(RecvTimeoutError::Disconnected) => return,
            Ok(DlbCommand::Resume) => {
                paused = false;
                continue;
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
        if paused {
            continue;
        }
        ticks = ticks.wrapping_add(1);
        // Evaluate before decaying so the decision sees the full window.
        if ticks.is_multiple_of(config.evaluate_every.max(1)) {
            evaluate_once(
                &db,
                &pm,
                &histograms,
                design,
                &config,
                &mut last_repartition,
            );
        }
        histograms.decay_all(config.decay_shift);
        histograms.refresh_refinement_all(config.refine_hot_factor);
        db.stats().dlb().decay_round();
    }
}

/// One evaluation round over every alignment-group root table.
fn evaluate_once(
    db: &Database,
    pm: &PartitionManager,
    histograms: &HistogramSet,
    design: Design,
    config: &DlbConfig,
    last_repartition: &mut Option<Instant>,
) {
    let stats = db.stats().dlb();
    // Every counted verdict also leaves an entry in the bounded audit log,
    // so `/decisions.json` (and the flight recorder's autopsy dump) can
    // answer *why* the controller did or didn't repartition after the fact.
    let decisions = db.stats().dlb_decisions();
    // The observed gauge reports the round's *worst* root (with several
    // alignment groups, a later near-uniform root must not overwrite the
    // skewed one the operator cares about).
    let mut worst_observed: Option<f64> = None;
    for table in db.tables() {
        let spec = table.spec().clone();
        // Dependents are rebalanced through their declared root.
        if spec.partitioned_with.is_some() {
            continue;
        }
        let Some(hist) = histograms.table(spec.id) else {
            continue;
        };
        // Aggregate the alignment group: dependents' histograms cover the
        // same driver-unit ranges bucket-for-bucket (their key spaces are the
        // driver's scaled by granularity), so an element-wise sum yields the
        // group's load per driver-key range.  Record and table counts are
        // aggregated alongside so the plan's *cost* covers the same scope as
        // its gain — a repartition slices/melds every table of the group.
        let mut weights = hist.weights();
        let mut group_entry_count = table.primary().entry_count() as u64;
        let mut group_tables = 1u64;
        for dep in db.tables() {
            if dep.spec().partitioned_with != Some(spec.id) {
                continue;
            }
            group_entry_count += dep.primary().entry_count() as u64;
            group_tables += 1;
            if let Some(dh) = histograms.table(dep.spec().id) {
                for (w, d) in weights.iter_mut().zip(dh.weights()) {
                    *w += d;
                }
            }
        }
        let snapshot = LoadSnapshot::new(spec.key_space, weights);
        stats.evaluation();
        if snapshot.total() < config.min_samples {
            continue;
        }
        let bounds = pm.bounds(spec.id);
        if bounds.len() < 2 {
            continue;
        }
        let observed = planner::imbalance(&snapshot.partition_loads(&bounds));
        worst_observed = Some(worst_observed.map_or(observed, |w: f64| w.max(observed)));
        if observed < config.trigger_imbalance {
            stats.skipped_balanced();
            record_decision(
                decisions,
                spec.id.0,
                observed,
                observed,
                0.0,
                DlbOutcome::SkippedBalanced,
                Vec::new(),
            );
            continue;
        }
        if let Some(last) = *last_repartition {
            if last.elapsed() < config.min_repartition_gap {
                stats.skipped_cooldown();
                record_decision(
                    decisions,
                    spec.id.0,
                    observed,
                    observed,
                    0.0,
                    DlbOutcome::SkippedCooldown,
                    Vec::new(),
                );
                continue;
            }
        }
        let params = cost_params_for(table);
        let kind = planner::system_kind_for(
            design.latch_free_heap(),
            design.placement_policy() == plp_storage::PlacementPolicy::LeafOwned,
        );
        let plan = planner::make_plan(
            &snapshot,
            &bounds,
            spec.partition_granularity,
            &params,
            kind,
            group_entry_count,
            group_tables,
        );
        let Some(plan) = plan else {
            stats.skipped_balanced();
            record_decision(
                decisions,
                spec.id.0,
                observed,
                observed,
                0.0,
                DlbOutcome::SkippedNoPlan,
                Vec::new(),
            );
            continue;
        };
        let net_benefit = plan.net_benefit(config.benefit_horizon, config.move_cost_weight);
        if observed - plan.imbalance_after < config.min_gain || net_benefit <= 0.0 {
            stats.skipped_cost();
            record_decision(
                decisions,
                spec.id.0,
                observed,
                plan.imbalance_after,
                net_benefit,
                DlbOutcome::SkippedCost,
                Vec::new(),
            );
            continue;
        }
        stats.set_predicted_imbalance(plan.imbalance_after);
        match pm.repartition(spec.id, &plan.new_bounds) {
            Ok(_) => {
                stats.triggered();
                record_decision(
                    decisions,
                    spec.id.0,
                    observed,
                    plan.imbalance_after,
                    net_benefit,
                    DlbOutcome::Triggered,
                    plan.new_bounds.clone(),
                );
                *last_repartition = Some(Instant::now());
            }
            Err(_) => {
                // The repartition journal has already rolled the tables back
                // (or routing was re-derived); the engine keeps serving.
                // Back off as if we had repartitioned, so a persistent
                // failure cannot busy-loop the controller.
                stats.failed();
                record_decision(
                    decisions,
                    spec.id.0,
                    observed,
                    plan.imbalance_after,
                    net_benefit,
                    DlbOutcome::Failed,
                    plan.new_bounds.clone(),
                );
                *last_repartition = Some(Instant::now());
            }
        }
    }
    if let Some(observed) = worst_observed {
        stats.set_observed_imbalance(observed);
    }
}

/// Append one controller verdict to the audit ring.  `gain` is derived so
/// every entry carries the same `observed - predicted` arithmetic the cost
/// gate used.
#[allow(clippy::too_many_arguments)]
fn record_decision(
    log: &DecisionLog,
    table: u32,
    observed: f64,
    predicted: f64,
    net_benefit: f64,
    outcome: DlbOutcome,
    bounds: Vec<u64>,
) {
    log.push(DlbDecision {
        at_nanos: now_nanos(),
        table,
        observed,
        predicted,
        gain: observed - predicted,
        net_benefit,
        outcome,
        bounds,
    });
}

/// Derive cost-model parameters from a table's actual primary index.
fn cost_params_for(table: &Table) -> CostModelParams {
    let (levels, entries_per_node) = match table.primary().as_mrb() {
        Some(mrb) => (u32::from(mrb.height_of(0)).max(1), mrb.max_entries() as u64),
        None => (2, plp_btree::MAX_NODE_ENTRIES as u64),
    };
    let levels = levels.min(8);
    let entries_per_node = entries_per_node.max(2);
    // A boundary lands mid-node on average: m_i = n / 2.
    let mut entries_to_move = [0u64; 8];
    for m in entries_to_move.iter_mut().take(levels as usize) {
        *m = (entries_per_node / 2).max(1);
    }
    CostModelParams {
        levels,
        entries_per_node,
        entries_to_move,
        record_size: 100,
        entry_size: plp_btree::ENTRY_SIZE as u64,
        has_secondary: table.secondary().is_some(),
    }
}
