//! The background load-balancer controller (Section 5.2–5.3 of the paper).
//!
//! A periodic background thread ages the access histograms every tick,
//! checks the per-worker load balance of every alignment-group root table,
//! and — when the observed imbalance exceeds the trigger threshold and the
//! analytical cost model predicts the move pays for itself — invokes
//! [`PartitionManager::repartition`] with boundaries that equalize predicted
//! load.  It does nothing until the partition manager admits transactions,
//! so loading and recovery never trigger a repartition.  Every decision
//! (taken or skipped, and why) is counted in
//! [`plp_instrument::stats::DlbStats`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use plp_btree::costmodel::CostModelParams;
use plp_instrument::trace::now_nanos;
use plp_instrument::{DecisionLog, DlbDecision, DlbOutcome};

use crate::catalog::Design;
use crate::database::Database;
use crate::dlb::histogram::HistogramSet;
use crate::dlb::planner::{self, LoadSnapshot};
use crate::engine::Periodic;
use crate::partition::PartitionManager;
use crate::table::Table;

/// Coarse buckets per table histogram: the most the refinement bitmap covers.
const TOP_BUCKETS: usize = 64;
/// Fine sub-buckets per refined coarse bucket, so a boundary can land inside
/// a hot bucket.
const SUB_BUCKETS: usize = 8;

/// The access histograms of every table in `db`, for the partition manager
/// to feed and the controller to read.
pub(crate) fn histograms(db: &Database) -> Arc<HistogramSet> {
    let key_spaces: Vec<u64> = db.tables().iter().map(|t| t.spec().key_space).collect();
    Arc::new(HistogramSet::new(&key_spaces, TOP_BUCKETS, SUB_BUCKETS))
}

/// Period of one aging tick: a shifted hotspot is acted on within a few
/// hundred milliseconds.
const AGING_INTERVAL: Duration = Duration::from_millis(20);
/// Evaluate balance every this many ticks, so a decision sees more than one
/// tick's accesses.
const EVALUATE_EVERY: u32 = 2;
/// Counters are right-shifted by this much per tick: halving lets a stale
/// hotspot fade within a few ticks.
const DECAY_SHIFT: u32 = 1;
/// A coarse bucket is refined when its load exceeds this multiple of the
/// fair per-bucket share.
const REFINE_HOT_FACTOR: f64 = 2.0;

/// Start the controller thread; dropping the returned handle stops it.
pub(crate) fn start(
    db: Arc<Database>,
    pm: Arc<PartitionManager>,
    histograms: Arc<HistogramSet>,
    design: Design,
) -> Periodic {
    let mut ticks = 0u32;
    let mut last_repartition: Option<Instant> = None;
    Periodic::start("plp-dlb", AGING_INTERVAL, move || {
        if !pm.loaded() {
            return;
        }
        ticks = ticks.wrapping_add(1);
        // Evaluate before decaying so the decision sees the full window.
        if ticks.is_multiple_of(EVALUATE_EVERY) {
            evaluate_once(&db, &pm, &histograms, design, &mut last_repartition);
        }
        histograms.decay_all(DECAY_SHIFT);
        histograms.refresh_refinement_all(REFINE_HOT_FACTOR);
        db.stats().dlb().decay_round();
    })
}

/// Ignore histograms with fewer samples than this: too few to tell skew from
/// noise.
const MIN_SAMPLES: u64 = 128;
/// Act only when observed imbalance (hottest worker / mean) exceeds this.
const TRIGGER_IMBALANCE: f64 = 1.5;
/// Require a plan to cut imbalance by at least this much, so a near-balanced
/// table is not reshuffled for nothing.
const MIN_GAIN: f64 = 0.1;
/// Histogram windows of predicted gain a plan may amortize its movement cost
/// over: a floor on how long the controller assumes a hotspot lasts.
const BENEFIT_HORIZON: f64 = 64.0;
/// Cost-model units (about one record move) per access of predicted gain.
const MOVE_COST_WEIGHT: f64 = 1.0;
/// Minimum time between controller-triggered repartitions, so the load can
/// settle on the new boundaries before it is judged again.
const MIN_REPARTITION_GAP: Duration = Duration::from_millis(100);

/// One evaluation round over every alignment-group root table.
fn evaluate_once(
    db: &Database,
    pm: &PartitionManager,
    histograms: &HistogramSet,
    design: Design,
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
        if snapshot.total() < MIN_SAMPLES {
            continue;
        }
        let bounds = pm.bounds(spec.id);
        if bounds.len() < 2 {
            continue;
        }
        let observed = planner::imbalance(&snapshot.partition_loads(&bounds));
        worst_observed = Some(worst_observed.map_or(observed, |w: f64| w.max(observed)));
        if observed < TRIGGER_IMBALANCE {
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
            if last.elapsed() < MIN_REPARTITION_GAP {
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
        let net_benefit = plan.net_benefit(BENEFIT_HORIZON, MOVE_COST_WEIGHT);
        if observed - plan.imbalance_after < MIN_GAIN || net_benefit <= 0.0 {
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

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::AGING_INTERVAL;
    use crate::catalog::{Design, EngineConfig, TableSpec};
    use crate::engine::Engine;

    /// The controller idles until the engine admits transactions: three
    /// aging ticks before `finish_loading` neither evaluate nor decay, and
    /// the ticks after it do.
    #[test]
    fn the_controller_idles_until_loading_finishes() {
        let config = EngineConfig::new(Design::PlpRegular)
            .with_partitions(2)
            .with_dlb();
        let mut engine = Engine::start(config, &[TableSpec::new(0, "t", 64)]);
        let dlb = |engine: &Engine| engine.db().stats().snapshot().dlb;
        std::thread::sleep(3 * AGING_INTERVAL + AGING_INTERVAL / 2);
        let loading = dlb(&engine);
        assert_eq!((loading.evaluations, loading.decay_rounds), (0, 0));
        engine.finish_loading();
        let deadline = Instant::now() + Duration::from_secs(5);
        while dlb(&engine).decay_rounds == 0 {
            assert!(
                Instant::now() < deadline,
                "the controller never aged its histograms after loading"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        engine.shutdown();
    }
}
