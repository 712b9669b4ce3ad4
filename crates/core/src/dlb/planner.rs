//! Boundary planning for the load balancer (Section 5.2 of the paper).
//!
//! Pure functions over histogram snapshots: compute per-partition load under
//! the current boundaries, measure imbalance, propose new boundaries that
//! equalize predicted load, and price the proposal with the analytical
//! repartitioning cost model of `plp_btree::costmodel` so the controller only
//! acts when the predicted gain outweighs the predicted movement cost.

use plp_btree::costmodel::{CostModelParams, RepartitionCost, SystemKind};

/// A fine-grained load snapshot over one table's (or alignment group's) key
/// space, produced from `AgingHistogram::weights`.
#[derive(Debug, Clone)]
pub struct LoadSnapshot {
    pub key_space: u64,
    /// Access weight per fine slot; slot `f` covers
    /// `[f * key_space / len, (f+1) * key_space / len)`.
    pub weights: Vec<u64>,
}

impl LoadSnapshot {
    pub fn new(key_space: u64, weights: Vec<u64>) -> Self {
        assert!(!weights.is_empty(), "snapshot needs at least one slot");
        Self {
            key_space: key_space.max(1),
            weights,
        }
    }

    pub fn total(&self) -> u64 {
        self.weights.iter().sum()
    }

    fn slot_range(&self, f: usize) -> (u64, u64) {
        let n = self.weights.len() as u128;
        let lo = (f as u128 * self.key_space as u128 / n) as u64;
        let hi = ((f + 1) as u128 * self.key_space as u128 / n) as u64;
        (lo, hi)
    }

    /// Access mass inside `[lo, hi)`, splitting slots proportionally.
    fn mass_between(&self, lo: u64, hi: u64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let mut mass = 0.0;
        for (f, &w) in self.weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let (slo, shi) = self.slot_range(f);
            if shi <= lo || slo >= hi || shi == slo {
                continue;
            }
            let overlap = shi.min(hi).saturating_sub(slo.max(lo));
            mass += w as f64 * overlap as f64 / (shi - slo) as f64;
        }
        mass
    }

    /// Predicted load per partition under `bounds` (partition `i` covers
    /// `[bounds[i], bounds[i+1])`, the last one up to `key_space`).
    pub fn partition_loads(&self, bounds: &[u64]) -> Vec<f64> {
        (0..bounds.len())
            .map(|i| {
                let lo = bounds[i];
                let hi = bounds.get(i + 1).copied().unwrap_or(self.key_space.max(lo));
                self.mass_between(lo, hi.max(lo))
            })
            .collect()
    }

    /// Propose `partitions` boundaries (multiples of `granularity`, first one
    /// fixed to `first`) that give every partition roughly equal access mass.
    /// Cuts interpolate inside fine slots using a mass-weighted density model
    /// (see [`Self::cut_within_slot`]), so a hot range narrower than one
    /// coarse bucket can still be split — and skewed (Zipfian) mass inside a
    /// bucket pulls the cut toward the bucket's heavy edge instead of
    /// assuming the mass is spread uniformly.
    fn plan_bounds(&self, partitions: usize, granularity: u64, first: u64) -> Vec<u64> {
        let p = partitions.max(1);
        let g = granularity.max(1);
        let total = self.total();
        let mut bounds = Vec::with_capacity(p);
        bounds.push(first);
        if total == 0 {
            // No signal: fall back to uniform spacing.
            for k in 1..p {
                let raw = (k as u128 * self.key_space as u128 / p as u128) as u64;
                let snapped = (raw / g * g).max(bounds[k - 1] + g);
                bounds.push(snapped);
            }
            return bounds;
        }
        let mut cum = 0u64;
        let mut slot = 0usize;
        for k in 1..p {
            let target = (total as u128 * k as u128 / p as u128) as u64;
            while slot < self.weights.len() && cum + self.weights[slot] < target {
                cum += self.weights[slot];
                slot += 1;
            }
            let cut = if slot >= self.weights.len() {
                self.key_space
            } else {
                self.cut_within_slot(slot, (target - cum) as f64)
            };
            let snapped = (cut / g * g).max(bounds[k - 1] + g);
            bounds.push(snapped);
        }
        bounds
    }

    /// Position inside `slot` where the cumulative mass from the slot's left
    /// edge reaches `need` (`0 <= need <= weights[slot]`).
    ///
    /// The histogram only records one total per slot; *where* that mass sits
    /// inside the slot is reconstructed from the neighbors.  Under a skewed
    /// (Zipfian) key distribution adjacent slots differ by large factors and
    /// the density inside a single head slot spans orders of magnitude, so
    /// assuming uniform intra-slot mass systematically misplaces cuts toward
    /// the slot's light edge.  Power laws are locally log-linear, so model
    /// the intra-slot density as exponential, `density(t) ∝ r^t` over
    /// `t ∈ [0, 1]`, with the per-slot decay ratio `r` estimated as the
    /// geometric mean of the two adjacent inter-slot ratios, and invert the
    /// cumulative curve `C(t) = w · (1 − r^t)/(1 − r)` analytically.
    fn cut_within_slot(&self, slot: usize, need: f64) -> u64 {
        let (lo, hi) = self.slot_range(slot);
        let w = self.weights[slot] as f64;
        if w <= 0.0 || hi <= lo {
            return lo;
        }
        let span = (hi - lo) as f64;
        let q = (need / w).clamp(0.0, 1.0);
        let prev = slot
            .checked_sub(1)
            .map(|s| self.weights[s] as f64)
            .filter(|&x| x > 0.0);
        let next = self
            .weights
            .get(slot + 1)
            .map(|&x| x as f64)
            .filter(|&x| x > 0.0);
        // Clamped so one empty-ish neighbor cannot push the model into
        // numeric extremes; at 1e3 per slot the cut already sits hard
        // against the heavy edge.
        let r = match (prev, next) {
            (Some(p), Some(n)) => (n / p).sqrt(),
            (Some(p), None) => w / p,
            (None, Some(n)) => n / w,
            (None, None) => 1.0,
        }
        .clamp(1e-3, 1e3);
        let ln_r = r.ln();
        let t = if ln_r.abs() < 1e-6 {
            // Flat neighborhood: the exponential degenerates to uniform.
            q
        } else {
            (1.0 - q * (1.0 - r)).ln() / ln_r
        };
        lo + (span * t.clamp(0.0, 1.0)) as u64
    }
}

/// Imbalance metric: hottest partition's load over the mean (1.0 = perfectly
/// balanced; `P` = everything on one of `P` partitions).
pub fn imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let total: f64 = loads.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let mean = total / loads.len() as f64;
    loads.iter().cloned().fold(0.0f64, f64::max) / mean
}

/// A candidate repartitioning, fully priced.
#[derive(Debug, Clone)]
pub(crate) struct CandidatePlan {
    pub new_bounds: Vec<u64>,
    /// Predicted imbalance under `new_bounds`.
    pub imbalance_after: f64,
    /// Cost-model price of the move, in record-move-equivalent units.
    pub movement_cost: f64,
    /// Predicted per-window access-load reduction on the hottest partition.
    pub predicted_gain: f64,
}

impl CandidatePlan {
    /// Whether the plan pays for itself: the predicted load taken off the
    /// hottest partition over `benefit_horizon` histogram windows must exceed
    /// the movement cost weighted by `move_cost_weight` (cost-model units per
    /// access).
    pub fn net_benefit(&self, benefit_horizon: f64, move_cost_weight: f64) -> f64 {
        self.predicted_gain * benefit_horizon - self.movement_cost * move_cost_weight
    }
}

/// Map an execution design's heap policy onto the cost model's system kinds.
/// (The conventional/logical designs never get here — the controller only
/// runs for partitioned designs — but `PlpRegular` is the cheapest fallback.)
pub fn system_kind_for(latch_free_heap: bool, leaf_owned: bool) -> SystemKind {
    match (latch_free_heap, leaf_owned) {
        (true, true) => SystemKind::PlpLeaf,
        (true, false) => SystemKind::PlpPartition,
        _ => SystemKind::PlpRegular,
    }
}

/// Build and price a candidate plan.
///
/// * `snapshot` — the (group-aggregated) access histogram,
/// * `old_bounds` — current boundaries of the driver table,
/// * `granularity` — the driver table's partition granularity,
/// * `params` — cost-model parameters describing the driver table's tree,
/// * `kind` — which system of Table 2 prices the move,
/// * `group_entry_count` — records across the driver table *and* its aligned
///   dependents: repartitioning slices/melds (and, design permitting, moves
///   records of) every table of the group, so the cost side must cover the
///   same scope the gain side's aggregated histogram does,
/// * `group_tables` — number of tables in the alignment group (each pays the
///   per-boundary slice/meld and pointer work).
///
/// Returns `None` when the histogram carries no signal or the plan would not
/// change any boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn make_plan(
    snapshot: &LoadSnapshot,
    old_bounds: &[u64],
    granularity: u64,
    params: &CostModelParams,
    kind: SystemKind,
    group_entry_count: u64,
    group_tables: u64,
) -> Option<CandidatePlan> {
    if snapshot.total() == 0 || old_bounds.is_empty() {
        return None;
    }
    let first = old_bounds[0];
    let new_bounds = snapshot.plan_bounds(old_bounds.len(), granularity, first);
    if new_bounds == old_bounds {
        return None;
    }
    let loads_before = snapshot.partition_loads(old_bounds);
    let loads_after = snapshot.partition_loads(&new_bounds);
    let imbalance_after = imbalance(&loads_after);

    // Records whose owner changes, estimated from boundary shifts with keys
    // assumed uniformly dense: the key span swept by each boundary move,
    // scaled by the group's average record density per driver key (sibling
    // keys are `driver_key * granularity + rest`, so a swept driver unit
    // sweeps the matching sibling records too).
    let density = group_entry_count as f64 / snapshot.key_space.max(1) as f64;
    let mut swept_keys = 0.0;
    let mut moved_boundaries = 0u64;
    for (o, n) in old_bounds.iter().zip(new_bounds.iter()) {
        if o != n {
            swept_keys += o.abs_diff(*n) as f64;
            moved_boundaries += 1;
        }
    }
    let est_affected_records = swept_keys * density;

    // Price the move with the analytical model: the design determines which
    // fraction of the affected records physically move (PLP-Regular none,
    // PLP-Leaf only boundary leaves, PLP-Partition all of them), and every
    // moved boundary pays the per-boundary index-entry and pointer work.
    let cost = RepartitionCost::evaluate(kind, params);
    let full = params.records_moved_full().max(1);
    let move_ratio = cost.records_moved as f64 / full as f64;
    // Each physically moved record also pays its index maintenance.
    let index_ops_per_record = if cost.records_moved > 0 {
        (cost.primary_changes.total_ops() + cost.secondary_changes.total_ops()) as f64
            / cost.records_moved as f64
    } else {
        0.0
    };
    // Every table of the group is sliced/melded at every moved boundary.
    let per_boundary = (cost.entries_moved + cost.pointer_updates) as f64;
    let movement_cost = est_affected_records * move_ratio * (1.0 + index_ops_per_record)
        + per_boundary * moved_boundaries as f64 * group_tables.max(1) as f64;

    let max_before = loads_before.iter().cloned().fold(0.0f64, f64::max);
    let max_after = loads_after.iter().cloned().fold(0.0f64, f64::max);
    Some(CandidatePlan {
        new_bounds,
        imbalance_after,
        movement_cost,
        predicted_gain: (max_before - max_after).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_ranges_tile_the_key_space() {
        // 8 x 4 fine slots, as an `AgingHistogram`'s weights lay them out,
        // over a deliberately non-divisible key space.
        let snap = LoadSnapshot::new(1_003, vec![1; 32]);
        let mut expected_start = 0;
        for f in 0..32 {
            let (lo, hi) = snap.slot_range(f);
            assert_eq!(lo, expected_start);
            assert!(hi > lo);
            expected_start = hi;
        }
        assert_eq!(expected_start, 1_003);
    }

    fn hot_tail_snapshot() -> LoadSnapshot {
        // 16 slots over keys 0..1600; the last two slots carry 90% of load.
        let mut w = vec![10u64; 16];
        w[14] = 700;
        w[15] = 740;
        LoadSnapshot::new(1_600, w)
    }

    #[test]
    fn imbalance_metric() {
        assert!((imbalance(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-9);
        assert!((imbalance(&[4.0, 0.0, 0.0, 0.0]) - 4.0).abs() < 1e-9);
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn partition_loads_split_slots_proportionally() {
        let snap = LoadSnapshot::new(100, vec![100]);
        let loads = snap.partition_loads(&[0, 25]);
        assert!((loads[0] - 25.0).abs() < 1e-9);
        assert!((loads[1] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn plan_bounds_equalize_a_hot_tail() {
        let snap = hot_tail_snapshot();
        let bounds = snap.plan_bounds(4, 1, 0);
        assert_eq!(bounds.len(), 4);
        assert_eq!(bounds[0], 0);
        // Most cuts must land inside the hot tail (keys 1400..1600).
        assert!(
            bounds[2] >= 1_300 && bounds[3] > bounds[2],
            "cuts should target the hot range: {bounds:?}"
        );
        let loads = snap.partition_loads(&bounds);
        let after = imbalance(&loads);
        let before = imbalance(&snap.partition_loads(&[0, 400, 800, 1_200]));
        assert!(
            after < before / 2.0,
            "planned imbalance {after:.2} vs uniform {before:.2}"
        );
    }

    #[test]
    fn plan_bounds_respect_granularity_and_monotonicity() {
        let snap = hot_tail_snapshot();
        let bounds = snap.plan_bounds(4, 32, 0);
        for w in bounds.windows(2) {
            assert!(w[1] > w[0], "strictly increasing: {bounds:?}");
        }
        for &b in &bounds {
            assert_eq!(b % 32, 0, "granularity-aligned: {bounds:?}");
        }
    }

    /// The old uniform-intra-slot interpolation, kept for comparison: the
    /// mass-weighted planner must do no worse on skewed distributions.
    fn plan_bounds_uniform_intra_slot(
        snap: &LoadSnapshot,
        partitions: usize,
        granularity: u64,
        first: u64,
    ) -> Vec<u64> {
        let total = snap.total();
        let mut bounds = vec![first];
        let (mut cum, mut slot) = (0u64, 0usize);
        for k in 1..partitions {
            let target = (total as u128 * k as u128 / partitions as u128) as u64;
            while slot < snap.weights.len() && cum + snap.weights[slot] < target {
                cum += snap.weights[slot];
                slot += 1;
            }
            let n = snap.weights.len() as u128;
            let lo = (slot as u128 * snap.key_space as u128 / n) as u64;
            let hi = ((slot + 1) as u128 * snap.key_space as u128 / n) as u64;
            let w = snap.weights[slot];
            let frac = (target - cum) as f64 / w.max(1) as f64;
            let cut = lo + ((hi - lo) as f64 * frac) as u64;
            let snapped = (cut / granularity * granularity).max(bounds[k - 1] + granularity);
            bounds.push(snapped);
        }
        bounds
    }

    #[test]
    fn zipfian_cuts_beat_uniform_interpolation() {
        // Ground truth: Zipf(s = 1.1) access mass over 4096 fine keys.  The
        // DLB only ever sees the 16-slot coarse histogram of it, so every
        // cut inside the head bucket depends on the intra-slot model.
        let fine: Vec<u64> = (0..4096u32)
            .map(|f| (1.0e7 / f64::from(f + 1).powf(1.1)) as u64)
            .collect();
        let truth = LoadSnapshot::new(4096, fine.clone());
        let coarse: Vec<u64> = fine.chunks(256).map(|c| c.iter().sum()).collect();
        let snap = LoadSnapshot::new(4096, coarse);

        let weighted = snap.plan_bounds(8, 1, 0);
        let uniform = plan_bounds_uniform_intra_slot(&snap, 8, 1, 0);
        // Judge both proposals against the true fine-grained distribution.
        // Overall imbalance is floored by the irreducible mass of the single
        // hottest key, so measure cut *placement*: how far each boundary's
        // true cumulative mass lands from its ideal equal-mass quantile.
        let quantile_error = |bounds: &[u64]| -> f64 {
            let total = truth.total() as f64;
            bounds
                .iter()
                .enumerate()
                .skip(1)
                .map(|(k, &b)| {
                    let ideal = total * k as f64 / bounds.len() as f64;
                    (truth.mass_between(0, b) - ideal).abs()
                })
                .sum::<f64>()
                / total
        };
        let weighted_imb = imbalance(&truth.partition_loads(&weighted));
        let uniform_imb = imbalance(&truth.partition_loads(&uniform));
        assert!(
            weighted_imb <= uniform_imb,
            "mass-weighted cuts ({weighted_imb:.3}) must not lose to uniform \
             interpolation ({uniform_imb:.3}) on a Zipfian histogram"
        );
        let weighted_err = quantile_error(&weighted);
        let uniform_err = quantile_error(&uniform);
        assert!(
            weighted_err < 0.8 * uniform_err,
            "mass-weighted cuts should land meaningfully closer to the true \
             equal-mass quantiles: error {weighted_err:.4} vs {uniform_err:.4}"
        );
    }

    #[test]
    fn empty_snapshot_plans_uniform() {
        let snap = LoadSnapshot::new(1_000, vec![0; 10]);
        let bounds = snap.plan_bounds(4, 1, 0);
        assert_eq!(bounds, vec![0, 250, 500, 750]);
    }

    #[test]
    fn make_plan_prices_designs_differently() {
        let snap = hot_tail_snapshot();
        let old = vec![0, 400, 800, 1_200];
        let params = CostModelParams {
            levels: 2,
            entries_per_node: 64,
            entries_to_move: [32, 32, 0, 0, 0, 0, 0, 0],
            record_size: 100,
            entry_size: 32,
            has_secondary: false,
        };
        let regular = make_plan(&snap, &old, 1, &params, SystemKind::PlpRegular, 1_600, 1).unwrap();
        let partition =
            make_plan(&snap, &old, 1, &params, SystemKind::PlpPartition, 1_600, 1).unwrap();
        assert_eq!(regular.new_bounds, partition.new_bounds);
        assert!(
            regular.movement_cost < partition.movement_cost,
            "PLP-Regular ({:.0}) must be cheaper than PLP-Partition ({:.0})",
            regular.movement_cost,
            partition.movement_cost
        );
        assert!(regular.imbalance_after < imbalance(&snap.partition_loads(&old)));
        assert!(regular.predicted_gain > 0.0);
        // With a long enough horizon the cheap plan is always worth it...
        assert!(regular.net_benefit(1_000.0, 1.0) > 0.0);
        // ...and a punishing cost weight vetoes the expensive one.
        assert!(partition.net_benefit(1.0, 1e6) < 0.0);
    }

    #[test]
    fn group_scope_raises_movement_cost() {
        // Same plan, but priced for a 4-table alignment group with 40x the
        // records: the cost side must grow with the group, so a plan a lone
        // table would accept can be vetoed for the group.
        let snap = hot_tail_snapshot();
        let old = vec![0, 400, 800, 1_200];
        let params = CostModelParams {
            levels: 2,
            entries_per_node: 64,
            entries_to_move: [32, 32, 0, 0, 0, 0, 0, 0],
            record_size: 100,
            entry_size: 32,
            has_secondary: false,
        };
        let lone = make_plan(&snap, &old, 1, &params, SystemKind::PlpPartition, 1_600, 1).unwrap();
        let group =
            make_plan(&snap, &old, 1, &params, SystemKind::PlpPartition, 64_000, 4).unwrap();
        assert_eq!(lone.new_bounds, group.new_bounds);
        assert!(
            group.movement_cost > 30.0 * lone.movement_cost,
            "group cost {:.0} must scale with group records vs {:.0}",
            group.movement_cost,
            lone.movement_cost
        );
        assert!(group.net_benefit(8.0, 1.0) < lone.net_benefit(8.0, 1.0));
    }

    #[test]
    fn make_plan_returns_none_without_signal_or_change() {
        let params = CostModelParams::table1_scenario();
        let empty = LoadSnapshot::new(1_000, vec![0; 8]);
        assert!(make_plan(
            &empty,
            &[0, 500],
            1,
            &params,
            SystemKind::PlpRegular,
            100,
            1
        )
        .is_none());
        // A perfectly balanced snapshot re-plans the same bounds -> None.
        let uniform = LoadSnapshot::new(1_000, vec![100; 10]);
        assert!(make_plan(
            &uniform,
            &[0, 500],
            100,
            &params,
            SystemKind::PlpRegular,
            100,
            1
        )
        .is_none());
    }
}
