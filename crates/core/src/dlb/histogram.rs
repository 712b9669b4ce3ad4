//! Aging two-level access histograms (Section 5.1 of the paper).
//!
//! Each table gets one `AgingHistogram` over its primary-key space.  The
//! top level is a fixed-width array of at most 64 coarse buckets; inside
//! buckets the controller has marked *hot*, a second level of fixed-width
//! sub-buckets refines the picture so partition boundaries can be placed
//! inside a hot range, not just between coarse buckets.
//!
//! The worker hot path pays one relaxed `fetch_add` per access (two when the
//! bucket is refined); everything else — decay, refinement decisions,
//! snapshots — happens on the background controller thread.  Counters decay
//! geometrically (`count >>= decay_shift` per aging round) so stale load
//! fades and the histogram tracks the *current* access distribution.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::catalog::TableId;

/// Maximum number of top-level buckets (the refinement set is a `u64` bitmap).
const MAX_TOP_BUCKETS: usize = 64;

/// A two-level aging histogram over one table's key space.
#[derive(Debug)]
pub(crate) struct AgingHistogram {
    key_space: u64,
    top_buckets: usize,
    sub_buckets: usize,
    /// Coarse per-bucket access counters (always maintained).
    top: Box<[AtomicU64]>,
    /// Fine counters, `sub_buckets` per top bucket; only accumulated while
    /// the owning top bucket is marked refined.
    sub: Box<[AtomicU64]>,
    /// Bitmap of refined top buckets (bit `i` = bucket `i` is hot).
    refined: AtomicU64,
}

impl AgingHistogram {
    pub fn new(key_space: u64, top_buckets: usize, sub_buckets: usize) -> Self {
        let top_buckets = top_buckets.clamp(1, MAX_TOP_BUCKETS);
        let sub_buckets = sub_buckets.max(1);
        let top = (0..top_buckets).map(|_| AtomicU64::new(0)).collect();
        let sub = (0..top_buckets * sub_buckets)
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            key_space: key_space.max(1),
            top_buckets,
            sub_buckets,
            top,
            sub,
            refined: AtomicU64::new(0),
        }
    }

    #[inline]
    fn top_index(&self, key: u64) -> usize {
        let key = key.min(self.key_space - 1);
        ((key as u128 * self.top_buckets as u128) / self.key_space as u128) as usize
    }

    #[inline]
    fn fine_index(&self, key: u64) -> usize {
        let key = key.min(self.key_space - 1);
        let fine = self.top_buckets * self.sub_buckets;
        ((key as u128 * fine as u128) / self.key_space as u128) as usize
    }

    /// Record one access to `key`.  Hot-path: one relaxed add, plus a second
    /// one when the key's coarse bucket is currently refined.
    #[inline]
    pub fn record(&self, key: u64) {
        let t = self.top_index(key);
        self.top[t].fetch_add(1, Ordering::Relaxed);
        if self.refined.load(Ordering::Relaxed) & (1u64 << t) != 0 {
            self.sub[self.fine_index(key)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total recorded (decayed) accesses.
    pub fn total(&self) -> u64 {
        self.top.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Age every counter: `count >>= shift` (shift 1 halves the history each
    /// round, giving an exponentially-decaying window).
    fn decay(&self, shift: u32) {
        if shift == 0 {
            return;
        }
        for c in self.top.iter().chain(self.sub.iter()) {
            // Racy read-modify-write is fine: concurrent increments lost to
            // the store are statistical noise, exactly like the paper's
            // lightweight histograms.
            let v = c.load(Ordering::Relaxed);
            if v != 0 {
                c.store(v >> shift, Ordering::Relaxed);
            }
        }
    }

    /// Re-decide which top buckets are refined: a bucket is hot when its
    /// share of the total exceeds `hot_factor` times the fair share
    /// (`1 / top_buckets`).  Newly-refined buckets have their sub-counters
    /// zeroed so the fine distribution only reflects load observed while hot.
    fn refresh_refinement(&self, hot_factor: f64) {
        let total = self.total();
        if total == 0 {
            return;
        }
        let threshold = (total as f64 * hot_factor / self.top_buckets as f64).max(1.0);
        let old_mask = self.refined.load(Ordering::Relaxed);
        let mut new_mask = 0u64;
        for t in 0..self.top_buckets {
            if self.top[t].load(Ordering::Relaxed) as f64 >= threshold {
                new_mask |= 1u64 << t;
                if old_mask & (1u64 << t) == 0 {
                    for s in 0..self.sub_buckets {
                        self.sub[t * self.sub_buckets + s].store(0, Ordering::Relaxed);
                    }
                }
            }
        }
        self.refined.store(new_mask, Ordering::Relaxed);
    }

    /// Snapshot the histogram as a fine-grained weight vector of length
    /// `top_buckets * sub_buckets`.
    ///
    /// Fine slot `f` covers keys `[f * key_space / F, (f+1) * key_space / F)`
    /// with `F = top_buckets * sub_buckets`.  For refined buckets the weight
    /// is distributed according to the observed sub-counters (scaled so the
    /// bucket total matches the coarse counter); unrefined buckets spread
    /// their count uniformly over their slots.
    pub fn weights(&self) -> Vec<u64> {
        let s = self.sub_buckets;
        let mut out = vec![0u64; self.top_buckets * s];
        let refined = self.refined.load(Ordering::Relaxed);
        for t in 0..self.top_buckets {
            let top = self.top[t].load(Ordering::Relaxed);
            if top == 0 {
                continue;
            }
            let subs: Vec<u64> = (0..s)
                .map(|i| self.sub[t * s + i].load(Ordering::Relaxed))
                .collect();
            let sub_sum: u64 = subs.iter().sum();
            if refined & (1u64 << t) != 0 && sub_sum > 0 {
                // Scale the fine distribution to the coarse total so refined
                // and unrefined buckets stay comparable.
                for (i, &w) in subs.iter().enumerate() {
                    out[t * s + i] = (w as u128 * top as u128 / sub_sum as u128) as u64;
                }
            } else {
                for slot in out[t * s..(t + 1) * s].iter_mut() {
                    *slot = top / s as u64;
                }
                // Keep the bucket total exact despite integer division.
                out[t * s] += top - (top / s as u64) * s as u64;
            }
        }
        out
    }
}

/// One histogram per table, indexed by dense [`TableId`].
#[derive(Debug)]
pub struct HistogramSet {
    histograms: Vec<AgingHistogram>,
}

impl HistogramSet {
    /// Build one histogram per `(table_id, key_space)` pair; table ids must be
    /// dense from 0 (as the catalog requires).
    pub fn new(key_spaces: &[u64], top_buckets: usize, sub_buckets: usize) -> Self {
        Self {
            histograms: key_spaces
                .iter()
                .map(|&ks| AgingHistogram::new(ks, top_buckets, sub_buckets))
                .collect(),
        }
    }

    #[inline]
    pub fn record(&self, table: TableId, key: u64) {
        if let Some(h) = self.histograms.get(table.0 as usize) {
            h.record(key);
        }
    }

    pub(crate) fn table(&self, table: TableId) -> Option<&AgingHistogram> {
        self.histograms.get(table.0 as usize)
    }

    pub fn decay_all(&self, shift: u32) {
        for h in &self.histograms {
            h.decay(shift);
        }
    }

    pub fn refresh_refinement_all(&self, hot_factor: f64) {
        for h in &self.histograms {
            h.refresh_refinement(hot_factor);
        }
    }

    pub fn len(&self) -> usize {
        self.histograms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_coarse_bucket() {
        let h = AgingHistogram::new(1_000, 10, 4);
        for k in 0..100 {
            h.record(k); // bucket 0
        }
        for _ in 0..50 {
            h.record(950); // bucket 9
        }
        let w = h.weights();
        let bucket = |t: usize| -> u64 { w[t * 4..(t + 1) * 4].iter().sum() };
        assert_eq!(bucket(0), 100);
        assert_eq!(bucket(9), 50);
        assert_eq!(h.total(), 150);
        // Out-of-range keys clamp into the last bucket instead of panicking.
        h.record(u64::MAX);
        assert_eq!(h.total(), 151);
    }

    #[test]
    fn decay_halves_counters_and_fades_stale_load() {
        let h = AgingHistogram::new(100, 4, 2);
        for _ in 0..64 {
            h.record(10);
        }
        h.decay(1);
        assert_eq!(h.total(), 32);
        h.decay(2);
        assert_eq!(h.total(), 8);
        // Six more halvings wipe the stale hotspot entirely.
        for _ in 0..6 {
            h.decay(1);
        }
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn refinement_activates_on_hot_buckets_and_splits_them() {
        let h = AgingHistogram::new(800, 8, 4);
        // Bucket 2 (keys 200..300) gets 10x the traffic of the others.
        for k in 0..800 {
            h.record(k);
        }
        for _ in 0..10 {
            for k in 200..300 {
                h.record(k);
            }
        }
        h.refresh_refinement(2.0);
        assert_eq!(
            h.refined.load(Ordering::Relaxed),
            1 << 2,
            "only bucket 2 is hot"
        );
        // Fine counters accumulate only after refinement: hammer one quarter
        // of the hot bucket.
        for _ in 0..100 {
            for k in 200..225 {
                h.record(k);
            }
        }
        let w = h.weights();
        // Hot bucket slots: 2*4 .. 3*4; the first sub-bucket holds the load.
        assert!(
            w[8] > w[9] * 10,
            "refined distribution should be skewed: {:?}",
            &w[8..12]
        );
    }

    #[test]
    fn unrefined_buckets_spread_uniformly_and_keep_totals() {
        let h = AgingHistogram::new(100, 2, 4);
        for _ in 0..10 {
            h.record(10);
        }
        let w = h.weights();
        assert_eq!(w.iter().sum::<u64>(), 10);
        assert_eq!(&w[4..], &[0, 0, 0, 0]);
    }

    #[test]
    fn histogram_set_routes_by_table() {
        let set = HistogramSet::new(&[100, 200], 4, 2);
        set.record(TableId(0), 5);
        set.record(TableId(1), 150);
        set.record(TableId(9), 1); // unknown table: ignored
        assert_eq!(set.table(TableId(0)).unwrap().total(), 1);
        assert_eq!(set.table(TableId(1)).unwrap().total(), 1);
        assert_eq!(set.len(), 2);
        set.decay_all(1);
        assert_eq!(set.table(TableId(0)).unwrap().total(), 0);
    }
}
