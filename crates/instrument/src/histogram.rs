//! Log-linear latency histograms with lock-free recording.
//!
//! A [`Histogram`] covers the full `u64` range with fixed bucket boundaries
//! (no configuration, no resizing): values below 16 get one bucket each, and
//! every power-of-two octave above that is split into 16 linear sub-buckets.
//! The reported bounds of a value's bucket therefore bracket the true value
//! within a relative error of 1/16 (6.25%), HDR-histogram style.
//!
//! Recording is a relaxed `fetch_add` on the bucket, a release `fetch_add`
//! on the sum and a rarely taken max update — safe to leave enabled on the
//! hot path, and
//! compiled to a no-op under the `obs-stub` feature so the `fig_obs` bench
//! can measure the difference.
//!
//! Because the bucket boundaries are global constants, [`Histogram::merge`]
//! and [`HistogramSnapshot::delta`] are exact: merging two histograms yields
//! bucket-identical results to recording every sample into one, and interval
//! quantiles fall out of subtracting cumulative bucket counts.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave splits into `1 << SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 4;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total bucket count: 16 exact unit buckets (values 0–15) plus 60 octaves
/// (msb 4 through 63) of 16 sub-buckets each.
const NUM_BUCKETS: usize = (SUB_COUNT + (64 - SUB_BITS as u64) * SUB_COUNT) as usize;

/// Map a value to its bucket index. Exact for values below 16; above that the
/// bucket spans `2^(msb-4)` consecutive values.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        (((shift + 1) << SUB_BITS) as u64 + ((value >> shift) & (SUB_COUNT - 1))) as usize
    }
}

/// Inclusive `(low, high)` value range covered by a bucket index.
pub fn bucket_range(index: usize) -> (u64, u64) {
    debug_assert!(index < NUM_BUCKETS);
    let index = index as u64;
    if index < SUB_COUNT {
        (index, index)
    } else {
        let group = index >> SUB_BITS;
        let sub = index & (SUB_COUNT - 1);
        let msb = (group as u32 - 1) + SUB_BITS;
        let width = 1u64 << (msb - SUB_BITS);
        let low = (1u64 << msb) + sub * width;
        // `low + width` overflows for the very last bucket (high == u64::MAX).
        (low, low + (width - 1))
    }
}

/// A fixed-bucket log-linear histogram with lock-free atomic recording.
///
/// All methods take `&self`; concurrent recorders never lose counts (each
/// count is one `fetch_add`). Cross-counter reads while recorders are active
/// may be torn, like every other counter in this crate, in the one direction
/// [`snapshot`](Histogram::snapshot) documents.
///
/// There is deliberately no separate total-count counter: the count is the
/// sum of the buckets, computed at snapshot time, keeping the recording
/// path at two `fetch_add`s plus a rarely-taken max update.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Compiled out under the `obs-stub` feature.
    #[inline]
    pub fn record(&self, value: u64) {
        #[cfg(not(feature = "obs-stub"))]
        {
            self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            // A plain load is ~free next to an atomic RMW, and after warm-up
            // a new maximum is rare — so only those pay the `fetch_max`.
            if value > self.max.load(Ordering::Relaxed) {
                self.max.fetch_max(value, Ordering::Relaxed);
            }
            // `sum` last, with Release: a snapshot that sees a sample's
            // value in `sum` (Acquire) also sees its bucket.
            self.sum.fetch_add(value, Ordering::Release);
        }
        #[cfg(feature = "obs-stub")]
        let _ = value;
    }

    /// Record a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Fold another histogram's counts into this one. Exact: bucket
    /// boundaries are global constants, so the result is bucket-identical to
    /// recording both sample sets into one histogram.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Samples recorded: the sum of the buckets (a cold-path scan; the hot
    /// path does not maintain a separate total).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Zero every bucket and rollup.  `sum` goes first, so a snapshot that
    /// reads it after the reset began sees no pre-reset value; see
    /// [`snapshot`](Self::snapshot) for the race that remains.
    pub fn reset(&self) {
        self.sum.store(0, Ordering::Relaxed);
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.max.store(0, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts and rollups. `sum` is read
    /// first (Acquire, pairing with [`record`](Self::record)'s Release), so
    /// every sample it includes is in the buckets too: a snapshot racing
    /// recorders may count a sample whose value is not yet in `sum`, never
    /// the reverse — in particular never a zero count with a non-zero sum.
    /// `count` is derived from the buckets, so it is always
    /// bucket-consistent.
    ///
    /// That holds between resets only.  A snapshot overlapping
    /// [`reset`](Self::reset) can read the old `sum` and then the zeroed
    /// buckets (or a recorder racing the reset can land its `sum` after the
    /// reset zeroed its bucket), and so show a sum its buckets do not hold.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let sum = self.sum.load(Ordering::Acquire);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum,
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Convenience quantile straight off the live histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// Immutable copy of a [`Histogram`]'s state, with quantile queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the sample with (1-based) rank `ceil(q * n)`. The true sample
    /// is bracketed by that bucket's bounds, so the reported value is within
    /// one bucket width (≤ 1/16 relative error) above it. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_range(i).1;
            }
        }
        bucket_range(self.buckets.len() - 1).1
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples recorded since `earlier` was taken. Bucket counts and
    /// count/sum subtract exactly (counters are monotonic), so interval
    /// quantiles are as accurate as whole-run ones. `max` cannot be
    /// windowed from monotonic state and keeps the whole-run value.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// Names and histograms for every engine latency distribution, in a fixed
/// order shared by [`LatencyStats`] and [`LatencySnapshot`].
macro_rules! latency_histograms {
    ($($field:ident => $label:literal / $doc:literal,)*) => {
        /// The engine's latency histograms, owned by
        /// [`StatsRegistry`](crate::StatsRegistry).
        #[derive(Debug, Default)]
        pub struct LatencyStats {
            $(#[doc = $doc] pub $field: Histogram,)*
        }

        /// Point-in-time copy of every latency histogram.
        #[derive(Clone, Debug, Default)]
        pub struct LatencySnapshot {
            $(#[doc = $doc] pub $field: HistogramSnapshot,)*
        }

        impl LatencyStats {
            pub fn snapshot(&self) -> LatencySnapshot {
                LatencySnapshot {
                    $($field: self.$field.snapshot(),)*
                }
            }

            pub fn reset(&self) {
                $(self.$field.reset();)*
            }
        }

        impl LatencySnapshot {
            /// Samples recorded between `earlier` and `self`.
            pub fn delta(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
                LatencySnapshot {
                    $($field: self.$field.delta(&earlier.$field),)*
                }
            }

            /// `(label, snapshot)` pairs in declaration order.
            pub fn named(&self) -> Vec<(&'static str, &HistogramSnapshot)> {
                vec![$(($label, &self.$field),)*]
            }
        }
    };
}

latency_histograms! {
    action_roundtrip => "action_roundtrip" /
        "Per-action round-trip: dispatch enqueue to reply consumed (ns).",
    stage_dispatch => "stage_dispatch" /
        "Per-stage dispatch: route + enqueue for one whole stage (ns).",
    wal_fsync => "wal_fsync" /
        "One `fsync`/`sync_data` on the log device (ns).",
    wal_flush => "wal_flush" /
        "One group-commit batch flush: drain + append (+ sync) (ns).",
    lock_wait => "lock_wait" /
        "Lock-manager waits that did not get the lock immediately (ns).",
    repartition_drain => "repartition_drain" /
        "Repartition: transaction drain + worker quiesce (ns).",
    repartition_move => "repartition_move" /
        "Repartition: slice/meld + ownership re-assignment after drain (ns).",
    phase_queue_wait => "phase_queue_wait" /
        "Round-trip phase: dispatch enqueue until the worker dequeues (ns).",
    phase_lock_wait => "phase_lock_wait" /
        "Round-trip phase: blocked lock acquisition inside the action body (ns).",
    phase_execute => "phase_execute" /
        "Round-trip phase: action body on the worker, minus lock waits (ns).",
    phase_reply_wait => "phase_reply_wait" /
        "Round-trip phase: worker finish until the session consumes the reply (ns).",
    phase_wal_flush => "phase_wal_flush" /
        "Commit-time wait for the WAL group-commit flush (ns).",
    server_request => "server_request" /
        "Server-side request latency: frame decoded to its reply written (ns).",
}

impl LatencySnapshot {
    /// Summary table (count / mean / p50 / p90 / p99 / p999 / max, µs) of
    /// every histogram that recorded at least one sample.
    pub fn table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            "Latency histograms (µs)",
            &[
                "histogram",
                "count",
                "mean",
                "p50",
                "p90",
                "p99",
                "p999",
                "max",
            ],
        );
        let us = |ns: u64| crate::Cell::FloatPrec(ns as f64 / 1_000.0, 1);
        for (name, h) in self.named() {
            if h.count == 0 {
                continue;
            }
            t.row(vec![
                crate::Cell::from(name),
                crate::Cell::from(h.count),
                crate::Cell::FloatPrec(h.mean() / 1_000.0, 1),
                us(h.p50()),
                us(h.p90()),
                us(h.p99()),
                us(h.p999()),
                us(h.max),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact_below_16() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_range(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_ranges_tile_the_u64_line() {
        let mut next = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(
                lo,
                next,
                "bucket {i} does not start where {} ended",
                i.wrapping_sub(1)
            );
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, NUM_BUCKETS - 1);
                return;
            }
            next = hi + 1;
        }
        panic!("buckets did not reach u64::MAX");
    }

    #[test]
    fn relative_error_bounded_by_one_sixteenth() {
        for &v in &[16u64, 17, 100, 1_000, 65_535, 1 << 33, u64::MAX / 3] {
            let (lo, hi) = bucket_range(bucket_index(v));
            assert!(lo <= v && v <= hi);
            assert!(
                hi - lo <= v / 16,
                "bucket width {} too wide for {v}",
                hi - lo
            );
        }
    }

    /// A scrape racing recorders may miss a sample's value in `sum`, never
    /// its bucket: with one value recorded, `sum <= count * value` in every
    /// snapshot (the exposition validator rejects a zero count with a
    /// non-zero sum).
    #[test]
    #[cfg(not(feature = "obs-stub"))]
    fn snapshot_never_shows_a_sum_without_its_samples() {
        let h = Histogram::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let torn = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    h.record(3);
                }
            });
            let torn = (0..20_000)
                .map(|_| h.snapshot())
                .find(|snap| snap.sum > 3 * snap.count);
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert_eq!(torn.map(|s| (s.sum, s.count)), None, "(sum, count)");
    }

    #[test]
    fn quantiles_and_rollups() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // p50 should bracket 500 within its bucket (width 32 at that octave).
        let p50 = s.p50();
        let (lo, hi) = bucket_range(bucket_index(500));
        assert!(p50 >= lo && p50 <= hi, "p50={p50} not in [{lo},{hi}]");
        assert!(s.p99() >= s.p50());
        assert!(s.p999() >= s.p99());
        assert!(s.quantile(1.0) >= 1000 - 1000 / 16);
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn merge_equals_bulk() {
        let a = Histogram::new();
        let b = Histogram::new();
        let bulk = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 7);
            bulk.record(v * 7);
        }
        for v in 0..300u64 {
            b.record(v * 13 + 1);
            bulk.record(v * 13 + 1);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), bulk.snapshot());
    }

    #[test]
    fn delta_windows_counts() {
        let h = Histogram::new();
        h.record(10);
        let first = h.snapshot();
        h.record(10);
        h.record(1 << 20);
        let d = h.snapshot().delta(&first);
        assert_eq!(d.count, 2);
        assert_eq!(d.buckets[bucket_index(10)], 1);
        assert_eq!(d.buckets[bucket_index(1 << 20)], 1);
    }

    #[test]
    fn latency_stats_roundtrip() {
        let l = LatencyStats::default();
        l.action_roundtrip.record(1_000);
        l.wal_fsync
            .record_duration(std::time::Duration::from_micros(5));
        let s = l.snapshot();
        assert_eq!(s.action_roundtrip.count, 1);
        assert_eq!(s.wal_fsync.count, 1);
        assert_eq!(s.named().len(), 13);
        let t = s.table();
        assert!(t.render().contains("action_roundtrip"));
        l.reset();
        assert_eq!(l.snapshot().action_roundtrip.count, 0);
    }
}
