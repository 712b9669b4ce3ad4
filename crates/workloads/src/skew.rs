//! Skewed key distributions with a mid-run shift.
//!
//! The dynamic-load-balancing experiments need an *adversary*: a workload
//! whose hot range is narrow, carries most of the traffic and — crucially —
//! moves mid-run, so a static partitioning that was perfect a second ago is
//! suddenly terrible.  This module provides that:
//!
//! * [`SkewKind::HotSpot`] — `probability` of draws land uniformly in the
//!   first `fraction` of the key space (the paper's Figure 8 load shift).
//! * [`SkewKind::Zipfian`] — rank-`r` key drawn with probability
//!   `∝ 1/(r+1)^theta` (the Gray et al. generator YCSB popularized), so hot
//!   keys cluster at the low end of the rotated space.
//! * [`SkewedKeys::shift_to`] — atomically rotates the whole distribution by
//!   an offset, relocating the hot range without touching the workers.
//!
//! Samplers are stateless per-draw (all state is in the caller's RNG plus
//! one shared `AtomicU64` for the rotation), so one `SkewedKeys` can be
//! shared by every client thread.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The shape of the access distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkewKind {
    /// Every key equally likely.
    Uniform,
    /// `probability` of draws hit the first `fraction` of the (rotated) key
    /// space; the rest are uniform over the whole space.
    HotSpot { fraction: f64, probability: f64 },
    /// Zipfian with exponent `theta` in `(0, 1)`; rank 0 (the hottest key)
    /// maps to the rotation offset.
    Zipfian { theta: f64 },
}

/// A shareable skewed key sampler over `[0, key_space)`.
#[derive(Debug)]
pub struct SkewedKeys {
    key_space: u64,
    kind: SkewKind,
    /// Rotation: drawn base keys are shifted by this amount (mod key_space),
    /// so the hot range starts here.
    offset: AtomicU64,
    /// Precomputed Zipfian constants (`zetan`, `eta`, `alpha`), zero for the
    /// other kinds.
    zipf: Option<ZipfConstants>,
}

#[derive(Debug, Clone, Copy)]
struct ZipfConstants {
    theta: f64,
    zetan: f64,
    eta: f64,
    alpha: f64,
}

impl SkewedKeys {
    pub fn new(key_space: u64, kind: SkewKind) -> Self {
        let key_space = key_space.max(1);
        let zipf = match kind {
            SkewKind::Zipfian { theta } => {
                assert!(
                    (0.0..1.0).contains(&theta),
                    "zipfian theta must be in (0, 1)"
                );
                let n = key_space as f64;
                let zetan: f64 = (1..=key_space).map(|i| 1.0 / (i as f64).powf(theta)).sum();
                let zeta2 = 1.0 + 0.5f64.powf(theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Some(ZipfConstants {
                    theta,
                    zetan,
                    eta,
                    alpha,
                })
            }
            _ => None,
        };
        Self {
            key_space,
            kind,
            offset: AtomicU64::new(0),
            zipf,
        }
    }

    pub fn uniform(key_space: u64) -> Self {
        Self::new(key_space, SkewKind::Uniform)
    }

    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    pub fn kind(&self) -> SkewKind {
        self.kind
    }

    /// Where the hot range currently starts.
    pub fn offset(&self) -> u64 {
        self.offset.load(Ordering::Acquire)
    }

    /// Move the hot range so it starts at `offset` (mod key space).  Safe to
    /// call while other threads are sampling — that is the whole point.
    pub fn shift_to(&self, offset: u64) {
        self.offset
            .store(offset % self.key_space, Ordering::Release);
    }

    /// The key range `[start, end)` currently holding the distribution's
    /// head: the hot fraction for [`SkewKind::HotSpot`], the same-sized
    /// leading span for [`SkewKind::Zipfian`], everything for uniform.
    /// (May wrap; `end <= key_space` is *not* guaranteed — use modular
    /// arithmetic when comparing.)
    pub fn hot_range(&self) -> (u64, u64) {
        let start = self.offset();
        let len = match self.kind {
            SkewKind::Uniform => self.key_space,
            SkewKind::HotSpot { fraction, .. } => {
                ((self.key_space as f64 * fraction) as u64).max(1)
            }
            // For Zipfian, report the span holding ~the hottest 5%.
            SkewKind::Zipfian { .. } => (self.key_space / 20).max(1),
        };
        (start, start + len)
    }

    /// Draw a key.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> u64 {
        let base = match self.kind {
            SkewKind::Uniform => rng.gen_range(0..self.key_space),
            SkewKind::HotSpot {
                fraction,
                probability,
            } => {
                if rng.gen_bool(probability.clamp(0.0, 1.0)) {
                    let hot = ((self.key_space as f64 * fraction) as u64).max(1);
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..self.key_space)
                }
            }
            SkewKind::Zipfian { .. } => self.sample_zipf_rank(rng),
        };
        let offset = self.offset.load(Ordering::Acquire);
        let shifted = base + offset;
        if shifted >= self.key_space {
            shifted - self.key_space
        } else {
            shifted
        }
    }

    /// Gray et al.'s "quick zipf" inversion (the YCSB generator).
    fn sample_zipf_rank(&self, rng: &mut ChaCha8Rng) -> u64 {
        let c = self.zipf.expect("zipf constants");
        let n = self.key_space as f64;
        let u: f64 = rng.gen();
        let uz = u * c.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(c.theta) {
            return 1;
        }
        let rank = (n * (c.eta * u - c.eta + 1.0).powf(c.alpha)) as u64;
        rank.min(self.key_space - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn histogram(keys: &SkewedKeys, draws: usize, buckets: usize, seed: u64) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut h = vec![0usize; buckets];
        for _ in 0..draws {
            let k = keys.sample(&mut rng);
            assert!(k < keys.key_space());
            h[(k as u128 * buckets as u128 / keys.key_space() as u128) as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_spreads_evenly() {
        let keys = SkewedKeys::uniform(10_000);
        let h = histogram(&keys, 10_000, 10, 1);
        for &b in &h {
            assert!(b > 700 && b < 1_300, "uniform bucket {b}");
        }
    }

    #[test]
    fn hotspot_concentrates_then_shifts() {
        let keys = SkewedKeys::new(
            10_000,
            SkewKind::HotSpot {
                fraction: 0.1,
                probability: 0.9,
            },
        );
        let h = histogram(&keys, 10_000, 10, 2);
        assert!(h[0] > 8_000, "hot bucket holds ~91%: {h:?}");
        // Shift the hotspot to the back half.
        keys.shift_to(8_000);
        assert_eq!(keys.offset(), 8_000);
        let h = histogram(&keys, 10_000, 10, 3);
        assert!(h[8] > 8_000, "hotspot moved to bucket 8: {h:?}");
        assert!(h[0] < 1_000, "old hotspot went cold: {h:?}");
    }

    #[test]
    fn zipfian_is_head_heavy_and_shiftable() {
        let keys = SkewedKeys::new(10_000, SkewKind::Zipfian { theta: 0.99 });
        let h = histogram(&keys, 20_000, 100, 4);
        // The first percentile of keys should dominate any middle percentile.
        assert!(
            h[0] > 5 * h[50].max(1),
            "zipf head {} vs mid {}",
            h[0],
            h[50]
        );
        let total_head: usize = h[..5].iter().sum();
        assert!(
            total_head > 20_000 / 4,
            "first 5% of keys should hold >25% of draws, got {total_head}"
        );
        keys.shift_to(5_000);
        let h = histogram(&keys, 20_000, 100, 5);
        assert!(h[50] > 5 * h[0].max(1), "zipf head moved to the middle");
    }

    #[test]
    fn hot_range_tracks_shift() {
        let keys = SkewedKeys::new(
            1_000,
            SkewKind::HotSpot {
                fraction: 0.05,
                probability: 0.9,
            },
        );
        assert_eq!(keys.hot_range(), (0, 50));
        keys.shift_to(600);
        assert_eq!(keys.hot_range(), (600, 650));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_bad_theta() {
        SkewedKeys::new(100, SkewKind::Zipfian { theta: 1.5 });
    }
}
