//! The engine flight recorder: a bounded in-memory time series of stats
//! deltas plus a crash/shutdown dump.
//!
//! A [`FlightRecorder`] holds the last `capacity` [`Sample`]s — each one the
//! counter deltas and latency-histogram summaries for one sampling interval.
//! The engine's metrics sampler thread calls [`FlightRecorder::sample_now`]
//! on its configured cadence; exporters ([`FlightRecorder::samples_json`],
//! [`FlightRecorder::samples_table`]) turn the ring into machine- or
//! human-readable time series.
//!
//! For autopsies, [`register_flight_dump`] ties a recorder + stats registry
//! to a file path in a process-global registry and installs (once, chaining
//! any existing hook) a panic hook that writes every registered target's
//! [`dump_json`](FlightRecorder::dump_json) — time series, whole-run latency
//! summaries, and the chrome://tracing dump of every trace ring — so a dying
//! worker leaves its last seconds on disk. Engine shutdown writes the same
//! dump with reason `"shutdown"`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock, Weak};

use parking_lot::Mutex;

use crate::histogram::LatencySnapshot;
use crate::report::json_string_literal;
use crate::stats::{StatsRegistry, StatsSnapshot};
use crate::trace::now_nanos;

/// Default number of retained samples (at the default 100 ms interval, about
/// half a minute of history).
const DEFAULT_FLIGHT_SAMPLES: usize = 256;

/// Per-interval summary of one latency histogram.
#[derive(Clone, Debug)]
pub(crate) struct HistPoint {
    pub name: &'static str,
    pub count: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
}

/// One sampling interval's worth of engine activity: counter deltas plus
/// interval quantiles for every latency histogram that saw samples.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Trace-clock timestamp (ns) when the sample was taken.
    pub at_nanos: u64,
    pub committed: u64,
    pub aborted: u64,
    pub actions: u64,
    pub batches: u64,
    pub parks: u64,
    pub wal_flushes: u64,
    pub wal_fsyncs: u64,
    pub wal_bytes: u64,
    pub repartitions: u64,
    pub(crate) hist: Vec<HistPoint>,
}

impl Sample {
    fn from_deltas(at_nanos: u64, stats: &StatsSnapshot, latency: &LatencySnapshot) -> Self {
        let hist = latency
            .named()
            .into_iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(name, h)| HistPoint {
                name,
                count: h.count,
                p50: h.p50(),
                p99: h.p99(),
                max: h.max,
            })
            .collect();
        Sample {
            at_nanos,
            committed: stats.committed,
            aborted: stats.aborted,
            actions: stats.msg.actions,
            batches: stats.msg.batches,
            parks: stats.msg.parks,
            wal_flushes: stats.wal.flush_batches,
            wal_fsyncs: stats.wal.fsyncs,
            wal_bytes: stats.wal.flushed_bytes,
            repartitions: stats.dlb.repartitions_triggered,
            hist,
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"at_nanos\":{},\"committed\":{},\"aborted\":{},\"actions\":{},\
             \"batches\":{},\"parks\":{},\"wal_flushes\":{},\"wal_fsyncs\":{},\
             \"wal_bytes\":{},\"repartitions\":{},\"hist\":[",
            self.at_nanos,
            self.committed,
            self.aborted,
            self.actions,
            self.batches,
            self.parks,
            self.wal_flushes,
            self.wal_fsyncs,
            self.wal_bytes,
            self.repartitions,
        );
        for (i, h) in self.hist.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                json_string_literal(h.name),
                h.count,
                h.p50,
                h.p99,
                h.max
            ));
        }
        out.push_str("]}");
        out
    }
}

struct RecorderInner {
    prev_stats: Option<StatsSnapshot>,
    prev_latency: Option<LatencySnapshot>,
    samples: VecDeque<Sample>,
}

/// Bounded time-series ring of [`Sample`]s. See the module docs.
pub struct FlightRecorder {
    id: u64,
    capacity: usize,
    inner: Mutex<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_SAMPLES)
    }
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            inner: Mutex::new(RecorderInner {
                prev_stats: None,
                prev_latency: None,
                samples: VecDeque::new(),
            }),
        }
    }

    /// Take one sample: snapshot `stats`, delta against the previous
    /// snapshot, and append to the ring (evicting the oldest at capacity).
    pub fn sample_now(&self, stats: &StatsRegistry) {
        let now_stats = stats.snapshot();
        let now_latency = stats.latency().snapshot();
        let mut inner = self.inner.lock();
        let stats_delta = match &inner.prev_stats {
            Some(prev) => now_stats.delta(prev),
            None => now_stats,
        };
        let latency_delta = match &inner.prev_latency {
            Some(prev) => now_latency.delta(prev),
            None => now_latency.clone(),
        };
        let sample = Sample::from_deltas(now_nanos(), &stats_delta, &latency_delta);
        if inner.samples.len() == self.capacity {
            inner.samples.pop_front();
        }
        inner.samples.push_back(sample);
        inner.prev_stats = Some(now_stats);
        inner.prev_latency = Some(now_latency);
    }

    /// Copy of the retained samples, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        self.inner.lock().samples.iter().cloned().collect()
    }

    /// The retained time series as a JSON array.
    pub fn samples_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.samples().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.json());
        }
        out.push(']');
        out
    }

    /// The retained time series as a table (one row per sample).
    pub fn samples_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            "Flight recorder — per-interval deltas",
            &[
                "t (ms)",
                "committed",
                "aborted",
                "actions",
                "wal flushes",
                "fsyncs",
                "repartitions",
                "roundtrip p99 (µs)",
            ],
        );
        for s in self.samples() {
            let p99 = s
                .hist
                .iter()
                .find(|h| h.name == "action_roundtrip")
                .map(|h| crate::Cell::FloatPrec(h.p99 as f64 / 1_000.0, 1))
                .unwrap_or(crate::Cell::Empty);
            t.row(vec![
                crate::Cell::FloatPrec(s.at_nanos as f64 / 1e6, 1),
                crate::Cell::from(s.committed),
                crate::Cell::from(s.aborted),
                crate::Cell::from(s.actions),
                crate::Cell::from(s.wal_flushes),
                crate::Cell::from(s.wal_fsyncs),
                crate::Cell::from(s.repartitions),
                p99,
            ]);
        }
        t
    }

    /// The full autopsy document: `reason`, the sample time series, the
    /// whole-run latency summaries, the slow-transaction reservoir, the DLB
    /// decision audit log, and every trace ring in chrome://tracing form.
    pub fn dump_json(&self, stats: &StatsRegistry, reason: &str) -> String {
        let mut out = format!(
            "{{\"reason\":{},\"dumped_at_nanos\":{},\"samples\":",
            json_string_literal(reason),
            now_nanos()
        );
        out.push_str(&self.samples_json());
        out.push_str(",\"latency\":[");
        for (i, (name, h)) in stats.latency().snapshot().named().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"count\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\
                 \"p99\":{},\"p999\":{},\"max\":{}}}",
                json_string_literal(name),
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
                h.max
            ));
        }
        out.push_str("],\"slow\":");
        out.push_str(&stats.slow().json());
        out.push_str(",\"decisions\":");
        out.push_str(&stats.dlb_decisions().json());
        out.push_str(",\"trace\":");
        out.push_str(&stats.trace().chrome_json());
        out.push('}');
        out
    }

    /// Write [`dump_json`](Self::dump_json) to `path`, ignoring IO errors
    /// (the dump path runs inside panic hooks and shutdown, where failing
    /// loudly helps no one).  Creates no directory: a dump into one removed
    /// since [`register_flight_dump`] created it fails quietly.
    pub fn dump_to(&self, path: &Path, stats: &StatsRegistry, reason: &str) {
        let _ = std::fs::write(path, self.dump_json(stats, reason));
    }
}

struct DumpTarget {
    path: PathBuf,
    recorder: Weak<FlightRecorder>,
    stats: Weak<StatsRegistry>,
}

fn targets() -> &'static Mutex<Vec<DumpTarget>> {
    static TARGETS: OnceLock<Mutex<Vec<DumpTarget>>> = OnceLock::new();
    TARGETS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Dump every live registered target to its path. Called by the panic hook
/// and usable directly (e.g. from tests or a signal handler).
fn dump_all_targets(reason: &str) {
    // `try_lock` so a panic *inside* the registry lock can never deadlock the
    // hook; worst case we skip the autopsy.
    let Some(targets) = targets().try_lock() else {
        return;
    };
    for t in targets.iter() {
        if let (Some(recorder), Some(stats)) = (t.recorder.upgrade(), t.stats.upgrade()) {
            recorder.dump_to(&t.path, &stats, reason);
        }
    }
}

/// Register `recorder` to be dumped to `path` when any thread panics (and
/// install the process-wide panic hook on first use). The registry holds weak
/// references: drop the recorder and the target goes dead; call
/// [`unregister_flight_dump`] to remove it eagerly (normal shutdown).
/// `path`'s directory is created here, once.
pub fn register_flight_dump(
    path: PathBuf,
    recorder: &Arc<FlightRecorder>,
    stats: &Arc<StatsRegistry>,
) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_all_targets("panic");
            previous(info);
        }));
    });
    targets().lock().push(DumpTarget {
        path,
        recorder: Arc::downgrade(recorder),
        stats: Arc::downgrade(stats),
    });
}

/// Remove `recorder`'s dump target (and any dead ones).
pub fn unregister_flight_dump(recorder: &Arc<FlightRecorder>) {
    targets()
        .lock()
        .retain(|t| t.recorder.upgrade().is_some_and(|r| r.id != recorder.id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::json_is_valid;

    #[test]
    fn sampling_produces_deltas() {
        let stats = StatsRegistry::new_shared();
        let recorder = FlightRecorder::new(4);
        stats.txn_committed();
        recorder.sample_now(&stats);
        stats.txn_committed();
        stats.txn_committed();
        stats.latency().action_roundtrip.record(5_000);
        recorder.sample_now(&stats);
        let samples = recorder.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].committed, 1);
        assert_eq!(samples[1].committed, 2);
        assert_eq!(samples[1].hist.len(), 1);
        assert_eq!(samples[1].hist[0].name, "action_roundtrip");
        assert_eq!(samples[1].hist[0].count, 1);
    }

    #[test]
    fn ring_is_bounded() {
        let stats = StatsRegistry::new_shared();
        let recorder = FlightRecorder::new(3);
        for _ in 0..10 {
            recorder.sample_now(&stats);
        }
        assert_eq!(recorder.samples().len(), 3);
    }

    #[test]
    fn default_ring_wraps_past_256_samples() {
        let stats = StatsRegistry::new_shared();
        let recorder = FlightRecorder::default();
        // 300 samples, one committed txn between each: sample i (0-based)
        // carries a delta of exactly 1 except the first (0 before any txn).
        recorder.sample_now(&stats);
        for _ in 1..300 {
            stats.txn_committed();
            recorder.sample_now(&stats);
        }
        let samples = recorder.samples();
        assert_eq!(samples.len(), DEFAULT_FLIGHT_SAMPLES);
        // Oldest retained sample is #44 (300 - 256), i.e. a delta, not the
        // absolute counter value — wraparound must not lose the baseline.
        assert!(samples.iter().all(|s| s.committed == 1));
        // Timestamps stay monotone across the wrap.
        assert!(samples.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
        // The JSON export of a wrapped ring stays valid and bounded.
        let json = recorder.samples_json();
        assert!(json_is_valid(&json));
        assert_eq!(json.matches("\"at_nanos\"").count(), DEFAULT_FLIGHT_SAMPLES);
    }

    #[test]
    fn dump_json_is_valid_and_complete() {
        let stats = StatsRegistry::new_shared();
        let ring = stats.trace().register("worker-9");
        ring.instant(crate::trace::TraceEvent::Commit, 3);
        let recorder = FlightRecorder::new(8);
        stats.latency().wal_fsync.record(123);
        recorder.sample_now(&stats);
        stats.slow().offer(crate::slowlog::SlowTxn {
            txn_id: 42,
            started_at_nanos: 1,
            total_nanos: 9_999,
            actions: 3,
            phases: Default::default(),
        });
        stats.dlb_decisions().push(crate::slowlog::DlbDecision {
            at_nanos: 5,
            table: 0,
            observed: 2.0,
            predicted: 1.2,
            gain: 0.8,
            net_benefit: 0.3,
            outcome: crate::slowlog::DlbOutcome::Triggered,
            bounds: vec![0, 512],
        });
        let dump = recorder.dump_json(&stats, "test");
        assert!(json_is_valid(&dump), "invalid dump: {dump}");
        assert!(dump.contains("\"reason\":\"test\""));
        assert!(dump.contains("\"wal_fsync\""));
        assert!(dump.contains("\"worker-9\""));
        assert!(dump.contains("\"slow\":[{\"txn_id\":42"));
        assert!(dump.contains("\"outcome\":\"triggered\""));
        assert!(!recorder.samples_table().is_empty());
    }

    #[test]
    fn register_and_dump_targets() {
        let stats = StatsRegistry::new_shared();
        let recorder = Arc::new(FlightRecorder::new(8));
        recorder.sample_now(&stats);
        let dir = std::env::temp_dir().join(format!("plp-recorder-test-{}", std::process::id()));
        let path = dir.join("dump.json");
        register_flight_dump(path.clone(), &recorder, &stats);
        dump_all_targets("unit");
        let dump = std::fs::read_to_string(&path).expect("dump written");
        assert!(json_is_valid(&dump));
        assert!(dump.contains("\"reason\":\"unit\""));
        unregister_flight_dump(&recorder);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
