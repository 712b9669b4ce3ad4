//! Allocation-free per-thread event tracing with chrome://tracing export.
//!
//! Each traced thread (worker, session, WAL flusher) owns a [`TraceRing`]: a
//! fixed-capacity ring of 4-word events (start, duration, kind+arg, sequence
//! number) stored as relaxed atomics. Recording an event is four word stores
//! plus a release head bump — no allocation, no locks, cheap enough to stay
//! on by default (and compiled out entirely under the `obs-stub` feature).
//!
//! Rings are *single-writer*: only the owning thread records into its ring.
//! Readers (the trace dump, the flight recorder) run concurrently and
//! tolerate torn entries — an event being overwritten while read is detected
//! by its sequence word not matching the expected sequence and skipped. A
//! torn entry can at worst drop or garble one display row; every access is an
//! atomic load, so there is no undefined behavior (the crate denies
//! `unsafe_code`; the single scoped exception is the `RDTSC` clock intrinsic
//! in [`now_nanos`]'s fast path, which touches no memory).
//!
//! [`TraceRegistry::chrome_json`] renders every ring as a Trace Event JSON
//! document: open chrome://tracing (or <https://ui.perfetto.dev>) and load
//! the file to see multi-stage transactions as nested spans across worker
//! rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::report::json_string_literal;

/// Events per ring. At 4 words/event this is 8 KiB per traced thread.
const DEFAULT_RING_EVENTS: usize = 256;

/// Rings retained by a [`TraceRegistry`] (bounds memory when a process
/// churns through many short-lived sessions).  At the cap a registration
/// evicts the oldest ring whose thread is gone; when every retained ring is
/// still live, the new ring works but isn't dumped.
const MAX_RINGS: usize = 512;

const WORDS_PER_EVENT: usize = 4;

/// `dur` sentinel marking an instant event (chrome `ph:"i"`).
const INSTANT: u64 = u64::MAX;

/// Process-wide trace clock origin: all trace timestamps are nanoseconds
/// since the first trace call, so rings from different threads align.
fn origin() -> &'static Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds on the shared trace clock.
///
/// On x86_64 with an invariant TSC this reads `RDTSC` and scales by a
/// once-calibrated factor (~5 ns) instead of going through `clock_gettime`
/// (~20 ns). The engine takes on the order of ten timestamps per partitioned
/// transaction, so the difference is a measurable slice of the
/// instrumented-vs-stub overhead gate (`fig_obs`). Everywhere else — and
/// when the TSC is not constant-rate — it falls back to [`Instant`].
#[inline]
pub fn now_nanos() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let cal = tsc::calibration();
        if cal.mult != 0 {
            return tsc::read(cal);
        }
    }
    origin().elapsed().as_nanos() as u64
}

/// RDTSC-based trace clock (x86_64 only). The sole `unsafe` in this crate is
/// the `_rdtsc` intrinsic here, which performs no memory access.
#[cfg(target_arch = "x86_64")]
mod tsc {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Tick→nanosecond conversion: `nanos = (ticks − anchor) * mult >> SHIFT`.
    /// `mult == 0` means "TSC unusable here — take the [`Instant`] fallback".
    pub(super) struct Calibration {
        tsc0: u64,
        pub(super) mult: u64,
    }

    /// Fixed-point fraction bits in `mult`. 24 bits keep the conversion's
    /// rounding error far below the calibration window's own measurement
    /// error.
    const SHIFT: u32 = 24;

    #[allow(unsafe_code)]
    #[inline]
    fn rdtsc() -> u64 {
        // SAFETY: RDTSC reads the time-stamp counter register; no memory is
        // accessed and no CPU state is mutated.
        unsafe { std::arch::x86_64::_rdtsc() }
    }

    /// Deltas across threads and cores are only meaningful when the counter
    /// ticks at a constant rate (`constant_tsc`) and keeps ticking in deep
    /// C-states (`nonstop_tsc`); Linux exposes both directly. Anywhere that
    /// can't be confirmed, the fallback clock is used instead.
    fn tsc_is_invariant() -> bool {
        match std::fs::read_to_string("/proc/cpuinfo") {
            Ok(info) => info.contains("constant_tsc") && info.contains("nonstop_tsc"),
            Err(_) => false,
        }
    }

    pub(super) fn calibration() -> &'static Calibration {
        static CAL: OnceLock<Calibration> = OnceLock::new();
        CAL.get_or_init(|| {
            if !tsc_is_invariant() {
                return Calibration { tsc0: 0, mult: 0 };
            }
            // Measure ticks-per-nanosecond against the OS clock over a ~2 ms
            // spin: the endpoints contribute tens of nanoseconds of error, so
            // the factor is good to ~1e-5 — far below histogram bucket
            // resolution. Paid once, at the process's first trace call.
            let t0 = Instant::now();
            let tsc0 = rdtsc();
            let mut elapsed = t0.elapsed();
            while elapsed < std::time::Duration::from_millis(2) {
                std::hint::spin_loop();
                elapsed = t0.elapsed();
            }
            let ticks = rdtsc().saturating_sub(tsc0);
            if ticks == 0 {
                return Calibration { tsc0: 0, mult: 0 };
            }
            let mult = ((elapsed.as_nanos() << SHIFT) / ticks as u128) as u64;
            Calibration {
                tsc0,
                mult: mult.max(1),
            }
        })
    }

    /// Nanoseconds since calibration. Cross-core TSC skew on invariant-TSC
    /// parts is tens of cycles at most; `saturating_sub` clamps the rare
    /// read that lands "before" the anchor to zero.
    #[inline]
    pub(super) fn read(cal: &Calibration) -> u64 {
        let ticks = rdtsc().saturating_sub(cal.tsc0);
        ((ticks as u128 * cal.mult as u128) >> SHIFT) as u64
    }
}

/// What happened. The discriminant is packed into the event's third word
/// (low 8 bits) next to a 56-bit argument (transaction id, worker index,
/// action count — whatever the site finds useful).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEvent {
    /// Whole client transaction (session ring; arg = txn id).
    Txn = 1,
    /// Dispatch of one stage: route, then run inline or enqueue for every
    /// target partition (session ring; arg = actions).  Inline
    /// [`TraceEvent::ExecuteAction`] spans nest inside it.
    Dispatch = 2,
    /// Waiting for all of a stage's replies (session ring; arg = replies);
    /// not recorded for a stage that sent no message.
    ReplyWait = 3,
    /// One action executing (arg = txn id), on the ring of the thread that
    /// ran it: the worker's for a message, the session's for a group it ran
    /// inline — rings are single-writer.
    ExecuteAction = 4,
    /// One multi-action group executing (same ring as its actions; arg =
    /// actions).
    ExecuteBatch = 5,
    /// Transaction committed (session ring; arg = txn id).
    Commit = 6,
    /// Transaction aborted (session ring; arg = txn id).
    Abort = 7,
    /// One group-commit batch flushed (flusher ring; arg = records).
    LogFlush = 8,
    /// Repartition drain + move (arg = table id).
    Repartition = 9,
}

impl TraceEvent {
    pub fn name(self) -> &'static str {
        match self {
            TraceEvent::Txn => "txn",
            TraceEvent::Dispatch => "dispatch",
            TraceEvent::ReplyWait => "reply_wait",
            TraceEvent::ExecuteAction => "execute",
            TraceEvent::ExecuteBatch => "execute_batch",
            TraceEvent::Commit => "commit",
            TraceEvent::Abort => "abort",
            TraceEvent::LogFlush => "log_flush",
            TraceEvent::Repartition => "repartition",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => TraceEvent::Txn,
            2 => TraceEvent::Dispatch,
            3 => TraceEvent::ReplyWait,
            4 => TraceEvent::ExecuteAction,
            5 => TraceEvent::ExecuteBatch,
            6 => TraceEvent::Commit,
            7 => TraceEvent::Abort,
            8 => TraceEvent::LogFlush,
            9 => TraceEvent::Repartition,
            _ => return None,
        })
    }
}

/// One decoded ring entry.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    pub start_nanos: u64,
    /// `None` for instant events.
    pub dur_nanos: Option<u64>,
    pub kind: TraceEvent,
    pub arg: u64,
    pub seq: u64,
}

/// Fixed-capacity single-writer ring of trace events.
pub struct TraceRing {
    id: u64,
    label: String,
    words: Box<[AtomicU64]>,
    /// Total events ever written; `head % capacity` is the next slot.
    head: AtomicU64,
}

impl TraceRing {
    fn new(id: u64, label: String, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let words: Vec<AtomicU64> = (0..capacity * WORDS_PER_EVENT)
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            id,
            label,
            words: words.into_boxed_slice(),
            head: AtomicU64::new(0),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    fn capacity(&self) -> u64 {
        (self.words.len() / WORDS_PER_EVENT) as u64
    }

    /// Record a completed span. Single-writer: call only from the owning
    /// thread. Compiled out under `obs-stub`.
    #[inline]
    pub fn event(&self, kind: TraceEvent, arg: u64, start_nanos: u64, dur_nanos: u64) {
        self.push(start_nanos, dur_nanos, kind, arg);
    }

    /// Record an instant event stamped now.
    #[inline]
    pub fn instant(&self, kind: TraceEvent, arg: u64) {
        if !cfg!(feature = "obs-stub") {
            self.push(now_nanos(), INSTANT, kind, arg);
        }
    }

    /// Record an instant event at a timestamp the caller already read —
    /// hot paths that just computed a `now_nanos()` for something else
    /// (a round-trip delta, a span end) reuse it instead of paying a
    /// second clock read.
    #[inline]
    pub fn instant_at(&self, kind: TraceEvent, arg: u64, at_nanos: u64) {
        self.push(at_nanos, INSTANT, kind, arg);
    }

    /// Open a span that records itself when the guard drops.
    #[inline]
    pub fn span(&self, kind: TraceEvent, arg: u64) -> TraceScope<'_> {
        let start = if cfg!(feature = "obs-stub") {
            0
        } else {
            now_nanos()
        };
        self.span_at(kind, arg, start)
    }

    /// Open a span at a timestamp the caller already read — the batched
    /// execute loop chains one clock read per action through its guards
    /// instead of paying two. The guard still records on panic unwind via
    /// `Drop`; the happy path ends it with [`TraceScope::complete`] to reuse
    /// the end timestamp as the next span's start.
    #[inline]
    pub fn span_at(&self, kind: TraceEvent, arg: u64, start_nanos: u64) -> TraceScope<'_> {
        TraceScope {
            ring: self,
            kind,
            arg,
            start: start_nanos,
        }
    }

    #[inline]
    fn push(&self, start_nanos: u64, dur_nanos: u64, kind: TraceEvent, arg: u64) {
        #[cfg(not(feature = "obs-stub"))]
        {
            let seq = self.head.load(Ordering::Relaxed);
            let base = (seq % self.capacity()) as usize * WORDS_PER_EVENT;
            self.words[base].store(start_nanos, Ordering::Relaxed);
            self.words[base + 1].store(dur_nanos, Ordering::Relaxed);
            self.words[base + 2].store(kind as u64 | (arg << 8), Ordering::Relaxed);
            self.words[base + 3].store(seq + 1, Ordering::Relaxed);
            // Publish: readers that observe the new head see the words above.
            self.head.store(seq + 1, Ordering::Release);
        }
        #[cfg(feature = "obs-stub")]
        {
            let _ = (start_nanos, dur_nanos, kind, arg);
        }
    }

    /// Decode the retained events, oldest first. Entries overwritten (or
    /// half-written) while being read fail the sequence check and are
    /// skipped.
    pub fn read(&self) -> Vec<TraceRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.capacity();
        let first = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - first) as usize);
        for seq in first..head {
            let base = (seq % cap) as usize * WORDS_PER_EVENT;
            let start = self.words[base].load(Ordering::Relaxed);
            let dur = self.words[base + 1].load(Ordering::Relaxed);
            let kind_arg = self.words[base + 2].load(Ordering::Relaxed);
            let tag = self.words[base + 3].load(Ordering::Relaxed);
            if tag != seq + 1 {
                continue; // torn: overwritten by the writer mid-read
            }
            let Some(kind) = TraceEvent::from_u8((kind_arg & 0xFF) as u8) else {
                continue;
            };
            out.push(TraceRecord {
                start_nanos: start,
                dur_nanos: if dur == INSTANT { None } else { Some(dur) },
                kind,
                arg: kind_arg >> 8,
                seq,
            });
        }
        out
    }

    fn reset(&self) {
        // Zeroing the sequence words invalidates every retained entry; the
        // head restarts so new events re-stamp them.
        for i in 0..self.capacity() {
            self.words[i as usize * WORDS_PER_EVENT + 3].store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Release);
    }
}

/// Span guard returned by [`TraceRing::span`].
pub struct TraceScope<'a> {
    ring: &'a TraceRing,
    kind: TraceEvent,
    arg: u64,
    start: u64,
}

impl TraceScope<'_> {
    /// End the span now, record it, and return the end timestamp so the
    /// caller can reuse the clock read (e.g. as the next chained span's
    /// start). Consumes the guard without running `Drop`, so the event is
    /// recorded exactly once. Returns 0 under `obs-stub`.
    #[inline]
    pub fn complete(self) -> u64 {
        if cfg!(feature = "obs-stub") {
            std::mem::forget(self);
            return 0;
        }
        let end = now_nanos();
        self.ring.event(
            self.kind,
            self.arg,
            self.start,
            end.saturating_sub(self.start),
        );
        std::mem::forget(self);
        end
    }
}

impl Drop for TraceScope<'_> {
    fn drop(&mut self) {
        if !cfg!(feature = "obs-stub") {
            let dur = now_nanos().saturating_sub(self.start);
            self.ring.event(self.kind, self.arg, self.start, dur);
        }
    }
}

/// All of a process's trace rings, owned by
/// [`StatsRegistry`](crate::StatsRegistry).
#[derive(Default)]
pub struct TraceRegistry {
    rings: Mutex<Vec<Arc<TraceRing>>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for TraceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRegistry")
            .field("rings", &self.rings.lock().len())
            .finish()
    }
}

impl TraceRegistry {
    /// Create and retain a ring for the calling thread. Labels become
    /// chrome://tracing row names (`worker-0`, `session-3`, `wal-flusher`).
    pub fn register(&self, label: impl Into<String>) -> Arc<TraceRing> {
        self.register_with_capacity(label, DEFAULT_RING_EVENTS)
    }

    fn register_with_capacity(&self, label: impl Into<String>, capacity: usize) -> Arc<TraceRing> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(TraceRing::new(id, label.into(), capacity));
        let mut rings = self.rings.lock();
        if rings.len() >= MAX_RINGS {
            // Only the registry holds a dead thread's ring; never evict a
            // live one.
            if let Some(dead) = rings.iter().position(|r| Arc::strong_count(r) == 1) {
                rings.remove(dead);
            }
        }
        if rings.len() < MAX_RINGS {
            rings.push(ring.clone());
        }
        ring
    }

    /// Snapshot every retained ring as `(label, events)`.
    pub fn read_all(&self) -> Vec<(String, Vec<TraceRecord>)> {
        let rings = self.rings.lock();
        rings.iter().map(|r| (r.label.clone(), r.read())).collect()
    }

    /// Render every ring as a chrome://tracing Trace Event JSON document.
    /// Timestamps are microseconds on the shared trace clock; each ring is
    /// one thread row (`tid` = ring id) under `pid` 1.
    pub fn chrome_json(&self) -> String {
        let rings = self.rings.lock();
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"plp-engine\"}}",
        );
        for ring in rings.iter() {
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                ring.id,
                json_string_literal(&ring.label)
            ));
        }
        for ring in rings.iter() {
            for ev in ring.read() {
                let ts = ev.start_nanos as f64 / 1_000.0;
                out.push(',');
                match ev.dur_nanos {
                    Some(dur) => out.push_str(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"plp\",\"ph\":\"X\",\"pid\":1,\
                         \"tid\":{},\"ts\":{ts:.3},\"dur\":{:.3},\
                         \"args\":{{\"arg\":{}}}}}",
                        ev.kind.name(),
                        ring.id,
                        dur as f64 / 1_000.0,
                        ev.arg
                    )),
                    None => out.push_str(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"plp\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":1,\"tid\":{},\"ts\":{ts:.3},\
                         \"args\":{{\"arg\":{}}}}}",
                        ev.kind.name(),
                        ring.id,
                        ev.arg
                    )),
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Clear every retained ring and drop rings whose owning thread is gone
    /// (we hold the only reference).
    pub fn reset(&self) {
        let mut rings = self.rings.lock();
        rings.retain(|r| Arc::strong_count(r) > 1);
        for r in rings.iter() {
            r.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_reads_back() {
        let reg = TraceRegistry::default();
        let ring = reg.register("worker-0");
        ring.instant(TraceEvent::Commit, 7);
        {
            let _s = ring.span(TraceEvent::ExecuteAction, 42);
        }
        let events = ring.read();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceEvent::Commit);
        assert_eq!(events[0].arg, 7);
        assert!(events[0].dur_nanos.is_none());
        assert_eq!(events[1].kind, TraceEvent::ExecuteAction);
        assert_eq!(events[1].arg, 42);
        assert!(events[1].dur_nanos.is_some());
    }

    #[test]
    fn chained_spans_record_once_and_share_timestamps() {
        let reg = TraceRegistry::default();
        let ring = reg.register("worker-0");
        let t0 = now_nanos();
        let first = ring.span_at(TraceEvent::ExecuteAction, 1, t0);
        let t1 = first.complete();
        assert!(t1 >= t0);
        let second = ring.span_at(TraceEvent::ExecuteAction, 2, t1);
        drop(second); // the unwind path: Drop records too
        let events = ring.read();
        assert_eq!(events.len(), 2, "complete() must not double-record");
        assert_eq!(events[0].start_nanos, t0);
        assert_eq!(events[0].start_nanos + events[0].dur_nanos.unwrap(), t1);
        assert_eq!(events[1].start_nanos, t1);
        assert_eq!(events[1].arg, 2);
    }

    #[test]
    fn ring_wraps_keeping_latest() {
        let reg = TraceRegistry::default();
        let ring = reg.register_with_capacity("w", 8);
        for i in 0..20u64 {
            ring.instant(TraceEvent::Commit, i);
        }
        let events = ring.read();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().arg, 12);
        assert_eq!(events.last().unwrap().arg, 19);
    }

    #[test]
    fn chrome_json_has_thread_rows_and_events() {
        let reg = TraceRegistry::default();
        let w0 = reg.register("worker-0");
        let w1 = reg.register("worker-1");
        w0.instant(TraceEvent::Commit, 1);
        {
            let _s = w1.span(TraceEvent::ExecuteAction, 2);
        }
        let json = reg.chrome_json();
        assert!(json.contains("\"worker-0\""));
        assert!(json.contains("\"worker-1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(crate::report::json_is_valid(&json), "invalid JSON: {json}");
    }

    #[test]
    fn registry_at_the_cap_evicts_the_oldest_dead_ring_only() {
        let reg = TraceRegistry::default();
        let live: Vec<_> = (0..MAX_RINGS / 2)
            .map(|i| reg.register(format!("live-{i}")))
            .collect();
        for i in 0..MAX_RINGS - live.len() {
            drop(reg.register(format!("dead-{i}")));
        }
        // A long-lived engine keeps tracing new sessions past the cap: each
        // one replaces the oldest ring nobody writes to any more.
        let newest = reg.register("newest");
        let labels: Vec<String> = reg.read_all().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels.len(), MAX_RINGS);
        assert_eq!(labels.last().map(String::as_str), Some("newest"));
        assert!(!labels.contains(&"dead-0".to_string()));
        assert!(labels.contains(&"dead-1".to_string()));
        // With every retained ring live, nothing is evicted.
        let more_live: Vec<_> = (0..MAX_RINGS)
            .map(|i| reg.register(format!("more-{i}")))
            .collect();
        let labels: Vec<String> = reg.read_all().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels.len(), MAX_RINGS);
        assert!(live
            .iter()
            .chain(std::iter::once(&newest))
            .all(|r| labels.contains(&r.label().to_string())));
        assert!(!labels.contains(&more_live.last().unwrap().label().to_string()));
    }

    #[test]
    fn reset_clears_and_prunes() {
        let reg = TraceRegistry::default();
        let kept = reg.register("kept");
        {
            let _dropped = reg.register("dropped");
        }
        kept.instant(TraceEvent::Commit, 1);
        reg.reset();
        assert!(kept.read().is_empty());
        let labels: Vec<String> = reg.read_all().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["kept".to_string()]);
    }
}
