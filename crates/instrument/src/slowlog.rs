//! Bounded capture rings: the slow-transaction reservoir and the DLB
//! decision audit log.
//!
//! Both answer "why" questions that counters cannot: *why was this
//! transaction slow* (its [`PhaseBreakdown`] decomposes the round trip into
//! queue / lock / execute / reply / WAL-flush time) and *why did — or didn't
//! — the load balancer repartition* (every controller evaluation leaves a
//! [`DlbDecision`] with the priced gain vs movement cost behind the verdict).
//!
//! The slow log is an admission-filtered reservoir: the hot path pays one
//! relaxed atomic load to reject the fast majority; only a candidate slower
//! than the current top-K floor takes the reservoir mutex. The decision log
//! is a plain mutex-guarded ring — the controller evaluates a few times per
//! second at most, so there is no hot path to protect.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Per-transaction (or per-action) decomposition of round-trip time, in
/// nanoseconds. Carried on worker replies and aggregated by the session into
/// the `phase_*` latency histograms; a transaction's summed breakdown rides
/// into the slow log.
///
/// For one action, `queue + lock + exec + reply` equals the coordinator's
/// observed round trip by construction (the reply phase is derived as the
/// remainder), so the per-phase histogram sums reconcile exactly with
/// `action_roundtrip`. `wal` is the commit-time group-commit wait and lies
/// outside the action round trip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Dispatch enqueue until the worker dequeued the request.
    pub queue_nanos: u64,
    /// Blocked lock acquisition inside the action body.
    pub lock_nanos: u64,
    /// Action body on the worker, minus lock waits.
    pub exec_nanos: u64,
    /// Worker finish until the session consumed the reply.
    pub reply_nanos: u64,
    /// Commit-time wait for the WAL group-commit flush.
    pub wal_nanos: u64,
}

impl PhaseBreakdown {
    /// Fold another breakdown into this one (phase-wise sum, saturating).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.queue_nanos = self.queue_nanos.saturating_add(other.queue_nanos);
        self.lock_nanos = self.lock_nanos.saturating_add(other.lock_nanos);
        self.exec_nanos = self.exec_nanos.saturating_add(other.exec_nanos);
        self.reply_nanos = self.reply_nanos.saturating_add(other.reply_nanos);
        self.wal_nanos = self.wal_nanos.saturating_add(other.wal_nanos);
    }

    /// Sum of every phase.
    pub fn total(&self) -> u64 {
        self.queue_nanos
            .saturating_add(self.lock_nanos)
            .saturating_add(self.exec_nanos)
            .saturating_add(self.reply_nanos)
            .saturating_add(self.wal_nanos)
    }

    /// Record the four round-trip phases into the per-phase histograms.
    /// The engine calls this once per *transaction* on the merged breakdown,
    /// so phase sums reconcile exactly against `action_roundtrip` (`wal` is
    /// recorded at its own site).  A phase the transaction spent no time in
    /// is not recorded: a transaction whose groups all ran inline has no
    /// queue or reply wait, and three shared-cache-line stores saying so
    /// were the largest single recording cost on that path (`fig_obs`).
    /// A phase's count is therefore the transactions that *had* the phase.
    pub fn record_roundtrip_phases(&self, latency: &crate::LatencyStats) {
        for (histogram, nanos) in [
            (&latency.phase_queue_wait, self.queue_nanos),
            (&latency.phase_lock_wait, self.lock_nanos),
            (&latency.phase_execute, self.exec_nanos),
            (&latency.phase_reply_wait, self.reply_nanos),
        ] {
            if nanos != 0 {
                histogram.record(nanos);
            }
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"queue\":{},\"lock\":{},\"exec\":{},\"reply\":{},\"wal\":{}}}",
            self.queue_nanos, self.lock_nanos, self.exec_nanos, self.reply_nanos, self.wal_nanos
        )
    }
}

/// One captured slow transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowTxn {
    /// Transaction id (matches the `txn` span arg in the trace rings, so a
    /// slow-log entry can be correlated with its spans in `/trace.json`).
    pub txn_id: u64,
    /// Transaction start, on the same clock as the trace rings
    /// ([`crate::trace::now_nanos`]).
    pub started_at_nanos: u64,
    /// Whole-transaction wall time (begin to commit/abort returned).
    pub total_nanos: u64,
    /// Actions the transaction dispatched.
    pub actions: u32,
    /// Summed per-action phase times plus the commit-time WAL wait.
    pub phases: PhaseBreakdown,
}

impl SlowTxn {
    fn json(&self) -> String {
        format!(
            "{{\"txn_id\":{},\"started_at_nanos\":{},\"total_nanos\":{},\"actions\":{},\"phases\":{}}}",
            self.txn_id,
            self.started_at_nanos,
            self.total_nanos,
            self.actions,
            self.phases.json()
        )
    }
}

/// Top-K reservoir of the slowest transactions seen since the last reset.
///
/// `offer` is safe to call from every session on every transaction: a single
/// relaxed load of the admission floor rejects anything faster than the
/// current K-th slowest entry, so the mutex is only taken while the
/// reservoir is still filling or by genuine outliers.
#[derive(Debug)]
pub struct SlowLog {
    /// Fast-reject floor: once the reservoir is full, the smallest
    /// `total_nanos` it still holds. Candidates at or below never lock.
    floor_nanos: AtomicU64,
    inner: Mutex<Vec<SlowTxn>>,
    capacity: usize,
}

impl Default for SlowLog {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl SlowLog {
    pub const DEFAULT_CAPACITY: usize = 32;

    pub fn new(capacity: usize) -> Self {
        Self {
            floor_nanos: AtomicU64::new(0),
            inner: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
        }
    }

    /// Offer a finished transaction. Kept only if it ranks among the top-K
    /// slowest. Compiled to the atomic-load reject under `obs-stub`.
    pub fn offer(&self, entry: SlowTxn) {
        if !crate::obs_enabled() {
            return;
        }
        if entry.total_nanos <= self.floor_nanos.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.len() >= self.capacity {
            // Evict the current minimum; the floor only ever rises.
            let (min_idx, _) = match inner.iter().enumerate().min_by_key(|(_, e)| e.total_nanos) {
                Some(m) => m,
                None => return,
            };
            if inner[min_idx].total_nanos >= entry.total_nanos {
                return;
            }
            inner.swap_remove(min_idx);
        }
        inner.push(entry);
        if inner.len() >= self.capacity {
            let new_floor = inner.iter().map(|e| e.total_nanos).min().unwrap_or(0);
            self.floor_nanos.store(new_floor, Ordering::Relaxed);
        }
    }

    /// Entries currently held, slowest first.
    pub fn snapshot(&self) -> Vec<SlowTxn> {
        let mut v = self.inner.lock().clone();
        v.sort_by_key(|e| std::cmp::Reverse(e.total_nanos));
        v
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON array of the held entries, slowest first.
    pub fn json(&self) -> String {
        let entries: Vec<String> = self.snapshot().iter().map(|e| e.json()).collect();
        format!("[{}]", entries.join(","))
    }

    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.clear();
        self.floor_nanos.store(0, Ordering::Relaxed);
    }
}

/// The verdict of one DLB controller evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DlbOutcome {
    /// A repartition was triggered and the boundary move succeeded.
    Triggered,
    /// A repartition was triggered but the move failed (and rolled back).
    Failed,
    /// Observed imbalance was below the trigger threshold.
    SkippedBalanced,
    /// The planner found no boundary move that improves the imbalance.
    SkippedNoPlan,
    /// The cost model vetoed the plan (gain too small or negative net
    /// benefit over the pricing horizon).
    SkippedCost,
    /// A repartition happened too recently (cooldown gap not yet elapsed).
    SkippedCooldown,
}

impl DlbOutcome {
    pub fn name(self) -> &'static str {
        match self {
            DlbOutcome::Triggered => "triggered",
            DlbOutcome::Failed => "failed",
            DlbOutcome::SkippedBalanced => "skipped_balanced",
            DlbOutcome::SkippedNoPlan => "skipped_no_plan",
            DlbOutcome::SkippedCost => "skipped_cost",
            DlbOutcome::SkippedCooldown => "skipped_cooldown",
        }
    }
}

/// One DLB controller evaluation, recorded whatever the verdict was — the
/// audit log answers "why did (or didn't) it repartition" after the fact.
#[derive(Clone, Debug)]
pub struct DlbDecision {
    /// When the evaluation ran ([`crate::trace::now_nanos`] clock).
    pub at_nanos: u64,
    /// Root table id the evaluation covered.
    pub table: u32,
    /// Observed imbalance (max/mean partition load).
    pub observed: f64,
    /// Imbalance the candidate plan predicted after the move (the observed
    /// value again when no plan was considered).
    pub predicted: f64,
    /// Predicted imbalance improvement (`observed - predicted`).
    pub gain: f64,
    /// Priced benefit minus movement cost over the pricing horizon
    /// (0 when no plan was considered).
    pub net_benefit: f64,
    /// The verdict.
    pub outcome: DlbOutcome,
    /// Chosen partition boundaries when a move was attempted, else empty.
    pub bounds: Vec<u64>,
}

impl DlbDecision {
    fn json(&self) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(|b| b.to_string()).collect();
        format!(
            "{{\"at_nanos\":{},\"table\":{},\"observed\":{:.6},\"predicted\":{:.6},\
             \"gain\":{:.6},\"net_benefit\":{:.6},\"outcome\":{},\"bounds\":[{}]}}",
            self.at_nanos,
            self.table,
            self.observed,
            self.predicted,
            self.gain,
            self.net_benefit,
            crate::json_string_literal(self.outcome.name()),
            bounds.join(",")
        )
    }
}

/// Bounded ring of the most recent [`DlbDecision`]s. Written by the
/// controller thread (cold path), read by `/decisions.json` and the flight
/// recorder's autopsy dump.
#[derive(Debug)]
pub struct DecisionLog {
    inner: Mutex<VecDeque<DlbDecision>>,
    capacity: usize,
}

impl Default for DecisionLog {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl DecisionLog {
    pub const DEFAULT_CAPACITY: usize = 128;

    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Append a decision, evicting the oldest when full.
    pub fn push(&self, decision: DlbDecision) {
        let mut inner = self.inner.lock();
        if inner.len() >= self.capacity {
            inner.pop_front();
        }
        inner.push_back(decision);
    }

    /// Decisions currently held, oldest first.
    pub fn snapshot(&self) -> Vec<DlbDecision> {
        self.inner.lock().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON array of the held decisions, oldest first.
    pub fn json(&self) -> String {
        let entries: Vec<String> = self.snapshot().iter().map(|d| d.json()).collect();
        format!("[{}]", entries.join(","))
    }

    pub fn reset(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(id: u64, total: u64) -> SlowTxn {
        SlowTxn {
            txn_id: id,
            started_at_nanos: id * 10,
            total_nanos: total,
            actions: 2,
            phases: PhaseBreakdown {
                queue_nanos: total / 4,
                lock_nanos: 0,
                exec_nanos: total / 2,
                reply_nanos: total / 4,
                wal_nanos: 0,
            },
        }
    }

    #[test]
    fn phase_breakdown_merges_and_totals() {
        let mut a = PhaseBreakdown {
            queue_nanos: 1,
            lock_nanos: 2,
            exec_nanos: 3,
            reply_nanos: 4,
            wal_nanos: 5,
        };
        let twin = a;
        a.merge(&twin);
        assert_eq!(a.total(), 30);
        assert_eq!(a.queue_nanos, 2);
        assert_eq!(a.wal_nanos, 10);
    }

    #[test]
    fn phase_breakdown_records_into_histograms() {
        let l = crate::LatencyStats::default();
        let b = PhaseBreakdown {
            queue_nanos: 10,
            lock_nanos: 0,
            exec_nanos: 100,
            reply_nanos: 5,
            wal_nanos: 999,
        };
        b.record_roundtrip_phases(&l);
        let s = l.snapshot();
        // The round-trip phases the transaction spent time in record; a
        // zero phase and wal do not.
        assert_eq!(s.phase_queue_wait.count, 1);
        assert_eq!(s.phase_lock_wait.count, 0);
        assert_eq!(s.phase_execute.count, 1);
        assert_eq!(s.phase_reply_wait.count, 1);
        assert_eq!(s.phase_wal_flush.count, 0);
        assert_eq!(
            s.phase_queue_wait.sum
                + s.phase_lock_wait.sum
                + s.phase_execute.sum
                + s.phase_reply_wait.sum,
            115
        );
    }

    #[test]
    fn slowlog_keeps_top_k_slowest() {
        let log = SlowLog::new(3);
        for id in 0..10u64 {
            log.offer(txn(id, (id + 1) * 100));
        }
        let kept = log.snapshot();
        assert_eq!(kept.len(), 3);
        let totals: Vec<u64> = kept.iter().map(|e| e.total_nanos).collect();
        assert_eq!(totals, vec![1000, 900, 800]);
        // A fast transaction is rejected by the admission floor without
        // changing the reservoir.
        log.offer(txn(99, 1));
        assert_eq!(log.snapshot().len(), 3);
        assert_eq!(log.snapshot()[2].total_nanos, 800);
        // A new outlier evicts the current minimum.
        log.offer(txn(100, 5_000));
        let kept = log.snapshot();
        assert_eq!(kept[0].total_nanos, 5_000);
        assert!(kept.iter().all(|e| e.total_nanos >= 900));
    }

    #[test]
    fn slowlog_json_is_valid_and_sorted() {
        let log = SlowLog::new(4);
        log.offer(txn(1, 300));
        log.offer(txn(2, 700));
        let json = log.json();
        assert!(crate::json_is_valid(&json), "bad json: {json}");
        assert!(json.find("700").unwrap() < json.find("300").unwrap());
        log.reset();
        assert_eq!(log.json(), "[]");
        assert!(log.is_empty());
    }

    #[test]
    fn slowlog_concurrent_offers_keep_global_top_k() {
        use std::sync::Arc;
        let log = Arc::new(SlowLog::new(8));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        log.offer(txn(t * 1000 + i, t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let kept = log.snapshot();
        assert_eq!(kept.len(), 8);
        // The global top-8 totals are 3992..=3999 regardless of interleaving.
        let totals: Vec<u64> = kept.iter().map(|e| e.total_nanos).collect();
        assert_eq!(totals, (3992..=3999).rev().collect::<Vec<u64>>());
    }

    #[test]
    fn decision_log_is_bounded_and_ordered() {
        let log = DecisionLog::new(2);
        for i in 0..5u32 {
            log.push(DlbDecision {
                at_nanos: i as u64,
                table: i,
                observed: 2.0,
                predicted: 1.0,
                gain: 1.0,
                net_benefit: 0.5,
                outcome: DlbOutcome::Triggered,
                bounds: vec![0, 100],
            });
        }
        let kept = log.snapshot();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].table, 3);
        assert_eq!(kept[1].table, 4);
        let json = log.json();
        assert!(crate::json_is_valid(&json), "bad json: {json}");
        assert!(json.contains("\"outcome\":\"triggered\""));
        assert!(json.contains("\"bounds\":[0,100]"));
        log.reset();
        assert!(log.is_empty());
    }

    #[test]
    fn decision_outcomes_have_stable_names() {
        assert_eq!(DlbOutcome::SkippedCooldown.name(), "skipped_cooldown");
        assert_eq!(DlbOutcome::SkippedNoPlan.name(), "skipped_no_plan");
        assert_eq!(DlbOutcome::Failed.name(), "failed");
    }
}
