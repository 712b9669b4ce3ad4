//! Critical-section and page-latch counters.
//!
//! The categories mirror the breakdown used in Figure 1 of the paper ("CSs per
//! transaction" by originating storage-manager service) and the page-kind
//! breakdown used in Figures 2 and 3.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The storage-manager component that owns a critical section.
///
/// These are exactly the categories of Figure 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum CsCategory {
    /// Centralized lock-manager critical sections (lock-head buckets, queues).
    LockMgr = 0,
    /// Page-latch acquisitions (index, heap and catalog pages).
    PageLatch = 1,
    /// Buffer-pool critical sections (frame-table buckets, cleaner handshakes).
    Bpool = 2,
    /// Catalog, free-space and other metadata latching.
    Metadata = 3,
    /// Log-manager critical sections (log-buffer inserts, flush handshakes).
    LogMgr = 4,
    /// Transaction-manager critical sections (txn object state transitions).
    XctMgr = 5,
    /// Message passing between the partition manager and worker threads.
    MessagePassing = 6,
    /// Everything else.
    Uncategorized = 7,
}

impl CsCategory {
    pub const ALL: [CsCategory; 8] = [
        CsCategory::LockMgr,
        CsCategory::PageLatch,
        CsCategory::Bpool,
        CsCategory::Metadata,
        CsCategory::LogMgr,
        CsCategory::XctMgr,
        CsCategory::MessagePassing,
        CsCategory::Uncategorized,
    ];

    /// The contention class the paper assigns to this kind of communication
    /// (Section 2.1).
    pub fn contention_class(self) -> ContentionClass {
        match self {
            CsCategory::LockMgr => ContentionClass::Unscalable,
            CsCategory::PageLatch => ContentionClass::Unscalable,
            CsCategory::Bpool => ContentionClass::Fixed,
            CsCategory::Metadata => ContentionClass::Unscalable,
            CsCategory::LogMgr => ContentionClass::Composable,
            CsCategory::XctMgr => ContentionClass::Fixed,
            CsCategory::MessagePassing => ContentionClass::Fixed,
            CsCategory::Uncategorized => ContentionClass::Unscalable,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CsCategory::LockMgr => "Lock mgr",
            CsCategory::PageLatch => "Page Latches",
            CsCategory::Bpool => "Bpool",
            CsCategory::Metadata => "Metadata",
            CsCategory::LogMgr => "Log mgr",
            CsCategory::XctMgr => "Xct mgr",
            CsCategory::MessagePassing => "Message passing",
            CsCategory::Uncategorized => "Uncategorized",
        }
    }
}

impl fmt::Display for CsCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The contention behaviour of a critical section (Section 2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentionClass {
    /// Contention independent of hardware parallelism (e.g. producer/consumer
    /// pairs, transaction-object state transitions).
    Fixed,
    /// Threads can aggregate their operations while queueing (e.g. Aether-style
    /// consolidated log inserts).
    Composable,
    /// Contention grows with the number of threads; these become bottlenecks.
    Unscalable,
}

impl ContentionClass {
    pub fn name(self) -> &'static str {
        match self {
            ContentionClass::Fixed => "fixed",
            ContentionClass::Composable => "composable",
            ContentionClass::Unscalable => "unscalable",
        }
    }
}

/// The kind of database page a latch protects (Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum PageKind {
    /// B+Tree / MRBTree interior and leaf pages.
    Index = 0,
    /// Heap-file pages holding non-clustered records.
    Heap = 1,
    /// Catalog, routing (partition-table) and free-space-management pages.
    CatalogSpace = 2,
}

impl PageKind {
    pub const ALL: [PageKind; 3] = [PageKind::Index, PageKind::Heap, PageKind::CatalogSpace];

    pub fn name(self) -> &'static str {
        match self {
            PageKind::Index => "INDEX",
            PageKind::Heap => "HEAP",
            PageKind::CatalogSpace => "CATALOG/SPACE",
        }
    }

    /// The critical-section category a latch on this page kind reports under.
    pub fn cs_category(self) -> CsCategory {
        match self {
            PageKind::Index | PageKind::Heap => CsCategory::PageLatch,
            PageKind::CatalogSpace => CsCategory::Metadata,
        }
    }
}

impl fmt::Display for PageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const N_CATEGORIES: usize = 8;
const N_PAGE_KINDS: usize = 3;

/// Critical-section entry counters, one slot per [`CsCategory`].
#[derive(Debug, Default)]
pub struct CsStats {
    entries: [AtomicU64; N_CATEGORIES],
    contended: [AtomicU64; N_CATEGORIES],
}

impl CsStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record entry into a critical section.  `contended` means the thread had
    /// to wait (the try-acquire failed and it fell back to blocking).
    #[inline]
    pub fn enter(&self, cat: CsCategory, contended: bool) {
        self.entries[cat as usize].fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended[cat as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record `n` entries at once (used by composable critical sections where
    /// one thread performs work on behalf of many).
    #[inline]
    pub fn enter_n(&self, cat: CsCategory, n: u64, contended: bool) {
        self.entries[cat as usize].fetch_add(n, Ordering::Relaxed);
        if contended {
            self.contended[cat as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> CsStatsSnapshot {
        let mut entries = [0u64; N_CATEGORIES];
        let mut contended = [0u64; N_CATEGORIES];
        for i in 0..N_CATEGORIES {
            entries[i] = self.entries[i].load(Ordering::Relaxed);
            contended[i] = self.contended[i].load(Ordering::Relaxed);
        }
        CsStatsSnapshot { entries, contended }
    }

    pub fn reset(&self) {
        for i in 0..N_CATEGORIES {
            self.entries[i].store(0, Ordering::Relaxed);
            self.contended[i].store(0, Ordering::Relaxed);
        }
    }
}

/// An immutable copy of [`CsStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsStatsSnapshot {
    entries: [u64; N_CATEGORIES],
    contended: [u64; N_CATEGORIES],
}

impl CsStatsSnapshot {
    pub fn entries(&self, cat: CsCategory) -> u64 {
        self.entries[cat as usize]
    }

    pub fn contended(&self, cat: CsCategory) -> u64 {
        self.contended[cat as usize]
    }

    pub fn total_entries(&self) -> u64 {
        self.entries.iter().sum()
    }

    pub fn total_contended(&self) -> u64 {
        self.contended.iter().sum()
    }

    /// Total entries into critical sections whose contention class is
    /// "unscalable" — the quantity PLP sets out to minimise.
    pub fn unscalable_entries(&self) -> u64 {
        CsCategory::ALL
            .iter()
            .filter(|c| c.contention_class() == ContentionClass::Unscalable)
            .map(|&c| self.entries(c))
            .sum()
    }

    /// Contended entries into unscalable critical sections — the paper's
    /// headline "contentious critical sections" metric.
    pub fn contentious(&self) -> u64 {
        CsCategory::ALL
            .iter()
            .filter(|c| c.contention_class() == ContentionClass::Unscalable)
            .map(|&c| self.contended(c))
            .sum()
    }

    /// Difference between two snapshots (`self - earlier`), saturating at zero.
    pub fn delta(&self, earlier: &CsStatsSnapshot) -> CsStatsSnapshot {
        let mut out = CsStatsSnapshot::default();
        for i in 0..N_CATEGORIES {
            out.entries[i] = self.entries[i].saturating_sub(earlier.entries[i]);
            out.contended[i] = self.contended[i].saturating_sub(earlier.contended[i]);
        }
        out
    }

    /// Scale every counter by `1 / divisor` producing per-transaction floats.
    pub fn per_txn(&self, divisor: u64) -> Vec<(CsCategory, f64, f64)> {
        let d = divisor.max(1) as f64;
        CsCategory::ALL
            .iter()
            .map(|&c| (c, self.entries(c) as f64 / d, self.contended(c) as f64 / d))
            .collect()
    }
}

/// Page-latch acquisition counters broken down by page kind.
#[derive(Debug, Default)]
pub struct LatchStats {
    acquired: [AtomicU64; N_PAGE_KINDS],
    contended: [AtomicU64; N_PAGE_KINDS],
    /// Latch acquisitions that were *skipped* because the access was latch-free
    /// (PLP owner access).  Useful for sanity-checking the designs.
    bypassed: [AtomicU64; N_PAGE_KINDS],
    wait_nanos: [AtomicU64; N_PAGE_KINDS],
}

impl LatchStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn acquired(&self, kind: PageKind, contended: bool) {
        self.acquired[kind as usize].fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn bypassed(&self, kind: PageKind) {
        self.bypassed[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn waited(&self, kind: PageKind, nanos: u64) {
        self.wait_nanos[kind as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> LatchStatsSnapshot {
        let mut acquired = [0u64; N_PAGE_KINDS];
        let mut contended = [0u64; N_PAGE_KINDS];
        let mut bypassed = [0u64; N_PAGE_KINDS];
        let mut wait_nanos = [0u64; N_PAGE_KINDS];
        for i in 0..N_PAGE_KINDS {
            acquired[i] = self.acquired[i].load(Ordering::Relaxed);
            contended[i] = self.contended[i].load(Ordering::Relaxed);
            bypassed[i] = self.bypassed[i].load(Ordering::Relaxed);
            wait_nanos[i] = self.wait_nanos[i].load(Ordering::Relaxed);
        }
        LatchStatsSnapshot {
            acquired,
            contended,
            bypassed,
            wait_nanos,
        }
    }

    pub fn reset(&self) {
        for i in 0..N_PAGE_KINDS {
            self.acquired[i].store(0, Ordering::Relaxed);
            self.contended[i].store(0, Ordering::Relaxed);
            self.bypassed[i].store(0, Ordering::Relaxed);
            self.wait_nanos[i].store(0, Ordering::Relaxed);
        }
    }
}

/// An immutable copy of [`LatchStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatchStatsSnapshot {
    acquired: [u64; N_PAGE_KINDS],
    contended: [u64; N_PAGE_KINDS],
    bypassed: [u64; N_PAGE_KINDS],
    wait_nanos: [u64; N_PAGE_KINDS],
}

impl LatchStatsSnapshot {
    pub fn acquired(&self, kind: PageKind) -> u64 {
        self.acquired[kind as usize]
    }

    pub fn contended(&self, kind: PageKind) -> u64 {
        self.contended[kind as usize]
    }

    pub fn bypassed(&self, kind: PageKind) -> u64 {
        self.bypassed[kind as usize]
    }

    pub fn wait_nanos(&self, kind: PageKind) -> u64 {
        self.wait_nanos[kind as usize]
    }

    pub fn total_acquired(&self) -> u64 {
        self.acquired.iter().sum()
    }

    pub fn total_bypassed(&self) -> u64 {
        self.bypassed.iter().sum()
    }

    pub fn delta(&self, earlier: &LatchStatsSnapshot) -> LatchStatsSnapshot {
        let mut out = LatchStatsSnapshot::default();
        for i in 0..N_PAGE_KINDS {
            out.acquired[i] = self.acquired[i].saturating_sub(earlier.acquired[i]);
            out.contended[i] = self.contended[i].saturating_sub(earlier.contended[i]);
            out.bypassed[i] = self.bypassed[i].saturating_sub(earlier.bypassed[i]);
            out.wait_nanos[i] = self.wait_nanos[i].saturating_sub(earlier.wait_nanos[i]);
        }
        out
    }
}

/// Dynamic-load-balancing counters (the paper's Section 5 controller).
///
/// Updated by the background load balancer in `plp-core::dlb`; exposed here so
/// the benchmark driver's snapshot/delta machinery covers DLB activity the
/// same way it covers critical sections and latches.
#[derive(Debug, Default)]
pub struct DlbStats {
    /// Controller evaluation rounds (histogram snapshot + imbalance check).
    evaluations: AtomicU64,
    /// Histogram aging (decay) rounds applied.
    decay_rounds: AtomicU64,
    /// Repartitions the controller actually triggered.
    repartitions_triggered: AtomicU64,
    /// Evaluations skipped because the load was already balanced.
    skipped_balanced: AtomicU64,
    /// Evaluations skipped because the cost model vetoed the candidate plan
    /// (predicted movement cost exceeded the predicted gain).
    skipped_cost: AtomicU64,
    /// Evaluations skipped because a repartition happened too recently.
    skipped_cooldown: AtomicU64,
    /// Controller-triggered repartitions that failed (and were rolled back).
    repartitions_failed: AtomicU64,
    /// Failed repartitions whose journal rollback restored the old boundaries.
    rollbacks: AtomicU64,
    /// Most recent observed imbalance (max/mean partition load, f64 bits).
    observed_imbalance_bits: AtomicU64,
    /// Imbalance the last accepted plan predicted after repartitioning
    /// (f64 bits).
    predicted_imbalance_bits: AtomicU64,
}

impl DlbStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn evaluation(&self) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn decay_round(&self) {
        self.decay_rounds.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn triggered(&self) {
        self.repartitions_triggered.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn skipped_balanced(&self) {
        self.skipped_balanced.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn skipped_cost(&self) {
        self.skipped_cost.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn skipped_cooldown(&self) {
        self.skipped_cooldown.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn failed(&self) {
        self.repartitions_failed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the imbalance observed in an evaluation round.
    #[inline]
    pub fn set_observed_imbalance(&self, imbalance: f64) {
        self.observed_imbalance_bits
            .store(imbalance.to_bits(), Ordering::Relaxed);
    }

    /// Record the imbalance the accepted plan predicts after repartitioning.
    #[inline]
    pub fn set_predicted_imbalance(&self, imbalance: f64) {
        self.predicted_imbalance_bits
            .store(imbalance.to_bits(), Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> DlbStatsSnapshot {
        DlbStatsSnapshot {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            decay_rounds: self.decay_rounds.load(Ordering::Relaxed),
            repartitions_triggered: self.repartitions_triggered.load(Ordering::Relaxed),
            skipped_balanced: self.skipped_balanced.load(Ordering::Relaxed),
            skipped_cost: self.skipped_cost.load(Ordering::Relaxed),
            skipped_cooldown: self.skipped_cooldown.load(Ordering::Relaxed),
            repartitions_failed: self.repartitions_failed.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            observed_imbalance: f64::from_bits(
                self.observed_imbalance_bits.load(Ordering::Relaxed),
            ),
            predicted_imbalance: f64::from_bits(
                self.predicted_imbalance_bits.load(Ordering::Relaxed),
            ),
        }
    }

    pub fn reset(&self) {
        self.evaluations.store(0, Ordering::Relaxed);
        self.decay_rounds.store(0, Ordering::Relaxed);
        self.repartitions_triggered.store(0, Ordering::Relaxed);
        self.skipped_balanced.store(0, Ordering::Relaxed);
        self.skipped_cost.store(0, Ordering::Relaxed);
        self.skipped_cooldown.store(0, Ordering::Relaxed);
        self.repartitions_failed.store(0, Ordering::Relaxed);
        self.rollbacks.store(0, Ordering::Relaxed);
        self.observed_imbalance_bits.store(0, Ordering::Relaxed);
        self.predicted_imbalance_bits.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of [`DlbStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DlbStatsSnapshot {
    pub evaluations: u64,
    pub decay_rounds: u64,
    pub repartitions_triggered: u64,
    pub skipped_balanced: u64,
    pub skipped_cost: u64,
    pub skipped_cooldown: u64,
    pub repartitions_failed: u64,
    pub rollbacks: u64,
    pub observed_imbalance: f64,
    pub predicted_imbalance: f64,
}

impl DlbStatsSnapshot {
    /// Counter difference (`self - earlier`); the imbalance gauges keep the
    /// later value (they are point-in-time, not cumulative).
    pub fn delta(&self, earlier: &DlbStatsSnapshot) -> DlbStatsSnapshot {
        DlbStatsSnapshot {
            evaluations: self.evaluations.saturating_sub(earlier.evaluations),
            decay_rounds: self.decay_rounds.saturating_sub(earlier.decay_rounds),
            repartitions_triggered: self
                .repartitions_triggered
                .saturating_sub(earlier.repartitions_triggered),
            skipped_balanced: self
                .skipped_balanced
                .saturating_sub(earlier.skipped_balanced),
            skipped_cost: self.skipped_cost.saturating_sub(earlier.skipped_cost),
            skipped_cooldown: self
                .skipped_cooldown
                .saturating_sub(earlier.skipped_cooldown),
            repartitions_failed: self
                .repartitions_failed
                .saturating_sub(earlier.repartitions_failed),
            rollbacks: self.rollbacks.saturating_sub(earlier.rollbacks),
            observed_imbalance: self.observed_imbalance,
            predicted_imbalance: self.predicted_imbalance,
        }
    }
}

/// Durability counters: group-commit flush batches, fsyncs and recovery
/// progress (the file-backed log device of `plp-wal`).
///
/// Updated by the log manager's flusher thread and by `Engine::recover`;
/// exposed here so the benchmark driver's snapshot/delta machinery covers
/// durability activity the same way it covers critical sections and latches.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Non-empty group-commit batches written by the flusher.
    flush_batches: AtomicU64,
    /// Log records written across all flush batches (mean group-commit batch
    /// size = `flushed_records / flush_batches`).
    flushed_records: AtomicU64,
    /// Log bytes written to the device.
    flushed_bytes: AtomicU64,
    /// `fsync` calls issued on log segment files.
    fsyncs: AtomicU64,
    /// Fuzzy checkpoint records written.
    checkpoints: AtomicU64,
    /// Committed writers (transactions with a commit record) replayed by the
    /// last recovery (gauge).
    recovered_txns: AtomicU64,
    /// Redo records replayed by the last recovery (gauge).
    recovered_records: AtomicU64,
    /// Torn-tail bytes discarded by the last recovery (gauge).
    torn_bytes: AtomicU64,
}

impl WalStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one group-commit batch of `records` records / `bytes` bytes.
    #[inline]
    pub fn flushed(&self, records: u64, bytes: u64) {
        self.flush_batches.fetch_add(1, Ordering::Relaxed);
        self.flushed_records.fetch_add(records, Ordering::Relaxed);
        self.flushed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub fn fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the outcome of a recovery pass (gauges, not cumulative).
    pub fn set_recovery(&self, txns: u64, records: u64, torn_bytes: u64) {
        self.recovered_txns.store(txns, Ordering::Relaxed);
        self.recovered_records.store(records, Ordering::Relaxed);
        self.torn_bytes.store(torn_bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            flush_batches: self.flush_batches.load(Ordering::Relaxed),
            flushed_records: self.flushed_records.load(Ordering::Relaxed),
            flushed_bytes: self.flushed_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            recovered_txns: self.recovered_txns.load(Ordering::Relaxed),
            recovered_records: self.recovered_records.load(Ordering::Relaxed),
            torn_bytes: self.torn_bytes.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.flush_batches.store(0, Ordering::Relaxed);
        self.flushed_records.store(0, Ordering::Relaxed);
        self.flushed_bytes.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
        self.checkpoints.store(0, Ordering::Relaxed);
        self.recovered_txns.store(0, Ordering::Relaxed);
        self.recovered_records.store(0, Ordering::Relaxed);
        self.torn_bytes.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of [`WalStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    pub flush_batches: u64,
    pub flushed_records: u64,
    pub flushed_bytes: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
    pub recovered_txns: u64,
    pub recovered_records: u64,
    pub torn_bytes: u64,
}

impl WalStatsSnapshot {
    /// Mean records per non-empty group-commit batch.
    pub fn mean_batch_size(&self) -> f64 {
        self.flushed_records as f64 / self.flush_batches.max(1) as f64
    }

    /// Counter difference (`self - earlier`); the recovery fields keep the
    /// later value (they are point-in-time gauges, not cumulative).
    pub fn delta(&self, earlier: &WalStatsSnapshot) -> WalStatsSnapshot {
        WalStatsSnapshot {
            flush_batches: self.flush_batches.saturating_sub(earlier.flush_batches),
            flushed_records: self.flushed_records.saturating_sub(earlier.flushed_records),
            flushed_bytes: self.flushed_bytes.saturating_sub(earlier.flushed_bytes),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            recovered_txns: self.recovered_txns,
            recovered_records: self.recovered_records,
            torn_bytes: self.torn_bytes,
        }
    }
}

/// Network front-end counters for the `plp-server` connection server:
/// connection lifecycle, frame decode outcomes and wire traffic volume.
/// Recorded by the server's accept/reader/writer threads; the per-request
/// server-side latency distribution lives in the `server_request` histogram
/// (see [`crate::histogram::LatencyStats`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted by the listener.
    connections_accepted: AtomicU64,
    /// Connections closed (client disconnect, protocol breakdown or server
    /// shutdown).  Active connections = accepted - closed.
    connections_closed: AtomicU64,
    /// Request frames decoded successfully.
    frames_decoded: AtomicU64,
    /// Frames rejected by the decoder (bad magic/version/CRC, truncated or
    /// oversized) — the connection survives and receives an error response.
    decode_errors: AtomicU64,
    /// Response frames written back to clients.
    responses_sent: AtomicU64,
    /// Payload bytes read off client sockets (frame bytes, including
    /// headers; excludes bytes of frames abandoned mid-read).
    bytes_in: AtomicU64,
    /// Bytes written back to clients.
    bytes_out: AtomicU64,
}

impl ServerStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one successfully decoded request frame of `bytes` wire bytes.
    #[inline]
    pub fn frame_decoded(&self, bytes: u64) {
        self.frames_decoded.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one rejected frame (the `bytes` consumed resyncing past it).
    #[inline]
    pub fn decode_error(&self, bytes: u64) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one response frame of `bytes` wire bytes written back.
    #[inline]
    pub fn response_sent(&self, bytes: u64) {
        self.responses_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            frames_decoded: self.frames_decoded.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            responses_sent: self.responses_sent.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.connections_accepted.store(0, Ordering::Relaxed);
        self.connections_closed.store(0, Ordering::Relaxed);
        self.frames_decoded.store(0, Ordering::Relaxed);
        self.decode_errors.store(0, Ordering::Relaxed);
        self.responses_sent.store(0, Ordering::Relaxed);
        self.bytes_in.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    pub connections_accepted: u64,
    pub connections_closed: u64,
    pub frames_decoded: u64,
    pub decode_errors: u64,
    pub responses_sent: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl ServerStatsSnapshot {
    /// Connections currently open (accepted minus closed).
    pub fn active_connections(&self) -> u64 {
        self.connections_accepted
            .saturating_sub(self.connections_closed)
    }

    /// Counter difference (`self - earlier`).
    pub fn delta(&self, earlier: &ServerStatsSnapshot) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections_accepted: self
                .connections_accepted
                .saturating_sub(earlier.connections_accepted),
            connections_closed: self
                .connections_closed
                .saturating_sub(earlier.connections_closed),
            frames_decoded: self.frames_decoded.saturating_sub(earlier.frames_decoded),
            decode_errors: self.decode_errors.saturating_sub(earlier.decode_errors),
            responses_sent: self.responses_sent.saturating_sub(earlier.responses_sent),
            bytes_in: self.bytes_in.saturating_sub(earlier.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(earlier.bytes_out),
        }
    }
}

/// Message-passing cost counters for the worker request/reply hot path (the
/// paper's Figure 1 "Message passing" component, now measured in time as
/// well as in counts).
///
/// Every counter here except the inline pair moves only when a session sends
/// a message: one per action group it could not run itself, whatever the
/// group's size.  The round-trip, send and reply-pool counters are recorded
/// by the coordinator in `plp-core`; the queue counters (spins, parks,
/// wakeups) are slow-path counters folded in from the channel shim by
/// `Database::sync_channel_metrics`.
#[derive(Debug, Default)]
pub struct MsgStats {
    /// Message round trips measured (send → replies consumed); one per
    /// message, however many actions it carried.
    actions: AtomicU64,
    /// Total coordinator-observed round-trip time.
    roundtrip_nanos: AtomicU64,
    /// Reply rendezvous taken from the session pool (steady state).
    reply_reuses: AtomicU64,
    /// Reply rendezvous freshly allocated (pool warm-up).
    reply_allocs: AtomicU64,
    /// Producer-side queue retry rounds (failed CAS / full-queue spins).
    enqueue_spins: AtomicU64,
    /// Consumer-side queue retry rounds.
    dequeue_spins: AtomicU64,
    /// Threads that exhausted the spin budget and blocked.
    parks: AtomicU64,
    /// Wakeups actually issued (skipped when no one sleeps).
    wakeups: AtomicU64,
    /// Messages that carried more than one action (a singleton message is
    /// not a batch).
    batches: AtomicU64,
    /// Actions carried inside those multi-action messages.
    batch_actions: AtomicU64,
    /// Full actions-per-message distribution of the multi-action messages.
    /// The legacy 5-bucket view in [`MsgStatsSnapshot::batch_size_buckets`]
    /// is recomputed from this exactly (all five legacy boundaries fall on
    /// histogram bucket edges).
    batch_hist: crate::histogram::Histogram,
    /// Messages that took a session's SPSC fast lane.
    lane_hits: AtomicU64,
    /// Messages that went over the shared MPMC queue instead (lane full, or
    /// the session has no lane to that worker).
    lane_fallbacks: AtomicU64,
    /// Actions a session ran itself after claiming an idle partition — no
    /// message was sent for them, so none of the counters above moved.
    inline_actions: AtomicU64,
    /// Session-observed time running those actions (claim held → last
    /// action done); zero in `obs-stub` builds, which read no clock there.
    inline_nanos: AtomicU64,
}

impl MsgStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one action round trip.
    #[inline]
    pub fn roundtrip(&self, nanos: u64) {
        self.actions.fetch_add(1, Ordering::Relaxed);
        self.roundtrip_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    #[inline]
    pub fn reply_reused(&self) {
        self.reply_reuses.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn reply_allocated(&self) {
        self.reply_allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one message carrying `actions` actions and which path it took.
    /// Only a message of more than one action counts as a batch.
    #[inline]
    pub fn sent(&self, actions: u64, fast_lane: bool) {
        if actions > 1 {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batch_actions.fetch_add(actions, Ordering::Relaxed);
            self.batch_hist.record(actions);
        }
        if fast_lane {
            self.lane_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.lane_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one action group a session ran inline.
    #[inline]
    pub fn inline_ran(&self, actions: u64, nanos: u64) {
        self.inline_actions.fetch_add(actions, Ordering::Relaxed);
        self.inline_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Fold in a delta of the channel layer's slow-path counters.
    pub fn queue_activity(&self, enqueue_spins: u64, dequeue_spins: u64, parks: u64, wakeups: u64) {
        self.enqueue_spins
            .fetch_add(enqueue_spins, Ordering::Relaxed);
        self.dequeue_spins
            .fetch_add(dequeue_spins, Ordering::Relaxed);
        self.parks.fetch_add(parks, Ordering::Relaxed);
        self.wakeups.fetch_add(wakeups, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> MsgStatsSnapshot {
        MsgStatsSnapshot {
            actions: self.actions.load(Ordering::Relaxed),
            roundtrip_nanos: self.roundtrip_nanos.load(Ordering::Relaxed),
            reply_reuses: self.reply_reuses.load(Ordering::Relaxed),
            reply_allocs: self.reply_allocs.load(Ordering::Relaxed),
            enqueue_spins: self.enqueue_spins.load(Ordering::Relaxed),
            dequeue_spins: self.dequeue_spins.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_actions: self.batch_actions.load(Ordering::Relaxed),
            batch_size_buckets: Self::legacy_buckets(&self.batch_hist.snapshot()),
            lane_hits: self.lane_hits.load(Ordering::Relaxed),
            lane_fallbacks: self.lane_fallbacks.load(Ordering::Relaxed),
            inline_actions: self.inline_actions.load(Ordering::Relaxed),
            inline_nanos: self.inline_nanos.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.actions.store(0, Ordering::Relaxed);
        self.roundtrip_nanos.store(0, Ordering::Relaxed);
        self.reply_reuses.store(0, Ordering::Relaxed);
        self.reply_allocs.store(0, Ordering::Relaxed);
        self.enqueue_spins.store(0, Ordering::Relaxed);
        self.dequeue_spins.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.wakeups.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batch_actions.store(0, Ordering::Relaxed);
        self.batch_hist.reset();
        self.lane_hits.store(0, Ordering::Relaxed);
        self.lane_fallbacks.store(0, Ordering::Relaxed);
        self.inline_actions.store(0, Ordering::Relaxed);
        self.inline_nanos.store(0, Ordering::Relaxed);
    }

    /// Full actions-per-batch distribution (quantile-capable superset of the
    /// legacy 5-bucket view).
    pub fn batch_size_histogram(&self) -> crate::histogram::HistogramSnapshot {
        self.batch_hist.snapshot()
    }

    /// Collapse the histogram into the legacy 2 / 3–4 / 5–8 / 9–16 / 17+
    /// buckets. Exact: below 16 every histogram bucket holds one value, and
    /// value 16 has a dedicated bucket (the first of the 16–31 octave), so
    /// each legacy boundary coincides with a histogram bucket edge.
    fn legacy_buckets(h: &crate::histogram::HistogramSnapshot) -> [u64; 5] {
        use crate::histogram::{bucket_index, bucket_range};
        let mut out = [0u64; 5];
        for (i, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, _) = bucket_range(i);
            let legacy = match lo {
                0..=2 => 0,
                3..=4 => 1,
                5..=8 => 2,
                9..=16 => 3,
                _ => 4,
            };
            out[legacy] += n;
        }
        debug_assert_eq!(bucket_range(bucket_index(16)), (16, 16));
        out
    }
}

/// An immutable copy of [`MsgStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgStatsSnapshot {
    pub actions: u64,
    pub roundtrip_nanos: u64,
    pub reply_reuses: u64,
    pub reply_allocs: u64,
    pub enqueue_spins: u64,
    pub dequeue_spins: u64,
    pub parks: u64,
    pub wakeups: u64,
    pub batches: u64,
    pub batch_actions: u64,
    pub batch_size_buckets: [u64; 5],
    pub lane_hits: u64,
    pub lane_fallbacks: u64,
    pub inline_actions: u64,
    pub inline_nanos: u64,
}

impl MsgStatsSnapshot {
    /// Mean coordinator-observed round-trip time per *message* — under
    /// caller-runs execution that is the contended tail only; see
    /// [`Self::mean_action_nanos`] for the cost of an action on either path.
    pub fn mean_roundtrip_nanos(&self) -> f64 {
        self.roundtrip_nanos as f64 / self.actions.max(1) as f64
    }

    /// Actions that travelled in a message: one per singleton message plus
    /// every action of the multi-action ones.
    pub fn messaged_actions(&self) -> u64 {
        self.actions.saturating_sub(self.batches) + self.batch_actions
    }

    /// Mean session-observed time per action over both paths: message round
    /// trips plus inline runs, over the actions either carried.
    pub fn mean_action_nanos(&self) -> f64 {
        (self.roundtrip_nanos + self.inline_nanos) as f64
            / (self.messaged_actions() + self.inline_actions).max(1) as f64
    }

    /// Fraction of actions a session ran itself instead of sending.
    pub fn inline_share(&self) -> f64 {
        let total = self.messaged_actions() + self.inline_actions;
        if total == 0 {
            return 0.0;
        }
        self.inline_actions as f64 / total as f64
    }

    /// Fraction of messages served from the reply pool (steady state → 1).
    pub fn reply_pool_hit_rate(&self) -> f64 {
        let total = self.reply_reuses + self.reply_allocs;
        if total == 0 {
            return 0.0;
        }
        self.reply_reuses as f64 / total as f64
    }

    /// Mean actions carried per multi-action message (0 when there were
    /// none).
    pub fn mean_actions_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_actions as f64 / self.batches as f64
    }

    /// Fraction of messages that took an SPSC fast lane.
    pub fn lane_hit_rate(&self) -> f64 {
        let total = self.lane_hits + self.lane_fallbacks;
        if total == 0 {
            return 0.0;
        }
        self.lane_hits as f64 / total as f64
    }

    /// Counter difference (`self - earlier`); all fields are cumulative.
    pub fn delta(&self, earlier: &MsgStatsSnapshot) -> MsgStatsSnapshot {
        MsgStatsSnapshot {
            actions: self.actions.saturating_sub(earlier.actions),
            roundtrip_nanos: self.roundtrip_nanos.saturating_sub(earlier.roundtrip_nanos),
            reply_reuses: self.reply_reuses.saturating_sub(earlier.reply_reuses),
            reply_allocs: self.reply_allocs.saturating_sub(earlier.reply_allocs),
            enqueue_spins: self.enqueue_spins.saturating_sub(earlier.enqueue_spins),
            dequeue_spins: self.dequeue_spins.saturating_sub(earlier.dequeue_spins),
            parks: self.parks.saturating_sub(earlier.parks),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            batches: self.batches.saturating_sub(earlier.batches),
            batch_actions: self.batch_actions.saturating_sub(earlier.batch_actions),
            batch_size_buckets: [
                self.batch_size_buckets[0].saturating_sub(earlier.batch_size_buckets[0]),
                self.batch_size_buckets[1].saturating_sub(earlier.batch_size_buckets[1]),
                self.batch_size_buckets[2].saturating_sub(earlier.batch_size_buckets[2]),
                self.batch_size_buckets[3].saturating_sub(earlier.batch_size_buckets[3]),
                self.batch_size_buckets[4].saturating_sub(earlier.batch_size_buckets[4]),
            ],
            lane_hits: self.lane_hits.saturating_sub(earlier.lane_hits),
            lane_fallbacks: self.lane_fallbacks.saturating_sub(earlier.lane_fallbacks),
            inline_actions: self.inline_actions.saturating_sub(earlier.inline_actions),
            inline_nanos: self.inline_nanos.saturating_sub(earlier.inline_nanos),
        }
    }
}

/// Shared registry of all instrumentation counters for one engine instance.
///
/// Cloning the `Arc<StatsRegistry>` is how every component gains access; the
/// registry itself is cheap (a few cache lines of atomics).
#[derive(Debug, Default)]
pub struct StatsRegistry {
    cs: CsStats,
    latches: LatchStats,
    dlb: DlbStats,
    wal: WalStats,
    msg: MsgStats,
    server: ServerStats,
    committed_txns: AtomicU64,
    aborted_txns: AtomicU64,
    /// Structure-modification operations performed (page splits, slices, melds).
    smo_count: AtomicU64,
    /// Nanoseconds spent waiting to enter an SMO (the ARIES/KVL one-SMO-at-a-time
    /// serialization the paper calls out; shown as "Latch-smo" in Figure 10).
    smo_wait_nanos: AtomicU64,
    /// Latency histograms (action round-trip, dispatch, WAL, locks, DLB).
    /// Snapshotted separately from [`StatsSnapshot`] (which stays `Copy`):
    /// see [`StatsRegistry::latency`] and
    /// [`LatencyStats::snapshot`](crate::LatencyStats::snapshot).
    latency: crate::histogram::LatencyStats,
    /// Per-thread trace rings (see [`crate::trace`]).
    trace: crate::trace::TraceRegistry,
    /// Top-K slowest transactions with phase breakdowns (see [`crate::slowlog`]).
    slow: crate::slowlog::SlowLog,
    /// DLB controller decision audit ring (see [`crate::slowlog`]).
    decisions: crate::slowlog::DecisionLog,
}

impl StatsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    pub fn cs(&self) -> &CsStats {
        &self.cs
    }

    pub fn latches(&self) -> &LatchStats {
        &self.latches
    }

    pub fn dlb(&self) -> &DlbStats {
        &self.dlb
    }

    pub fn wal(&self) -> &WalStats {
        &self.wal
    }

    pub fn msg(&self) -> &MsgStats {
        &self.msg
    }

    /// The network front end's connection/frame counters.
    pub fn server(&self) -> &ServerStats {
        &self.server
    }

    /// The engine's latency histograms.
    pub fn latency(&self) -> &crate::histogram::LatencyStats {
        &self.latency
    }

    /// The engine's per-thread trace rings.
    pub fn trace(&self) -> &crate::trace::TraceRegistry {
        &self.trace
    }

    /// The slow-transaction reservoir.
    pub fn slow(&self) -> &crate::slowlog::SlowLog {
        &self.slow
    }

    /// The DLB controller's decision audit ring.
    pub fn dlb_decisions(&self) -> &crate::slowlog::DecisionLog {
        &self.decisions
    }

    #[inline]
    pub fn txn_committed(&self) {
        self.committed_txns.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn txn_aborted(&self) {
        self.aborted_txns.fetch_add(1, Ordering::Relaxed);
    }

    pub fn committed(&self) -> u64 {
        self.committed_txns.load(Ordering::Relaxed)
    }

    pub fn aborted(&self) -> u64 {
        self.aborted_txns.load(Ordering::Relaxed)
    }

    /// Record one structure-modification operation and the time spent waiting
    /// to be allowed to start it.
    #[inline]
    pub fn smo_performed(&self, wait_nanos: u64) {
        self.smo_count.fetch_add(1, Ordering::Relaxed);
        if wait_nanos > 0 {
            self.smo_wait_nanos.fetch_add(wait_nanos, Ordering::Relaxed);
        }
    }

    pub fn smo_count(&self) -> u64 {
        self.smo_count.load(Ordering::Relaxed)
    }

    pub fn smo_wait_nanos(&self) -> u64 {
        self.smo_wait_nanos.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            cs: self.cs.snapshot(),
            latches: self.latches.snapshot(),
            dlb: self.dlb.snapshot(),
            wal: self.wal.snapshot(),
            msg: self.msg.snapshot(),
            server: self.server.snapshot(),
            committed: self.committed(),
            aborted: self.aborted(),
            smo_count: self.smo_count(),
            smo_wait_nanos: self.smo_wait_nanos(),
        }
    }

    pub fn reset(&self) {
        self.cs.reset();
        self.latches.reset();
        self.dlb.reset();
        self.wal.reset();
        self.msg.reset();
        self.server.reset();
        self.committed_txns.store(0, Ordering::Relaxed);
        self.aborted_txns.store(0, Ordering::Relaxed);
        self.smo_count.store(0, Ordering::Relaxed);
        self.smo_wait_nanos.store(0, Ordering::Relaxed);
        self.latency.reset();
        self.trace.reset();
        self.slow.reset();
        self.decisions.reset();
    }
}

/// A consistent-enough snapshot of every counter in a [`StatsRegistry`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    pub cs: CsStatsSnapshot,
    pub latches: LatchStatsSnapshot,
    pub dlb: DlbStatsSnapshot,
    pub wal: WalStatsSnapshot,
    pub msg: MsgStatsSnapshot,
    pub server: ServerStatsSnapshot,
    pub committed: u64,
    pub aborted: u64,
    pub smo_count: u64,
    pub smo_wait_nanos: u64,
}

impl StatsSnapshot {
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            cs: self.cs.delta(&earlier.cs),
            latches: self.latches.delta(&earlier.latches),
            dlb: self.dlb.delta(&earlier.dlb),
            wal: self.wal.delta(&earlier.wal),
            msg: self.msg.delta(&earlier.msg),
            server: self.server.delta(&earlier.server),
            committed: self.committed.saturating_sub(earlier.committed),
            aborted: self.aborted.saturating_sub(earlier.aborted),
            smo_count: self.smo_count.saturating_sub(earlier.smo_count),
            smo_wait_nanos: self.smo_wait_nanos.saturating_sub(earlier.smo_wait_nanos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_classes_match_paper() {
        assert_eq!(
            CsCategory::LockMgr.contention_class(),
            ContentionClass::Unscalable
        );
        assert_eq!(
            CsCategory::PageLatch.contention_class(),
            ContentionClass::Unscalable
        );
        assert_eq!(
            CsCategory::LogMgr.contention_class(),
            ContentionClass::Composable
        );
        assert_eq!(
            CsCategory::XctMgr.contention_class(),
            ContentionClass::Fixed
        );
        assert_eq!(
            CsCategory::MessagePassing.contention_class(),
            ContentionClass::Fixed
        );
    }

    #[test]
    fn cs_stats_count_and_delta() {
        let s = CsStats::new();
        s.enter(CsCategory::LockMgr, false);
        s.enter(CsCategory::LockMgr, true);
        s.enter_n(CsCategory::LogMgr, 5, false);
        let a = s.snapshot();
        assert_eq!(a.entries(CsCategory::LockMgr), 2);
        assert_eq!(a.contended(CsCategory::LockMgr), 1);
        assert_eq!(a.entries(CsCategory::LogMgr), 5);
        s.enter(CsCategory::LockMgr, false);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.entries(CsCategory::LockMgr), 1);
        assert_eq!(d.entries(CsCategory::LogMgr), 0);
    }

    #[test]
    fn contentious_counts_only_unscalable() {
        let s = CsStats::new();
        s.enter(CsCategory::LockMgr, true);
        s.enter(CsCategory::XctMgr, true); // fixed: excluded
        s.enter(CsCategory::LogMgr, true); // composable: excluded
        s.enter(CsCategory::PageLatch, true);
        let snap = s.snapshot();
        assert_eq!(snap.contentious(), 2);
        assert_eq!(snap.total_contended(), 4);
    }

    #[test]
    fn latch_stats_by_kind() {
        let l = LatchStats::new();
        l.acquired(PageKind::Index, false);
        l.acquired(PageKind::Index, true);
        l.acquired(PageKind::Heap, false);
        l.bypassed(PageKind::Index);
        l.waited(PageKind::Heap, 1000);
        let s = l.snapshot();
        assert_eq!(s.acquired(PageKind::Index), 2);
        assert_eq!(s.contended(PageKind::Index), 1);
        assert_eq!(s.acquired(PageKind::Heap), 1);
        assert_eq!(s.bypassed(PageKind::Index), 1);
        assert_eq!(s.wait_nanos(PageKind::Heap), 1000);
        assert_eq!(s.total_acquired(), 3);
    }

    #[test]
    fn per_txn_normalisation() {
        let s = CsStats::new();
        s.enter_n(CsCategory::PageLatch, 100, false);
        let snap = s.snapshot();
        let rows = snap.per_txn(10);
        let latch_row = rows
            .iter()
            .find(|(c, _, _)| *c == CsCategory::PageLatch)
            .unwrap();
        assert!((latch_row.1 - 10.0).abs() < f64::EPSILON);
    }

    #[test]
    fn registry_txn_counters() {
        let r = StatsRegistry::new();
        r.txn_committed();
        r.txn_committed();
        r.txn_aborted();
        assert_eq!(r.committed(), 2);
        assert_eq!(r.aborted(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.committed, 2);
        r.reset();
        assert_eq!(r.committed(), 0);
    }

    #[test]
    fn dlb_stats_counters_and_gauges() {
        let d = DlbStats::new();
        d.evaluation();
        d.evaluation();
        d.decay_round();
        d.triggered();
        d.skipped_balanced();
        d.skipped_cost();
        d.skipped_cooldown();
        d.failed();
        d.rollback();
        d.set_observed_imbalance(2.5);
        d.set_predicted_imbalance(1.1);
        let a = d.snapshot();
        assert_eq!(a.evaluations, 2);
        assert_eq!(a.repartitions_triggered, 1);
        assert_eq!(a.rollbacks, 1);
        assert!((a.observed_imbalance - 2.5).abs() < f64::EPSILON);
        assert!((a.predicted_imbalance - 1.1).abs() < f64::EPSILON);
        d.evaluation();
        let b = d.snapshot();
        let delta = b.delta(&a);
        assert_eq!(delta.evaluations, 1);
        assert_eq!(delta.repartitions_triggered, 0);
        // Gauges keep the later point-in-time value.
        assert!((delta.observed_imbalance - 2.5).abs() < f64::EPSILON);
        d.reset();
        assert_eq!(d.snapshot().evaluations, 0);
        assert_eq!(d.snapshot().observed_imbalance, 0.0);
    }

    #[test]
    fn wal_stats_counters_gauges_and_batch_size() {
        let w = WalStats::new();
        w.flushed(10, 1000);
        w.flushed(20, 2000);
        w.fsync();
        w.checkpoint();
        w.set_recovery(5, 50, 7);
        let a = w.snapshot();
        assert_eq!(a.flush_batches, 2);
        assert_eq!(a.flushed_records, 30);
        assert_eq!(a.flushed_bytes, 3000);
        assert_eq!(a.fsyncs, 1);
        assert_eq!(a.checkpoints, 1);
        assert!((a.mean_batch_size() - 15.0).abs() < f64::EPSILON);
        w.flushed(2, 64);
        let b = w.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.flush_batches, 1);
        assert_eq!(d.flushed_records, 2);
        // Recovery fields are point-in-time gauges: delta keeps the later value.
        assert_eq!(d.recovered_txns, 5);
        assert_eq!(d.torn_bytes, 7);
        w.reset();
        assert_eq!(w.snapshot().flush_batches, 0);
        assert_eq!(w.snapshot().recovered_records, 0);
        // Empty stats report a 0 batch size, not NaN.
        assert_eq!(WalStats::new().snapshot().mean_batch_size(), 0.0);
    }

    #[test]
    fn msg_stats_roundtrips_pool_and_queue_activity() {
        let m = MsgStats::new();
        m.roundtrip(1_000);
        m.roundtrip(3_000);
        m.reply_reused();
        m.reply_reused();
        m.reply_reused();
        m.reply_allocated();
        m.queue_activity(5, 7, 2, 1);
        let a = m.snapshot();
        assert_eq!(a.actions, 2);
        assert!((a.mean_roundtrip_nanos() - 2_000.0).abs() < f64::EPSILON);
        assert!((a.reply_pool_hit_rate() - 0.75).abs() < f64::EPSILON);
        assert_eq!(a.enqueue_spins, 5);
        assert_eq!(a.dequeue_spins, 7);
        assert_eq!(a.parks, 2);
        assert_eq!(a.wakeups, 1);
        m.roundtrip(500);
        let b = m.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.actions, 1);
        assert_eq!(d.roundtrip_nanos, 500);
        assert_eq!(d.enqueue_spins, 0);
        m.reset();
        assert_eq!(m.snapshot().actions, 0);
        // Empty stats report 0, not NaN.
        assert_eq!(MsgStats::new().snapshot().mean_roundtrip_nanos(), 0.0);
        assert_eq!(MsgStats::new().snapshot().reply_pool_hit_rate(), 0.0);
        assert_eq!(MsgStats::new().snapshot().mean_action_nanos(), 0.0);
        assert_eq!(MsgStats::new().snapshot().inline_share(), 0.0);
    }

    #[test]
    fn msg_stats_cost_per_action_spans_both_paths() {
        let m = MsgStats::new();
        // One singleton message, one 3-action message, 4 inline actions.
        m.sent(1, false);
        m.roundtrip(10_000);
        m.sent(3, true);
        m.roundtrip(20_000);
        m.inline_ran(1, 500);
        m.inline_ran(3, 1_500);
        let s = m.snapshot();
        assert_eq!(s.actions, 2, "plp_msg_actions_total counts messages only");
        assert_eq!(
            (s.batches, s.batch_actions),
            (1, 3),
            "only the multi-action message is a batch"
        );
        assert_eq!((s.lane_hits, s.lane_fallbacks), (1, 1));
        assert_eq!(s.messaged_actions(), 4);
        assert_eq!(s.inline_actions, 4);
        assert!((s.inline_share() - 0.5).abs() < f64::EPSILON);
        assert!((s.mean_roundtrip_nanos() - 15_000.0).abs() < f64::EPSILON);
        assert!((s.mean_action_nanos() - 32_000.0 / 8.0).abs() < f64::EPSILON);
        let d = m.snapshot().delta(&s);
        assert_eq!((d.inline_actions, d.inline_nanos), (0, 0));
        m.reset();
        assert_eq!(m.snapshot().inline_actions, 0);
    }

    #[test]
    fn registry_snapshot_includes_msg() {
        let r = StatsRegistry::new();
        r.msg().roundtrip(10);
        assert_eq!(r.snapshot().msg.actions, 1);
        r.reset();
        assert_eq!(r.snapshot().msg.actions, 0);
    }

    #[test]
    fn registry_snapshot_includes_wal() {
        let r = StatsRegistry::new();
        r.wal().flushed(3, 30);
        assert_eq!(r.snapshot().wal.flush_batches, 1);
        r.reset();
        assert_eq!(r.snapshot().wal.flush_batches, 0);
    }

    #[test]
    fn registry_snapshot_includes_dlb() {
        let r = StatsRegistry::new();
        r.dlb().triggered();
        assert_eq!(r.snapshot().dlb.repartitions_triggered, 1);
        r.reset();
        assert_eq!(r.snapshot().dlb.repartitions_triggered, 0);
    }

    #[test]
    fn page_kind_maps_to_cs_category() {
        assert_eq!(PageKind::Index.cs_category(), CsCategory::PageLatch);
        assert_eq!(PageKind::Heap.cs_category(), CsCategory::PageLatch);
        assert_eq!(PageKind::CatalogSpace.cs_category(), CsCategory::Metadata);
    }
}
