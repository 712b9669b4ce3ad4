//! The log manager: per-transaction log handles, commit processing, the
//! group-commit flusher and (when a log directory is configured) the
//! file-backed durability pipeline.
//!
//! # Commit
//!
//! A transaction that logged nothing — nothing staged under
//! [`InsertProtocol::Consolidated`], no record appended under
//! [`InsertProtocol::Baseline`] — appends nothing at commit or abort.  Under
//! [`DurabilityMode::Lazy`] its commit returns at once; under `Synchronous`
//! and `Strict` it reads the buffer's tail and waits until the written
//! (resp. synced) mark covers that tail, which is free on an idle log.  A
//! writer appends its commit record and waits until the mark covers the
//! record's *end*.  Either way every record appended before the commit
//! returned is written (resp. synced) by then — see `docs/durability.md`.
//! A failed device is sticky: every commit that waits gets [`LogFailed`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use plp_instrument::trace::now_nanos;
use plp_instrument::{CsCategory, StatsRegistry, TraceEvent};

use crate::buffer::{Drained, InsertProtocol, LogBuffer};
use crate::device::LogDevice;
use crate::record::{CheckpointData, LogRecord, LogRecordKind, Lsn};

/// What a commit waits for before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Commit returns as soon as the commit record is in the log buffer
    /// ("lazy" / asynchronous commit).  This is the default for contention
    /// experiments: the paper's evaluation is memory resident and focuses on
    /// critical-section behaviour, not commit latency.
    Lazy,
    /// Commit blocks until the flusher has drained past the commit record
    /// — for a read-only transaction, past the tail it observed — and, when
    /// a log device is attached, written it to the OS.  No fsync wait — a
    /// crash of the whole machine may lose the tail.
    Synchronous,
    /// Commit blocks until the commit record — for a read-only transaction,
    /// the tail it observed — has been written **and fsynced** to the
    /// file-backed log device.  Requires a log directory; this is the mode
    /// the crash-recovery guarantees are stated for.
    Strict,
}

/// Per-transaction logging state.
///
/// With the consolidated protocol, records accumulate here and hit the shared
/// buffer exactly once, at commit/abort time.
#[derive(Debug)]
pub struct TxnLogHandle {
    txn_id: u64,
    staged: Vec<LogRecord>,
    last_lsn: Lsn,
    records_logged: u64,
}

impl TxnLogHandle {
    fn new(txn_id: u64) -> Self {
        Self {
            txn_id,
            staged: Vec::new(),
            last_lsn: Lsn::ZERO,
            records_logged: 0,
        }
    }

    pub fn records_logged(&self) -> u64 {
        self.records_logged
    }

    /// Nothing staged and nothing appended: commit and abort append no
    /// record for this transaction.
    fn logged_nothing(&self) -> bool {
        self.records_logged == 0
    }

    /// Stage a *synthetic* log record (declared payload length, no captured
    /// bytes) describing a change to `page`.  Kept for benchmarks and tests
    /// that only exercise log volume; real redo records go through
    /// [`Self::push_record`].
    pub fn log(&mut self, kind: LogRecordKind, page: u64, payload_len: u32) {
        self.staged
            .push(LogRecord::new(self.txn_id, kind, page, payload_len));
        self.records_logged += 1;
    }

    /// Stage a fully-formed redo record.  Its transaction id is forced to
    /// this handle's.
    pub fn push_record(&mut self, mut record: LogRecord) {
        record.txn_id = self.txn_id;
        self.staged.push(record);
        self.records_logged += 1;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DurableState {
    /// The log is drained from the buffer (and written to the device when
    /// one is attached) below this LSN — a tail, i.e. a record boundary.
    written: Lsn,
    /// The log is fsynced to stable storage below this LSN.
    synced: Lsn,
}

/// The log device failed a write or an fsync (the first error's kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFailed(pub io::ErrorKind);

impl std::fmt::Display for LogFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "log device failed: {}", self.0)
    }
}

impl std::error::Error for LogFailed {}

/// [`FlusherState::state`] bits.  Without `RUNNING` (no flusher, or one
/// stopping) a waiter flushes its own batch.  `FAILED` is never cleared.
const RUNNING: u8 = 1;
const FAILED: u8 = 2;

struct FlusherState {
    durable: Mutex<DurableState>,
    flushed: Condvar,
    wakeup: Condvar,
    /// `RUNNING | FAILED`, changed only under `durable` (see
    /// [`LogManager::update_state`]).
    state: AtomicU8,
}

// ROADMAP finding 7: a `bool` beside the state word grew this allocation by
// one malloc size class and cost −3.7 % on `tatp_inproc` (2-vCPU Xeon).
// Keep it at its size.
const _: () = assert!(std::mem::size_of::<FlusherState>() <= 40);

/// The log manager.
pub struct LogManager {
    buffer: LogBuffer,
    protocol: InsertProtocol,
    durability: DurabilityMode,
    stats: Arc<StatsRegistry>,
    device: Option<LogDevice>,
    /// Serializes whole drain→write→fsync rounds: the background flusher,
    /// `flush_now` (checkpoints) and self-service commits may race, and two
    /// interleaved drains would reach the device out of LSN order.
    flush_lock: Mutex<()>,
    flusher: Arc<FlusherState>,
    flusher_thread: Mutex<Option<JoinHandle<()>>>,
}

impl LogManager {
    /// A memory-only log manager (no device; durability is simulated).
    /// [`DurabilityMode::Strict`] requires a device — use
    /// [`Self::with_directory`] for it.
    pub fn new(
        protocol: InsertProtocol,
        durability: DurabilityMode,
        stats: Arc<StatsRegistry>,
    ) -> Self {
        assert!(
            durability != DurabilityMode::Strict,
            "DurabilityMode::Strict requires a log directory (LogManager::with_directory)"
        );
        Self::build(protocol, durability, stats, None, Lsn::FIRST)
    }

    /// A log manager backed by a segmented file device in `dir`.  An
    /// existing directory is opened for appending (its torn tail, if any, is
    /// truncated); logging resumes after the last valid record.
    pub fn with_directory(
        protocol: InsertProtocol,
        durability: DurabilityMode,
        stats: Arc<StatsRegistry>,
        dir: impl AsRef<Path>,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        let (device, tail) = LogDevice::open(dir.as_ref(), segment_bytes, stats.clone())?;
        Ok(Self::build(protocol, durability, stats, Some(device), tail))
    }

    fn build(
        protocol: InsertProtocol,
        durability: DurabilityMode,
        stats: Arc<StatsRegistry>,
        device: Option<LogDevice>,
        tail: Lsn,
    ) -> Self {
        Self {
            buffer: LogBuffer::new(stats.clone(), tail, device.is_some()),
            protocol,
            durability,
            stats,
            device,
            flush_lock: Mutex::new(()),
            flusher: Arc::new(FlusherState {
                durable: Mutex::new(DurableState::default()),
                flushed: Condvar::new(),
                wakeup: Condvar::new(),
                state: AtomicU8::new(0),
            }),
            flusher_thread: Mutex::new(None),
        }
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    pub fn has_device(&self) -> bool {
        self.device.is_some()
    }

    /// Begin logging for a new transaction.
    pub fn begin(&self, txn_id: u64) -> TxnLogHandle {
        TxnLogHandle::new(txn_id)
    }

    /// Record a synthetic change (declared length only; see
    /// [`TxnLogHandle::log`]).  Under the baseline protocol the record goes
    /// straight to the shared buffer (one critical section); under the
    /// consolidated protocol it is staged in the handle.
    pub fn log(&self, handle: &mut TxnLogHandle, kind: LogRecordKind, page: u64, payload_len: u32) {
        self.log_record(
            handle,
            LogRecord::new(handle.txn_id, kind, page, payload_len),
        );
    }

    /// Record a fully-formed redo record (payload bytes captured at the
    /// storage layer).  Protocol-dependent like [`Self::log`].
    pub fn log_record(&self, handle: &mut TxnLogHandle, mut record: LogRecord) {
        record.txn_id = handle.txn_id;
        match self.protocol {
            InsertProtocol::Baseline => {
                let (lsn, _) = self.buffer.append_one(record);
                handle.last_lsn = lsn;
                handle.records_logged += 1;
            }
            InsertProtocol::Consolidated => handle.push_record(record),
        }
    }

    /// Append a system record (checkpoint/repartition metadata) outside any
    /// transaction.  Returns its LSN; durability follows the flusher like
    /// any other record.
    pub fn log_system(&self, record: LogRecord) -> Lsn {
        self.buffer.append_one(record).0
    }

    /// Write a fuzzy checkpoint record and flush it (write + fsync when a
    /// device is attached).  Returns the checkpoint's LSN.
    pub fn write_checkpoint(&self, data: CheckpointData) -> Lsn {
        let lsn = self.log_system(data.into_record());
        self.flush_now();
        self.stats.wal().checkpoint();
        lsn
    }

    /// Append the transaction's outcome record (under the consolidated
    /// protocol, in one batch with everything it staged).  Returns the
    /// record's end.
    fn finish(&self, handle: &mut TxnLogHandle, kind: LogRecordKind) -> Lsn {
        let (lsn, end) = match self.protocol {
            InsertProtocol::Baseline => {
                self.buffer
                    .append_one(LogRecord::new(handle.txn_id, kind, 0, 0))
            }
            InsertProtocol::Consolidated => {
                handle.log(kind, 0, 0);
                self.buffer.append_batch(&mut handle.staged)
            }
        };
        handle.last_lsn = lsn;
        end
    }

    /// [`Self::commit_deferred`], then [`Self::wait_durable`].  Returns the
    /// commit record's LSN, or `Lsn::ZERO` for a transaction that logged
    /// nothing and so appended nothing.
    pub fn commit(&self, handle: &mut TxnLogHandle) -> Result<Lsn, LogFailed> {
        let target = self.commit_deferred(handle);
        self.wait_durable(target)?;
        Ok(handle.last_lsn)
    }

    /// Append the commit record — nothing for a transaction that logged
    /// nothing — and return the LSN the commit must wait for: the record's
    /// end, or the buffer tail a read-only transaction observed.  A `Lazy`
    /// read-only commit waits for nothing and reads no tail (`Lsn::ZERO`).
    pub fn commit_deferred(&self, handle: &mut TxnLogHandle) -> Lsn {
        self.finish_deferred(handle, LogRecordKind::Commit)
    }

    /// Append the abort record and return the LSN the abort's reply must
    /// wait for, by the same rule as [`Self::commit_deferred`]: an aborted
    /// transaction may have read data that is not yet durable.
    pub fn abort(&self, handle: &mut TxnLogHandle) -> Lsn {
        self.finish_deferred(handle, LogRecordKind::Abort)
    }

    fn finish_deferred(&self, handle: &mut TxnLogHandle, kind: LogRecordKind) -> Lsn {
        if !handle.logged_nothing() {
            return self.finish(handle, kind);
        }
        match self.durability {
            DurabilityMode::Lazy => Lsn::ZERO,
            _ => self.buffer.tail_lsn(),
        }
    }

    /// Block until the log is written (`Synchronous`) or synced (`Strict`)
    /// below `target`.  The `Lazy` return stays inline in the caller: an
    /// out-of-line check measured −2.1 % on `tatp_conventional` (ROADMAP
    /// finding 7, 2-vCPU Xeon).
    #[inline]
    pub fn wait_durable(&self, target: Lsn) -> Result<(), LogFailed> {
        if self.durability == DurabilityMode::Lazy {
            return Ok(());
        }
        self.wait_marks(target)
    }

    /// The one wait loop, with no timeout: the state word and the marks are
    /// read under `durable`, and every change to either is followed by
    /// `notify_all` on `flushed`.
    fn wait_marks(&self, target: Lsn) -> Result<(), LogFailed> {
        let mut start = None;
        let mut durable = self.flusher.durable.lock();
        loop {
            let state = self.flusher.state.load(Ordering::Acquire);
            if state & FAILED != 0 {
                let kind = self.device.as_ref().and_then(LogDevice::failure);
                return Err(LogFailed(kind.unwrap_or(io::ErrorKind::Other)));
            }
            // `target` is a tail: a record's end, or the buffer's tail.
            let mark = match self.durability {
                DurabilityMode::Synchronous => durable.written,
                _ => durable.synced,
            };
            if mark >= target {
                break;
            }
            if start.is_none() {
                start = Some(Instant::now());
                // The commit-side half of the group-commit handshake: one
                // log-manager critical section however many records the txn
                // wrote.
                self.stats.cs().enter(CsCategory::LogMgr, false);
            }
            if state & RUNNING != 0 {
                self.flusher.wakeup.notify_one();
                self.flusher.flushed.wait(&mut durable);
            } else {
                // Self-service group commit: no flusher thread serves
                // waiters, so the committing thread flushes its own batch.
                drop(durable);
                self.flush_batch(false);
                durable = self.flusher.durable.lock();
            }
        }
        drop(durable);
        if let Some(start) = start {
            // The precise recording site for the `phase_wal_flush` round-trip
            // phase (the session-level slow log measures the whole commit
            // call).
            self.stats
                .latency()
                .phase_wal_flush
                .record_duration(start.elapsed());
        }
        Ok(())
    }

    /// Drain the buffer once and write the batch out (see
    /// [`Self::write_round`]).  Shared by the flusher thread, self-service
    /// waiters and [`Self::flush_now`]; `force_sync` fsyncs regardless of
    /// mode.  Returns the number of records drained.
    fn flush_batch(&self, force_sync: bool) -> u64 {
        let _round = self.flush_lock.lock();
        let flush_start = Instant::now();
        let Drained {
            tail,
            records,
            record_count: flushed,
            bytes,
        } = self.buffer.drain();
        // A failed log drains and discards: the buffer stays bounded and no
        // mark moves again.
        if self.flusher.state.load(Ordering::Acquire) & FAILED != 0 {
            return 0;
        }
        if let Err(e) = self.write_round(tail, &records, force_sync) {
            if let Some(device) = &self.device {
                device.fail(e.kind());
            }
            self.update_state(FAILED, 0);
            return 0;
        }
        if self.device.is_none() && flushed > 0 {
            self.stats.wal().flushed(flushed, bytes);
        }
        // Only batches that carried records land in the histogram: an idle
        // Strict flusher wakes every interval and would otherwise drown the
        // distribution in no-op drains.
        if flushed > 0 {
            self.stats
                .latency()
                .wal_flush
                .record_duration(flush_start.elapsed());
        }
        flushed
    }

    /// Write the batch to the device (when attached), fsync if the mode
    /// demands it, and advance the durable marks: `written` before the
    /// fsync, `synced` after it, each under `durable`, the fsync outside it.
    /// One `notify_all`, after the last mark moved: a wake-up before the
    /// fsync would wake `Strict` waiters twice.
    fn write_round(&self, tail: Lsn, records: &[LogRecord], force_sync: bool) -> io::Result<()> {
        if let Some(device) = &self.device {
            device.append_batch(records)?;
        }
        let mut durable = self.flusher.durable.lock();
        durable.written = durable.written.max(tail);
        let target = durable.written;
        // Only hit the disk when something was written since the last sync:
        // a Strict flusher wakes every interval and would otherwise issue
        // thousands of no-op fsyncs per second.  Without a device `synced`
        // follows `written`.
        if durable.synced < target {
            match &self.device {
                None => durable.synced = target,
                Some(device) if force_sync || self.durability == DurabilityMode::Strict => {
                    drop(durable);
                    device.sync()?;
                    durable = self.flusher.durable.lock();
                    durable.synced = durable.synced.max(target);
                }
                Some(_) => {}
            }
        }
        drop(durable);
        self.flusher.flushed.notify_all();
        Ok(())
    }

    /// Set, then clear, `state` bits under `durable`, and wake every waiter
    /// and the flusher thread.
    fn update_state(&self, set: u8, clear: u8) {
        let durable = self.flusher.durable.lock();
        let state = &self.flusher.state;
        let new = (state.load(Ordering::Acquire) | set) & !clear;
        state.store(new, Ordering::Release);
        drop(durable);
        self.flusher.flushed.notify_all();
        self.flusher.wakeup.notify_all();
    }

    /// Start the background group-commit flusher.  Idempotent.
    pub fn start_flusher(self: &Arc<Self>, interval: Duration) {
        let mut slot = self.flusher_thread.lock();
        if slot.is_some() {
            return;
        }
        self.update_state(RUNNING, 0);
        let mgr = self.clone();
        let handle = std::thread::Builder::new()
            .name("plp-log-flusher".into())
            .spawn(move || {
                // One chrome://tracing row for the group-commit flusher.
                let ring = mgr.stats.trace().register("wal-flusher");
                loop {
                    let t0 = now_nanos();
                    let flushed = mgr.flush_batch(false);
                    if flushed > 0 {
                        ring.event(
                            TraceEvent::LogFlush,
                            flushed,
                            t0,
                            now_nanos().saturating_sub(t0),
                        );
                    }
                    let mut durable = mgr.flusher.durable.lock();
                    if mgr.flusher.state.load(Ordering::Acquire) & RUNNING == 0 {
                        break;
                    }
                    mgr.flusher.wakeup.wait_for(&mut durable, interval);
                }
                // Final drain so a graceful shutdown leaves nothing behind.
                mgr.flush_batch(true);
            })
            .expect("spawn log flusher");
        *slot = Some(handle);
    }

    /// Stop the flusher thread (joins it; it performs a final flush+fsync).
    /// It can be started again.
    pub fn stop_flusher(&self) {
        let mut slot = self.flusher_thread.lock();
        self.update_state(0, RUNNING);
        if let Some(h) = slot.take() {
            join_unless_self(h);
        }
    }

    /// Highest LSN known written out (drained from the buffer).
    #[cfg(test)]
    fn durable_lsn(&self) -> Lsn {
        self.flusher.durable.lock().written
    }

    /// Highest LSN known fsynced to stable storage.
    #[cfg(test)]
    fn synced_lsn(&self) -> Lsn {
        self.flusher.durable.lock().synced
    }

    /// Total records ever appended to the shared buffer.
    pub fn record_count(&self) -> u64 {
        self.buffer.total_records()
    }

    /// Total log bytes ever appended.
    #[cfg(test)]
    fn byte_count(&self) -> u64 {
        self.buffer.total_bytes()
    }

    /// Records held in memory waiting for the flusher to write them out
    /// (always 0 without a device; test/diagnostic helper).
    pub fn pending_records(&self) -> usize {
        self.buffer.pending_records()
    }

    /// Manually flush (and fsync) everything pending — used when running
    /// without a flusher thread and by checkpoints.
    pub fn flush_now(&self) -> Lsn {
        self.flush_batch(true);
        self.flusher.durable.lock().written
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        self.stop_flusher();
    }
}

/// Join `handle` unless it is the calling thread's own handle — the flusher
/// holds an `Arc<LogManager>`, so the last reference can unwind *on* the
/// flusher thread, and `pthread_join` of self aborts the process (EDEADLK).
fn join_unless_self(handle: JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager")
            .field("protocol", &self.protocol)
            .field("durability", &self.durability)
            .field("device", &self.device.is_some())
            .field("records", &self.record_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TempDir;

    fn mgr(protocol: InsertProtocol, durability: DurabilityMode) -> Arc<LogManager> {
        Arc::new(LogManager::new(
            protocol,
            durability,
            StatsRegistry::new_shared(),
        ))
    }

    fn temp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("plp-wal-manager-{tag}"))
    }

    fn strict(dir: &Path, stats: Arc<StatsRegistry>) -> Arc<LogManager> {
        Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                stats,
                dir,
                1 << 20,
            )
            .unwrap(),
        )
    }

    /// Run `m.commit(h)` on its own thread; the receiver yields its result.
    fn spawn_commit(
        m: &Arc<LogManager>,
        mut h: TxnLogHandle,
    ) -> std::sync::mpsc::Receiver<Result<Lsn, LogFailed>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let m = m.clone();
        std::thread::spawn(move || tx.send(m.commit(&mut h)).unwrap());
        rx
    }

    #[test]
    fn consolidated_stages_until_commit() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut h = m.begin(7);
        m.log(&mut h, LogRecordKind::Insert, 3, 100);
        m.log(&mut h, LogRecordKind::Update, 4, 50);
        assert_eq!(m.record_count(), 0);
        let lsn = m.commit(&mut h).unwrap();
        assert!(lsn > Lsn::ZERO);
        assert_eq!(m.record_count(), 3);
        // Exactly one log-manager critical section for the whole transaction.
        assert_eq!(m.stats().snapshot().cs.entries(CsCategory::LogMgr), 1);
    }

    #[test]
    fn baseline_hits_buffer_per_record() {
        let m = mgr(InsertProtocol::Baseline, DurabilityMode::Lazy);
        let mut h = m.begin(7);
        m.log(&mut h, LogRecordKind::Insert, 3, 100);
        m.log(&mut h, LogRecordKind::Update, 4, 50);
        m.commit(&mut h).unwrap();
        assert_eq!(m.record_count(), 3);
        assert_eq!(m.stats().snapshot().cs.entries(CsCategory::LogMgr), 3);
    }

    #[test]
    fn abort_writes_abort_record() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut h = m.begin(9);
        m.log(&mut h, LogRecordKind::Insert, 1, 10);
        let lsn = m.abort(&mut h);
        assert!(lsn > Lsn::ZERO);
        assert_eq!(m.record_count(), 2);
    }

    /// An abort waits by the commit rule: its record's end, or the tail a
    /// transaction that logged nothing observed.
    #[test]
    fn abort_returns_the_lsn_its_reply_waits_for() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Synchronous);
        let mut writer = m.begin(1);
        m.log(&mut writer, LogRecordKind::Update, 2, 16);
        let end = m.abort(&mut writer);
        assert_eq!(end, m.buffer.tail_lsn(), "the abort record's end");
        let mut reader = m.begin(2);
        assert_eq!(m.abort(&mut reader), end, "the tail the reader observed");
        assert_eq!(m.record_count(), 2, "the reader appended nothing");
    }

    #[test]
    fn synchronous_commit_waits_for_flusher() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Synchronous);
        m.start_flusher(Duration::from_micros(200));
        let mut h = m.begin(1);
        m.log(&mut h, LogRecordKind::Update, 2, 16);
        let lsn = m.commit(&mut h).unwrap();
        assert!(m.durable_lsn() >= lsn);
        m.stop_flusher();
    }

    /// A commit must not return before the log is written through the end
    /// of everything it appended.  The edge is a commit record that starts
    /// exactly at the written mark: under `Baseline` once the transaction's
    /// data records were drained, under `Consolidated` when nothing was
    /// staged.  Holding the round lock is the gate: no flush can run.
    fn commit_waits_for_the_end_of_its_record(protocol: InsertProtocol) {
        let m = mgr(protocol, DurabilityMode::Synchronous);
        m.start_flusher(Duration::from_micros(200));
        let mut h = m.begin(1);
        if protocol == InsertProtocol::Baseline {
            m.log(&mut h, LogRecordKind::Update, 2, 16);
        }
        m.flush_now();
        let gate = m.flush_lock.lock();
        let done = spawn_commit(&m, h);
        if done.recv_timeout(Duration::from_millis(100)).is_ok() {
            assert_eq!(
                m.durable_lsn(),
                m.buffer.tail_lsn(),
                "commit returned before its record was written"
            );
        }
        drop(gate);
        let _ = done.recv();
        assert!(m.durable_lsn() >= m.buffer.tail_lsn());
        m.stop_flusher();
    }

    #[test]
    fn baseline_commit_waits_for_the_end_of_its_record() {
        commit_waits_for_the_end_of_its_record(InsertProtocol::Baseline);
    }

    #[test]
    fn consolidated_commit_waits_for_the_end_of_its_record() {
        commit_waits_for_the_end_of_its_record(InsertProtocol::Consolidated);
    }

    /// A read-only commit under `Strict` appends nothing, yet does not
    /// return while a record appended before it — a writer's commit record
    /// no fsync has covered — is unsynced.  On an idle log it returns with
    /// no flush round at all.
    #[test]
    fn strict_read_only_commit_waits_only_for_the_tail_it_observed() {
        let dir = temp_dir("read-only");
        let stats = StatsRegistry::new_shared();
        let m = strict(dir.path(), stats.clone());
        m.start_flusher(Duration::from_micros(200));

        let gate = m.flush_lock.lock();
        let mut writer = m.begin(1);
        m.log(&mut writer, LogRecordKind::Update, 2, 16);
        let writer_done = spawn_commit(&m, writer);
        while m.record_count() < 2 {
            std::thread::yield_now();
        }
        let reader_done = spawn_commit(&m, m.begin(2));
        assert!(
            reader_done
                .recv_timeout(Duration::from_millis(100))
                .is_err(),
            "read-only commit returned before the writer's record was synced"
        );
        drop(gate);
        let writer_lsn = writer_done.recv().unwrap().unwrap();
        assert_eq!(reader_done.recv().unwrap(), Ok(Lsn::ZERO));
        assert!(m.synced_lsn() >= m.buffer.tail_lsn());
        assert!(m.synced_lsn() > writer_lsn);
        assert_eq!(m.record_count(), 2, "the reader appended nothing");

        let _gate = m.flush_lock.lock();
        let fsyncs = stats.snapshot().wal.fsyncs;
        let idle = spawn_commit(&m, m.begin(3));
        assert_eq!(
            idle.recv_timeout(Duration::from_secs(10)),
            Ok(Ok(Lsn::ZERO)),
            "a read-only commit on an idle log must not need a flush round"
        );
        assert_eq!(stats.snapshot().wal.fsyncs, fsyncs);
        drop(_gate);
        m.stop_flusher();
    }

    #[test]
    fn read_only_commit_and_abort_append_nothing() {
        for protocol in [InsertProtocol::Baseline, InsertProtocol::Consolidated] {
            let m = mgr(protocol, DurabilityMode::Lazy);
            let mut h = m.begin(1);
            assert_eq!(m.commit(&mut h), Ok(Lsn::ZERO));
            let mut h = m.begin(2);
            assert_eq!(m.abort(&mut h), Lsn::ZERO);
            assert_eq!(m.record_count(), 0);
            assert_eq!(m.stats().snapshot().cs.entries(CsCategory::LogMgr), 0);
        }
    }

    /// Nothing ever drains a memory-only `Lazy` log, so it must not keep
    /// what it is given: the tail and the totals advance, memory does not.
    #[test]
    fn memory_only_lazy_log_keeps_no_records() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        for t in 0..100_000u64 {
            let mut h = m.begin(t + 1);
            m.log(&mut h, LogRecordKind::Update, t, 24);
            m.commit(&mut h).unwrap();
        }
        assert_eq!(m.pending_records(), 0);
        assert_eq!(m.record_count(), 200_000);
        assert_eq!(Lsn::FIRST.advance(m.byte_count()), m.buffer.tail_lsn());
        // A drain still reports what went by.
        m.flush_now();
        let wal = m.stats().snapshot().wal;
        assert_eq!(
            (wal.flushed_records, wal.flushed_bytes),
            (200_000, m.byte_count())
        );
    }

    #[test]
    #[should_panic(expected = "requires a log directory")]
    fn strict_without_device_panics() {
        let _ = LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Strict,
            StatsRegistry::new_shared(),
        );
    }

    #[test]
    fn strict_commit_is_fsynced_before_return() {
        let dir = temp_dir("strict");
        let stats = StatsRegistry::new_shared();
        let m = strict(dir.path(), stats.clone());
        m.start_flusher(Duration::from_micros(200));
        let mut h = m.begin(1);
        m.log_record(
            &mut h,
            LogRecord::with_payload(1, LogRecordKind::Insert, 0, 5, None, vec![1, 2, 3]),
        );
        let lsn = m.commit(&mut h).unwrap();
        assert!(m.synced_lsn() >= lsn, "strict commit returned before fsync");
        assert!(stats.snapshot().wal.fsyncs >= 1);
        assert!(stats.snapshot().wal.flushed_records >= 2);
        m.stop_flusher();
    }

    #[test]
    fn flush_now_advances_durable_lsn() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut h = m.begin(1);
        m.log(&mut h, LogRecordKind::Update, 2, 16);
        let lsn = m.commit(&mut h).unwrap();
        assert_eq!(m.durable_lsn(), Lsn::ZERO);
        let durable = m.flush_now();
        assert!(durable > lsn);
        assert_eq!(durable, m.buffer.tail_lsn());
        assert_eq!(m.stats().snapshot().wal.flushed_records, 2);
    }

    #[test]
    fn checkpoint_record_is_durable_immediately() {
        let dir = temp_dir("ckpt");
        let stats = StatsRegistry::new_shared();
        let m = LogManager::with_directory(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            stats.clone(),
            dir.path(),
            1 << 20,
        )
        .unwrap();
        let lsn = m.write_checkpoint(CheckpointData {
            next_txn_id: 9,
            partitions: 2,
            ..Default::default()
        });
        assert!(m.synced_lsn() >= lsn);
        assert_eq!(stats.snapshot().wal.checkpoints, 1);
        drop(m);
        let scan = crate::recovery::scan_log(dir.path()).unwrap();
        let (ckpt_lsn, data) = scan.checkpoint.unwrap();
        assert_eq!(ckpt_lsn, lsn);
        assert_eq!(data.next_txn_id, 9);
    }

    #[test]
    fn many_transactions_get_increasing_lsns() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut last = Lsn::ZERO;
        for t in 0..100 {
            let mut h = m.begin(t);
            m.log(&mut h, LogRecordKind::Update, t, 24);
            let lsn = m.commit(&mut h).unwrap();
            assert!(lsn > last);
            last = lsn;
        }
        assert_eq!(m.record_count(), 200);
    }

    #[test]
    fn concurrent_commits_are_ordered() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let mut h = m.begin(t * 1000 + i);
                    m.log(&mut h, LogRecordKind::Update, i, 32);
                    m.commit(&mut h).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.record_count(), 8 * 100 * 2);
    }

    #[test]
    fn strict_concurrent_commits_all_recover() {
        let dir = temp_dir("strict-conc");
        let stats = StatsRegistry::new_shared();
        let m = Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                stats,
                dir.path(),
                2048,
            )
            .unwrap(),
        );
        m.start_flusher(Duration::from_micros(100));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let txn = t * 1000 + i + 1;
                    let mut h = m.begin(txn);
                    m.log_record(
                        &mut h,
                        LogRecord::with_payload(
                            txn,
                            LogRecordKind::Insert,
                            0,
                            txn,
                            None,
                            vec![t as u8; 16],
                        ),
                    );
                    m.commit(&mut h).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        m.stop_flusher();
        drop(m);
        let scan = crate::recovery::scan_log(dir.path()).unwrap();
        assert_eq!(scan.committed.len(), 100);
        assert_eq!(scan.redo_records().count(), 100);
        assert!(scan.losers.is_empty());
    }

    /// A device that fails under a parked `Strict` commit: the commit gets
    /// `LogFailed`, not `Ok`, and so does every later commit that waits,
    /// read-only or not.  The flusher keeps draining, no mark moves again,
    /// and shutdown completes.
    #[test]
    fn failed_device_answers_every_waiting_commit_with_log_failed() {
        let dir = temp_dir("failed");
        // A 1-byte segment target is clamped to header + 1: every batch
        // rolls to a new segment file, which cannot be created once the
        // directory is gone.
        let m = Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                StatsRegistry::new_shared(),
                dir.path(),
                1,
            )
            .unwrap(),
        );
        m.start_flusher(Duration::from_micros(200));
        let gate = m.flush_lock.lock();
        let mut writer = m.begin(1);
        m.log(&mut writer, LogRecordKind::Update, 2, 16);
        let parked = spawn_commit(&m, writer);
        while m.record_count() < 2 {
            std::thread::yield_now();
        }
        let synced = m.synced_lsn();
        std::fs::remove_dir_all(dir.path()).unwrap();
        drop(gate);

        let failed = Err(LogFailed(io::ErrorKind::NotFound));
        let deadline = Duration::from_secs(10);
        assert_eq!(parked.recv_timeout(deadline), Ok(failed));
        assert_eq!(
            spawn_commit(&m, m.begin(2)).recv_timeout(deadline),
            Ok(failed)
        );
        let mut writer = m.begin(3);
        m.log(&mut writer, LogRecordKind::Update, 4, 16);
        assert_eq!(m.commit(&mut writer), failed);

        for page in 0..1_000 {
            m.log_system(LogRecord::new(0, LogRecordKind::Update, page, 16));
        }
        let drained_by = Instant::now() + deadline;
        while m.pending_records() > 0 {
            assert!(Instant::now() < drained_by, "the flusher stopped draining");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.synced_lsn(), synced, "a mark moved after the failure");
        m.stop_flusher();
        drop(m);
    }

    /// `Strict` writers racing `stop_flusher`/`start_flusher`: a commit
    /// that returns `Ok` is synced past its record, and none waits for a
    /// flusher that already left.
    #[test]
    fn strict_commits_racing_flusher_restarts_are_synced_when_acknowledged() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::RecvTimeoutError;

        let dir = temp_dir("restart-race");
        let m = strict(dir.path(), StatsRegistry::new_shared());
        m.start_flusher(Duration::from_micros(100));
        let done = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        for t in 0..4u64 {
            let (m, done, tx) = (m.clone(), done.clone(), tx.clone());
            std::thread::spawn(move || {
                for i in 1.. {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let mut h = m.begin((t << 32) | i);
                    m.log(&mut h, LogRecordKind::Update, i, 16);
                    let started = Instant::now();
                    let lsn = m.commit(&mut h).expect("the device is healthy");
                    tx.send((lsn, m.synced_lsn(), started.elapsed())).unwrap();
                }
            });
        }
        drop(tx);
        for _ in 0..200 {
            m.stop_flusher();
            m.start_flusher(Duration::from_micros(100));
        }
        done.store(true, Ordering::Release);
        let mut acknowledged = 0;
        loop {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok((lsn, synced, took)) => {
                    assert!(synced > lsn, "Ok at {lsn:?} with synced {synced:?}");
                    assert!(took < Duration::from_secs(10), "a commit took {took:?}");
                    acknowledged += 1;
                }
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => panic!("a commit waited over 10 s"),
            }
        }
        assert!(acknowledged > 0);
        m.stop_flusher();
    }
}
