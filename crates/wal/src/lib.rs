//! Write-ahead logging and crash recovery for the PLP reproduction.
//!
//! PLP keeps a *shared* log (one of the properties that distinguish it from
//! shared-nothing designs) and assumes the log-buffer optimizations of Aether
//! (Johnson et al., "Aether: a scalable approach to logging", PVLDB 2010),
//! which turn log inserts into *composable* critical sections.  The paper's
//! Figure 1 counts log-manager critical sections, so this crate implements two
//! insert protocols:
//!
//! * [`InsertProtocol::Baseline`] — every log record insert takes the central
//!   log-buffer mutex (one unscalable-ish critical section per record).
//! * [`InsertProtocol::Consolidated`] — records are staged per transaction and
//!   appended to the central buffer in a single batched critical section at
//!   commit time, emulating Aether's consolidation-array behaviour at the
//!   granularity that matters for critical-section counting.
//!
//! # Durability pipeline
//!
//! Records flow `TxnLogHandle` → [`LogBuffer`] → group-commit flusher →
//! [`device::LogDevice`].  Three [`DurabilityMode`]s govern what a commit
//! waits for:
//!
//! * [`DurabilityMode::Lazy`] — return immediately (the paper's
//!   memory-resident setup; the flusher drains in the background).
//! * [`DurabilityMode::Synchronous`] — wait until the flusher has drained
//!   past the commit record (written to the OS when a device is attached,
//!   but not fsynced).
//! * [`DurabilityMode::Strict`] — wait until the commit record is written
//!   **and fsynced** to the file-backed device.  This is the mode the
//!   crash-recovery guarantees are stated for.
//!
//! A transaction that logged nothing appends no commit or abort record: it
//! waits only until the log is written/synced through the tail it observed
//! at commit (no wait at all on an idle log or under `Lazy`).  Every record
//! appended before a commit returns is therefore as durable as it was when
//! every commit appended a record; `docs/durability.md` states the rule and
//! which designs rely on it.  Without a device the buffer keeps no records
//! — only the tail and the totals — so a memory-only log runs in constant
//! space.
//!
//! # On-disk format
//!
//! The log device is a directory of segment files, `wal-<base_lsn:016x>.seg`.
//! LSNs are byte offsets into the logical log stream, contiguous across
//! segments (segments roll exactly at record boundaries), so a record with
//! LSN `L` in a segment with base `B` lives at file offset
//! `32 + (L − B)`.
//!
//! **Segment header** (32 bytes): magic `"PLPWAL01"` (8), format version
//! (4), reserved (4), base LSN (8), reserved (8).
//!
//! **Record** (48-byte header + payload): record magic `0x5052` (2),
//! kind (1), flags (1), table id (4), LSN (8), transaction id (8),
//! primary key (8), secondary key (8), payload length (4), CRC32 over the
//! header-less-CRC plus payload (4).  Flag bit 0 marks a present secondary
//! key; flag bit 1 marks a *synthetic* record (declared payload length,
//! zero-filled on disk, never replayed).  Data records are **physiological
//! redo** records: inserts carry the record image, updates carry
//! `before ‖ after` images ([`UpdatePayload`]), deletes carry the keys.
//!
//! **Checkpoint record** ([`LogRecordKind::Checkpoint`], txn id 0): a
//! [`CheckpointData`] payload holding the active-transaction table, the
//! transaction-id high-water mark, the partition count, every table's
//! partition boundaries and the page-allocation high-water mark.  It is
//! written *fuzzily* by a background thread while transactions run.
//!
//! # Recovery
//!
//! [`recovery::scan_log`] walks the segments in LSN order, CRC-validating
//! every record and tolerating a torn tail (the scan stops at the first
//! truncated or corrupt record; [`device::LogDevice::open`] truncates the
//! same bytes away before appending resumes).  The engine replays the redo
//! records of committed transactions and re-applies the last checkpoint's
//! (plus any later repartition records') partition boundaries — see
//! `plp_core::Engine::recover`.  Because the page store is volatile, redo
//! replays from the start of the log; the checkpoint bounds the *analysis*
//! pass and will bound redo once pages become persistent.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod device;
pub mod manager;
pub mod record;
pub mod recovery;
pub mod segment;
#[doc(hidden)]
pub mod test_support;

pub use buffer::{InsertProtocol, LogBuffer};
pub use device::LogDevice;
pub use manager::{DurabilityMode, LogFailed, LogManager, TxnLogHandle};
pub use record::{
    CheckpointData, LogRecord, LogRecordKind, Lsn, RepartitionPayload, UpdatePayload,
};
pub use recovery::{scan_log, LogScan};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn end_to_end_commit() {
        let stats = plp_instrument::StatsRegistry::new_shared();
        let mgr = Arc::new(LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            stats,
        ));
        let mut h = mgr.begin(1);
        h.log(LogRecordKind::Insert, 10, 64);
        h.log(LogRecordKind::Update, 11, 32);
        let lsn = mgr.commit(&mut h).unwrap();
        assert!(lsn > Lsn(0));
        assert_eq!(mgr.record_count(), 3); // 2 updates + commit record
    }

    #[test]
    fn end_to_end_durable_roundtrip() {
        let dir = test_support::TempDir::new("plp-wal-lib-e2e");
        let stats = plp_instrument::StatsRegistry::new_shared();
        let mgr = LogManager::with_directory(
            InsertProtocol::Consolidated,
            DurabilityMode::Strict,
            stats,
            dir.path(),
            1 << 16,
        )
        .unwrap();
        let mut h = mgr.begin(1);
        mgr.log_record(
            &mut h,
            LogRecord::with_payload(1, LogRecordKind::Insert, 2, 10, Some(110), vec![42; 8]),
        );
        mgr.commit(&mut h).unwrap();
        drop(mgr);
        let scan = scan_log(dir.path()).unwrap();
        assert!(scan.committed.contains(&1));
        let redo: Vec<_> = scan.redo_records().collect();
        assert_eq!(redo.len(), 1);
        assert_eq!(redo[0].table, 2);
        assert_eq!(redo[0].page, 10);
        assert_eq!(redo[0].secondary, Some(110));
        assert_eq!(redo[0].payload(), &[42; 8]);
    }
}
