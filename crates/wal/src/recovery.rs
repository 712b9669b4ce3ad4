//! Log-directory scanning for crash recovery.
//!
//! [`scan_log`] walks the segment files of a log directory in LSN order,
//! CRC-validating every record and stopping at the first torn or corrupt one
//! (the crash tail).  It produces a [`LogScan`]: the ordered record stream,
//! the last complete fuzzy checkpoint, the set of transactions whose commit
//! record survived, and the LSN/byte accounting the engine needs to resume
//! logging after replay.
//!
//! The scan is read-only — truncating the torn tail and deleting
//! unreachable segments happens when [`crate::device::LogDevice::open`]
//! re-opens the directory for appending.
//!
//! Redo policy: the buffer pool is volatile (there is no persistent page
//! store yet), so every recovery replays the *data* records of committed
//! transactions from the start of the log.  The checkpoint bounds the
//! *analysis* work instead: records at or before the checkpoint LSN do not
//! need to be consulted for partition boundaries (the checkpoint carries
//! them), the active-transaction table seeds the loser set, and the
//! allocation/partition counts sanity-check the recovering configuration.
//! Once pages become persistent (see ROADMAP), the same checkpoint record
//! will bound redo exactly as in ARIES.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use crate::device::{list_segments, walk_segment};
use crate::record::{CheckpointData, LogRecord, LogRecordKind, Lsn};

/// Everything recovery learns from one pass over the log directory.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Every valid record, in LSN order.
    pub records: Vec<LogRecord>,
    /// The last complete checkpoint and its LSN, if any.
    pub checkpoint: Option<(Lsn, CheckpointData)>,
    /// Transactions whose commit record survived.
    pub committed: BTreeSet<u64>,
    /// Transactions whose abort record survived.
    pub aborted: BTreeSet<u64>,
    /// Transactions with records in the log but no surviving commit/abort —
    /// the losers: their effects must not be replayed.
    pub losers: BTreeSet<u64>,
    /// LSN at which logging resumes (one past the last valid record).
    pub tail_lsn: Lsn,
    /// Bytes discarded at the tail (torn records, trailing garbage and
    /// unreachable segments).
    pub torn_bytes: u64,
    /// Highest transaction id seen anywhere in the log.
    pub max_txn_id: u64,
}

impl LogScan {
    /// Redo records of committed transactions, in LSN order (synthetic
    /// records excluded — they carry no replayable payload).  Records of the
    /// loader pseudo-transaction (txn id 0, written during database
    /// population) are always redone: they have no commit record, they *are*
    /// the base data.
    pub fn redo_records(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.iter().filter(|r| {
            r.kind.is_redo()
                && !r.is_synthetic()
                && (r.txn_id == 0 || self.committed.contains(&r.txn_id))
        })
    }

    /// The partition boundaries each table must end at: the checkpoint's
    /// bounds overlaid with every later repartition record (last writer
    /// wins).  Tables never repartitioned are absent.
    pub fn final_bounds(&self) -> Vec<(u32, Vec<u64>)> {
        let mut bounds: Vec<(u32, Vec<u64>)> = Vec::new();
        let checkpoint_lsn = self
            .checkpoint
            .as_ref()
            .map(|(l, _)| *l)
            .unwrap_or(Lsn::ZERO);
        if let Some((_, data)) = &self.checkpoint {
            bounds = data.table_bounds.clone();
        }
        for record in &self.records {
            if record.kind != LogRecordKind::Repartition || record.lsn <= checkpoint_lsn {
                continue;
            }
            let Some(p) = crate::record::RepartitionPayload::decode(record.payload()) else {
                continue;
            };
            match bounds.iter_mut().find(|(id, _)| *id == p.table) {
                Some((_, b)) => *b = p.bounds,
                None => bounds.push((p.table, p.bounds)),
            }
        }
        bounds
    }
}

/// Scan a log directory.  Missing directory ⇒ empty scan (fresh database).
pub fn scan_log(dir: impl AsRef<Path>) -> io::Result<LogScan> {
    let dir = dir.as_ref();
    let mut scan = LogScan {
        tail_lsn: Lsn::FIRST,
        ..Default::default()
    };
    let segments = list_segments(dir)?;
    let mut expected_base: Option<Lsn> = None;
    let mut stopped = false;
    for seg in &segments {
        if stopped {
            // Unreachable segment beyond a torn/corrupt point.
            scan.torn_bytes += seg.file_len;
            continue;
        }
        if let Some(expected) = expected_base {
            if seg.base_lsn != expected {
                scan.torn_bytes += seg.file_len;
                stopped = true;
                continue;
            }
        }
        let (valid_bytes, next_lsn, clean) = walk_segment(seg, |record| scan.records.push(record))?;
        scan.torn_bytes += seg
            .file_len
            .saturating_sub(valid_bytes + crate::segment::SEGMENT_HEADER_BYTES as u64);
        scan.tail_lsn = next_lsn;
        if !clean {
            stopped = true;
        }
        expected_base = Some(next_lsn);
    }
    for record in &scan.records {
        scan.max_txn_id = scan.max_txn_id.max(record.txn_id);
        match record.kind {
            LogRecordKind::Commit => {
                scan.committed.insert(record.txn_id);
            }
            LogRecordKind::Abort => {
                scan.aborted.insert(record.txn_id);
            }
            LogRecordKind::Checkpoint => {
                if let Some(data) = CheckpointData::decode(record.payload()) {
                    scan.checkpoint = Some((record.lsn, data));
                }
            }
            _ => {}
        }
    }
    // Losers: seeded from the checkpoint's active table, extended by any
    // transaction that logged work but whose outcome record is missing.
    if let Some((_, data)) = &scan.checkpoint {
        for &t in &data.active_txns {
            if !scan.committed.contains(&t) && !scan.aborted.contains(&t) {
                scan.losers.insert(t);
            }
        }
    }
    for record in &scan.records {
        if record.txn_id != 0
            && !scan.committed.contains(&record.txn_id)
            && !scan.aborted.contains(&record.txn_id)
        {
            scan.losers.insert(record.txn_id);
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::InsertProtocol;
    use crate::manager::{DurabilityMode, LogManager};
    use crate::record::RepartitionPayload;
    use crate::test_support::TempDir;
    use plp_instrument::StatsRegistry;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("plp-wal-recovery-{tag}"))
    }

    fn strict_manager(dir: &Path) -> Arc<LogManager> {
        let stats = StatsRegistry::new_shared();
        Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                stats,
                dir,
                256,
            )
            .unwrap(),
        )
    }

    #[test]
    fn scan_empty_and_missing_directory() {
        let dir = temp_dir("missing");
        let scan = scan_log(dir.path()).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail_lsn, Lsn::FIRST);
        assert!(scan.checkpoint.is_none());
    }

    #[test]
    fn scan_sees_committed_and_losers() {
        let dir = temp_dir("commit-loser");
        let m = strict_manager(dir.path());
        // Committed transaction.
        let mut h = m.begin(1);
        h.push_record(crate::record::LogRecord::with_payload(
            1,
            LogRecordKind::Insert,
            0,
            10,
            None,
            vec![1, 2, 3],
        ));
        m.commit(&mut h).unwrap();
        // Aborted transaction.
        let mut h = m.begin(2);
        h.push_record(crate::record::LogRecord::with_payload(
            2,
            LogRecordKind::Insert,
            0,
            11,
            None,
            vec![4],
        ));
        m.abort(&mut h);
        // In-flight transaction: staged records never hit the buffer under
        // the consolidated protocol, so emulate a loser via the baseline
        // path: append its record directly and never commit.
        m.log_system(crate::record::LogRecord::with_payload(
            3,
            LogRecordKind::Insert,
            0,
            12,
            None,
            vec![5],
        ));
        m.flush_now();
        drop(m);
        let scan = scan_log(dir.path()).unwrap();
        assert!(scan.committed.contains(&1));
        assert!(scan.aborted.contains(&2));
        assert!(scan.losers.contains(&3));
        assert_eq!(scan.redo_records().count(), 1);
        assert_eq!(scan.max_txn_id, 3);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn scan_recovers_checkpoint_and_final_bounds() {
        let dir = temp_dir("checkpoint");
        let m = strict_manager(dir.path());
        m.log_system(crate::record::LogRecord::with_payload(
            0,
            LogRecordKind::Repartition,
            7,
            0,
            None,
            RepartitionPayload {
                table: 7,
                bounds: vec![0, 10],
            }
            .encode(),
        ));
        let checkpoint = CheckpointData {
            active_txns: vec![],
            next_txn_id: 5,
            partitions: 2,
            table_bounds: vec![(7, vec![0, 10]), (8, vec![0, 100])],
            allocated_pages: 3,
        };
        m.write_checkpoint(checkpoint.clone());
        // Post-checkpoint repartition overrides the checkpoint's bounds.
        m.log_system(crate::record::LogRecord::with_payload(
            0,
            LogRecordKind::Repartition,
            7,
            0,
            None,
            RepartitionPayload {
                table: 7,
                bounds: vec![0, 42],
            }
            .encode(),
        ));
        m.flush_now();
        drop(m);
        let scan = scan_log(dir.path()).unwrap();
        let (_, data) = scan.checkpoint.as_ref().unwrap();
        assert_eq!(data, &checkpoint);
        let bounds = scan.final_bounds();
        assert!(bounds.contains(&(7, vec![0, 42])));
        assert!(bounds.contains(&(8, vec![0, 100])));
    }

    #[test]
    fn truncated_tail_drops_partial_transaction() {
        let dir = temp_dir("truncate");
        let m = strict_manager(dir.path());
        for t in 1..=20u64 {
            let mut h = m.begin(t);
            h.push_record(crate::record::LogRecord::with_payload(
                t,
                LogRecordKind::Insert,
                0,
                t,
                None,
                vec![t as u8; 24],
            ));
            m.commit(&mut h).unwrap();
        }
        drop(m);
        let full = scan_log(dir.path()).unwrap();
        assert_eq!(full.committed.len(), 20);
        // Chop bytes off the final segment and re-scan: committed set must
        // shrink to the transactions whose commit record fully survived, and
        // no record beyond the cut may appear.
        let segments = list_segments(dir.path()).unwrap();
        let last = segments.last().unwrap();
        let cut = last.file_len - 37;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&last.path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let scan = scan_log(dir.path()).unwrap();
        assert!(scan.committed.len() < 20);
        assert!(scan.torn_bytes > 0);
        assert!(scan.tail_lsn <= full.tail_lsn);
        for r in &scan.records {
            assert!(r.lsn < scan.tail_lsn);
        }
        // Committed-set monotonicity: a prefix of the log commits a prefix
        // of the transactions.
        for t in &scan.committed {
            assert!(full.committed.contains(t));
        }
    }
}
