//! Log sequence numbers, log records and the fuzzy-checkpoint payload.
//!
//! A [`LogRecord`] is the unit of both the in-memory log buffer and the
//! on-disk log device.  Since PR 4 records carry *real* payload bytes
//! (after-images for physiological redo), so a log written under
//! [`crate::DurabilityMode::Strict`] can be replayed by
//! [`crate::recovery::scan_log`] after a crash.

use std::fmt;
use std::sync::Arc;

/// A log sequence number.  Monotonically increasing, byte-offset style: the
/// LSN of a record equals its logical byte offset in the (segmented) log
/// stream, so `lsn + size_bytes` is the next record's LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    pub const ZERO: Lsn = Lsn(0);

    /// The first assignable LSN (0 is reserved as "null").
    pub const FIRST: Lsn = Lsn(1);

    pub fn advance(self, bytes: u64) -> Lsn {
        Lsn(self.0 + bytes)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// The kind of a log record.  The discriminants are the on-disk encoding and
/// must never be reused for a different meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LogRecordKind {
    /// A new record or index entry was inserted.
    Insert = 1,
    /// A record or index entry was updated in place.
    Update = 2,
    /// A record or index entry was deleted.
    Delete = 3,
    /// A structure modification operation (page split/merge/slice/meld).
    Smo = 4,
    /// Transaction commit.
    Commit = 5,
    /// Transaction abort.
    Abort = 6,
    /// Repartitioning metadata change (partition-table update).
    Repartition = 7,
    /// A fuzzy checkpoint (active-transaction table, partition boundaries,
    /// page allocation state).
    Checkpoint = 8,
}

impl LogRecordKind {
    /// Whether records of this kind describe a data change that recovery
    /// replays (when the owning transaction committed).
    pub fn is_redo(self) -> bool {
        matches!(
            self,
            LogRecordKind::Insert | LogRecordKind::Update | LogRecordKind::Delete
        )
    }

    /// Decode the on-disk discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => LogRecordKind::Insert,
            2 => LogRecordKind::Update,
            3 => LogRecordKind::Delete,
            4 => LogRecordKind::Smo,
            5 => LogRecordKind::Commit,
            6 => LogRecordKind::Abort,
            7 => LogRecordKind::Repartition,
            8 => LogRecordKind::Checkpoint,
            _ => return None,
        })
    }
}

/// Fixed per-record header size, in bytes, both in LSN arithmetic and on
/// disk (see [`crate::segment`] for the field layout).
pub const LOG_RECORD_HEADER_BYTES: usize = 48;

/// Header flag: the record carries a secondary-index key.
pub const FLAG_HAS_SECONDARY: u8 = 0b0000_0001;
/// Header flag: the record is *synthetic* — its payload length is declared
/// for log-volume accounting but no bytes were captured (pre-durability
/// benchmarks and unit tests).  Recovery never replays synthetic records.
pub const FLAG_SYNTHETIC: u8 = 0b0000_0010;

/// One write-ahead log record.
///
/// Data records (`Insert`/`Update`/`Delete`) are *physiological* redo
/// records: they name the table, the primary key (`page`), the optional
/// secondary key, and carry the value bytes needed to reproduce the change —
/// the full record image for inserts, `before ‖ after` images for updates
/// (see [`UpdatePayload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    pub lsn: Lsn,
    pub txn_id: u64,
    pub kind: LogRecordKind,
    /// Table the change applies to (0 for transaction/system records).
    pub table: u32,
    /// Primary key the change applies to (0 for pure transaction records).
    /// Kept under the historical name `page`: keys identify the page through
    /// the primary index, which is what makes the records physiological
    /// rather than physical.
    pub page: u64,
    /// Secondary-index key maintained alongside the change, if any.
    pub secondary: Option<u64>,
    /// Captured payload bytes (empty for synthetic and boundary records).
    payload: Arc<[u8]>,
    /// Declared payload length of a synthetic record (0 when `payload` is
    /// real; see [`FLAG_SYNTHETIC`]).
    synthetic_len: u32,
}

impl LogRecord {
    /// A synthetic record: `payload_len` bytes are accounted for in LSN
    /// arithmetic and on-disk framing (zero-filled), but recovery skips it.
    /// This is the historical constructor used by benchmarks and tests that
    /// only care about log volume and critical-section counts.
    pub fn new(txn_id: u64, kind: LogRecordKind, page: u64, payload_len: u32) -> Self {
        Self {
            lsn: Lsn::ZERO,
            txn_id,
            kind,
            table: 0,
            page,
            secondary: None,
            payload: Arc::from(&[][..]),
            synthetic_len: payload_len,
        }
    }

    /// A redo record carrying real payload bytes.
    pub fn with_payload(
        txn_id: u64,
        kind: LogRecordKind,
        table: u32,
        page: u64,
        secondary: Option<u64>,
        payload: Vec<u8>,
    ) -> Self {
        Self {
            lsn: Lsn::ZERO,
            txn_id,
            kind,
            table,
            page,
            secondary,
            payload: Arc::from(payload.into_boxed_slice()),
            synthetic_len: 0,
        }
    }

    /// The payload bytes (empty for synthetic records).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Payload size in bytes as accounted in LSN arithmetic and on disk.
    pub fn payload_len(&self) -> u32 {
        if self.is_synthetic() {
            self.synthetic_len
        } else {
            self.payload.len() as u32
        }
    }

    /// Whether the record's payload is declared-but-not-captured.
    pub fn is_synthetic(&self) -> bool {
        self.payload.is_empty() && self.synthetic_len > 0
    }

    /// On-disk header flags.
    pub fn flags(&self) -> u8 {
        let mut f = 0;
        if self.secondary.is_some() {
            f |= FLAG_HAS_SECONDARY;
        }
        if self.is_synthetic() {
            f |= FLAG_SYNTHETIC;
        }
        f
    }

    /// Total size the record occupies on disk (header + payload).
    pub fn size_bytes(&self) -> u64 {
        LOG_RECORD_HEADER_BYTES as u64 + self.payload_len() as u64
    }
}

/// Payload layout of an [`LogRecordKind::Update`] record: the before image
/// followed by the after image (`u32` before-length prefix).  Redo applies
/// the after image; the before image is retained for a future undo/steal
/// policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePayload {
    pub before: Vec<u8>,
    pub after: Vec<u8>,
}

impl UpdatePayload {
    pub fn encode(before: &[u8], after: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + before.len() + after.len());
        out.extend_from_slice(&(before.len() as u32).to_le_bytes());
        out.extend_from_slice(before);
        out.extend_from_slice(after);
        out
    }

    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() < 4 {
            return None;
        }
        let before_len = u32::from_le_bytes(payload[..4].try_into().ok()?) as usize;
        if payload.len() < 4 + before_len {
            return None;
        }
        Some(Self {
            before: payload[4..4 + before_len].to_vec(),
            after: payload[4 + before_len..].to_vec(),
        })
    }
}

/// The payload of a [`LogRecordKind::Repartition`] record: the table and the
/// boundary set it was driven to.  Recovery applies the *last* such record
/// per table (after the last checkpoint) so a recovered engine routes
/// identically to the pre-crash one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepartitionPayload {
    pub table: u32,
    pub bounds: Vec<u64>,
}

impl RepartitionPayload {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * self.bounds.len());
        out.extend_from_slice(&self.table.to_le_bytes());
        out.extend_from_slice(&(self.bounds.len() as u32).to_le_bytes());
        for b in &self.bounds {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let table = r.u32()?;
        let n = r.u32()? as usize;
        let mut bounds = Vec::with_capacity(n);
        for _ in 0..n {
            bounds.push(r.u64()?);
        }
        Some(Self { table, bounds })
    }
}

/// The payload of a fuzzy [`LogRecordKind::Checkpoint`] record.
///
/// Captured while transactions run (hence *fuzzy*): the active-transaction
/// table, the transaction-id high-water mark, the per-table partition
/// boundaries and the page-allocation high-water mark.  Recovery uses the
/// last complete checkpoint to bound its analysis pass, to restore partition
/// boundaries (routing) and to sanity-check the engine configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointData {
    /// Transactions active (begun, not yet committed/aborted) at the instant
    /// the checkpoint was cut.
    pub active_txns: Vec<u64>,
    /// The next transaction id the transaction manager would hand out.
    pub next_txn_id: u64,
    /// Number of logical partitions / worker threads.
    pub partitions: u32,
    /// `(table id, partition boundary starts)` for every table.
    pub table_bounds: Vec<(u32, Vec<u64>)>,
    /// Pages allocated in the buffer pool when the checkpoint was cut.
    pub allocated_pages: u64,
}

const CHECKPOINT_VERSION: u32 = 1;

impl CheckpointData {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.next_txn_id.to_le_bytes());
        out.extend_from_slice(&self.partitions.to_le_bytes());
        out.extend_from_slice(&self.allocated_pages.to_le_bytes());
        out.extend_from_slice(&(self.active_txns.len() as u32).to_le_bytes());
        for t in &self.active_txns {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&(self.table_bounds.len() as u32).to_le_bytes());
        for (id, bounds) in &self.table_bounds {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
            for b in bounds {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        if r.u32()? != CHECKPOINT_VERSION {
            return None;
        }
        let next_txn_id = r.u64()?;
        let partitions = r.u32()?;
        let allocated_pages = r.u64()?;
        let n_active = r.u32()? as usize;
        let mut active_txns = Vec::with_capacity(n_active);
        for _ in 0..n_active {
            active_txns.push(r.u64()?);
        }
        let n_tables = r.u32()? as usize;
        let mut table_bounds = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let id = r.u32()?;
            let n_bounds = r.u32()? as usize;
            let mut bounds = Vec::with_capacity(n_bounds);
            for _ in 0..n_bounds {
                bounds.push(r.u64()?);
            }
            table_bounds.push((id, bounds));
        }
        Some(Self {
            active_txns,
            next_txn_id,
            partitions,
            table_bounds,
            allocated_pages,
        })
    }

    /// Wrap into a system log record (txn id 0).
    pub fn into_record(self) -> LogRecord {
        LogRecord::with_payload(0, LogRecordKind::Checkpoint, 0, 0, None, self.encode())
    }
}

/// Bounds-checked little-endian cursor used by the payload decoders.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_advance_and_order() {
        let a = Lsn(100);
        let b = a.advance(28);
        assert_eq!(b, Lsn(128));
        assert!(b > a);
        assert_eq!(Lsn::ZERO.to_string(), "lsn:0");
    }

    #[test]
    fn record_size_includes_header() {
        let r = LogRecord::new(1, LogRecordKind::Update, 7, 100);
        assert_eq!(r.size_bytes(), 148);
        assert!(r.is_synthetic());
        assert_eq!(r.flags() & FLAG_SYNTHETIC, FLAG_SYNTHETIC);
    }

    #[test]
    fn payload_record_sizes_and_flags() {
        let r = LogRecord::with_payload(
            9,
            LogRecordKind::Insert,
            2,
            77,
            Some(1077),
            vec![1, 2, 3, 4],
        );
        assert!(!r.is_synthetic());
        assert_eq!(r.payload_len(), 4);
        assert_eq!(r.size_bytes(), 52);
        assert_eq!(r.flags(), FLAG_HAS_SECONDARY);
        assert_eq!(r.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn boundary_kinds() {
        assert!(LogRecordKind::Insert.is_redo());
        assert!(!LogRecordKind::Checkpoint.is_redo());
    }

    #[test]
    fn kind_roundtrips_through_u8() {
        for kind in [
            LogRecordKind::Insert,
            LogRecordKind::Update,
            LogRecordKind::Delete,
            LogRecordKind::Smo,
            LogRecordKind::Commit,
            LogRecordKind::Abort,
            LogRecordKind::Repartition,
            LogRecordKind::Checkpoint,
        ] {
            assert_eq!(LogRecordKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(LogRecordKind::from_u8(0), None);
        assert_eq!(LogRecordKind::from_u8(9), None);
    }

    #[test]
    fn update_payload_roundtrip() {
        let enc = UpdatePayload::encode(b"before", b"afterimage");
        let dec = UpdatePayload::decode(&enc).unwrap();
        assert_eq!(dec.before, b"before");
        assert_eq!(dec.after, b"afterimage");
        assert!(UpdatePayload::decode(&[1, 2]).is_none());
    }

    #[test]
    fn repartition_payload_roundtrip() {
        let p = RepartitionPayload {
            table: 3,
            bounds: vec![0, 100, 200, 300],
        };
        assert_eq!(RepartitionPayload::decode(&p.encode()), Some(p));
        assert!(RepartitionPayload::decode(&[0]).is_none());
    }

    #[test]
    fn checkpoint_roundtrip() {
        let c = CheckpointData {
            active_txns: vec![5, 9],
            next_txn_id: 42,
            partitions: 4,
            table_bounds: vec![(0, vec![0, 50]), (1, vec![0, 800])],
            allocated_pages: 123,
        };
        assert_eq!(CheckpointData::decode(&c.encode()), Some(c.clone()));
        let rec = c.clone().into_record();
        assert_eq!(rec.kind, LogRecordKind::Checkpoint);
        assert_eq!(CheckpointData::decode(rec.payload()), Some(c));
        assert!(CheckpointData::decode(&[9, 9]).is_none());
    }
}
