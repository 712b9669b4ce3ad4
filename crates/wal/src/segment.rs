//! On-disk framing of the segmented log: segment headers, record
//! encoding/decoding and the CRC32 used to detect torn or corrupt records.
//!
//! # Layout
//!
//! A log directory holds segment files named `wal-<base_lsn:016x>.seg`.
//! Each segment starts with a 32-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     segment magic ("PLPWAL01")
//! 8       4     format version (1)
//! 12      4     reserved (0)
//! 16      8     base LSN of the first record in the segment
//! 24      8     reserved (0)
//! ```
//!
//! Records follow back to back.  A record with LSN `L` in a segment with
//! base `B` starts at file offset `SEGMENT_HEADER_BYTES + (L - B)`; the LSN
//! space is contiguous across segments (segments are rolled exactly at
//! record boundaries), so LSN arithmetic and file offsets never diverge.
//!
//! Each record is a 48-byte header followed by `payload_len` payload bytes:
//!
//! ```text
//! offset  size  field
//! 0       2     record magic (0x5052, "PR")
//! 2       1     kind (LogRecordKind discriminant)
//! 3       1     flags (bit 0: has secondary key, bit 1: synthetic payload)
//! 4       4     table id
//! 8       8     LSN
//! 16      8     transaction id
//! 24      8     primary key / page
//! 32      8     secondary key (0 unless flag bit 0)
//! 40      4     payload length
//! 44      4     CRC32 (IEEE) over bytes 0..44 and the payload bytes
//! ```
//!
//! Synthetic records (declared payload length, no captured bytes) are
//! zero-filled on disk so framing and CRCs stay uniform; the flag bit lets
//! recovery skip them.

use crate::record::{
    LogRecord, LogRecordKind, Lsn, FLAG_HAS_SECONDARY, FLAG_SYNTHETIC, LOG_RECORD_HEADER_BYTES,
};

/// Magic at the start of every segment file: "PLPWAL01".
const SEGMENT_MAGIC: u64 = u64::from_le_bytes(*b"PLPWAL01");
/// On-disk format version.
const SEGMENT_VERSION: u32 = 1;
/// Size of the segment header.
pub const SEGMENT_HEADER_BYTES: usize = 32;
/// Magic at the start of every record header ("PR").
const RECORD_MAGIC: u16 = 0x5052;

/// Default segment roll target (new segment once the current one exceeds it).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// File name of the segment whose first record has `base` as its LSN.
pub fn segment_file_name(base: Lsn) -> String {
    format!("wal-{:016x}.seg", base.0)
}

/// CRC32 (IEEE 802.3, reflected), table-driven.  Vendored because the build
/// environment has no crates.io access.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Serialize a segment header.
pub fn encode_segment_header(base: Lsn) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES];
    h[0..8].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    h[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[16..24].copy_from_slice(&base.0.to_le_bytes());
    h
}

/// Parse a segment header, returning its base LSN.
pub fn decode_segment_header(h: &[u8]) -> Option<Lsn> {
    if h.len() < SEGMENT_HEADER_BYTES {
        return None;
    }
    if u64::from_le_bytes(h[0..8].try_into().ok()?) != SEGMENT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(h[8..12].try_into().ok()?) != SEGMENT_VERSION {
        return None;
    }
    Some(Lsn(u64::from_le_bytes(h[16..24].try_into().ok()?)))
}

/// Serialize one record (header + payload, zero-padded for synthetic
/// records) into `out`.  The record's LSN must already be assigned.
pub fn encode_record(record: &LogRecord, out: &mut Vec<u8>) {
    let payload_len = record.payload_len() as usize;
    let start = out.len();
    out.reserve(LOG_RECORD_HEADER_BYTES + payload_len);
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.push(record.kind as u8);
    out.push(record.flags());
    out.extend_from_slice(&record.table.to_le_bytes());
    out.extend_from_slice(&record.lsn.0.to_le_bytes());
    out.extend_from_slice(&record.txn_id.to_le_bytes());
    out.extend_from_slice(&record.page.to_le_bytes());
    out.extend_from_slice(&record.secondary.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    // CRC placeholder; filled below once header + payload are in place.
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(record.payload());
    // Synthetic payloads are declared-length only: zero-fill them on disk.
    out.resize(start + LOG_RECORD_HEADER_BYTES + payload_len, 0);
    let crc = {
        let body = &out[start..];
        let mut acc = Vec::with_capacity(44 + payload_len);
        acc.extend_from_slice(&body[..44]);
        acc.extend_from_slice(&body[LOG_RECORD_HEADER_BYTES..]);
        crc32(&acc)
    };
    out[start + 44..start + 48].copy_from_slice(&crc.to_le_bytes());
}

/// Why decoding a record stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a full header+payload — the classic torn tail.
    Truncated,
    /// Bad magic, unknown kind, CRC mismatch or an LSN that does not match
    /// the record's position in the stream.
    Corrupt,
}

/// Decode the record starting at `buf[0]`, whose position implies it should
/// carry `expected_lsn`.  Returns the record and its total on-disk size.
pub fn decode_record(buf: &[u8], expected_lsn: Lsn) -> Result<(LogRecord, usize), DecodeError> {
    if buf.len() < LOG_RECORD_HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let header = &buf[..LOG_RECORD_HEADER_BYTES];
    if u16::from_le_bytes(header[0..2].try_into().unwrap()) != RECORD_MAGIC {
        return Err(DecodeError::Corrupt);
    }
    let kind = LogRecordKind::from_u8(header[2]).ok_or(DecodeError::Corrupt)?;
    let flags = header[3];
    let table = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let lsn = Lsn(u64::from_le_bytes(header[8..16].try_into().unwrap()));
    let txn_id = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let page = u64::from_le_bytes(header[24..32].try_into().unwrap());
    let secondary_raw = u64::from_le_bytes(header[32..40].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[40..44].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(header[44..48].try_into().unwrap());
    if lsn != expected_lsn {
        return Err(DecodeError::Corrupt);
    }
    let total = LOG_RECORD_HEADER_BYTES + payload_len;
    if buf.len() < total {
        return Err(DecodeError::Truncated);
    }
    let payload_bytes = &buf[LOG_RECORD_HEADER_BYTES..total];
    let crc = {
        let mut acc = Vec::with_capacity(44 + payload_len);
        acc.extend_from_slice(&header[..44]);
        acc.extend_from_slice(payload_bytes);
        crc32(&acc)
    };
    if crc != stored_crc {
        return Err(DecodeError::Corrupt);
    }
    let synthetic = flags & FLAG_SYNTHETIC != 0;
    let mut record = if synthetic {
        LogRecord::new(txn_id, kind, page, payload_len as u32)
    } else {
        LogRecord::with_payload(
            txn_id,
            kind,
            table,
            page,
            (flags & FLAG_HAS_SECONDARY != 0).then_some(secondary_raw),
            payload_bytes.to_vec(),
        )
    };
    record.lsn = lsn;
    record.table = table;
    if flags & FLAG_HAS_SECONDARY != 0 {
        record.secondary = Some(secondary_raw);
    }
    Ok((record, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 is the canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn segment_header_roundtrip() {
        let h = encode_segment_header(Lsn(777));
        assert_eq!(decode_segment_header(&h), Some(Lsn(777)));
        let mut bad = h;
        bad[0] ^= 0xFF;
        assert_eq!(decode_segment_header(&bad), None);
        assert_eq!(decode_segment_header(&h[..10]), None);
    }

    #[test]
    fn record_roundtrip_with_payload() {
        let mut r = LogRecord::with_payload(
            7,
            LogRecordKind::Insert,
            3,
            42,
            Some(1042),
            vec![9, 8, 7, 6, 5],
        );
        r.lsn = Lsn(100);
        let mut buf = Vec::new();
        encode_record(&r, &mut buf);
        assert_eq!(buf.len() as u64, r.size_bytes());
        let (decoded, consumed) = decode_record(&buf, Lsn(100)).unwrap();
        assert_eq!(consumed as u64, r.size_bytes());
        assert_eq!(decoded, r);
    }

    #[test]
    fn synthetic_record_roundtrip_zero_fills() {
        let mut r = LogRecord::new(1, LogRecordKind::Update, 5, 32);
        r.lsn = Lsn(1);
        let mut buf = Vec::new();
        encode_record(&r, &mut buf);
        assert_eq!(buf.len(), LOG_RECORD_HEADER_BYTES + 32);
        assert!(buf[LOG_RECORD_HEADER_BYTES..].iter().all(|&b| b == 0));
        let (decoded, _) = decode_record(&buf, Lsn(1)).unwrap();
        assert!(decoded.is_synthetic());
        assert_eq!(decoded.payload_len(), 32);
    }

    #[test]
    fn decode_rejects_torn_and_corrupt() {
        let mut r = LogRecord::with_payload(1, LogRecordKind::Update, 0, 2, None, vec![1; 16]);
        r.lsn = Lsn(50);
        let mut buf = Vec::new();
        encode_record(&r, &mut buf);
        // Torn header.
        assert_eq!(
            decode_record(&buf[..20], Lsn(50)).unwrap_err(),
            DecodeError::Truncated
        );
        // Torn payload.
        assert_eq!(
            decode_record(&buf[..buf.len() - 1], Lsn(50)).unwrap_err(),
            DecodeError::Truncated
        );
        // Flipped payload byte fails the CRC.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            decode_record(&bad, Lsn(50)).unwrap_err(),
            DecodeError::Corrupt
        );
        // Wrong position.
        assert_eq!(
            decode_record(&buf, Lsn(51)).unwrap_err(),
            DecodeError::Corrupt
        );
        // Intact record still parses.
        assert!(decode_record(&buf, Lsn(50)).is_ok());
    }

    #[test]
    fn file_names_sort_by_base_lsn() {
        let mut names = vec![
            segment_file_name(Lsn(0x1000)),
            segment_file_name(Lsn(1)),
            segment_file_name(Lsn(0x20)),
        ];
        names.sort();
        assert_eq!(
            names,
            vec![
                segment_file_name(Lsn(1)),
                segment_file_name(Lsn(0x20)),
                segment_file_name(Lsn(0x1000)),
            ]
        );
    }
}
