//! The framed binary wire protocol.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  len          remainder length (everything after this field)
//!      4     4  magic        0x504C5031 ("PLP1", little-endian on the wire)
//!      8     1  version      protocol version, currently 1
//!      9     1  opcode       see [`OpCode`]
//!     10     2  flags        op-specific (error code on ResponseErr)
//!     12     8  request_id   echoed verbatim in the matching response
//!     20     4  table_id
//!     24     8  key          primary key / range lo
//!     32     8  key2         secondary key / range hi
//!     40     4  payload_len  must equal len - 44
//!     44     …  payload      record bytes / encoded outputs / error message
//!      …     4  crc          CRC-32 (IEEE) over magic..payload
//! ```
//!
//! All integers are little-endian.  The CRC reuses the WAL's vendored IEEE
//! table ([`plp_wal::segment::crc32`]), so a frame is protected the same way
//! a log record is.
//!
//! Decode errors split into two classes.  *Soft* errors ([`SoftError`]) —
//! bad magic, wrong version, CRC mismatch, inconsistent lengths, oversized
//! frames — are resynchronizable because the length prefix still tells the
//! reader where the next frame starts; the server answers with a
//! [`BadRequest`](ErrorCode::BadRequest) error response (carrying the
//! frame's request id when one could be salvaged) and keeps the connection.
//! *Hard* errors — torn frames, mid-frame EOF, I/O failures — close it.

use std::io::{self, Read};

use plp_core::{ActionOutput, ErrorCode, Op, Response, TableId};
use plp_wal::segment::crc32;

/// `"PLP1"` interpreted as a little-endian u32.
const MAGIC: u32 = 0x504C_5031;
/// The only protocol version this build speaks.
const PROTOCOL_VERSION: u8 = 1;
/// Fixed header bytes after the length prefix (magic..payload_len).
const HEADER_LEN: usize = 40;
/// Smallest valid `len` value: header + trailing CRC, zero payload.
pub const MIN_REMAINDER: usize = HEADER_LEN + 4;
/// Largest `len` a peer may send.  Larger frames are skipped (streaming, so
/// a hostile length cannot balloon memory) and rejected softly.
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Frame opcodes.  Requests are 0–15, responses 16–31; codes are wire-stable
/// and may only be appended (see the `opcodes_are_pinned` test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Connection handshake; the server replies with [`OpCode::HelloAck`].
    Hello = 0,
    Get = 1,
    Insert = 2,
    Update = 3,
    Delete = 4,
    ReadRange = 5,
    /// Successful response; payload holds the encoded outputs.
    ResponseOk = 16,
    /// Failed response; `flags` holds the [`ErrorCode`], payload the message.
    ResponseErr = 17,
    /// Handshake reply; `key` echoes the protocol version.
    HelloAck = 18,
}

impl OpCode {
    pub fn from_u8(code: u8) -> Option<OpCode> {
        Some(match code {
            0 => OpCode::Hello,
            1 => OpCode::Get,
            2 => OpCode::Insert,
            3 => OpCode::Update,
            4 => OpCode::Delete,
            5 => OpCode::ReadRange,
            16 => OpCode::ResponseOk,
            17 => OpCode::ResponseErr,
            18 => OpCode::HelloAck,
            _ => return None,
        })
    }
}

/// `flags` bit: `key2` carries a secondary-index key (Insert/Delete).
pub const FLAG_HAS_SECONDARY: u16 = 1;

/// One decoded frame.  `opcode` stays a raw `u8` so unknown opcodes survive
/// decoding and can be rejected with an error *response* instead of a
/// connection drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub opcode: u8,
    pub flags: u16,
    pub request_id: u64,
    pub table_id: u32,
    pub key: u64,
    pub key2: u64,
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encode to wire bytes (length prefix through CRC).
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = self.payload.len() as u32;
        let remainder = (MIN_REMAINDER + self.payload.len()) as u32;
        let mut buf = Vec::with_capacity(4 + remainder as usize);
        buf.extend_from_slice(&remainder.to_le_bytes());
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(PROTOCOL_VERSION);
        buf.push(self.opcode);
        buf.extend_from_slice(&self.flags.to_le_bytes());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.table_id.to_le_bytes());
        buf.extend_from_slice(&self.key.to_le_bytes());
        buf.extend_from_slice(&self.key2.to_le_bytes());
        buf.extend_from_slice(&payload_len.to_le_bytes());
        buf.extend_from_slice(&self.payload);
        let crc = crc32(&buf[4..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Build the request frame for one declarative op.
    pub fn request(request_id: u64, op: &Op) -> Frame {
        let mut f = Frame {
            opcode: 0,
            flags: 0,
            request_id,
            table_id: op.table().0,
            key: op.routing_key(),
            key2: 0,
            payload: Vec::new(),
        };
        match *op {
            Op::Get { .. } => f.opcode = OpCode::Get as u8,
            Op::Insert {
                ref record,
                secondary_key,
                ..
            } => {
                f.opcode = OpCode::Insert as u8;
                f.payload = record.clone();
                if let Some(sk) = secondary_key {
                    f.flags |= FLAG_HAS_SECONDARY;
                    f.key2 = sk;
                }
            }
            Op::Update { ref record, .. } => {
                f.opcode = OpCode::Update as u8;
                f.payload = record.clone();
            }
            Op::Delete { secondary_key, .. } => {
                f.opcode = OpCode::Delete as u8;
                if let Some(sk) = secondary_key {
                    f.flags |= FLAG_HAS_SECONDARY;
                    f.key2 = sk;
                }
            }
            Op::ReadRange { hi, .. } => {
                f.opcode = OpCode::ReadRange as u8;
                f.key2 = hi;
            }
        }
        f
    }

    /// The handshake frame a client opens with.
    pub fn hello(request_id: u64) -> Frame {
        Frame {
            opcode: OpCode::Hello as u8,
            flags: 0,
            request_id,
            table_id: 0,
            key: u64::from(PROTOCOL_VERSION),
            key2: 0,
            payload: Vec::new(),
        }
    }

    /// The server's handshake reply.
    pub fn hello_ack(request_id: u64) -> Frame {
        Frame {
            opcode: OpCode::HelloAck as u8,
            flags: 0,
            request_id,
            table_id: 0,
            key: u64::from(PROTOCOL_VERSION),
            key2: 0,
            payload: Vec::new(),
        }
    }

    /// Build a success response carrying `outputs`.
    pub fn response_ok(request_id: u64, outputs: &[ActionOutput]) -> Frame {
        Frame {
            opcode: OpCode::ResponseOk as u8,
            flags: 0,
            request_id,
            table_id: 0,
            key: 0,
            key2: 0,
            payload: encode_outputs(outputs),
        }
    }

    /// Build an error response; the code travels in `flags`.
    pub fn response_err(request_id: u64, code: ErrorCode, message: &str) -> Frame {
        Frame {
            opcode: OpCode::ResponseErr as u8,
            flags: code.code(),
            request_id,
            table_id: 0,
            key: 0,
            key2: 0,
            payload: message.as_bytes().to_vec(),
        }
    }

    /// Interpret a request frame as a declarative op.  `Err` names the
    /// defect; the server maps it to a [`BadRequest`](ErrorCode::BadRequest)
    /// response.
    pub fn to_op(&self) -> Result<Op, String> {
        let table = TableId(self.table_id);
        let secondary = (self.flags & FLAG_HAS_SECONDARY != 0).then_some(self.key2);
        match OpCode::from_u8(self.opcode) {
            Some(OpCode::Get) => Ok(Op::Get {
                table,
                key: self.key,
            }),
            Some(OpCode::Insert) => Ok(Op::Insert {
                table,
                key: self.key,
                record: self.payload.clone(),
                secondary_key: secondary,
            }),
            Some(OpCode::Update) => Ok(Op::Update {
                table,
                key: self.key,
                record: self.payload.clone(),
            }),
            Some(OpCode::Delete) => Ok(Op::Delete {
                table,
                key: self.key,
                secondary_key: secondary,
            }),
            Some(OpCode::ReadRange) => Ok(Op::ReadRange {
                table,
                lo: self.key,
                hi: self.key2,
            }),
            Some(other) => Err(format!("opcode {other:?} is not a request")),
            None => Err(format!("unknown opcode {}", self.opcode)),
        }
    }

    /// Interpret a response frame.  `Err` means the frame is not a
    /// well-formed response (a protocol violation the client surfaces).
    pub fn to_response(&self) -> Result<Response, String> {
        match OpCode::from_u8(self.opcode) {
            Some(OpCode::ResponseOk) => decode_outputs(&self.payload)
                .map(Response::Ok)
                .ok_or_else(|| "undecodable outputs payload".to_string()),
            Some(OpCode::ResponseErr) => {
                let code = ErrorCode::from_code(self.flags)
                    .ok_or_else(|| format!("unknown error code {}", self.flags))?;
                Ok(Response::err(
                    code,
                    String::from_utf8_lossy(&self.payload).into_owned(),
                ))
            }
            other => Err(format!("opcode {other:?} is not a response")),
        }
    }
}

/// Why a frame was rejected without closing the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftError {
    /// `len` below the fixed header + CRC size.
    TooShort(u32),
    /// `len` above `MAX_FRAME`; the body was skipped without buffering.
    TooLarge(u32),
    BadMagic,
    BadVersion(u8),
    BadCrc,
    /// `payload_len` disagrees with the frame length.
    LengthMismatch {
        declared: u32,
        actual: u32,
    },
}

impl std::fmt::Display for SoftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SoftError::TooShort(len) => write!(f, "frame length {len} below minimum"),
            SoftError::TooLarge(len) => write!(f, "frame length {len} above maximum"),
            SoftError::BadMagic => write!(f, "bad magic"),
            SoftError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            SoftError::BadCrc => write!(f, "crc mismatch"),
            SoftError::LengthMismatch { declared, actual } => {
                write!(f, "payload length {declared} != {actual} implied by frame")
            }
        }
    }
}

/// Result of reading one frame off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    Frame(Frame),
    /// Malformed but resynchronized: answer with an error response (matched
    /// to `request_id` when the corrupt frame still yielded one) and read on.
    Rejected {
        request_id: Option<u64>,
        reason: SoftError,
        /// Wire bytes consumed skipping past the bad frame.
        consumed: u64,
    },
    /// Clean EOF at a frame boundary.
    Closed,
}

/// Read one frame.  `Err` is connection-fatal (torn frame, I/O failure);
/// soft decode errors come back as [`ReadOutcome::Rejected`] after the
/// reader has resynchronized on the declared frame length.
pub fn read_frame(r: &mut impl Read) -> io::Result<ReadOutcome> {
    // The first byte distinguishes a clean close from a torn frame.
    let mut len_buf = [0u8; 4];
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf);
    if len as usize > MAX_FRAME {
        skip(r, u64::from(len))?;
        return Ok(ReadOutcome::Rejected {
            request_id: None,
            reason: SoftError::TooLarge(len),
            consumed: 4 + u64::from(len),
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let request_id = salvage_request_id(&body);
    let consumed = 4 + u64::from(len);
    if (len as usize) < MIN_REMAINDER {
        return Ok(ReadOutcome::Rejected {
            request_id,
            reason: SoftError::TooShort(len),
            consumed,
        });
    }
    let crc_off = body.len() - 4;
    let expect = u32::from_le_bytes(body[crc_off..].try_into().unwrap());
    if crc32(&body[..crc_off]) != expect {
        return Ok(ReadOutcome::Rejected {
            request_id,
            reason: SoftError::BadCrc,
            consumed,
        });
    }
    if u32::from_le_bytes(body[0..4].try_into().unwrap()) != MAGIC {
        return Ok(ReadOutcome::Rejected {
            request_id,
            reason: SoftError::BadMagic,
            consumed,
        });
    }
    if body[4] != PROTOCOL_VERSION {
        return Ok(ReadOutcome::Rejected {
            request_id,
            reason: SoftError::BadVersion(body[4]),
            consumed,
        });
    }
    let declared = u32::from_le_bytes(body[36..40].try_into().unwrap());
    let actual = (len as usize - MIN_REMAINDER) as u32;
    if declared != actual {
        return Ok(ReadOutcome::Rejected {
            request_id,
            reason: SoftError::LengthMismatch { declared, actual },
            consumed,
        });
    }
    Ok(ReadOutcome::Frame(Frame {
        opcode: body[5],
        flags: u16::from_le_bytes(body[6..8].try_into().unwrap()),
        request_id: u64::from_le_bytes(body[8..16].try_into().unwrap()),
        table_id: u32::from_le_bytes(body[16..20].try_into().unwrap()),
        key: u64::from_le_bytes(body[20..28].try_into().unwrap()),
        key2: u64::from_le_bytes(body[28..36].try_into().unwrap()),
        payload: body[HEADER_LEN..crc_off].to_vec(),
    }))
}

/// Whether `buf` begins with one whole frame (length prefix included), so a
/// [`read_frame`] over a reader holding `buf` would not block on the socket.
/// A frame over [`MAX_FRAME`] counts only once all of it is there, because
/// [`read_frame`] skips it whole.
pub(crate) fn frame_is_buffered(buf: &[u8]) -> bool {
    buf.get(..4).is_some_and(|len| {
        let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        buf.len() - 4 >= len
    })
}

/// Best-effort request id from a frame that failed validation, so the error
/// response can still be matched to the request.  Garbage when the
/// corruption hit the header itself — the id is advisory, never trusted.
fn salvage_request_id(body: &[u8]) -> Option<u64> {
    body.get(8..16)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

/// Discard exactly `n` bytes without buffering them.
fn skip(r: &mut impl Read, n: u64) -> io::Result<()> {
    let copied = io::copy(&mut r.take(n), &mut io::sink())?;
    if copied == n {
        Ok(())
    } else {
        Err(io::ErrorKind::UnexpectedEof.into())
    }
}

/// Encode a response's per-op outputs: `u32` count, then per output a `u32`
/// value count + `u64` values and a `u32` row count + (`u32` length, bytes)
/// rows.
fn encode_outputs(outputs: &[ActionOutput]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(outputs.len() as u32).to_le_bytes());
    for out in outputs {
        buf.extend_from_slice(&(out.values.len() as u32).to_le_bytes());
        for v in &out.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&(out.rows.len() as u32).to_le_bytes());
        for row in &out.rows {
            buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
            buf.extend_from_slice(row);
        }
    }
    buf
}

/// Inverse of [`encode_outputs`]; `None` on any truncation or trailing junk.
fn decode_outputs(bytes: &[u8]) -> Option<Vec<ActionOutput>> {
    let mut cur = bytes;
    let n = take_u32(&mut cur)?;
    let mut outputs = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        let mut out = ActionOutput::empty();
        for _ in 0..take_u32(&mut cur)? {
            out.values.push(take_u64(&mut cur)?);
        }
        for _ in 0..take_u32(&mut cur)? {
            let len = take_u32(&mut cur)? as usize;
            if cur.len() < len {
                return None;
            }
            let (row, rest) = cur.split_at(len);
            out.rows.push(row.to_vec());
            cur = rest;
        }
        outputs.push(out);
    }
    cur.is_empty().then_some(outputs)
}

fn take_u32(cur: &mut &[u8]) -> Option<u32> {
    let (head, rest) = cur.split_at_checked(4)?;
    *cur = rest;
    Some(u32::from_le_bytes(head.try_into().unwrap()))
}

fn take_u64(cur: &mut &[u8]) -> Option<u64> {
    let (head, rest) = cur.split_at_checked(8)?;
    *cur = rest;
    Some(u64::from_le_bytes(head.try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn decode_one(bytes: &[u8]) -> ReadOutcome {
        read_frame(&mut Cursor::new(bytes)).expect("no hard error")
    }

    #[test]
    fn opcodes_are_pinned() {
        let pinned: [(OpCode, u8); 9] = [
            (OpCode::Hello, 0),
            (OpCode::Get, 1),
            (OpCode::Insert, 2),
            (OpCode::Update, 3),
            (OpCode::Delete, 4),
            (OpCode::ReadRange, 5),
            (OpCode::ResponseOk, 16),
            (OpCode::ResponseErr, 17),
            (OpCode::HelloAck, 18),
        ];
        for (op, wire) in pinned {
            assert_eq!(op as u8, wire, "{op:?} renumbered");
            assert_eq!(OpCode::from_u8(wire), Some(op));
        }
        assert_eq!(OpCode::from_u8(6), None);
        assert_eq!(OpCode::from_u8(255), None);
    }

    #[test]
    fn ops_round_trip_through_frames() {
        let ops = [
            Op::Get {
                table: TableId(1),
                key: 7,
            },
            Op::Insert {
                table: TableId(2),
                key: 8,
                record: vec![1, 2, 3],
                secondary_key: Some(99),
            },
            Op::Insert {
                table: TableId(2),
                key: 8,
                record: vec![],
                secondary_key: None,
            },
            Op::Update {
                table: TableId(3),
                key: 9,
                record: vec![0xAB; 100],
            },
            Op::Delete {
                table: TableId(4),
                key: 10,
                secondary_key: Some(0),
            },
            Op::ReadRange {
                table: TableId(5),
                lo: 32,
                hi: 63,
            },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let frame = Frame::request(i as u64, &op);
            match decode_one(&frame.encode()) {
                ReadOutcome::Frame(f) => {
                    assert_eq!(f, frame);
                    assert_eq!(f.request_id, i as u64);
                    assert_eq!(f.to_op().unwrap(), op);
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let outputs = vec![
            ActionOutput::with_rows(vec![vec![1, 2], vec![]]),
            ActionOutput::with_values(vec![u64::MAX, 0]),
            ActionOutput::empty(),
        ];
        let ok = Frame::response_ok(42, &outputs);
        match decode_one(&ok.encode()) {
            ReadOutcome::Frame(f) => {
                assert_eq!(f.to_response().unwrap(), Response::Ok(outputs));
            }
            other => panic!("{other:?}"),
        }
        for code in ErrorCode::ALL {
            let err = Frame::response_err(7, code, "nope");
            match decode_one(&err.encode()) {
                ReadOutcome::Frame(f) => {
                    assert_eq!(f.to_response().unwrap(), Response::err(code, "nope"));
                }
                other => panic!("{other:?}"),
            }
        }
        // A request frame is not a response, and vice versa.
        assert!(Frame::hello(1).to_response().is_err());
        assert!(ok.to_op().is_err());
    }

    #[test]
    fn frame_is_buffered_only_once_the_whole_frame_is() {
        let one = Frame::hello(1).encode();
        let mut two = one.clone();
        two.extend_from_slice(&Frame::hello(2).encode());
        assert!(!frame_is_buffered(&[]));
        assert!(!frame_is_buffered(&one[..3]));
        assert!(!frame_is_buffered(&one[..one.len() - 1]));
        assert!(frame_is_buffered(&one));
        assert!(frame_is_buffered(&two[..one.len() + 1]));
        assert!(!frame_is_buffered(&two[one.len()..two.len() - 1]));
        // An oversized length is buffered only when all its bytes are.
        assert!(!frame_is_buffered(&u32::MAX.to_le_bytes()));
    }

    #[test]
    fn empty_stream_is_a_clean_close_and_torn_frames_are_hard_errors() {
        assert!(matches!(decode_one(&[]), ReadOutcome::Closed));
        let full = Frame::hello(3).encode();
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(&full[..cut]))
                .expect_err("truncated frame must be fatal");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    /// Each soft rejection consumes exactly its frame: a good frame queued
    /// behind it still decodes (the resync property the server relies on).
    fn assert_soft_then_resync(bad: Vec<u8>, expect: SoftError, expect_id: Option<u64>) {
        let good = Frame::request(
            77,
            &Op::Get {
                table: TableId(1),
                key: 5,
            },
        );
        let mut stream = bad;
        stream.extend_from_slice(&good.encode());
        let mut cur = Cursor::new(stream);
        match read_frame(&mut cur).unwrap() {
            ReadOutcome::Rejected {
                request_id,
                reason,
                consumed,
            } => {
                assert_eq!(reason, expect);
                assert_eq!(request_id, expect_id);
                assert!(
                    consumed >= MIN_REMAINDER as u64 || matches!(reason, SoftError::TooShort(_))
                );
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        match read_frame(&mut cur).unwrap() {
            ReadOutcome::Frame(f) => assert_eq!(f, good),
            other => panic!("lost resync: {other:?}"),
        }
    }

    #[test]
    fn bad_crc_is_soft_and_preserves_request_id() {
        let mut bytes = Frame::request(
            1234,
            &Op::Get {
                table: TableId(0),
                key: 1,
            },
        )
        .encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_soft_then_resync(bytes, SoftError::BadCrc, Some(1234));
    }

    #[test]
    fn bad_magic_and_bad_version_are_soft() {
        let mut bytes = Frame::hello(9).encode();
        bytes[4] ^= 0xFF; // corrupt magic
        let crc_off = bytes.len() - 4;
        let crc = crc32(&bytes[4..crc_off]).to_le_bytes();
        bytes[crc_off..].copy_from_slice(&crc);
        assert_soft_then_resync(bytes, SoftError::BadMagic, Some(9));

        let mut bytes = Frame::hello(9).encode();
        bytes[8] = 200; // future version
        let crc_off = bytes.len() - 4;
        let crc = crc32(&bytes[4..crc_off]).to_le_bytes();
        bytes[crc_off..].copy_from_slice(&crc);
        assert_soft_then_resync(bytes, SoftError::BadVersion(200), Some(9));
    }

    #[test]
    fn short_long_and_inconsistent_frames_are_soft() {
        // len says 10: not even a header, but the 10 bytes are consumed.
        let mut short = 10u32.to_le_bytes().to_vec();
        short.extend_from_slice(&[0u8; 10]);
        assert_soft_then_resync(short, SoftError::TooShort(10), None);

        // len above MAX_FRAME: the body is skipped in a stream, not buffered.
        let huge_len = (MAX_FRAME + 1) as u32;
        let mut huge = huge_len.to_le_bytes().to_vec();
        huge.extend(std::iter::repeat_n(0u8, huge_len as usize));
        assert_soft_then_resync(huge, SoftError::TooLarge(huge_len), None);

        // payload_len disagrees with the frame length.
        let mut bytes = Frame::hello(5).encode();
        bytes[4 + 36] = 7;
        let crc_off = bytes.len() - 4;
        let crc = crc32(&bytes[4..crc_off]).to_le_bytes();
        bytes[crc_off..].copy_from_slice(&crc);
        assert_soft_then_resync(
            bytes,
            SoftError::LengthMismatch {
                declared: 7,
                actual: 0,
            },
            Some(5),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_frames_round_trip(
            opcode in 0u8..=255,
            flags in 0u16..=u16::MAX,
            request_id in 0u64..=u64::MAX,
            table_id in 0u32..=u32::MAX,
            key in 0u64..=u64::MAX,
            key2 in 0u64..=u64::MAX,
            payload in prop::collection::vec(0u8..=255, 0..600),
        ) {
            let frame = Frame { opcode, flags, request_id, table_id, key, key2, payload };
            let bytes = frame.encode();
            prop_assert_eq!(bytes.len(), 48 + frame.payload.len());
            match read_frame(&mut Cursor::new(&bytes)).unwrap() {
                ReadOutcome::Frame(f) => prop_assert_eq!(f, frame),
                other => panic!("expected frame back, got {other:?}"),
            }
        }

        #[test]
        fn arbitrary_outputs_round_trip(
            spec in prop::collection::vec(
                (prop::collection::vec(0u64..=u64::MAX, 0..6),
                 prop::collection::vec(prop::collection::vec(0u8..=255, 0..40), 0..5)),
                0..5,
            ),
        ) {
            let outputs: Vec<ActionOutput> = spec
                .into_iter()
                .map(|(values, rows)| {
                    let mut out = ActionOutput::with_values(values);
                    out.rows = rows;
                    out
                })
                .collect();
            let bytes = encode_outputs(&outputs);
            prop_assert_eq!(decode_outputs(&bytes), Some(outputs));
        }

        #[test]
        fn single_bit_corruption_never_yields_a_wrong_frame(
            request_id in 0u64..=u64::MAX,
            key in 0u64..=u64::MAX,
            bit in 0usize..48 * 8,
        ) {
            // Flip one bit anywhere in an encoded frame: the reader must
            // either reject it or (when the flip hits the length prefix)
            // fail hard — it may never hand back a frame that differs from
            // what was sent.
            let frame = Frame::request(request_id, &Op::Get { table: TableId(3), key });
            let mut bytes = frame.encode();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match read_frame(&mut Cursor::new(&bytes)) {
                Ok(ReadOutcome::Frame(f)) => prop_assert_eq!(f, frame),
                Ok(ReadOutcome::Rejected { .. }) | Ok(ReadOutcome::Closed) | Err(_) => {}
            }
        }
    }
}
