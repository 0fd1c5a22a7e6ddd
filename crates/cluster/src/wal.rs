//! Write-ahead log for the KV tier (the durability half of §III-E's
//! "data partitions stored on disk").
//!
//! Every successful mutation of a [`crate::KvStore`] running in
//! [`crate::kvstore::Durability::Wal`] mode appends one logical operation
//! to the log before the mutation is acknowledged. A log is a sequence of
//! framed records:
//!
//! ```text
//! [u32 len LE][u32 crc32 LE][payload]
//! payload: u8 op_tag, u32 key_len, key bytes, then per op:
//!   0 = SET:         u32 val_len, value bytes
//!   1 = RPUSH:       u32 val_len, value bytes
//!   2 = INCR:        (nothing)
//!   3 = SETCOUNTER:  i64 LE
//!   4 = DEL:         (nothing)
//! ```
//!
//! The CRC32 (IEEE polynomial, the zlib/Ethernet one) covers the payload
//! only; the length prefix lets replay skip to the next frame and detect a
//! *torn tail* — an incomplete final record from a crash mid-write — which
//! is tolerated and reported, while a checksum mismatch on a *complete*
//! record is hard corruption and fails the replay. Segments rotate once
//! the active segment exceeds a size threshold; [`Wal::truncate`] (called
//! by checkpoint compaction) drops all of them at once.
//!
//! Replay is deterministic: the same byte stream always yields the same
//! operation sequence, so `recover(snapshot, wal)` reproduces a
//! bit-identical store (see `tests/tests/durability.rs`).

use bytes::Bytes;

/// Labels for the five loggable operations, indexed by wire tag. Shared
/// by [`WalStats`] and the `pareto_wal_records_total{op}` counter.
pub const WAL_OP_LABELS: [&str; 5] = ["set", "rpush", "incr", "set_counter", "del"];

/// Segment-rotation threshold (bytes of framed records).
pub const DEFAULT_SEGMENT_BYTES: usize = 64 * 1024;

/// One logical, replayable store mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `SET key value`.
    Set {
        /// Target key.
        key: String,
        /// The byte value written.
        value: Bytes,
    },
    /// `RPUSH key value`.
    RPush {
        /// Target key.
        key: String,
        /// The appended element.
        value: Bytes,
    },
    /// `INCR key` (the barrier primitive).
    Incr {
        /// Target key.
        key: String,
    },
    /// Absolute counter write (snapshot-restore path).
    SetCounter {
        /// Target key.
        key: String,
        /// The value assigned.
        value: i64,
    },
    /// `DEL key` (logged only when the key existed).
    Del {
        /// Target key.
        key: String,
    },
}

impl WalOp {
    /// Wire tag (index into [`WAL_OP_LABELS`]).
    fn tag(&self) -> u8 {
        match self {
            WalOp::Set { .. } => 0,
            WalOp::RPush { .. } => 1,
            WalOp::Incr { .. } => 2,
            WalOp::SetCounter { .. } => 3,
            WalOp::Del { .. } => 4,
        }
    }

    /// Human/metric label for this operation kind.
    pub fn label(&self) -> &'static str {
        WAL_OP_LABELS[self.tag() as usize]
    }

    /// Encode the record payload (everything the CRC covers).
    fn encode_payload(&self) -> Vec<u8> {
        let (key, extra) = match self {
            WalOp::Set { key, value } | WalOp::RPush { key, value } => (key, 4 + value.len()),
            WalOp::SetCounter { key, .. } => (key, 8),
            WalOp::Incr { key } | WalOp::Del { key } => (key, 0),
        };
        let mut out = Vec::with_capacity(1 + 4 + key.len() + extra);
        out.push(self.tag());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        match self {
            WalOp::Set { value, .. } | WalOp::RPush { value, .. } => {
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            WalOp::SetCounter { value, .. } => out.extend_from_slice(&value.to_le_bytes()),
            WalOp::Incr { .. } | WalOp::Del { .. } => {}
        }
        out
    }

    /// Decode a record payload; `record` is the record's ordinal for
    /// error reporting.
    fn decode_payload(payload: &[u8], record: u64) -> Result<WalOp, WalError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], WalError> {
            if *pos + n > payload.len() {
                return Err(WalError::TruncatedPayload { record });
            }
            let s = &payload[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let tag = take(&mut pos, 1)?[0];
        let key_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let key = String::from_utf8(take(&mut pos, key_len)?.to_vec())
            .map_err(|_| WalError::BadKey { record })?;
        let op = match tag {
            0 | 1 => {
                let len =
                    u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
                let value = Bytes::copy_from_slice(take(&mut pos, len)?);
                if tag == 0 {
                    WalOp::Set { key, value }
                } else {
                    WalOp::RPush { key, value }
                }
            }
            2 => WalOp::Incr { key },
            3 => {
                let value = i64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
                WalOp::SetCounter { key, value }
            }
            4 => WalOp::Del { key },
            other => return Err(WalError::BadTag { record, tag: other }),
        };
        if pos != payload.len() {
            return Err(WalError::TruncatedPayload { record });
        }
        Ok(op)
    }
}

/// Errors from WAL replay. A torn *tail* is not an error (see
/// [`WalReplay::torn_tail_bytes`]); these are hard corruption inside
/// complete records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A complete record's checksum does not match its payload.
    ChecksumMismatch {
        /// Ordinal of the bad record (0-based).
        record: u64,
        /// CRC32 stored in the frame.
        stored: u32,
        /// CRC32 computed over the payload.
        computed: u32,
    },
    /// Unknown operation tag inside a checksum-valid record.
    BadTag {
        /// Ordinal of the bad record.
        record: u64,
        /// The unknown tag byte.
        tag: u8,
    },
    /// Payload shorter/longer than its operation's encoding demands.
    TruncatedPayload {
        /// Ordinal of the bad record.
        record: u64,
    },
    /// Record key is not UTF-8.
    BadKey {
        /// Ordinal of the bad record.
        record: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::ChecksumMismatch {
                record,
                stored,
                computed,
            } => write!(
                f,
                "wal record {record}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            WalError::BadTag { record, tag } => {
                write!(f, "wal record {record}: unknown op tag {tag}")
            }
            WalError::TruncatedPayload { record } => {
                write!(f, "wal record {record}: payload truncated or oversized")
            }
            WalError::BadKey { record } => write!(f, "wal record {record}: non-utf8 key"),
        }
    }
}

impl std::error::Error for WalError {}

/// CRC32 (IEEE reflected polynomial 0xEDB88320), table-driven. This is
/// the zlib `crc32` — test vector `crc32(b"123456789") == 0xCBF43926`.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Observational WAL statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended since the last truncate.
    pub records: u64,
    /// Framed bytes held (all segments).
    pub bytes: usize,
    /// Sealed segments plus the active one (when non-empty).
    pub segments: usize,
    /// Records per operation kind, in [`WAL_OP_LABELS`] order.
    pub records_by_op: [u64; 5],
}

impl WalStats {
    /// `(label, count)` pairs for the non-zero operation kinds.
    pub fn by_op(&self) -> Vec<(&'static str, u64)> {
        WAL_OP_LABELS
            .iter()
            .zip(self.records_by_op.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&l, &n)| (l, n))
            .collect()
    }
}

/// An in-memory write-ahead log with segment rotation.
///
/// The log models the durable byte stream a real deployment would fsync;
/// keeping it in memory preserves the repo's deterministic-simulation
/// discipline while exercising the exact byte format a disk WAL would
/// use.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    sealed: Vec<Vec<u8>>,
    active: Vec<u8>,
    stats: WalStats,
}

impl Wal {
    /// An empty log, rotating segments at [`DEFAULT_SEGMENT_BYTES`].
    pub fn new() -> Self {
        Wal::default()
    }

    /// Append one operation; returns the framed record length in bytes.
    pub fn append(&mut self, op: &WalOp) -> usize {
        let payload = op.encode_payload();
        let frame_len = 8 + payload.len();
        self.active.reserve(frame_len);
        self.active
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.active.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.active.extend_from_slice(&payload);
        self.stats.records += 1;
        self.stats.bytes += frame_len;
        self.stats.records_by_op[op.tag() as usize] += 1;
        if self.active.len() >= DEFAULT_SEGMENT_BYTES {
            self.sealed.push(std::mem::take(&mut self.active));
        }
        self.stats.segments = self.sealed.len() + usize::from(!self.active.is_empty());
        frame_len
    }

    /// The full durable byte stream (sealed segments then the active one,
    /// concatenated — segment boundaries are bookkeeping, not framing).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.stats.bytes);
        for seg in &self.sealed {
            out.extend_from_slice(seg);
        }
        out.extend_from_slice(&self.active);
        out
    }

    /// Drop every record (checkpoint compaction: the snapshot now carries
    /// the state).
    pub fn truncate(&mut self) {
        self.sealed.clear();
        self.active.clear();
        self.stats = WalStats::default();
    }

    /// Current statistics.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Records appended since the last truncate.
    pub fn records(&self) -> u64 {
        self.stats.records
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.stats.records == 0
    }
}

/// Outcome of replaying a WAL byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The decoded operations, in append order.
    pub ops: Vec<WalOp>,
    /// Byte offset just past each complete record (record boundaries;
    /// `boundaries[i]` ends record `i`). Used by torn-write drills.
    pub boundaries: Vec<usize>,
    /// Bytes of an incomplete trailing record (a torn write), tolerated
    /// and discarded. 0 for a cleanly closed log.
    pub torn_tail_bytes: usize,
}

/// Replay a WAL byte stream, verifying every record's checksum. An
/// incomplete trailing record is tolerated (reported via
/// [`WalReplay::torn_tail_bytes`]); corruption inside complete records is
/// a [`WalError`].
pub fn replay_bytes(data: &[u8]) -> Result<WalReplay, WalError> {
    replay_with_options(data, true)
}

/// [`replay_bytes`] with checksum verification optionally disabled — the
/// chaos harness's deliberately-broken recovery path, used to prove the
/// auditor catches silent divergence. Never use for real recovery.
pub fn replay_with_options(data: &[u8], verify_checksums: bool) -> Result<WalReplay, WalError> {
    let mut ops = Vec::new();
    let mut boundaries = Vec::new();
    let mut pos = 0usize;
    let mut record = 0u64;
    while pos < data.len() {
        if pos + 8 > data.len() {
            break; // torn frame header
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if pos + 8 + len > data.len() {
            break; // torn payload
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if verify_checksums {
            let computed = crc32(payload);
            if computed != stored {
                return Err(WalError::ChecksumMismatch {
                    record,
                    stored,
                    computed,
                });
            }
        }
        match WalOp::decode_payload(payload, record) {
            Ok(op) => ops.push(op),
            // With verification off, a payload mangled beyond decoding is
            // skipped silently — that is the point of the broken path.
            Err(e) if verify_checksums => return Err(e),
            Err(_) => {}
        }
        pos += 8 + len;
        boundaries.push(pos);
        record += 1;
    }
    Ok(WalReplay {
        ops,
        boundaries,
        torn_tail_bytes: data.len() - pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Set {
                key: "partition:data".into(),
                value: Bytes::from_static(b"blob"),
            },
            WalOp::RPush {
                key: "records".into(),
                value: Bytes::from_static(b""),
            },
            WalOp::Incr {
                key: "barrier".into(),
            },
            WalOp::SetCounter {
                key: "epoch".into(),
                value: -7,
            },
            WalOp::Del { key: "tmp".into() },
        ]
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_roundtrip() {
        let mut wal = Wal::new();
        for op in &sample_ops() {
            wal.append(op);
        }
        assert_eq!(wal.records(), 5);
        let replay = replay_bytes(&wal.to_bytes()).unwrap();
        assert_eq!(replay.ops, sample_ops());
        assert_eq!(replay.torn_tail_bytes, 0);
        assert_eq!(replay.boundaries.len(), 5);
        assert_eq!(*replay.boundaries.last().unwrap(), wal.to_bytes().len());
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let mut wal = Wal::new();
        let ops = sample_ops();
        for op in &ops {
            wal.append(op);
        }
        let bytes = wal.to_bytes();
        let full = replay_bytes(&bytes).unwrap();
        let last_start = full.boundaries[full.boundaries.len() - 2];
        // Cut the final record at every possible byte offset: the first
        // four records always survive, the torn fifth is discarded.
        for cut in last_start..bytes.len() {
            let replay = replay_bytes(&bytes[..cut]).unwrap();
            assert_eq!(replay.ops, ops[..4], "cut at {cut}");
            assert_eq!(replay.torn_tail_bytes, cut - last_start);
        }
    }

    #[test]
    fn bit_flip_in_complete_record_is_hard_error() {
        let mut wal = Wal::new();
        for op in &sample_ops() {
            wal.append(op);
        }
        let mut bytes = wal.to_bytes();
        // Flip one payload byte of the first record (frame header is 8).
        bytes[9] ^= 0x40;
        let err = replay_bytes(&bytes).unwrap_err();
        assert!(matches!(err, WalError::ChecksumMismatch { record: 0, .. }), "{err}");
        // The broken path used by chaos `--inject-corruption` accepts it.
        assert!(replay_with_options(&bytes, false).is_ok());
    }

    #[test]
    fn unknown_tag_rejected() {
        let payload = {
            let mut p = vec![9u8]; // bad tag
            p.extend_from_slice(&1u32.to_le_bytes());
            p.push(b'k');
            p
        };
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(
            replay_bytes(&frame),
            Err(WalError::BadTag { record: 0, tag: 9 })
        ));
    }

    #[test]
    fn segments_rotate_and_truncate_drops_everything() {
        let mut wal = Wal::new();
        let value = Bytes::from(vec![7u8; DEFAULT_SEGMENT_BYTES / 4]);
        for i in 0..10 {
            wal.append(&WalOp::Set {
                key: format!("k{i}"),
                value: value.clone(),
            });
        }
        assert!(wal.stats().segments > 1, "{:?}", wal.stats());
        let replay = replay_bytes(&wal.to_bytes()).unwrap();
        assert_eq!(replay.ops.len(), 10, "rotation must not lose records");
        wal.truncate();
        assert!(wal.is_empty());
        assert!(wal.to_bytes().is_empty());
        assert_eq!(wal.stats(), &WalStats::default());
    }

    #[test]
    fn stats_count_by_op() {
        let mut wal = Wal::new();
        for op in &sample_ops() {
            wal.append(op);
        }
        wal.append(&WalOp::Incr { key: "b".into() });
        let by_op = wal.stats().by_op();
        assert_eq!(
            by_op,
            vec![("set", 1), ("rpush", 1), ("incr", 2), ("set_counter", 1), ("del", 1)]
        );
    }
}
