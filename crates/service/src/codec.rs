//! Wire codec: length-prefixed frames plus a primitive payload reader.
//!
//! Every message on the wire — TCP socket or in-process channel, the
//! transports share the codec — is one *frame*:
//!
//! ```text
//! +------+------+----------------+
//! | PSV1 | len  |    payload     |
//! | 4 B  | u32  |   len bytes    |
//! +------+------+----------------+
//! ```
//!
//! `len` is big-endian and bounded by [`MAX_FRAME`]; an oversized length
//! is rejected *before* any allocation, so a hostile peer cannot OOM the
//! server with an 8-byte header. Malformed input of every kind — torn
//! frames, truncated payloads, bad magic, unknown tags, trailing garbage,
//! invalid UTF-8 — decodes to a typed [`CodecError`], never a panic
//! (proptested in the crate's test suite).
//!
//! Inside the payload, messages are built from fixed-width big-endian
//! integers, IEEE-754 bit-pattern floats (so encoding is bit-exact), and
//! u16-length-prefixed UTF-8 strings. There is no self-description: the
//! reader and writer must agree on shape, which [`crate::proto`] pins
//! with round-trip tests.

/// Frame magic: protocol "Pareto SerVe", version 1.
pub const MAGIC: [u8; 4] = *b"PSV1";

/// Hard ceiling on a frame payload (1 MiB). Plans for the paper-scale
/// clusters serialize to a few KiB; anything near the ceiling is a
/// corrupt or hostile frame.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of framing overhead preceding every payload.
pub const HEADER_LEN: usize = MAGIC.len() + 4;

/// A wire-format malformation. Every decoder path returns one of these;
/// none panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the frame does. Streaming readers treat
    /// this as "read more bytes", batch decoders as corruption.
    Truncated {
        /// Total bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// An enum tag byte no decoder recognizes.
    BadTag {
        /// Which message or field was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// Payload bytes left over after a complete message was decoded.
    Trailing {
        /// How many bytes remained.
        extra: usize,
    },
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// A field decoded but holds a nonsensical value.
    BadValue {
        /// Which field.
        what: &'static str,
        /// Why it was rejected.
        detail: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            CodecError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds max {MAX_FRAME}")
            }
            CodecError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadValue { what, detail } => write!(f, "bad {what}: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Wrap a payload in a frame (magic + length prefix).
///
/// Panics never: payloads over [`MAX_FRAME`] are a programming error on
/// the *encoding* side, so they are reported as [`CodecError::Oversized`]
/// rather than silently emitting a frame every decoder would reject.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    if payload.len() > MAX_FRAME {
        return Err(CodecError::Oversized { len: payload.len() });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Decode one frame from the front of `buf`, returning the payload and
/// the total bytes consumed. [`CodecError::Truncated`] means the buffer
/// holds a frame prefix but not all of it yet.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    let found = [buf[0], buf[1], buf[2], buf[3]];
    if found != MAGIC {
        return Err(CodecError::BadMagic { found });
    }
    let len = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Oversized { len });
    }
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(CodecError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    Ok((&buf[HEADER_LEN..total], total))
}

/// Payload writer: append-only primitive encoder.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Fresh empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, yielding the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a tag/boolean byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an f64 as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a u16-length-prefixed UTF-8 string. Strings longer than
    /// `u16::MAX` bytes are a [`CodecError::BadValue`] on the way in, so
    /// the wire never carries a silently-clipped name.
    pub fn put_str(&mut self, s: &str) -> Result<(), CodecError> {
        let len = u16::try_from(s.len()).map_err(|_| CodecError::BadValue {
            what: "string length",
            detail: format!("{} bytes exceeds u16 prefix", s.len()),
        })?;
        self.buf.extend_from_slice(&len.to_be_bytes());
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Payload reader: cursor over a payload slice, every accessor typed.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Start reading at the front of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        PayloadReader {
            buf: payload,
            pos: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated {
            needed: usize::MAX,
            have: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an f64 from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a u16-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let b = self.take(2)?;
        let len = u16::from_be_bytes([b[0], b[1]]) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Assert the payload is fully consumed; leftovers are
    /// [`CodecError::Trailing`].
    pub fn finish(self) -> Result<(), CodecError> {
        let extra = self.buf.len() - self.pos;
        if extra == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing { extra })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(b"hello").unwrap();
        let (payload, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn empty_payload_is_legal() {
        let frame = encode_frame(b"").unwrap();
        let (payload, consumed) = decode_frame(&frame).unwrap();
        assert!(payload.is_empty());
        assert_eq!(consumed, HEADER_LEN);
    }

    #[test]
    fn torn_header_and_torn_payload_are_truncated() {
        let frame = encode_frame(b"abcdef").unwrap();
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Err(CodecError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(CodecError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(b"x").unwrap();
        frame[0] = b'Q';
        assert!(matches!(
            decode_frame(&frame),
            Err(CodecError::BadMagic { .. })
        ));
    }

    #[test]
    fn reader_types_round_trip() {
        let mut w = PayloadWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_str("tenant-α").unwrap();
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "tenant-α");
        r.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut w = PayloadWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(CodecError::Trailing { extra: 1 }));
    }

    #[test]
    fn bad_utf8_is_typed() {
        let bytes = [0u8, 2, 0xFF, 0xFE];
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_str(), Err(CodecError::BadUtf8));
    }
}
