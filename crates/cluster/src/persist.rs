//! Snapshot persistence for the KV store (§III-E: "we support the final
//! partitions to be data partitions stored on disk, or data partitions
//! stored on Redis").
//!
//! A store snapshot is one byte image in a tagged, length-prefixed binary
//! layout (an RDB-like dump):
//!
//! ```text
//! magic "PKV2"
//! u32 entry_count
//! per entry: u32 key_len, key bytes, u8 tag, payload
//!   tag 0 = bytes:   u32 len, bytes
//!   tag 1 = list:    u32 item_count, then per item u32 len + bytes
//!   tag 2 = counter: i64 LE
//! u32 crc32 LE over everything above (the checksum footer)
//! ```
//!
//! Keys are written in sorted order so snapshots are byte-for-byte
//! deterministic for a given store state. Decoding is strict: the footer
//! CRC must match, the declared entries must consume the body exactly
//! (no trailing garbage), and duplicate keys are rejected — each failure
//! mode gets its own [`PersistError`] variant so callers (the recovery
//! path, the chaos auditor) can tell torn files from bit-rot.

use std::collections::HashSet;
use std::io::{self, Read};

use bytes::Bytes;

use crate::kvstore::{KvStore, Reply};
use crate::wal::crc32;

/// Errors from snapshot decoding.
#[derive(Debug)]
pub enum PersistError {
    /// Not a snapshot, or structurally damaged (`m` names the spot).
    Corrupt(&'static str),
    /// Input ends before the structure it declares (`m` names the field).
    Truncated(&'static str),
    /// Bytes remain after the declared entry count was consumed.
    TrailingGarbage {
        /// How many unconsumed bytes follow the last entry.
        extra_bytes: usize,
    },
    /// The same key appears twice in one snapshot.
    DuplicateKey(String),
    /// The checksum footer does not match the snapshot body.
    ChecksumMismatch {
        /// CRC32 stored in the footer.
        stored: u32,
        /// CRC32 computed over the body.
        computed: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            PersistError::Truncated(m) => write!(f, "truncated snapshot: {m}"),
            PersistError::TrailingGarbage { extra_bytes } => {
                write!(f, "snapshot has {extra_bytes} trailing garbage bytes")
            }
            PersistError::DuplicateKey(k) => write!(f, "snapshot repeats key {k:?}"),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

const MAGIC: &[u8; 4] = b"PKV2";
/// magic + entry count + crc footer.
const MIN_LEN: usize = 4 + 4 + 4;

/// Serialize exported `(key, value)` entries into the snapshot byte
/// layout (callers pass [`KvStore::export_entries`] output, already in
/// sorted key order).
pub fn entries_to_bytes(entries: &[(String, Reply)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, value) in entries {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        match value {
            Reply::Bytes(b) => {
                out.push(0);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            Reply::List(items) => {
                out.push(1);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    out.extend_from_slice(&(item.len() as u32).to_le_bytes());
                    out.extend_from_slice(item);
                }
            }
            Reply::Int(n) => {
                out.push(2);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Reply::Ok | Reply::Nil => unreachable!("export yields values only"),
        }
    }
    let footer = crc32(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

/// Serialize the whole store into the snapshot byte layout.
pub fn snapshot_to_bytes(store: &KvStore) -> Vec<u8> {
    entries_to_bytes(&store.export_entries())
}

/// Rebuild a store from snapshot bytes.
pub fn snapshot_from_bytes(data: &[u8]) -> Result<KvStore, PersistError> {
    if data.len() >= 4 && &data[..4] != MAGIC {
        return Err(PersistError::Corrupt("bad magic"));
    }
    if data.len() < MIN_LEN {
        return Err(PersistError::Truncated("shorter than header + footer"));
    }
    let body = &data[..data.len() - 4];
    let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }

    let mut cur = io::Cursor::new(body);
    cur.set_position(4); // past magic
    let count = read_u32(&mut cur, "entry count")? as usize;
    let store = KvStore::new();
    let mut seen: HashSet<String> = HashSet::with_capacity(count);
    for _ in 0..count {
        let key_len = read_u32(&mut cur, "key length")? as usize;
        let mut key = vec![0u8; key_len];
        cur.read_exact(&mut key)
            .map_err(|_| PersistError::Truncated("key"))?;
        let key = String::from_utf8(key).map_err(|_| PersistError::Corrupt("non-utf8 key"))?;
        if !seen.insert(key.clone()) {
            return Err(PersistError::DuplicateKey(key));
        }
        let mut tag = [0u8; 1];
        cur.read_exact(&mut tag)
            .map_err(|_| PersistError::Truncated("value tag"))?;
        match tag[0] {
            0 => {
                let len = read_u32(&mut cur, "bytes length")? as usize;
                let mut buf = vec![0u8; len];
                cur.read_exact(&mut buf)
                    .map_err(|_| PersistError::Truncated("bytes value"))?;
                store
                    .set(&key, Bytes::from(buf))
                    .expect("fresh store cannot WRONGTYPE");
            }
            1 => {
                let items = read_u32(&mut cur, "list length")? as usize;
                for _ in 0..items {
                    let len = read_u32(&mut cur, "list item length")? as usize;
                    let mut buf = vec![0u8; len];
                    cur.read_exact(&mut buf)
                        .map_err(|_| PersistError::Truncated("list item"))?;
                    store
                        .rpush(&key, Bytes::from(buf))
                        .expect("fresh store cannot WRONGTYPE");
                }
            }
            2 => {
                let mut buf = [0u8; 8];
                cur.read_exact(&mut buf)
                    .map_err(|_| PersistError::Truncated("counter"))?;
                let n = i64::from_le_bytes(buf);
                store
                    .set_counter(&key, n)
                    .expect("fresh store cannot WRONGTYPE");
            }
            _ => return Err(PersistError::Corrupt("unknown value tag")),
        }
    }
    let extra_bytes = body.len() - cur.position() as usize;
    if extra_bytes != 0 {
        return Err(PersistError::TrailingGarbage { extra_bytes });
    }
    Ok(store)
}

fn read_u32(cur: &mut io::Cursor<&[u8]>, what: &'static str) -> Result<u32, PersistError> {
    let mut buf = [0u8; 4];
    cur.read_exact(&mut buf)
        .map_err(|_| PersistError::Truncated(what))?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> KvStore {
        let kv = KvStore::new();
        kv.set("partition:data", &b"blobblob"[..]).unwrap();
        kv.rpush("records", &b"alpha"[..]).unwrap();
        kv.rpush("records", &b""[..]).unwrap();
        kv.rpush("records", &b"gamma"[..]).unwrap();
        kv.incr("barrier").unwrap();
        kv.incr("barrier").unwrap();
        kv
    }

    #[test]
    fn roundtrip_preserves_all_value_kinds() {
        let kv = populated();
        let bytes = snapshot_to_bytes(&kv);
        let restored = snapshot_from_bytes(&bytes).unwrap();
        match restored.get("partition:data").unwrap().0 {
            Reply::Bytes(b) => assert_eq!(&b[..], b"blobblob"),
            other => panic!("unexpected {other:?}"),
        }
        let (items, _) = restored.lrange_all("records").unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(&items[2][..], b"gamma");
        assert_eq!(restored.counter_value("barrier").unwrap().0, 2);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let a = snapshot_to_bytes(&populated());
        let b = snapshot_to_bytes(&populated());
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_and_garbage_detected() {
        let bytes = snapshot_to_bytes(&populated());
        // Any truncation shears the footer off the body: checksum fails.
        assert!(matches!(
            snapshot_from_bytes(&bytes[..bytes.len() - 3]),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            snapshot_from_bytes(b"NOPE"),
            Err(PersistError::Corrupt("bad magic"))
        ));
        assert!(matches!(
            snapshot_from_bytes(b""),
            Err(PersistError::Truncated(_))
        ));
        assert!(matches!(
            snapshot_from_bytes(b"PKV2\x01\x00"),
            Err(PersistError::Truncated(_))
        ));
        // The old unchecksummed format is refused up front.
        let mut old = bytes.clone();
        old[..4].copy_from_slice(b"PKV1");
        assert!(matches!(
            snapshot_from_bytes(&old),
            Err(PersistError::Corrupt("bad magic"))
        ));
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let mut bytes = snapshot_to_bytes(&populated());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    /// Re-seal a tampered body with a fresh, valid footer so structural
    /// checks (not the checksum) are what reject it.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let footer = crc32(&body);
        body.extend_from_slice(&footer.to_le_bytes());
        body
    }

    #[test]
    fn trailing_garbage_detected_behind_valid_checksum() {
        let bytes = snapshot_to_bytes(&populated());
        let mut body = bytes[..bytes.len() - 4].to_vec();
        body.extend_from_slice(b"JUNK");
        assert!(matches!(
            snapshot_from_bytes(&reseal(body)),
            Err(PersistError::TrailingGarbage { extra_bytes: 4 })
        ));
    }

    #[test]
    fn duplicate_keys_detected_behind_valid_checksum() {
        // Hand-craft a snapshot declaring the same counter key twice.
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&2u32.to_le_bytes());
        for value in [1i64, 2i64] {
            body.extend_from_slice(&3u32.to_le_bytes());
            body.extend_from_slice(b"ctr");
            body.push(2);
            body.extend_from_slice(&value.to_le_bytes());
        }
        match snapshot_from_bytes(&reseal(body)) {
            Err(PersistError::DuplicateKey(k)) => assert_eq!(k, "ctr"),
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_roundtrip_is_total() {
        // The satellite regression: every prefix of a valid snapshot must
        // decode to a typed error (never panic, never silently succeed).
        let bytes = snapshot_to_bytes(&populated());
        for cut in 0..bytes.len() {
            assert!(
                snapshot_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(snapshot_from_bytes(&bytes).is_ok());
    }

    #[test]
    fn empty_store_roundtrips() {
        let kv = KvStore::new();
        let restored = snapshot_from_bytes(&snapshot_to_bytes(&kv)).unwrap();
        assert_eq!(restored.get("anything").unwrap().0, Reply::Nil);
    }
}
