//! The Redis stand-in (§IV).
//!
//! The paper runs one non-clustered Redis per node ("in cluster mode we do
//! not have control over which key goes to which partition") and drives it
//! through a thin middleware. This module reproduces the primitives that
//! middleware uses:
//!
//! * string values and **lists** of byte sequences (`GET`/`SET`/`RPUSH`/
//!   `LRANGE`/`LLEN`/`DEL`),
//! * the atomic **fetch-and-increment** (`INCR`), the paper's barrier
//!   primitive (§IV; SON's barrier is charged as two 8-byte requests per
//!   node),
//! * **pipelining**: requests queue locally and ship in batches of the
//!   configured width, paying one network round trip per batch,
//! * the §IV **blob layout**: a whole partition's records concatenated as
//!   `[len: u32 LE][payload]…` so "the entire data set of a partition" is
//!   one `GET`.
//!
//! Every operation returns the [`Cost`] it incurred so the simulation can
//! charge time; the store itself is a real concurrent data structure
//! (`parking_lot::RwLock`), safe to share across worker threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::cost::Cost;
use crate::persist::{self, PersistError};
use crate::wal::{self, Wal, WalError, WalOp, WalStats};

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Operation applied to a key holding the wrong kind of value
    /// (Redis' `WRONGTYPE`).
    WrongType { key: String },
    /// Malformed blob in [`decode_records`].
    CorruptBlob,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::WrongType { key } => write!(f, "WRONGTYPE at key {key:?}"),
            KvError::CorruptBlob => write!(f, "corrupt length-prefixed blob"),
        }
    }
}

impl std::error::Error for KvError {}

/// How a store survives crashes (see [`crate::wal`] and
/// [`crate::persist`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Volatile: state dies with the process (the seed behavior).
    #[default]
    None,
    /// Durable up to the last [`KvStore::checkpoint`] snapshot; mutations
    /// since it are lost on a crash.
    SnapshotOnCheckpoint,
    /// Every mutation is appended to a write-ahead log before it is
    /// acknowledged; [`KvStore::recover`] replays snapshot + log to a
    /// bit-identical state.
    Wal,
}

impl Durability {
    /// CLI/metric label.
    pub fn label(&self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::SnapshotOnCheckpoint => "snapshot",
            Durability::Wal => "wal",
        }
    }
}

/// Errors from [`KvStore::recover`].
#[derive(Debug)]
pub enum RecoverError {
    /// The checkpoint snapshot failed to decode.
    Snapshot(PersistError),
    /// The WAL byte stream is corrupt (beyond a tolerated torn tail).
    Wal(WalError),
    /// A replayed operation conflicted with restored state — the log and
    /// snapshot disagree about a key's type.
    Apply(KvError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Snapshot(e) => write!(f, "recover: {e}"),
            RecoverError::Wal(e) => write!(f, "recover: {e}"),
            RecoverError::Apply(e) => write!(f, "recover: replay conflict: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// What a [`KvStore::recover`] replay observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverReport {
    /// Complete WAL records decoded from the log bytes.
    pub records_available: u64,
    /// Records actually replayed (less than available only for
    /// crash-during-recovery drills).
    pub records_replayed: u64,
    /// Bytes of an incomplete trailing record (torn write), discarded.
    pub torn_tail_bytes: usize,
}

/// Durability mode plus the live WAL, guarded together so arming, logging
/// and truncation stay atomic with respect to each other.
#[derive(Debug)]
struct DurableState {
    mode: Durability,
    wal: Wal,
}

impl Default for DurableState {
    fn default() -> Self {
        DurableState {
            mode: Durability::None,
            wal: Wal::new(),
        }
    }
}

/// A reply from one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Value of a `GET`, or an `LRANGE` element context.
    Bytes(Bytes),
    /// All elements of a list.
    List(Vec<Bytes>),
    /// Counter value (after `INCR`) or a length.
    Int(i64),
    /// Write acknowledged.
    Ok,
    /// Key absent.
    Nil,
}

#[derive(Debug, Clone)]
enum Value {
    Bytes(Bytes),
    List(Vec<Bytes>),
    Counter(i64),
}

/// One queued pipeline operation.
#[derive(Debug, Clone)]
enum Op {
    Get(String),
    Set(String, Bytes),
    RPush(String, Bytes),
    LRange(String),
    LLen(String),
    Incr(String),
    Del(String),
}

/// Small fixed CPU cost per request processed by the store (abstract ops;
/// at the default 1e6 ops/s base rate this is ~2 µs per request, so
/// round-trip latency — not server CPU — dominates unpipelined traffic,
/// as with real Redis).
const OP_COMPUTE: u64 = 2;

/// A shareable, concurrent Redis-like store.
///
/// ```
/// use pareto_cluster::KvStore;
///
/// let kv = KvStore::new();
/// kv.set("greeting", &b"hello"[..]).unwrap();
/// let (n, _) = kv.incr("counter").unwrap();
/// assert_eq!(n, 1);
/// // Pipelining amortizes round trips (the §IV optimization).
/// let (replies, cost) = kv
///     .pipeline(8)
///     .rpush("list", &b"a"[..])
///     .rpush("list", &b"b"[..])
///     .execute()
///     .unwrap();
/// assert_eq!(replies.len(), 2);
/// assert_eq!(cost.round_trips, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    inner: Arc<RwLock<HashMap<String, Value>>>,
    stats: Arc<StatsInner>,
    durable: Arc<Mutex<DurableState>>,
    /// Fast-path flag mirroring `durable.mode == Wal`, so non-durable
    /// stores never touch the durable mutex on the hot path. Written only
    /// while the map write lock is held, read under the same lock.
    wal_on: Arc<AtomicBool>,
}

/// Cumulative operation statistics, shared across clones of a store.
/// Atomic adds commute, so the totals are deterministic even when worker
/// threads hit the store concurrently; observational only.
#[derive(Debug, Default)]
struct StatsInner {
    ops: AtomicU64,
    bytes: AtomicU64,
    round_trips: AtomicU64,
    errors: AtomicU64,
}

/// Snapshot of a store's cumulative operation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Operations processed (each pipelined op counts once).
    pub ops: u64,
    /// Payload bytes moved in replies and writes.
    pub bytes: u64,
    /// Network round trips charged (pipelining amortizes these).
    pub round_trips: u64,
    /// Operations rejected with an error (`WRONGTYPE` etc.).
    pub errors: u64,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Append `op` to the WAL. Callers hold the map write lock, so the
    /// log order is exactly the order mutations were applied (lock order
    /// is always map → durable, never the reverse).
    fn log_wal(&self, op: WalOp) {
        self.durable.lock().wal.append(&op);
    }

    fn apply(&self, op: &Op) -> Result<(Reply, u64), KvError> {
        // Returns the reply and the payload byte count it moved.
        let mut map = self.inner.write();
        let wal_on = self.wal_on.load(Ordering::Relaxed);
        match op {
            Op::Get(k) => match map.get(k) {
                Some(Value::Bytes(b)) => Ok((Reply::Bytes(b.clone()), b.len() as u64)),
                Some(Value::Counter(c)) => Ok((Reply::Int(*c), 8)),
                Some(Value::List(_)) => Err(KvError::WrongType { key: k.clone() }),
                None => Ok((Reply::Nil, 0)),
            },
            Op::Set(k, v) => {
                let n = v.len() as u64;
                map.insert(k.clone(), Value::Bytes(v.clone()));
                if wal_on {
                    self.log_wal(WalOp::Set {
                        key: k.clone(),
                        value: v.clone(),
                    });
                }
                Ok((Reply::Ok, n))
            }
            Op::RPush(k, v) => {
                let n = v.len() as u64;
                match map
                    .entry(k.clone())
                    .or_insert_with(|| Value::List(Vec::new()))
                {
                    Value::List(list) => {
                        list.push(v.clone());
                        let len = list.len() as i64;
                        if wal_on {
                            self.log_wal(WalOp::RPush {
                                key: k.clone(),
                                value: v.clone(),
                            });
                        }
                        Ok((Reply::Int(len), n))
                    }
                    _ => Err(KvError::WrongType { key: k.clone() }),
                }
            }
            Op::LRange(k) => match map.get(k) {
                Some(Value::List(list)) => {
                    let n: u64 = list.iter().map(|b| b.len() as u64).sum();
                    Ok((Reply::List(list.clone()), n))
                }
                Some(_) => Err(KvError::WrongType { key: k.clone() }),
                None => Ok((Reply::List(Vec::new()), 0)),
            },
            Op::LLen(k) => match map.get(k) {
                Some(Value::List(list)) => Ok((Reply::Int(list.len() as i64), 8)),
                Some(_) => Err(KvError::WrongType { key: k.clone() }),
                None => Ok((Reply::Int(0), 8)),
            },
            Op::Incr(k) => match map.entry(k.clone()).or_insert_with(|| Value::Counter(0)) {
                Value::Counter(c) => {
                    *c += 1;
                    let n = *c;
                    if wal_on {
                        self.log_wal(WalOp::Incr { key: k.clone() });
                    }
                    Ok((Reply::Int(n), 8))
                }
                _ => Err(KvError::WrongType { key: k.clone() }),
            },
            Op::Del(k) => {
                let existed = map.remove(k).is_some();
                if existed && wal_on {
                    // A DEL of an absent key mutates nothing — not logged.
                    self.log_wal(WalOp::Del { key: k.clone() });
                }
                Ok((Reply::Int(existed as i64), 0))
            }
        }
    }

    fn single(&self, op: Op) -> Result<(Reply, Cost), KvError> {
        let (reply, bytes) = match self.apply(&op) {
            Ok(ok) => ok,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        self.stats.ops.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.round_trips.fetch_add(1, Ordering::Relaxed);
        Ok((
            reply,
            Cost {
                compute_ops: OP_COMPUTE,
                bytes,
                round_trips: 1,
            },
        ))
    }

    /// Snapshot the cumulative operation statistics.
    pub fn stats(&self) -> KvStats {
        KvStats {
            ops: self.stats.ops.load(Ordering::Relaxed),
            bytes: self.stats.bytes.load(Ordering::Relaxed),
            round_trips: self.stats.round_trips.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
        }
    }

    /// `GET key`.
    pub fn get(&self, key: &str) -> Result<(Reply, Cost), KvError> {
        self.single(Op::Get(key.to_owned()))
    }

    /// `SET key value`.
    pub fn set(&self, key: &str, value: impl Into<Bytes>) -> Result<(Reply, Cost), KvError> {
        self.single(Op::Set(key.to_owned(), value.into()))
    }

    /// `RPUSH key value` — append one byte sequence to a list.
    pub fn rpush(&self, key: &str, value: impl Into<Bytes>) -> Result<(Reply, Cost), KvError> {
        self.single(Op::RPush(key.to_owned(), value.into()))
    }

    /// `LRANGE key 0 -1` — fetch the whole list.
    pub fn lrange_all(&self, key: &str) -> Result<(Vec<Bytes>, Cost), KvError> {
        match self.single(Op::LRange(key.to_owned()))? {
            (Reply::List(items), cost) => Ok((items, cost)),
            _ => unreachable!("LRange always yields a list reply"),
        }
    }

    /// `LLEN key`.
    pub fn llen(&self, key: &str) -> Result<(i64, Cost), KvError> {
        match self.single(Op::LLen(key.to_owned()))? {
            (Reply::Int(n), cost) => Ok((n, cost)),
            _ => unreachable!("LLen always yields an int reply"),
        }
    }

    /// Atomic fetch-and-increment (`INCR`); returns the post-increment
    /// value: the paper's barrier primitive (§IV).
    pub fn incr(&self, key: &str) -> Result<(i64, Cost), KvError> {
        match self.single(Op::Incr(key.to_owned()))? {
            (Reply::Int(n), cost) => Ok((n, cost)),
            _ => unreachable!("Incr always yields an int reply"),
        }
    }

    /// `DEL key`; returns whether the key existed.
    pub fn del(&self, key: &str) -> Result<(bool, Cost), KvError> {
        match self.single(Op::Del(key.to_owned()))? {
            (Reply::Int(n), cost) => Ok((n == 1, cost)),
            _ => unreachable!("Del always yields an int reply"),
        }
    }

    /// Read a counter without mutating.
    pub fn counter_value(&self, key: &str) -> Result<(i64, Cost), KvError> {
        match self.single(Op::Get(key.to_owned()))? {
            (Reply::Int(n), cost) => Ok((n, cost)),
            (Reply::Nil, cost) => Ok((0, cost)),
            (Reply::Bytes(_), _) => Err(KvError::WrongType {
                key: key.to_owned(),
            }),
            _ => unreachable!(),
        }
    }

    /// Export every entry as `(key, value)` pairs in sorted key order —
    /// the basis of deterministic disk snapshots (see [`crate::persist`]).
    /// Values are reported as [`Reply::Bytes`], [`Reply::List`], or
    /// [`Reply::Int`] (counters).
    pub fn export_entries(&self) -> Vec<(String, Reply)> {
        Self::entries_of(&self.inner.read())
    }

    /// Sorted `(key, value)` export of a map (shared by
    /// [`KvStore::export_entries`] and the under-lock durability paths).
    fn entries_of(map: &HashMap<String, Value>) -> Vec<(String, Reply)> {
        let mut entries: Vec<(String, Reply)> = map
            .iter()
            .map(|(k, v)| {
                let reply = match v {
                    Value::Bytes(b) => Reply::Bytes(b.clone()),
                    Value::List(items) => Reply::List(items.clone()),
                    Value::Counter(c) => Reply::Int(*c),
                };
                (k.clone(), reply)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Set a counter to an absolute value (snapshot restore path).
    pub fn set_counter(&self, key: &str, value: i64) -> Result<(), KvError> {
        let mut map = self.inner.write();
        match map.entry(key.to_owned()).or_insert(Value::Counter(value)) {
            Value::Counter(c) => {
                *c = value;
                if self.wal_on.load(Ordering::Relaxed) {
                    self.log_wal(WalOp::SetCounter {
                        key: key.to_owned(),
                        value,
                    });
                }
                Ok(())
            }
            _ => Err(KvError::WrongType {
                key: key.to_owned(),
            }),
        }
    }

    /// The durability mode in force.
    pub fn durability(&self) -> Durability {
        self.durable.lock().mode
    }

    /// Switch durability mode. `Durability::Wal` arms the log exactly like
    /// [`KvStore::enable_wal`] (discarding the returned baseline); leaving
    /// `Wal` drops any logged records.
    pub fn set_durability(&self, mode: Durability) {
        if mode == Durability::Wal {
            let _ = self.enable_wal();
            return;
        }
        let map = self.inner.write();
        let mut d = self.durable.lock();
        d.mode = mode;
        d.wal.truncate();
        self.wal_on.store(false, Ordering::Relaxed);
        drop(map);
    }

    /// Arm WAL logging and return the checksummed baseline snapshot of the
    /// current state (the recovery starting point). Taken under the map
    /// write lock, so no mutation can slip between the baseline and the
    /// first logged record.
    pub fn enable_wal(&self) -> Vec<u8> {
        let map = self.inner.write();
        let baseline = persist::entries_to_bytes(&Self::entries_of(&map));
        let mut d = self.durable.lock();
        d.mode = Durability::Wal;
        d.wal.truncate();
        self.wal_on.store(true, Ordering::Relaxed);
        drop(map);
        baseline
    }

    /// Checkpoint compaction: atomically snapshot the current state and —
    /// in `Wal` mode — truncate the log, so `recover(checkpoint, wal)`
    /// stays lossless across the compaction boundary. Returns the
    /// checksummed snapshot bytes.
    pub fn checkpoint(&self) -> Vec<u8> {
        let map = self.inner.write();
        let snap = persist::entries_to_bytes(&Self::entries_of(&map));
        let mut d = self.durable.lock();
        if d.mode == Durability::Wal {
            d.wal.truncate();
        }
        drop(map);
        snap
    }

    /// The WAL byte stream as durable right now (what a crash at this
    /// instant would leave on disk). Quiesces writers for a consistent
    /// cut.
    pub fn wal_bytes(&self) -> Vec<u8> {
        let map = self.inner.write();
        let bytes = self.durable.lock().wal.to_bytes();
        drop(map);
        bytes
    }

    /// Atomic cut of `(export_entries(), wal bytes)` under one lock
    /// acquisition — the pair recovery must reproduce.
    pub fn export_with_wal(&self) -> (Vec<(String, Reply)>, Vec<u8>) {
        let map = self.inner.write();
        let entries = Self::entries_of(&map);
        let bytes = self.durable.lock().wal.to_bytes();
        drop(map);
        (entries, bytes)
    }

    /// Observational WAL statistics (empty when WAL is off).
    pub fn wal_stats(&self) -> WalStats {
        self.durable.lock().wal.stats().clone()
    }

    /// Rebuild a store from an optional checkpoint snapshot plus a WAL
    /// byte stream: decode the snapshot (empty store when `None`), then
    /// replay every complete log record onto it. A torn trailing record
    /// is discarded (reported in the [`RecoverReport`]); corruption inside
    /// complete records or the snapshot is a typed [`RecoverError`]. The
    /// recovered store is volatile (`Durability::None`) — callers re-arm
    /// explicitly.
    pub fn recover(
        snapshot: Option<&[u8]>,
        wal_bytes: &[u8],
    ) -> Result<(KvStore, RecoverReport), RecoverError> {
        Self::recover_with_options(snapshot, wal_bytes, None, true)
    }

    /// [`KvStore::recover`] with drill knobs: `replay_limit` stops after
    /// that many records (simulating a crash *during* recovery — a
    /// restarted recovery replays from scratch, which must be idempotent),
    /// and `verify_checksums = false` is the deliberately-broken path the
    /// chaos harness uses to prove the auditor catches silent corruption.
    pub fn recover_with_options(
        snapshot: Option<&[u8]>,
        wal_bytes: &[u8],
        replay_limit: Option<u64>,
        verify_checksums: bool,
    ) -> Result<(KvStore, RecoverReport), RecoverError> {
        let store = match snapshot {
            Some(bytes) => persist::snapshot_from_bytes(bytes).map_err(RecoverError::Snapshot)?,
            None => KvStore::new(),
        };
        let replay =
            wal::replay_with_options(wal_bytes, verify_checksums).map_err(RecoverError::Wal)?;
        let records_available = replay.ops.len() as u64;
        let records_replayed = replay_limit.map_or(records_available, |l| l.min(records_available));
        for op in replay.ops.iter().take(records_replayed as usize) {
            store.apply_wal_op(op).map_err(RecoverError::Apply)?;
        }
        Ok((
            store,
            RecoverReport {
                records_available,
                records_replayed,
                torn_tail_bytes: replay.torn_tail_bytes,
            },
        ))
    }

    /// Replay one logged operation (recovery path; the store is not in
    /// WAL mode, so nothing is re-logged).
    fn apply_wal_op(&self, op: &WalOp) -> Result<(), KvError> {
        match op {
            WalOp::Set { key, value } => self.set(key, value.clone()).map(|_| ()),
            WalOp::RPush { key, value } => self.rpush(key, value.clone()).map(|_| ()),
            WalOp::Incr { key } => self.incr(key).map(|_| ()),
            WalOp::SetCounter { key, value } => self.set_counter(key, *value),
            WalOp::Del { key } => self.del(key).map(|_| ()),
        }
    }

    /// Start a pipeline with the given batch width (Redis' preset pipeline
    /// width, §IV). Width 1 degenerates to unpipelined requests.
    pub fn pipeline(&self, width: usize) -> Pipeline<'_> {
        assert!(width >= 1, "pipeline width must be >= 1");
        Pipeline {
            store: self,
            width,
            ops: Vec::new(),
        }
    }
}

/// A batch of queued operations sharing round trips.
#[derive(Debug)]
pub struct Pipeline<'a> {
    store: &'a KvStore,
    width: usize,
    ops: Vec<Op>,
}

impl Pipeline<'_> {
    /// Queue a `GET`.
    pub fn get(mut self, key: &str) -> Self {
        self.ops.push(Op::Get(key.to_owned()));
        self
    }

    /// Queue a `SET`.
    pub fn set(mut self, key: &str, value: impl Into<Bytes>) -> Self {
        self.ops.push(Op::Set(key.to_owned(), value.into()));
        self
    }

    /// Queue an `RPUSH`.
    pub fn rpush(mut self, key: &str, value: impl Into<Bytes>) -> Self {
        self.ops.push(Op::RPush(key.to_owned(), value.into()));
        self
    }

    /// Queue an `LRANGE`.
    pub fn lrange_all(mut self, key: &str) -> Self {
        self.ops.push(Op::LRange(key.to_owned()));
        self
    }

    /// Queue an `INCR`.
    pub fn incr(mut self, key: &str) -> Self {
        self.ops.push(Op::Incr(key.to_owned()));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Execute all queued operations in order. The cost charges
    /// `ceil(n / width)` round trips — the pipelining amortization.
    pub fn execute(self) -> Result<(Vec<Reply>, Cost), KvError> {
        let mut replies = Vec::with_capacity(self.ops.len());
        let mut cost = Cost::ZERO;
        for op in &self.ops {
            let (reply, bytes) = match self.store.apply(op) {
                Ok(ok) => ok,
                Err(e) => {
                    self.store.stats.errors.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            };
            self.store.stats.ops.fetch_add(1, Ordering::Relaxed);
            self.store.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
            cost.add(Cost {
                compute_ops: OP_COMPUTE,
                bytes,
                round_trips: 0,
            });
            replies.push(reply);
        }
        cost.round_trips = (self.ops.len() as u64).div_ceil(self.width as u64);
        self.store
            .stats
            .round_trips
            .fetch_add(cost.round_trips, Ordering::Relaxed);
        Ok((replies, cost))
    }
}

/// Encode records into the §IV blob layout: `[len: u32 LE][payload]…`.
pub fn encode_records<B: AsRef<[u8]>>(records: &[B]) -> Bytes {
    let total: usize = records.iter().map(|r| 4 + r.as_ref().len()).sum();
    let mut out = Vec::with_capacity(total);
    for r in records {
        let r = r.as_ref();
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(r);
    }
    Bytes::from(out)
}

/// Decode a §IV blob back into records.
pub fn decode_records(blob: &[u8]) -> Result<Vec<Bytes>, KvError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < blob.len() {
        if pos + 4 > blob.len() {
            return Err(KvError::CorruptBlob);
        }
        let len = u32::from_le_bytes(blob[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + len > blob.len() {
            return Err(KvError::CorruptBlob);
        }
        out.push(Bytes::copy_from_slice(&blob[pos..pos + len]));
        pos += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let kv = KvStore::new();
        kv.set("a", &b"hello"[..]).unwrap();
        let (reply, cost) = kv.get("a").unwrap();
        assert_eq!(reply, Reply::Bytes(Bytes::from_static(b"hello")));
        assert_eq!(cost.round_trips, 1);
        assert_eq!(cost.bytes, 5);
    }

    #[test]
    fn get_missing_is_nil() {
        let kv = KvStore::new();
        assert_eq!(kv.get("nope").unwrap().0, Reply::Nil);
    }

    #[test]
    fn list_push_and_range() {
        let kv = KvStore::new();
        kv.rpush("l", &b"a"[..]).unwrap();
        kv.rpush("l", &b"bb"[..]).unwrap();
        let (items, _) = kv.lrange_all("l").unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(&items[1][..], b"bb");
        assert_eq!(kv.llen("l").unwrap().0, 2);
        // Missing list ranges to empty.
        assert!(kv.lrange_all("missing").unwrap().0.is_empty());
    }

    #[test]
    fn wrongtype_errors() {
        let kv = KvStore::new();
        kv.set("s", &b"x"[..]).unwrap();
        assert!(matches!(
            kv.rpush("s", &b"y"[..]),
            Err(KvError::WrongType { .. })
        ));
        kv.rpush("l", &b"y"[..]).unwrap();
        assert!(matches!(kv.get("l"), Err(KvError::WrongType { .. })));
        assert!(matches!(kv.incr("s"), Err(KvError::WrongType { .. })));
    }

    #[test]
    fn incr_is_fetch_and_increment() {
        let kv = KvStore::new();
        assert_eq!(kv.incr("c").unwrap().0, 1);
        assert_eq!(kv.incr("c").unwrap().0, 2);
        assert_eq!(kv.counter_value("c").unwrap().0, 2);
        assert_eq!(kv.counter_value("absent").unwrap().0, 0);
    }

    #[test]
    fn del_removes() {
        let kv = KvStore::new();
        kv.set("k", &b"v"[..]).unwrap();
        assert!(kv.del("k").unwrap().0);
        assert!(!kv.del("k").unwrap().0);
        assert_eq!(kv.get("k").unwrap().0, Reply::Nil);
    }

    #[test]
    fn incr_is_atomic_across_threads() {
        let kv = KvStore::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let kv = kv.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        kv.incr("n").unwrap();
                    }
                });
            }
        });
        assert_eq!(kv.counter_value("n").unwrap().0, 8000);
    }

    #[test]
    fn pipeline_amortizes_round_trips() {
        let kv = KvStore::new();
        let mut p = kv.pipeline(16);
        for i in 0..64 {
            p = p.set(&format!("k{i}"), Bytes::from(vec![0u8; 10]));
        }
        let (replies, cost) = p.execute().unwrap();
        assert_eq!(replies.len(), 64);
        assert_eq!(cost.round_trips, 4); // ceil(64/16)
        assert_eq!(cost.bytes, 640);
        // Unpipelined equivalent pays 64 round trips.
        let mut unbatched = Cost::ZERO;
        for i in 0..64 {
            let (_, c) = kv
                .set(&format!("u{i}"), Bytes::from(vec![0u8; 10]))
                .unwrap();
            unbatched.add(c);
        }
        assert_eq!(unbatched.round_trips, 64);
    }

    #[test]
    fn pipeline_preserves_order() {
        let kv = KvStore::new();
        let (replies, _) = kv
            .pipeline(4)
            .incr("c")
            .incr("c")
            .get("c")
            .execute()
            .unwrap();
        assert_eq!(replies[0], Reply::Int(1));
        assert_eq!(replies[1], Reply::Int(2));
        assert_eq!(replies[2], Reply::Int(2));
    }

    #[test]
    fn blob_roundtrip() {
        let records: Vec<&[u8]> = vec![b"one", b"", b"three33"];
        let blob = encode_records(&records);
        // 4-byte LE length prefix per record (§IV layout).
        assert_eq!(&blob[0..4], &3u32.to_le_bytes());
        let decoded = decode_records(&blob).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(&decoded[0][..], b"one");
        assert_eq!(&decoded[1][..], b"");
        assert_eq!(&decoded[2][..], b"three33");
    }

    #[test]
    fn blob_detects_corruption() {
        let blob = encode_records(&[&b"abc"[..]]);
        assert!(decode_records(&blob[..blob.len() - 1]).is_err());
        assert!(decode_records(&[1, 0]).is_err());
        assert_eq!(decode_records(&[]).unwrap().len(), 0);
    }

    #[test]
    fn pipeline_stops_at_first_error_with_partial_application() {
        // Like Redis transactions-without-MULTI: ops before the failing
        // one have already been applied when execute() reports the error.
        let kv = KvStore::new();
        kv.set("str", &b"x"[..]).unwrap();
        let result = kv
            .pipeline(4)
            .incr("ctr")
            .rpush("str", &b"boom"[..]) // WRONGTYPE
            .incr("ctr")
            .execute();
        assert!(matches!(result, Err(KvError::WrongType { .. })));
        // First op applied, third never ran.
        assert_eq!(kv.counter_value("ctr").unwrap().0, 1);
    }

    #[test]
    fn empty_pipeline_is_free() {
        let kv = KvStore::new();
        let (replies, cost) = kv.pipeline(8).execute().unwrap();
        assert!(replies.is_empty());
        assert_eq!(cost.round_trips, 0);
        assert_eq!(cost.compute_ops, 0);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_width_pipeline_panics() {
        let kv = KvStore::new();
        let _ = kv.pipeline(0);
    }

    #[test]
    fn partition_as_single_get() {
        // The §IV pattern: a partition's records as one blob under one key.
        let kv = KvStore::new();
        let records: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let blob = encode_records(&records);
        kv.set("partition:3", blob).unwrap();
        let (reply, cost) = kv.get("partition:3").unwrap();
        let Reply::Bytes(b) = reply else {
            panic!("expected bytes")
        };
        assert_eq!(decode_records(&b).unwrap().len(), 100);
        assert_eq!(cost.round_trips, 1, "whole partition in one GET");
    }

    // --- Pipeline error paths (robustness satellite) ---

    #[test]
    fn pipeline_error_costs_are_partial_and_counted() {
        let kv = KvStore::new();
        kv.rpush("list", &b"x"[..]).unwrap();
        let before = kv.stats();
        // GET on a list fails on the second op; the first INCR applied.
        let result = kv.pipeline(8).incr("c").get("list").incr("c").execute();
        assert!(matches!(result, Err(KvError::WrongType { ref key }) if key == "list"));
        let after = kv.stats();
        assert_eq!(after.errors, before.errors + 1, "error counted once");
        // Only the successful op before the failure charged ops/bytes;
        // the aborted pipeline never charged its round trips.
        assert_eq!(after.ops, before.ops + 1);
        assert_eq!(after.round_trips, before.round_trips);
        assert_eq!(kv.counter_value("c").unwrap().0, 1);
    }

    #[test]
    fn pipeline_first_op_error_applies_nothing() {
        let kv = KvStore::new();
        kv.set("s", &b"v"[..]).unwrap();
        let result = kv.pipeline(4).incr("s").set("later", &b"x"[..]).execute();
        assert!(matches!(result, Err(KvError::WrongType { .. })));
        assert_eq!(kv.get("later").unwrap().0, Reply::Nil, "later op never ran");
    }

    #[test]
    fn pipeline_error_in_last_batch_still_reports() {
        let kv = KvStore::new();
        kv.rpush("l", &b"x"[..]).unwrap();
        // Width 2: the failing op is alone in the final batch.
        let result = kv
            .pipeline(2)
            .incr("a")
            .incr("b")
            .incr("l") // WRONGTYPE
            .execute();
        assert!(matches!(result, Err(KvError::WrongType { ref key }) if key == "l"));
        assert_eq!(kv.counter_value("a").unwrap().0, 1);
        assert_eq!(kv.counter_value("b").unwrap().0, 1);
    }

    // --- Durability: WAL logging, checkpointing, recovery ---

    /// Entries must match bit-for-bit; comparing the canonical snapshot
    /// encoding compares every key, tag, and payload byte at once.
    fn assert_same_state(a: &KvStore, b: &KvStore) {
        assert_eq!(
            crate::persist::snapshot_to_bytes(a),
            crate::persist::snapshot_to_bytes(b)
        );
    }

    #[test]
    fn durability_mode_transitions() {
        let kv = KvStore::new();
        assert_eq!(kv.durability(), Durability::None);
        kv.set_durability(Durability::SnapshotOnCheckpoint);
        assert_eq!(kv.durability(), Durability::SnapshotOnCheckpoint);
        kv.set("k", &b"v"[..]).unwrap();
        assert_eq!(kv.wal_stats().records, 0, "snapshot mode does not log");
        kv.set_durability(Durability::Wal);
        kv.set("k2", &b"v"[..]).unwrap();
        assert_eq!(kv.wal_stats().records, 1);
        kv.set_durability(Durability::None);
        assert_eq!(kv.wal_stats().records, 0, "leaving Wal drops the log");
    }

    #[test]
    fn wal_recovery_reproduces_store_bit_for_bit() {
        let kv = KvStore::new();
        kv.set("pre-existing", &b"kept"[..]).unwrap();
        let baseline = kv.enable_wal();
        kv.set("partition:data", &b"blob"[..]).unwrap();
        kv.rpush("records", &b"a"[..]).unwrap();
        kv.rpush("records", &b"bb"[..]).unwrap();
        kv.incr("barrier").unwrap();
        kv.set_counter("epoch", 41).unwrap();
        kv.del("pre-existing").unwrap();
        kv.del("never-existed").unwrap(); // not logged
        let (recovered, report) = KvStore::recover(Some(&baseline), &kv.wal_bytes()).unwrap();
        assert_same_state(&kv, &recovered);
        assert_eq!(report.records_replayed, 6);
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(recovered.durability(), Durability::None);
    }

    #[test]
    fn recovery_without_snapshot_replays_from_genesis() {
        let kv = KvStore::new();
        kv.enable_wal();
        kv.set("a", &b"1"[..]).unwrap();
        kv.incr("n").unwrap();
        let (recovered, _) = KvStore::recover(None, &kv.wal_bytes()).unwrap();
        assert_same_state(&kv, &recovered);
    }

    #[test]
    fn checkpoint_compacts_and_recovery_spans_the_boundary() {
        let kv = KvStore::new();
        kv.enable_wal();
        for i in 0..10 {
            kv.set(&format!("k{i}"), Bytes::from(vec![i as u8; 8]))
                .unwrap();
        }
        let checkpoint = kv.checkpoint();
        assert_eq!(kv.wal_stats().records, 0, "checkpoint truncates the log");
        kv.set("post", &b"late"[..]).unwrap();
        kv.incr("post-ctr").unwrap();
        let (recovered, report) = KvStore::recover(Some(&checkpoint), &kv.wal_bytes()).unwrap();
        assert_same_state(&kv, &recovered);
        assert_eq!(
            report.records_replayed, 2,
            "only post-checkpoint records replay"
        );
    }

    #[test]
    fn torn_wal_tail_recovers_to_last_complete_record() {
        let kv = KvStore::new();
        kv.enable_wal();
        kv.set("a", &b"first"[..]).unwrap();
        kv.set("b", &b"second"[..]).unwrap();
        let full = kv.wal_bytes();
        // State after only the first record: what an acknowledged-then-torn
        // log must roll back to.
        let expect = KvStore::new();
        expect.set("a", &b"first"[..]).unwrap();
        for cut in 1..8 {
            let torn = &full[..full.len() - cut];
            let (recovered, report) = KvStore::recover(None, torn).unwrap();
            assert_same_state(&expect, &recovered);
            assert!(report.torn_tail_bytes > 0);
            assert_eq!(report.records_replayed, 1);
        }
    }

    #[test]
    fn crash_during_recovery_restart_is_idempotent() {
        let kv = KvStore::new();
        let baseline = kv.enable_wal();
        for i in 0..6 {
            kv.incr("n").unwrap();
            kv.set(&format!("k{i}"), Bytes::from(vec![0u8; 4])).unwrap();
        }
        let wal = kv.wal_bytes();
        for crash_after in 0..12u64 {
            // First recovery attempt dies after `crash_after` records; its
            // partial store is discarded and recovery restarts from the
            // same durable artifacts.
            let (_partial, rep) =
                KvStore::recover_with_options(Some(&baseline), &wal, Some(crash_after), true)
                    .unwrap();
            assert_eq!(rep.records_replayed, crash_after.min(rep.records_available));
            let (restarted, _) = KvStore::recover(Some(&baseline), &wal).unwrap();
            assert_same_state(&kv, &restarted);
        }
    }

    #[test]
    fn recovery_rejects_corrupt_inputs_with_typed_errors() {
        let kv = KvStore::new();
        let baseline = kv.enable_wal();
        kv.set("k", &b"v"[..]).unwrap();
        let mut wal = kv.wal_bytes();
        wal[10] ^= 0x08; // payload byte of the first (only) record
        assert!(matches!(
            KvStore::recover(Some(&baseline), &wal),
            Err(RecoverError::Wal(WalError::ChecksumMismatch { .. }))
        ));
        let mut snap = baseline.clone();
        let mid = snap.len() / 2;
        snap[mid] ^= 0x01;
        assert!(matches!(
            KvStore::recover(Some(&snap), &kv.wal_bytes()),
            Err(RecoverError::Snapshot(
                PersistError::ChecksumMismatch { .. }
            ))
        ));
    }

    #[test]
    fn wal_order_matches_interleaving_under_concurrency() {
        // Concurrent writers: whatever order the map serialized is the
        // order the WAL holds, so recovery always converges to the live
        // final state.
        let kv = KvStore::new();
        let baseline = kv.enable_wal();
        std::thread::scope(|s| {
            for t in 0..4 {
                let kv = kv.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        kv.incr("shared").unwrap();
                        kv.set(&format!("t{t}-{i}"), Bytes::from(vec![t as u8; 3]))
                            .unwrap();
                    }
                });
            }
        });
        let (entries, wal) = kv.export_with_wal();
        let (recovered, report) = KvStore::recover(Some(&baseline), &wal).unwrap();
        assert_eq!(recovered.export_entries(), entries);
        assert_eq!(report.records_replayed, 400);
    }
}
