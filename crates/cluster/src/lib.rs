//! A simulated heterogeneous cluster (the paper's testbed, §IV–§V-A).
//!
//! The paper ran on a homogeneous 12-core cluster and *injected*
//! heterogeneity: busy loops gave four machine classes with relative speeds
//! `x, 2x, 3x, 4x`, and PVWATTS traces from four datacenter locations gave
//! each class a different green-energy supply. This crate reproduces that
//! testbed as a deterministic simulation:
//!
//! * [`node`] — machine specs: a speed factor (type 1 = 1.0 … type 4 =
//!   0.25, exactly what `0/12/24/36` busy loops on 12 cores produce), the
//!   §V-A power model, and a per-location green trace.
//! * [`cost`] — workloads report exact abstract work ([`cost::Cost`]:
//!   compute operations, bytes moved, store round-trips); a node converts
//!   work to simulated seconds through its speed factor. The analytics
//!   algorithms themselves run *for real* (they are real Rust
//!   implementations in `pareto-workloads`), so payload-dependent cost —
//!   candidate-pattern explosions, entropy-dependent compression effort —
//!   is genuinely measured, not modeled.
//! * [`kvstore`] — the Redis stand-in: byte-sequence values and lists with
//!   4-byte length prefixes, `GET`/`PUT`/`RPUSH`/`LRANGE`, atomic
//!   fetch-and-increment, and request **pipelining** with the same cost
//!   structure as Redis pipelining (round trips amortized over batches).
//! * [`cluster`] — [`SimCluster`](cluster::SimCluster): runs one real task
//!   per node (optionally on real threads), charges simulated time and
//!   energy, and reports makespan + per-node dirty energy.
//! * [`fault`] — seeded, deterministic fault injection: a
//!   [`FaultPlan`](fault::FaultPlan) schedules node crashes, straggler
//!   slowdowns, transient store errors, network degradation windows, and
//!   storage faults (torn WAL writes, bit-rot, snapshot loss,
//!   crash-during-recovery), every event derived from
//!   `(seed, node_id, event_index)` so faulty runs stay bit-reproducible.
//! * [`wal`] — a write-ahead log for the KV store: length-prefixed
//!   CRC32-checksummed records with segment rotation; together with the
//!   checksummed [`persist`] snapshot format it gives
//!   [`KvStore::recover`](kvstore::KvStore::recover) bit-identical replay.
//!
//! Simulated time is `f64` seconds derived from integer operation counts —
//! reproducible to the bit across runs and machines.

pub mod cluster;
pub mod cost;
pub mod error;
pub mod fault;
pub mod kvstore;
pub mod network;
pub mod node;
pub mod persist;
pub mod wal;

pub use cluster::{JobCtx, JobReport, NodeRun, SimCluster};
pub use cost::Cost;
pub use error::ClusterError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use kvstore::{
    Durability, KvError, KvStats, KvStore, Pipeline, RecoverError, RecoverReport, Reply,
};
pub use network::NetworkModel;
pub use node::{MachineType, NodeSpec, SupplyTopology};
pub use persist::{entries_to_bytes, snapshot_from_bytes, snapshot_to_bytes, PersistError};
pub use wal::{
    crc32, replay_bytes, replay_with_options, Wal, WalError, WalOp, WalReplay, WalStats,
};
