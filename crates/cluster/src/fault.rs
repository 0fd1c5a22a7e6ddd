//! Seeded, deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is one timeline of events against individual nodes:
//! crashes at a simulated time, straggler slowdown factors, transient
//! KV-store errors during partition fetch, network degradation windows,
//! storage and serving faults, and roster changes (a node joining,
//! draining then leaving, or being preempted). Plans are plain data — the
//! executor queries them (`crash_time`, `straggler_factor`, `join_time`,
//! …) while advancing simulated time, so the same plan replayed against
//! the same job is bit-reproducible regardless of host scheduling or
//! thread count.
//!
//! Plans come from three places:
//! - explicit builders (`with_crash`, …) for tests and claims gates,
//! - [`FaultPlan::parse`] for the CLI `--faults` spec string,
//! - [`FaultPlan::generate`], which derives every event from
//!   `(seed, node_id, event_index)` through a SplitMix64-style mixer, so a
//!   single integer seed names an entire fault scenario.

use crate::error::ClusterError;
use crate::network::NetworkModel;
pub use pareto_stats::mix64;

/// One kind of injected adversity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node halts at simulated time `at_s`; in-flight work is lost.
    Crash {
        /// Simulated seconds after job start.
        at_s: f64,
    },
    /// Everything on the node takes `factor`× longer (CPU contention,
    /// thermal throttling, a solar dip forcing DVFS — the cause is
    /// abstracted away).
    Straggler {
        /// Slowdown multiplier, `>= 1`.
        factor: f64,
    },
    /// The node's first `count` KV-store operations during partition
    /// fetch fail transiently and must be retried.
    StoreErrors {
        /// Number of consecutive transient failures.
        count: u32,
    },
    /// Between `from_s` and `until_s`, the node's links run at
    /// `latency × factor` and `bandwidth ÷ factor`.
    NetworkDegradation {
        /// Window start (simulated seconds).
        from_s: f64,
        /// Window end (simulated seconds).
        until_s: f64,
        /// Degradation severity, `>= 1`.
        factor: f64,
    },
    /// Storage: the node's WAL loses its final record mid-write — the
    /// last framed record is cut after `cut_bytes` bytes (modulo the
    /// record length, so every cut point is reachable).
    TornWrite {
        /// Bytes of the final record that made it to disk.
        cut_bytes: u32,
    },
    /// Storage: one byte of the node's durable WAL is silently flipped —
    /// byte `offset % len` XORed with `mask`.
    BitRot {
        /// Seeded byte position (taken modulo the artifact length).
        offset: u64,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// Storage: the node's checkpoint snapshot is lost; recovery must
    /// replay the WAL from genesis.
    SnapshotLoss,
    /// Storage: recovery itself crashes after replaying `at_record` WAL
    /// records, then restarts from scratch (which must be idempotent).
    CrashDuringRecovery {
        /// Records replayed before the recovery process dies.
        at_record: u32,
    },
    /// Serving: the node's next `count` LP solves stall past any request
    /// deadline (a degenerate basis cycling, an NUMA-unlucky allocation —
    /// the cause is abstracted away). The plan server surfaces each stall
    /// as a `DeadlineExceeded` at the optimize checkpoint; consecutive
    /// stalls are what trip a tenant's circuit breaker.
    SolverStall {
        /// Number of consecutive stalled solves.
        count: u32,
    },
    /// Roster: the node is absent at job start and joins at `at_s`.
    Join {
        /// Simulated seconds after job start.
        at_s: f64,
    },
    /// Roster: at `at_s` the node stops taking new work, hands its queue
    /// off through a KV-backed handoff record, and leaves.
    DrainThenLeave {
        /// Simulated seconds after job start.
        at_s: f64,
    },
    /// Roster: a drain notice at `at_s` with a hard kill at
    /// `at_s + grace_s`; a node still draining at the kill takes the
    /// crash path.
    Preempt {
        /// Notice time, simulated seconds after job start.
        at_s: f64,
        /// Seconds between the notice and the hard kill.
        grace_s: f64,
    },
}

impl FaultKind {
    /// True for the roster changes (join, drain, preempt): planned
    /// membership events rather than faults, counted apart from them.
    pub fn is_roster(&self) -> bool {
        matches!(
            self,
            FaultKind::Join { .. } | FaultKind::DrainThenLeave { .. } | FaultKind::Preempt { .. }
        )
    }
}

/// A fault bound to a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Target node.
    pub node_id: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// Probabilities and ranges for seeded plan generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-node crash probability.
    pub crash_prob: f64,
    /// Crash times are drawn uniformly from this window (seconds).
    pub crash_window_s: (f64, f64),
    /// Per-node straggler probability.
    pub straggler_prob: f64,
    /// Straggler factors are drawn uniformly from `[1, max_factor]`.
    pub straggler_max_factor: f64,
    /// Per-node probability of transient store errors.
    pub store_error_prob: f64,
    /// Error counts are drawn uniformly from `[1, max]`.
    pub store_error_max: u32,
    /// Per-node probability of a network degradation window.
    pub degradation_prob: f64,
    /// Degradation windows start uniformly in the crash window and last
    /// this long (seconds).
    pub degradation_len_s: f64,
    /// Degradation severity factor.
    pub degradation_factor: f64,
    /// Per-node torn-write probability. Zero by default so pre-existing
    /// seeded plans are unchanged; see [`FaultSpec::storage`].
    pub torn_write_prob: f64,
    /// Torn-write cut points are drawn uniformly from `[0, max_cut)`
    /// bytes (the drill takes them modulo the final record's length).
    pub torn_write_max_cut: u32,
    /// Per-node bit-rot probability (zero by default).
    pub bit_rot_prob: f64,
    /// Per-node snapshot-loss probability (zero by default).
    pub snapshot_loss_prob: f64,
    /// Per-node crash-during-recovery probability (zero by default).
    pub recovery_crash_prob: f64,
    /// Recovery crashes after a record index drawn from `[0, max)`.
    pub recovery_crash_max_record: u32,
    /// Per-node solver-stall probability (zero by default, same
    /// compatibility rule as the storage kinds).
    pub solver_stall_prob: f64,
    /// Stall runs last `[1, max]` consecutive solves.
    pub solver_stall_max: u32,
    /// Per-node probability (node 0 excepted) of starting absent and
    /// joining mid-job (zero by default; see [`FaultSpec::with_roster`]).
    pub join_prob: f64,
    /// Per-node probability of draining and leaving (zero by default).
    pub drain_prob: f64,
    /// Per-node probability of a preemption (zero by default).
    pub preempt_prob: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            crash_prob: 0.15,
            crash_window_s: (10.0, 200.0),
            straggler_prob: 0.25,
            straggler_max_factor: 4.0,
            store_error_prob: 0.25,
            store_error_max: 3,
            degradation_prob: 0.25,
            degradation_len_s: 60.0,
            degradation_factor: 8.0,
            // Storage faults are opt-in: nonzero defaults would reshuffle
            // every seeded plan generated before they existed.
            torn_write_prob: 0.0,
            torn_write_max_cut: 96,
            bit_rot_prob: 0.0,
            snapshot_loss_prob: 0.0,
            recovery_crash_prob: 0.0,
            recovery_crash_max_record: 4,
            solver_stall_prob: 0.0,
            solver_stall_max: 3,
            join_prob: 0.0,
            drain_prob: 0.0,
            preempt_prob: 0.0,
        }
    }
}

impl FaultSpec {
    /// The chaos-harness spec: compute faults at their defaults plus the
    /// storage fault kinds enabled. Kept out of [`FaultSpec::default`] so
    /// plans seeded before storage faults existed stay bit-identical.
    pub fn storage() -> Self {
        FaultSpec {
            torn_write_prob: 0.35,
            bit_rot_prob: 0.35,
            snapshot_loss_prob: 0.25,
            recovery_crash_prob: 0.3,
            ..FaultSpec::default()
        }
    }

    /// The plan-serving soak's spec: compute faults at their defaults plus
    /// solver stalls enabled (the service maps tenants onto node ids, so
    /// `solver_stall_prob` is a per-tenant chance of a stall run).
    pub fn serving() -> Self {
        FaultSpec {
            solver_stall_prob: 0.35,
            ..FaultSpec::default()
        }
    }

    /// `self` with roster churn switched on at the chaos sweep's mix:
    /// roughly one join, drain or preemption per three nodes, each node
    /// taking at most one of them.
    pub fn with_roster(self) -> Self {
        FaultSpec {
            join_prob: 0.25,
            drain_prob: 0.30,
            preempt_prob: 0.25,
            ..self
        }
    }
}

/// Roster change times (join, drain, preemption notice) are drawn
/// uniformly from this window, simulated seconds.
const ROSTER_WINDOW_S: (f64, f64) = (10.0, 150.0);

/// Preemption grace periods are drawn uniformly from this window, seconds.
const PREEMPT_GRACE_S: (f64, f64) = (5.0, 30.0);

/// The `event_index` of every seeded draw, in four disjoint families so
/// that switching one family on never moves another's draws: compute
/// faults `0..=7`, storage faults `8..=15`, roster changes `16..=22` and
/// serving faults `23..=24`. A new seeded kind claims fresh indices here.
mod draw {
    pub const CRASH: u64 = 0;
    pub const CRASH_AT: u64 = 1;
    pub const SLOW: u64 = 2;
    pub const SLOW_FACTOR: u64 = 3;
    pub const KV: u64 = 4;
    pub const KV_COUNT: u64 = 5;
    pub const NET: u64 = 6;
    pub const NET_FROM: u64 = 7;
    pub const TORN: u64 = 8;
    pub const TORN_CUT: u64 = 9;
    pub const ROT: u64 = 10;
    pub const ROT_OFFSET: u64 = 11;
    pub const ROT_MASK: u64 = 12;
    pub const SNAPLOSS: u64 = 13;
    pub const RECRASH: u64 = 14;
    pub const RECRASH_AT: u64 = 15;
    pub const JOIN: u64 = 16;
    pub const JOIN_AT: u64 = 17;
    pub const DRAIN: u64 = 18;
    pub const DRAIN_AT: u64 = 19;
    pub const PREEMPT: u64 = 20;
    pub const PREEMPT_AT: u64 = 21;
    pub const PREEMPT_GRACE: u64 = 22;
    pub const STALL: u64 = 23;
    pub const STALL_COUNT: u64 = 24;

    /// Every family with its indices.
    #[cfg(test)]
    pub const FAMILIES: [(&str, &[u64]); 4] = [
        (
            "compute",
            &[
                CRASH,
                CRASH_AT,
                SLOW,
                SLOW_FACTOR,
                KV,
                KV_COUNT,
                NET,
                NET_FROM,
            ],
        ),
        (
            "storage",
            &[
                TORN, TORN_CUT, ROT, ROT_OFFSET, ROT_MASK, SNAPLOSS, RECRASH, RECRASH_AT,
            ],
        ),
        (
            "roster",
            &[
                JOIN,
                JOIN_AT,
                DRAIN,
                DRAIN_AT,
                PREEMPT,
                PREEMPT_AT,
                PREEMPT_GRACE,
            ],
        ),
        ("serving", &[STALL, STALL_COUNT]),
    ];
}

/// A deterministic schedule of faults for one job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Uniform draw in `[0, 1)` from `(seed, node_id, event_index)`.
///
/// Event indices are partitioned by family so enabling one family never
/// perturbs another's draws; the `draw` table in this module lists them.
pub fn unit_draw(seed: u64, node_id: usize, event_index: u64) -> f64 {
    let h = raw_draw(seed, node_id, event_index);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Full-width hash from `(seed, node_id, event_index)` — the integer
/// sibling of [`unit_draw`], used where a draw needs all 64 bits (bit-rot
/// offsets).
pub fn raw_draw(seed: u64, node_id: usize, event_index: u64) -> u64 {
    mix64(mix64(seed ^ mix64(node_id as u64)) ^ event_index)
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Empty plan, ready for the `with_*` builders.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule a crash of `node_id` at simulated time `at_s`.
    pub fn with_crash(mut self, node_id: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::Crash {
                at_s: at_s.max(0.0),
            },
        });
        self
    }

    /// Make `node_id` a straggler: all its work takes `factor`× longer.
    pub fn with_straggler(mut self, node_id: usize, factor: f64) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::Straggler {
                factor: factor.max(1.0),
            },
        });
        self
    }

    /// Inject `count` transient KV errors into `node_id`'s partition fetch.
    pub fn with_store_errors(mut self, node_id: usize, count: u32) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::StoreErrors { count },
        });
        self
    }

    /// Degrade `node_id`'s network by `factor` during `[from_s, until_s]`.
    pub fn with_network_degradation(
        mut self,
        node_id: usize,
        from_s: f64,
        until_s: f64,
        factor: f64,
    ) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::NetworkDegradation {
                from_s: from_s.max(0.0),
                until_s: until_s.max(from_s.max(0.0)),
                factor: factor.max(1.0),
            },
        });
        self
    }

    /// Tear `node_id`'s final WAL record after `cut_bytes` bytes.
    pub fn with_torn_write(mut self, node_id: usize, cut_bytes: u32) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::TornWrite { cut_bytes },
        });
        self
    }

    /// Flip one byte of `node_id`'s WAL: byte `offset % len` XOR `mask`
    /// (a zero mask is floored to 1 so the fault is never a no-op).
    pub fn with_bit_rot(mut self, node_id: usize, offset: u64, mask: u8) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::BitRot {
                offset,
                mask: mask.max(1),
            },
        });
        self
    }

    /// Lose `node_id`'s checkpoint snapshot.
    pub fn with_snapshot_loss(mut self, node_id: usize) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::SnapshotLoss,
        });
        self
    }

    /// Crash `node_id`'s recovery after `at_record` replayed records.
    pub fn with_recovery_crash(mut self, node_id: usize, at_record: u32) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::CrashDuringRecovery { at_record },
        });
        self
    }

    /// Stall `node_id`'s next `count` LP solves past any deadline (a zero
    /// count is floored to 1 so the fault is never a no-op).
    pub fn with_solver_stall(mut self, node_id: usize, count: u32) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::SolverStall {
                count: count.max(1),
            },
        });
        self
    }

    /// Schedule `node_id` to start absent and join at `at_s`.
    pub fn with_join(mut self, node_id: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::Join {
                at_s: at_s.max(0.0),
            },
        });
        self
    }

    /// Schedule `node_id` to drain and leave at `at_s`.
    pub fn with_drain(mut self, node_id: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::DrainThenLeave {
                at_s: at_s.max(0.0),
            },
        });
        self
    }

    /// Schedule a preemption of `node_id`: notice at `at_s`, hard kill
    /// `grace_s` later (both floored to 0).
    pub fn with_preempt(mut self, node_id: usize, at_s: f64, grace_s: f64) -> Self {
        self.events.push(FaultEvent {
            node_id,
            kind: FaultKind::Preempt {
                at_s: at_s.max(0.0),
                grace_s: grace_s.max(0.0),
            },
        });
        self
    }

    /// All scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A copy of this plan with event `index` removed — the shrinking
    /// primitive of the chaos harness's delta-debugging loop.
    pub fn without_event(&self, index: usize) -> Self {
        let mut events = self.events.clone();
        if index < events.len() {
            events.remove(index);
        }
        FaultPlan { events }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of roster changes among the events; the rest are faults.
    pub fn roster_len(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_roster()).count()
    }

    /// Earliest time `time` reads off `node_id`'s events, if any.
    fn earliest(&self, node_id: usize, time: impl Fn(FaultKind) -> Option<f64>) -> Option<f64> {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .filter_map(|e| time(e.kind))
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Earliest crash time scheduled for `node_id`, if any.
    pub fn crash_time(&self, node_id: usize) -> Option<f64> {
        self.earliest(node_id, |kind| match kind {
            FaultKind::Crash { at_s } => Some(at_s),
            _ => None,
        })
    }

    /// Earliest join time scheduled for `node_id`, if any.
    pub fn join_time(&self, node_id: usize) -> Option<f64> {
        self.earliest(node_id, |kind| match kind {
            FaultKind::Join { at_s } => Some(at_s),
            _ => None,
        })
    }

    /// Earliest drain time scheduled for `node_id`, if any.
    pub fn drain_time(&self, node_id: usize) -> Option<f64> {
        self.earliest(node_id, |kind| match kind {
            FaultKind::DrainThenLeave { at_s } => Some(at_s),
            _ => None,
        })
    }

    /// `node_id`'s earliest preemption as `(notice_s, grace_s)`, if any
    /// (ties keep the first scheduled).
    pub fn preempt(&self, node_id: usize) -> Option<(f64, f64)> {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .filter_map(|e| match e.kind {
                FaultKind::Preempt { at_s, grace_s } => Some((at_s, grace_s)),
                _ => None,
            })
            .reduce(|a, b| if a.0 <= b.0 { a } else { b })
    }

    /// Combined slowdown factor for `node_id` (product of its straggler
    /// events; `1.0` when healthy).
    pub fn straggler_factor(&self, node_id: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .filter_map(|e| match e.kind {
                FaultKind::Straggler { factor } => Some(factor),
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// Total transient store errors `node_id` will hit during fetch.
    pub fn store_error_count(&self, node_id: usize) -> u32 {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .map(|e| match e.kind {
                FaultKind::StoreErrors { count } => count,
                _ => 0,
            })
            .sum()
    }

    /// The network `node_id` sees at simulated time `t`:
    /// [`NetworkModel::DATACENTER`] with every active degradation window
    /// applied (latency multiplied, bandwidth divided).
    pub fn network_at(&self, node_id: usize, t: f64) -> NetworkModel {
        let mut net = NetworkModel::DATACENTER;
        for e in self.events.iter().filter(|e| e.node_id == node_id) {
            if let FaultKind::NetworkDegradation {
                from_s,
                until_s,
                factor,
            } = e.kind
            {
                if t >= from_s && t < until_s {
                    net = net.degraded(factor);
                }
            }
        }
        net
    }

    /// First torn-write cut for `node_id`, if any.
    pub fn torn_write(&self, node_id: usize) -> Option<u32> {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .find_map(|e| match e.kind {
                FaultKind::TornWrite { cut_bytes } => Some(cut_bytes),
                _ => None,
            })
    }

    /// First bit-rot `(offset, mask)` for `node_id`, if any.
    pub fn bit_rot(&self, node_id: usize) -> Option<(u64, u8)> {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .find_map(|e| match e.kind {
                FaultKind::BitRot { offset, mask } => Some((offset, mask)),
                _ => None,
            })
    }

    /// True when `node_id`'s checkpoint snapshot is scheduled to be lost.
    pub fn snapshot_lost(&self, node_id: usize) -> bool {
        self.events
            .iter()
            .any(|e| e.node_id == node_id && matches!(e.kind, FaultKind::SnapshotLoss))
    }

    /// Record index at which `node_id`'s recovery crashes, if scheduled.
    pub fn recovery_crash(&self, node_id: usize) -> Option<u32> {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .find_map(|e| match e.kind {
                FaultKind::CrashDuringRecovery { at_record } => Some(at_record),
                _ => None,
            })
    }

    /// Total consecutive solver stalls scheduled for `node_id` (0 when
    /// its solver is healthy).
    pub fn solver_stalls(&self, node_id: usize) -> u32 {
        self.events
            .iter()
            .filter(|e| e.node_id == node_id)
            .map(|e| match e.kind {
                FaultKind::SolverStall { count } => count,
                _ => 0,
            })
            .sum()
    }

    /// True when `node_id` has any storage fault scheduled (torn write,
    /// bit-rot, snapshot loss, or crash-during-recovery).
    pub fn has_storage_faults(&self, node_id: usize) -> bool {
        self.events.iter().any(|e| {
            e.node_id == node_id
                && matches!(
                    e.kind,
                    FaultKind::TornWrite { .. }
                        | FaultKind::BitRot { .. }
                        | FaultKind::SnapshotLoss
                        | FaultKind::CrashDuringRecovery { .. }
                )
        })
    }

    /// Derive a plan from a single seed: each node draws each event kind
    /// independently through `(seed, node_id, event_index)`, so plans for
    /// different cluster sizes share the per-node outcomes of their common
    /// prefix and two runs with the same seed are identical everywhere.
    ///
    /// Roster changes come in a second pass, after every fault event. A
    /// node takes at most one role per seed, priority join > drain >
    /// preempt, and node 0 never joins, so some node is present at job
    /// start.
    pub fn generate(seed: u64, num_nodes: usize, spec: &FaultSpec) -> Self {
        let window = |u: f64, (lo, hi): (f64, f64)| lo + u * (hi - lo).max(0.0);
        let mut plan = FaultPlan::new();
        for node in 0..num_nodes {
            let u = |index| unit_draw(seed, node, index);
            if u(draw::CRASH) < spec.crash_prob {
                plan = plan.with_crash(node, window(u(draw::CRASH_AT), spec.crash_window_s));
            }
            if u(draw::SLOW) < spec.straggler_prob {
                let f = 1.0 + u(draw::SLOW_FACTOR) * (spec.straggler_max_factor - 1.0).max(0.0);
                plan = plan.with_straggler(node, f);
            }
            if u(draw::KV) < spec.store_error_prob {
                let max = spec.store_error_max.max(1);
                let count = 1 + (u(draw::KV_COUNT) * max as f64) as u32;
                plan = plan.with_store_errors(node, count.min(max));
            }
            if u(draw::NET) < spec.degradation_prob {
                let from = window(u(draw::NET_FROM), spec.crash_window_s);
                plan = plan.with_network_degradation(
                    node,
                    from,
                    from + spec.degradation_len_s,
                    spec.degradation_factor,
                );
            }
            if u(draw::TORN) < spec.torn_write_prob {
                let cut = (u(draw::TORN_CUT) * spec.torn_write_max_cut.max(1) as f64) as u32;
                plan = plan.with_torn_write(node, cut);
            }
            if u(draw::ROT) < spec.bit_rot_prob {
                let offset = raw_draw(seed, node, draw::ROT_OFFSET);
                let mask = 1u8 << (raw_draw(seed, node, draw::ROT_MASK) % 8);
                plan = plan.with_bit_rot(node, offset, mask);
            }
            if u(draw::SNAPLOSS) < spec.snapshot_loss_prob {
                plan = plan.with_snapshot_loss(node);
            }
            if u(draw::RECRASH) < spec.recovery_crash_prob {
                let at =
                    (u(draw::RECRASH_AT) * spec.recovery_crash_max_record.max(1) as f64) as u32;
                plan = plan.with_recovery_crash(node, at);
            }
            if u(draw::STALL) < spec.solver_stall_prob {
                let max = spec.solver_stall_max.max(1);
                let count = 1 + (u(draw::STALL_COUNT) * max as f64) as u32;
                plan = plan.with_solver_stall(node, count.min(max));
            }
        }
        for node in 0..num_nodes {
            let u = |index| unit_draw(seed, node, index);
            let at = |index| window(u(index), ROSTER_WINDOW_S);
            if node > 0 && u(draw::JOIN) < spec.join_prob {
                plan = plan.with_join(node, at(draw::JOIN_AT));
            } else if u(draw::DRAIN) < spec.drain_prob {
                plan = plan.with_drain(node, at(draw::DRAIN_AT));
            } else if u(draw::PREEMPT) < spec.preempt_prob {
                let grace = window(u(draw::PREEMPT_GRACE), PREEMPT_GRACE_S);
                plan = plan.with_preempt(node, at(draw::PREEMPT_AT), grace);
            }
        }
        plan
    }

    /// Serialize back into the `--faults` grammar accepted by
    /// [`FaultPlan::parse`]: `parse(plan.to_spec())` reproduces the plan
    /// exactly (Rust's `f64` `Display` is shortest-round-trip). This is
    /// how the chaos shrinker prints a minimal reproducing schedule.
    pub fn to_spec(&self) -> String {
        let clauses: Vec<String> = self
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::Crash { at_s } => format!("crash:{}@{}", e.node_id, at_s),
                FaultKind::Straggler { factor } => format!("slow:{}@{}", e.node_id, factor),
                FaultKind::StoreErrors { count } => format!("kv:{}@{}", e.node_id, count),
                FaultKind::NetworkDegradation {
                    from_s,
                    until_s,
                    factor,
                } => format!("net:{}@{}-{}@{}", e.node_id, from_s, until_s, factor),
                FaultKind::TornWrite { cut_bytes } => {
                    format!("torn:{}@{}", e.node_id, cut_bytes)
                }
                FaultKind::BitRot { offset, mask } => {
                    format!("rot:{}@{}@{}", e.node_id, offset, mask)
                }
                FaultKind::SnapshotLoss => format!("snaploss:{}", e.node_id),
                FaultKind::CrashDuringRecovery { at_record } => {
                    format!("recrash:{}@{}", e.node_id, at_record)
                }
                FaultKind::SolverStall { count } => {
                    format!("stall:{}@{}", e.node_id, count)
                }
                FaultKind::Join { at_s } => format!("join:{}@{}", e.node_id, at_s),
                FaultKind::DrainThenLeave { at_s } => format!("drain:{}@{}", e.node_id, at_s),
                FaultKind::Preempt { at_s, grace_s } => {
                    format!("preempt:{}@{}@{}", e.node_id, at_s, grace_s)
                }
            })
            .collect();
        clauses.join(", ")
    }

    /// Parse a CLI fault spec: comma-separated clauses, each one of
    ///
    /// ```text
    /// crash:NODE@T          crash NODE at T seconds
    /// slow:NODE@FACTOR      NODE runs FACTOR x slower
    /// kv:NODE@COUNT         COUNT transient store errors on NODE's fetch
    /// net:NODE@FROM-TO@F    degrade NODE's links by F in [FROM, TO]
    /// torn:NODE@K           tear NODE's final WAL record after K bytes
    /// rot:NODE@OFF@MASK     flip byte OFF%len of NODE's WAL with MASK
    /// snaploss:NODE         lose NODE's checkpoint snapshot
    /// recrash:NODE@R        crash NODE's recovery after R records
    /// stall:NODE@COUNT      stall NODE's next COUNT LP solves
    /// join:NODE@T           NODE starts absent and joins at T seconds
    /// drain:NODE@T          NODE drains and leaves at T seconds
    /// preempt:NODE@T@G      NODE gets a preemption notice at T, killed G later
    /// seeded:SEED           generate a fault plan from SEED
    /// eseeded:SEED          generate roster changes only from SEED
    /// ```
    ///
    /// Node indices must be `< num_nodes`; times, factors and windows must
    /// be finite and non-negative.
    pub fn parse(spec: &str, num_nodes: usize) -> Result<Self, ClusterError> {
        let bad = |msg: String| ClusterError::BadFaultSpec(msg);
        let mut plan = FaultPlan::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| bad(format!("clause `{clause}` missing `:`")))?;
            let kind = kind.trim();
            let Some(&(_, usage)) = GRAMMAR.iter().find(|(name, _)| *name == kind) else {
                let kinds: Vec<&str> = GRAMMAR.iter().map(|(name, _)| *name).collect();
                return Err(bad(format!(
                    "unknown fault kind `{kind}` (want {})",
                    kinds.join("/")
                )));
            };
            let args: Vec<&str> = rest.split('@').map(str::trim).collect();
            if args.len() != usage.split('@').count() {
                return Err(bad(format!(
                    "{kind} clause `{clause}` needs {kind}:{usage}"
                )));
            }
            let node = || -> Result<usize, ClusterError> {
                let id: usize = args[0]
                    .parse()
                    .map_err(|_| bad(format!("bad node id `{}` in `{clause}`", args[0])))?;
                if id >= num_nodes {
                    return Err(bad(format!(
                        "node {id} out of range (cluster has {num_nodes} nodes)"
                    )));
                }
                Ok(id)
            };
            let num = |s: &str| -> Result<f64, ClusterError> {
                s.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| bad(format!("bad number `{s}` in `{clause}`")))
            };
            // An integer argument in `min..=max`.
            let int = |i: usize, min: u64, max: u64| -> Result<u64, ClusterError> {
                args[i]
                    .parse::<u64>()
                    .ok()
                    .filter(|v| (min..=max).contains(v))
                    .ok_or_else(|| bad(format!("bad integer `{}` in `{clause}`", args[i])))
            };
            let u32_max = u64::from(u32::MAX);
            plan = match kind {
                "crash" => plan.with_crash(node()?, num(args[1])?),
                "slow" => plan.with_straggler(node()?, num(args[1])?),
                "kv" => plan.with_store_errors(node()?, int(1, 0, u32_max)? as u32),
                "net" => {
                    let (from, to) = args[1]
                        .split_once('-')
                        .ok_or_else(|| bad(format!("net window `{}` needs FROM-TO", args[1])))?;
                    let (from, to) = (num(from.trim())?, num(to.trim())?);
                    plan.with_network_degradation(node()?, from, to, num(args[2])?)
                }
                "torn" => plan.with_torn_write(node()?, int(1, 0, u32_max)? as u32),
                "rot" => plan.with_bit_rot(node()?, int(1, 0, u64::MAX)?, int(2, 1, 255)? as u8),
                "snaploss" => plan.with_snapshot_loss(node()?),
                "recrash" => plan.with_recovery_crash(node()?, int(1, 0, u32_max)? as u32),
                "stall" => plan.with_solver_stall(node()?, int(1, 1, u32_max)? as u32),
                "join" => plan.with_join(node()?, num(args[1])?),
                "drain" => plan.with_drain(node()?, num(args[1])?),
                "preempt" => plan.with_preempt(node()?, num(args[1])?, num(args[2])?),
                // `seeded` (faults only) or `eseeded` (roster changes only).
                seeded => {
                    let seed = int(0, 0, u64::MAX)?;
                    let spec = FaultSpec::default().with_roster();
                    let mut generated = FaultPlan::generate(seed, num_nodes, &spec);
                    // The two families draw from disjoint indices, so each
                    // half is exactly what generating it alone would give.
                    let roster = seeded == "eseeded";
                    generated.events.retain(|e| e.kind.is_roster() == roster);
                    plan.events.extend(generated.events);
                    plan
                }
            };
        }
        Ok(plan)
    }
}

/// Every clause kind of [`FaultPlan::parse`] with its arguments, which are
/// `@`-separated.
const GRAMMAR: [(&str, &str); 14] = [
    ("crash", "NODE@T"),
    ("slow", "NODE@FACTOR"),
    ("kv", "NODE@COUNT"),
    ("net", "NODE@FROM-TO@F"),
    ("torn", "NODE@K"),
    ("rot", "NODE@OFF@MASK"),
    ("snaploss", "NODE"),
    ("recrash", "NODE@R"),
    ("stall", "NODE@COUNT"),
    ("join", "NODE@T"),
    ("drain", "NODE@T"),
    ("preempt", "NODE@T@GRACE"),
    ("seeded", "SEED"),
    ("eseeded", "SEED"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn draw_index_families_are_disjoint() {
        let mut owner = std::collections::BTreeMap::new();
        for (family, indices) in draw::FAMILIES {
            for &index in indices {
                if let Some(other) = owner.insert(index, family) {
                    panic!("index {index} claimed by both {other} and {family}");
                }
            }
        }
        // Each family is the contiguous block the docs name, and together
        // they leave no hole.
        let blocks: Vec<(&str, u64, u64)> = draw::FAMILIES
            .iter()
            .map(|(family, indices)| {
                let (lo, hi) = (indices[0], indices[indices.len() - 1]);
                assert_eq!(hi - lo + 1, indices.len() as u64, "{family} has a gap");
                (*family, lo, hi)
            })
            .collect();
        assert_eq!(
            blocks,
            [
                ("compute", 0, 7),
                ("storage", 8, 15),
                ("roster", 16, 22),
                ("serving", 23, 24)
            ]
        );
    }

    /// One event of each of the twelve kinds, chosen by `kind % 12`, built
    /// through the public builders from raw draws.
    fn build(plan: FaultPlan, raw: (u8, usize, f64, f64, u64, u8)) -> FaultPlan {
        let (kind, node, a, b, int, mask) = raw;
        match kind % 12 {
            0 => plan.with_crash(node, a),
            1 => plan.with_straggler(node, a),
            2 => plan.with_store_errors(node, int as u32),
            3 => plan.with_network_degradation(node, a, b, a + b),
            4 => plan.with_torn_write(node, int as u32),
            5 => plan.with_bit_rot(node, int, mask),
            6 => plan.with_snapshot_loss(node),
            7 => plan.with_recovery_crash(node, int as u32),
            8 => plan.with_solver_stall(node, int as u32),
            9 => plan.with_join(node, a),
            10 => plan.with_drain(node, a),
            _ => plan.with_preempt(node, a, b),
        }
    }

    /// Argument tokens for clause soup: valid and invalid numbers, the
    /// grammar's separators, and junk.
    const TOKENS: [&str; 16] = [
        "0",
        "1",
        "3",
        "255",
        "12.5",
        "1e3",
        "-4",
        "4294967296",
        "18446744073709551616",
        "inf",
        "NaN",
        "",
        " ",
        "x",
        ":",
        "@",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn any_plan_round_trips_through_its_spec(
            n in 1usize..12,
            raw in collection::vec(
                (any::<u8>(), any::<usize>(), 0.0f64..1e6, 0.0f64..1e3, any::<u64>(), any::<u8>()),
                0..24,
            ),
        ) {
            let plan = raw
                .into_iter()
                .fold(FaultPlan::new(), |plan, (kind, node, a, b, int, mask)| {
                    build(plan, (kind, node % n, a, b, int, mask))
                });
            let spec = plan.to_spec();
            prop_assert_eq!(FaultPlan::parse(&spec, n).ok(), Some(plan), "`{}`", spec);
        }

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..64)) {
            let _ = FaultPlan::parse(&String::from_utf8_lossy(&bytes), 4);
        }

        #[test]
        fn parse_never_panics_on_clause_soup(
            clauses in collection::vec(
                (0..GRAMMAR.len() + 1, collection::vec((0..TOKENS.len(), 0usize..3), 0..5)),
                0..6,
            ),
        ) {
            let clause = |(kind, args): (usize, Vec<(usize, usize)>)| {
                let mut clause = GRAMMAR.get(kind).map_or("warp", |(name, _)| name).to_string();
                for (i, (token, glue)) in args.into_iter().enumerate() {
                    clause += if i == 0 { ":" } else { ["@", "-", ":"][glue] };
                    clause += TOKENS[token];
                }
                clause
            };
            let spec: Vec<String> = clauses.into_iter().map(clause).collect();
            let _ = FaultPlan::parse(&spec.join(","), 4);
        }
    }

    #[test]
    fn builders_and_queries() {
        let plan = FaultPlan::new()
            .with_crash(2, 50.0)
            .with_crash(2, 30.0)
            .with_straggler(1, 3.0)
            .with_straggler(1, 2.0)
            .with_store_errors(0, 2)
            .with_network_degradation(3, 10.0, 20.0, 4.0);
        assert_eq!(plan.crash_time(2), Some(30.0));
        assert_eq!(plan.crash_time(0), None);
        assert_eq!(plan.straggler_factor(1), 6.0);
        assert_eq!(plan.straggler_factor(2), 1.0);
        assert_eq!(plan.store_error_count(0), 2);
        assert_eq!(plan.store_error_count(1), 0);
        let base = NetworkModel::DATACENTER;
        let inside = plan.network_at(3, 15.0);
        assert!(inside.latency_s > base.latency_s);
        assert!(inside.bandwidth_bps < base.bandwidth_bps);
        // Outside the window, and for other nodes, the base model applies.
        assert_eq!(plan.network_at(3, 25.0), base);
        assert_eq!(plan.network_at(0, 15.0), base);
    }

    #[test]
    fn factors_are_floored() {
        let plan = FaultPlan::new().with_straggler(0, 0.25);
        assert_eq!(plan.straggler_factor(0), 1.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FaultSpec::default();
        let a = FaultPlan::generate(99, 16, &spec);
        let b = FaultPlan::generate(99, 16, &spec);
        assert_eq!(a, b);
        let c = FaultPlan::generate(100, 16, &spec);
        assert_ne!(a, c, "different seeds should differ at 16 nodes");
    }

    #[test]
    fn generation_prefix_stable_in_cluster_size() {
        // Events depend on (seed, node, index), not cluster size: the
        // 8-node plan is a prefix-filter of the 16-node plan.
        let spec = FaultSpec::default();
        let small = FaultPlan::generate(7, 8, &spec);
        let large = FaultPlan::generate(7, 16, &spec);
        let large_prefix: Vec<_> = large
            .events()
            .iter()
            .filter(|e| e.node_id < 8)
            .copied()
            .collect();
        assert_eq!(small.events(), &large_prefix[..]);
    }

    #[test]
    fn generation_respects_probabilities() {
        let all = FaultSpec {
            crash_prob: 1.0,
            straggler_prob: 1.0,
            store_error_prob: 1.0,
            degradation_prob: 1.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(5, 4, &all);
        assert_eq!(plan.len(), 16, "4 nodes x 4 event kinds");
        let none = FaultSpec {
            crash_prob: 0.0,
            straggler_prob: 0.0,
            store_error_prob: 0.0,
            degradation_prob: 0.0,
            ..FaultSpec::default()
        };
        assert!(FaultPlan::generate(5, 4, &none).is_empty());
    }

    #[test]
    fn parse_round_trips_each_clause() {
        let plan = FaultPlan::parse("crash:3@120.5, slow:1@2.5, kv:0@2, net:2@10-70@8", 4).unwrap();
        assert_eq!(plan.crash_time(3), Some(120.5));
        assert_eq!(plan.straggler_factor(1), 2.5);
        assert_eq!(plan.store_error_count(0), 2);
        let base = NetworkModel::DATACENTER;
        assert_ne!(plan.network_at(2, 30.0), base);
        assert_eq!(plan.network_at(2, 80.0), base);
    }

    #[test]
    fn parse_seeded_matches_generate() {
        let parsed = FaultPlan::parse("seeded:42", 8).unwrap();
        let generated = FaultPlan::generate(42, 8, &FaultSpec::default());
        assert_eq!(parsed, generated);
    }

    #[test]
    fn storage_builders_and_queries() {
        let plan = FaultPlan::new()
            .with_torn_write(1, 13)
            .with_bit_rot(2, 0xDEAD_BEEF, 0) // zero mask floored to 1
            .with_snapshot_loss(3)
            .with_recovery_crash(0, 2);
        assert_eq!(plan.torn_write(1), Some(13));
        assert_eq!(plan.torn_write(0), None);
        assert_eq!(plan.bit_rot(2), Some((0xDEAD_BEEF, 1)));
        assert!(plan.snapshot_lost(3));
        assert!(!plan.snapshot_lost(2));
        assert_eq!(plan.recovery_crash(0), Some(2));
        for node in 0..4 {
            assert!(plan.has_storage_faults(node), "node {node}");
        }
        let compute_only = FaultPlan::new().with_crash(0, 5.0).with_straggler(0, 2.0);
        assert!(!compute_only.has_storage_faults(0));
    }

    #[test]
    fn storage_generation_extends_without_perturbing_compute_draws() {
        // Same seed, storage probs on vs off: the compute events must be
        // byte-identical because storage kinds use fresh event indices.
        let base = FaultPlan::generate(2017, 8, &FaultSpec::default());
        let storage = FaultPlan::generate(2017, 8, &FaultSpec::storage());
        let compute_events: Vec<_> = storage
            .events()
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    FaultKind::TornWrite { .. }
                        | FaultKind::BitRot { .. }
                        | FaultKind::SnapshotLoss
                        | FaultKind::CrashDuringRecovery { .. }
                )
            })
            .copied()
            .collect();
        assert_eq!(base.events(), &compute_events[..]);
        // And with everything at probability 1, all 8 kinds fire per node.
        let all = FaultSpec {
            crash_prob: 1.0,
            straggler_prob: 1.0,
            store_error_prob: 1.0,
            degradation_prob: 1.0,
            torn_write_prob: 1.0,
            bit_rot_prob: 1.0,
            snapshot_loss_prob: 1.0,
            recovery_crash_prob: 1.0,
            ..FaultSpec::default()
        };
        assert_eq!(
            FaultPlan::generate(5, 4, &all).len(),
            32,
            "4 nodes x 8 kinds"
        );
    }

    #[test]
    fn to_spec_round_trips_generated_plans() {
        for seed in [7u64, 2017, 0xFA17] {
            let plan = FaultPlan::generate(seed, 8, &FaultSpec::storage());
            let spec = plan.to_spec();
            let reparsed = FaultPlan::parse(&spec, 8).unwrap();
            assert_eq!(plan, reparsed, "seed {seed}: `{spec}`");
        }
        // Explicit storage clauses parse too.
        let plan =
            FaultPlan::parse("torn:1@13, rot:2@3735928559@8, snaploss:3, recrash:0@2", 4).unwrap();
        assert_eq!(plan.torn_write(1), Some(13));
        assert_eq!(plan.bit_rot(2), Some((3_735_928_559, 8)));
        assert!(plan.snapshot_lost(3));
        assert_eq!(plan.recovery_crash(0), Some(2));
        assert_eq!(FaultPlan::parse(&plan.to_spec(), 4).unwrap(), plan);
    }

    #[test]
    fn solver_stall_builder_query_and_round_trip() {
        let plan = FaultPlan::new()
            .with_solver_stall(1, 3)
            .with_solver_stall(1, 2)
            .with_solver_stall(2, 0); // floored to 1
        assert_eq!(plan.solver_stalls(1), 5);
        assert_eq!(plan.solver_stalls(2), 1);
        assert_eq!(plan.solver_stalls(0), 0);
        assert_eq!(FaultPlan::parse(&plan.to_spec(), 4).unwrap(), plan);
        let parsed = FaultPlan::parse("stall:3@2", 4).unwrap();
        assert_eq!(parsed.solver_stalls(3), 2);
        for bad in ["stall:1", "stall:9@2", "stall:1@0", "stall:1@x"] {
            assert!(FaultPlan::parse(bad, 8).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn serving_generation_extends_without_perturbing_other_draws() {
        // Same seed, stall prob on vs off: every non-stall event must be
        // identical because stalls claim fresh event indices (23+).
        let base = FaultPlan::generate(2017, 8, &FaultSpec::storage());
        let serving = FaultPlan::generate(
            2017,
            8,
            &FaultSpec {
                solver_stall_prob: 0.35,
                ..FaultSpec::storage()
            },
        );
        let non_stall: Vec<_> = serving
            .events()
            .iter()
            .filter(|e| !matches!(e.kind, FaultKind::SolverStall { .. }))
            .copied()
            .collect();
        assert_eq!(base.events(), &non_stall[..]);
        // Stall counts respect the configured maximum.
        let all = FaultSpec {
            solver_stall_prob: 1.0,
            solver_stall_max: 3,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(5, 16, &all);
        for node in 0..16 {
            let stalls = plan.solver_stalls(node);
            assert!((1..=3).contains(&stalls), "node {node}: {stalls}");
        }
    }

    #[test]
    fn without_event_removes_exactly_one() {
        let plan = FaultPlan::new()
            .with_crash(0, 5.0)
            .with_torn_write(1, 9)
            .with_snapshot_loss(2);
        let shrunk = plan.without_event(1);
        assert_eq!(shrunk.len(), 2);
        assert_eq!(shrunk.torn_write(1), None);
        assert_eq!(shrunk.crash_time(0), Some(5.0));
        assert!(shrunk.snapshot_lost(2));
        // Out-of-range index is a no-op copy.
        assert_eq!(plan.without_event(99), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "crash:9@10",  // node out of range
            "crash:1",     // missing @T
            "warp:1@3",    // unknown kind
            "slow:x@2",    // bad node id
            "crash:1@nan", // non-finite time
            "net:1@10@3",  // malformed window
            "seeded:pi",   // bad seed
        ] {
            assert!(
                FaultPlan::parse(bad, 8).is_err(),
                "`{bad}` should be rejected"
            );
        }
        // Empty spec and stray commas are fine (empty plan).
        assert!(FaultPlan::parse("", 8).unwrap().is_empty());
        assert!(FaultPlan::parse(" , ", 8).unwrap().is_empty());
    }
}
