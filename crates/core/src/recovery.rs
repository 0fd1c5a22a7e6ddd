//! Fault-tolerant execution: survive an injected [`FaultPlan`] by
//! re-solving the paper's LP at runtime.
//!
//! The happy-path executor charges one cost per node and assumes every
//! node finishes. This module replays the same per-item work through a
//! deterministic event simulation that honours a fault plan:
//!
//! * **Crashes** — a node halts at its scheduled simulated time; the item
//!   it was processing and its whole remaining queue are *orphaned*. The
//!   framework then re-solves the scalarized LP over the surviving nodes
//!   ([`ParetoModeler::restrict_with_offsets`]): each survivor's time
//!   intercept is shifted by its current clock plus its remaining backlog,
//!   so already-completed fractions are subtracted from the optimization.
//!   Orphans are redistributed *stratum-aware* (round-robin interleaved
//!   across strata, cut by the LP's integer sizes) and receivers pay the
//!   transfer over the — possibly degraded — network.
//! * **Transient store errors** — a node's partition fetch fails `k`
//!   times; each failure costs a round trip plus an exponential backoff in
//!   *simulated* time (`backoff_base_s · 2^attempt`), so retries stay
//!   bit-reproducible. A node that exhausts `max_retries` is treated as
//!   failed and its partition is replanned like a crash.
//! * **Stragglers** — a node whose projected finish exceeds its model
//!   prediction `f_i(x_i)` by more than `straggler_threshold` gets the
//!   back half of its queue speculatively re-executed on an idle node,
//!   transfer paid by the thief. The thief takes that half only if it
//!   would finish it, transfer and compute priced at its own speed, before
//!   the straggler's projected finish. This is the only work-stealing
//!   policy: the §I ablation runs it with no model and no faults.
//! * **Network degradation** — windows from the plan stretch every
//!   transfer a node performs while they are active.
//! * **Planned elasticity** — the fault plan's roster events schedule
//!   membership changes on the same timeline: a *draining* node stops taking
//!   work at its notice, writes a KV-backed handoff record for its queue
//!   (with the same retry + exponential backoff the fetch path uses — the
//!   node's transient store-error count applies to the handoff write too)
//!   and leaves gracefully; a *preempted* node gets a drain notice plus a
//!   hard kill after its grace window (the crash path); a *joining* node
//!   starts absent, activates when simulated time reaches its join time,
//!   and triggers an LP-shaped rebalance that migrates queued backlog onto
//!   it (receivers pay the transfer). Work orphaned while no node is
//!   available parks in a lost pool that a later joiner rescues.
//!
//! The simulation is serial and event-driven (always advance the
//! smallest-clock node, ties broken by node id), so for a fixed fault plan
//! the resulting [`RecoveryReport`] is bit-identical regardless of host
//! threads. `fault_determinism` and `golden_recovery` check it, also under
//! the extra thread counts of CI's `thread-matrix` job.

use std::collections::{BTreeMap, VecDeque};

use pareto_cluster::{Cost, FaultPlan, JobReport, SimCluster};
use pareto_energy::NodeEnergyProfile;
use pareto_stats::LinearFit;
use pareto_telemetry::{ClockDomain, SpanId, Telemetry, Track};

use crate::pareto::{ParetoModeler, PartitionPlanError};
use crate::stealing::{RecordWork, WorkQueue};

/// Tunables for the recovery machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Transient store errors tolerated per node before it is declared
    /// failed.
    pub max_retries: u32,
    /// First retry backoff in simulated seconds; doubles per attempt.
    pub backoff_base_s: f64,
    /// A node is a straggler when its projected finish exceeds
    /// `threshold × f_i(x_i)`.
    pub straggler_threshold: f64,
}

/// Why a [`RecoveryConfig`] was rejected at construction, or an
/// [`ExecRequest`] at the executor boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryConfigError {
    /// `max_retries` was zero — a single transient error would kill every
    /// node, turning any store hiccup into a crash storm.
    ZeroRetries,
    /// `max_retries` exceeded [`RecoveryConfig::MAX_RETRY_BOUND`] — the
    /// exponential backoff `base · 2^attempt` overflows f64 long before
    /// that, so such configs silently degenerate.
    AbsurdRetries(u32),
    /// `backoff_base_s` was non-finite or negative.
    BadBackoff(f64),
    /// `straggler_threshold` was non-finite or below 1.0 (a node cannot be
    /// "slower than itself"; thresholds under 1 steal from healthy nodes).
    BadStragglerThreshold(f64),
    /// A per-node request input (`initial`, `fits` or `profiles`) does not
    /// have exactly one entry per cluster node.
    Misaligned {
        /// Which input.
        input: &'static str,
        /// Its length.
        len: usize,
        /// The cluster size it must match.
        nodes: usize,
    },
    /// An initial queue names an item outside the request's `work`.
    ItemOutOfRange {
        /// The offending item index.
        item: usize,
        /// Number of items in `work`.
        items: usize,
    },
    /// The ops of the items in the initial queues sum past `u64::MAX`, so
    /// a queue's running ops total could not stay exact.
    WorkOverflow,
    /// The request's `fits` and `profiles` build no planning model: a
    /// non-finite figure or a negative slope.
    BadModel(PartitionPlanError),
}

impl std::fmt::Display for RecoveryConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryConfigError::ZeroRetries => {
                write!(f, "max_retries must be >= 1 (0 turns every transient error fatal)")
            }
            RecoveryConfigError::AbsurdRetries(n) => write!(
                f,
                "max_retries {n} exceeds bound {} (exponential backoff degenerates)",
                RecoveryConfig::MAX_RETRY_BOUND
            ),
            RecoveryConfigError::BadBackoff(v) => {
                write!(f, "backoff_base_s must be finite and >= 0, got {v}")
            }
            RecoveryConfigError::BadStragglerThreshold(v) => {
                write!(f, "straggler_threshold must be finite and >= 1.0, got {v}")
            }
            RecoveryConfigError::Misaligned { input, len, nodes } => {
                write!(f, "{input} has {len} entries for a {nodes}-node cluster")
            }
            RecoveryConfigError::ItemOutOfRange { item, items } => {
                write!(f, "initial queues name item {item} of a {items}-item job")
            }
            RecoveryConfigError::WorkOverflow => {
                write!(f, "the queued items' ops sum past u64::MAX")
            }
            RecoveryConfigError::BadModel(e) => write!(f, "bad planning model: {e}"),
        }
    }
}

impl std::error::Error for RecoveryConfigError {}

impl RecoveryConfig {
    /// Largest accepted `max_retries`. Far beyond anything useful — at
    /// 1024 doublings the backoff alone exceeds the age of the universe in
    /// simulated seconds — but small enough to catch `u32::MAX`-style
    /// sentinel values smuggled in as configuration.
    pub const MAX_RETRY_BOUND: u32 = 1024;

    /// Validated constructor. The fields stay public for struct-update
    /// ergonomics; [`execute`] re-validates whatever it is handed.
    pub fn new(
        max_retries: u32,
        backoff_base_s: f64,
        straggler_threshold: f64,
    ) -> Result<Self, RecoveryConfigError> {
        let cfg = RecoveryConfig {
            max_retries,
            backoff_base_s,
            straggler_threshold,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check the invariants [`RecoveryConfig::new`] enforces.
    pub fn validate(&self) -> Result<(), RecoveryConfigError> {
        if self.max_retries == 0 {
            return Err(RecoveryConfigError::ZeroRetries);
        }
        if self.max_retries > Self::MAX_RETRY_BOUND {
            return Err(RecoveryConfigError::AbsurdRetries(self.max_retries));
        }
        if !self.backoff_base_s.is_finite() || self.backoff_base_s < 0.0 {
            return Err(RecoveryConfigError::BadBackoff(self.backoff_base_s));
        }
        if !self.straggler_threshold.is_finite() || self.straggler_threshold < 1.0 {
            return Err(RecoveryConfigError::BadStragglerThreshold(
                self.straggler_threshold,
            ));
        }
        Ok(())
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 3,
            backoff_base_s: 0.05,
            straggler_threshold: 1.5,
        }
    }
}

/// Structured account of what the recovery machinery observed and did.
/// Derives `PartialEq` so determinism tests can compare whole reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Fault events in the injected plan (roster events are counted in
    /// `elastic_events`).
    pub faults_injected: usize,
    /// Nodes that died (scheduled crash or exhausted retries), in death
    /// order.
    pub crashed_nodes: Vec<usize>,
    /// LP re-solves triggered by node failures.
    pub replans: u32,
    /// Transient store-error retries spent across all nodes.
    pub retries_spent: u32,
    /// Speculative re-execution steals from stragglers.
    pub speculative_steals: u32,
    /// Items redistributed by replans.
    pub items_reassigned: usize,
    /// Items moved by speculative steals.
    pub items_stolen: usize,
    /// Total items in the job.
    pub items_total: usize,
    /// Items that completed (on any node).
    pub items_completed: usize,
    /// True when every item completed exactly once.
    pub exactly_once: bool,
    /// Wall-clock completion of the faulty run (simulated seconds,
    /// including idle waits before steals).
    pub makespan_s: f64,
    /// Wall-clock completion of the fault-free run of the same job.
    pub fault_free_makespan_s: f64,
    /// `makespan / fault_free − 1` (0 when fault-free).
    pub makespan_overhead: f64,
    /// Dirty energy (paper-linear) of the faulty run, joules.
    pub dirty_linear_j: f64,
    /// Dirty energy (paper-linear) of the fault-free run, joules.
    pub fault_free_dirty_linear_j: f64,
    /// `dirty − fault_free_dirty` in joules (absolute, since dirty energy
    /// can legitimately sit near zero under green surplus).
    pub dirty_overhead_j: f64,
    /// Roster events (joins, drains, preemptions) in the injected plan.
    pub elastic_events: usize,
    /// Joins that actually activated (a scheduled join whose node was
    /// killed before its join time never activates).
    pub joins_applied: u32,
    /// Drain notices that fired from `DrainThenLeave` events.
    pub drains_applied: u32,
    /// Drain notices that fired from `Preempt` events.
    pub preempts_applied: u32,
    /// Nodes that left the roster gracefully, in leave order. Disjoint
    /// from `crashed_nodes`: a preempted node that misses its grace window
    /// is counted as crashed, not left.
    pub left_nodes: Vec<usize>,
    /// Successful KV handoff-record writes by draining nodes.
    pub handoff_records: u32,
    /// Transient-error retries spent on handoff writes. Counted
    /// separately from `retries_spent`, which covers only partition
    /// fetches.
    pub handoff_retries: u32,
    /// Items moved through successful handoff records.
    pub items_handed_off: usize,
}

/// Full outcome: standard job accounting plus the recovery story.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Per-node busy-time/energy accounting (dead nodes are charged up to
    /// their crash; `makespan_seconds` here is busy time — see
    /// [`RecoveryReport::makespan_s`] for wall completion).
    pub report: JobReport,
    /// The structured recovery account.
    pub recovery: RecoveryReport,
    /// For each item, the node that completed it (`None` = lost, only
    /// possible when every node died).
    pub completed_by: Vec<Option<usize>>,
    /// Items that were redistributed by a replan, in reassignment order.
    pub reassigned_items: Vec<usize>,
    /// For each item, the simulated clock at which it completed (`None`
    /// = lost). The auditor uses this to check membership windows.
    pub completed_at_s: Vec<Option<f64>>,
    /// Per node: the simulated time it activated, for nodes that joined
    /// mid-job (`None` = present from the start, or never activated).
    pub join_epochs: Vec<Option<f64>>,
    /// Per node: the simulated time it left the roster gracefully
    /// (`None` = never left; crashes are not leaves).
    pub leave_epochs: Vec<Option<f64>>,
    /// Items moved through successful drain handoffs, in handoff order.
    pub handed_off_items: Vec<usize>,
}

/// Order orphans stratum-aware: stable-group by stratum, then round-robin
/// across the groups so any contiguous cut of the result carries a
/// near-proportional mix of every stratum.
fn stratum_interleave(mut orphans: Vec<usize>, strata: &[u32]) -> Vec<usize> {
    orphans.sort_unstable();
    let mut groups: BTreeMap<u32, VecDeque<usize>> = BTreeMap::new();
    for item in orphans {
        let s = strata.get(item).copied().unwrap_or(0);
        groups.entry(s).or_default().push_back(item);
    }
    let total: usize = groups.values().map(|g| g.len()).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for group in groups.values_mut() {
            if let Some(item) = group.pop_front() {
                out.push(item);
            }
        }
    }
    out
}

/// One job for the fault-tolerant executor: the cluster, the per-item work
/// and its initial placement, the planning models runtime re-solves use,
/// and the schedules to survive. The two optional parts default to "no
/// roster changes" and "record nothing".
#[derive(Clone, Copy)]
pub struct ExecRequest<'a> {
    /// The simulated cluster the job runs on.
    pub cluster: &'a SimCluster,
    /// `work[r]` is record `r`'s execution profile.
    pub work: &'a [RecordWork],
    /// `initial[i]` is node `i`'s starting queue (indices into `work`).
    pub initial: &'a [Vec<usize>],
    /// `strata[r]` is record `r`'s stratum (missing entries read as 0).
    pub strata: &'a [u32],
    /// Per-node time models `f_i`, for replanning and straggler detection.
    pub fits: &'a [LinearFit],
    /// Per-node energy profiles `k_i`, for replanning.
    pub profiles: &'a [NodeEnergyProfile],
    /// Scalarization weight of runtime re-solves (`>= 1` uses exact
    /// waterfilling).
    pub alpha: f64,
    /// The schedule to survive: faults and roster changes alike.
    pub faults: &'a FaultPlan,
    /// Retry, backoff and straggler tunables.
    pub cfg: &'a RecoveryConfig,
    /// Recorder for the faulty pass: per-node sim-clock spans (fetch
    /// retries, item execution, transfers), crash and elastic-transition
    /// instants, coordinator replan instants, work-item lineage, the energy
    /// ledger and the recovery metrics. The internal fault-free baseline
    /// pass records nothing. Recording is inert: the [`RecoveryOutcome`] is
    /// bit-identical with telemetry on or off.
    pub telemetry: Option<&'a Telemetry>,
}

impl ExecRequest<'_> {
    /// The one place a request is checked: a valid config, one queue, time
    /// model and energy profile per cluster node, every queued item inside
    /// `work`, and a total of queued ops that fits in `u64` (items only
    /// move between queues, so no queue's running total can then
    /// overflow), and fits and profiles a [`ParetoModeler`] accepts.
    /// Returns the modeler runtime re-solves restrict.
    fn validate(&self) -> Result<ParetoModeler, RecoveryConfigError> {
        self.cfg.validate()?;
        let nodes = self.cluster.num_nodes();
        for (input, len) in [
            ("initial", self.initial.len()),
            ("fits", self.fits.len()),
            ("profiles", self.profiles.len()),
        ] {
            if len != nodes {
                return Err(RecoveryConfigError::Misaligned { input, len, nodes });
            }
        }
        let items = self.work.len();
        let mut queued_ops = 0u64;
        for &item in self.initial.iter().flatten() {
            let Some(w) = self.work.get(item) else {
                return Err(RecoveryConfigError::ItemOutOfRange { item, items });
            };
            queued_ops = queued_ops
                .checked_add(w.ops)
                .ok_or(RecoveryConfigError::WorkOverflow)?;
        }
        ParetoModeler::new(self.fits.to_vec(), self.profiles.to_vec())
            .map_err(RecoveryConfigError::BadModel)
    }
}

/// Execute `req.work` over the `req.initial` per-node queues while
/// honouring the fault plan, recovering as described in the module docs.
/// The fault-free baseline (same job, empty plan) is
/// simulated internally to price the recovery overhead.
///
/// Errors — never panics — on a request whose per-node inputs are not
/// node-aligned, that queues an item outside `work`, whose queued ops
/// overflow `u64`, whose fits or profiles are non-finite or carry a
/// negative slope, or whose config is invalid.
pub fn execute(req: &ExecRequest<'_>) -> Result<RecoveryOutcome, RecoveryConfigError> {
    let modeler = req.validate()?;
    let silent = Telemetry::disabled();
    let tel = req.telemetry.unwrap_or(&silent);
    // Spans land after any previously recorded jobs on the shared sim
    // timeline; the cursor only moves when a recorder is attached.
    let epoch = if tel.is_enabled() {
        req.cluster.sim_epoch()
    } else {
        0.0
    };
    let mut out = Sim::new(req, &modeler, req.faults, tel, epoch).run();
    let rec = &mut out.recovery;
    if tel.is_enabled() {
        req.cluster.advance_sim_epoch(rec.makespan_s);
    }
    (rec.fault_free_makespan_s, rec.fault_free_dirty_linear_j) = if req.faults.is_empty() {
        (rec.makespan_s, rec.dirty_linear_j)
    } else {
        // Baseline pass records nothing — only the faulty run is the story.
        let base = Sim::new(req, &modeler, &FaultPlan::none(), &silent, 0.0)
            .run()
            .recovery;
        (base.makespan_s, base.dirty_linear_j)
    };
    rec.makespan_overhead = if rec.fault_free_makespan_s > 0.0 {
        rec.makespan_s / rec.fault_free_makespan_s - 1.0
    } else {
        0.0
    };
    rec.dirty_overhead_j = rec.dirty_linear_j - rec.fault_free_dirty_linear_j;
    record_recovery_telemetry(tel, rec, epoch);
    Ok(out)
}

/// Record the recovery summary: a coordinator span covering the faulty
/// run plus the headline counters/gauges. Serial, post-hoc, inert.
fn record_recovery_telemetry(tel: &Telemetry, rec: &RecoveryReport, epoch: f64) {
    if !tel.is_enabled() {
        return;
    }
    tel.span(
        Track::Coordinator,
        "recovery",
        ClockDomain::Sim,
        epoch,
        epoch + rec.makespan_s,
        SpanId::NONE,
        vec![
            ("crashes".into(), rec.crashed_nodes.len().to_string()),
            ("replans".into(), rec.replans.to_string()),
            ("steals".into(), rec.speculative_steals.to_string()),
            ("items".into(), rec.items_total.to_string()),
        ],
    );
    tel.counter_add("pareto_faults_injected_total", &[], rec.faults_injected as u64);
    tel.counter_add("pareto_crashes_total", &[], rec.crashed_nodes.len() as u64);
    tel.counter_add("pareto_replans_total", &[], rec.replans as u64);
    tel.counter_add("pareto_retries_total", &[], rec.retries_spent as u64);
    tel.counter_add("pareto_steals_total", &[], rec.speculative_steals as u64);
    tel.counter_add(
        "pareto_items_reassigned_total",
        &[],
        rec.items_reassigned as u64,
    );
    tel.counter_add("pareto_items_stolen_total", &[], rec.items_stolen as u64);
    tel.gauge_set("pareto_recovery_makespan_s", &[], rec.makespan_s);
    tel.gauge_set(
        "pareto_recovery_fault_free_makespan_s",
        &[],
        rec.fault_free_makespan_s,
    );
    tel.gauge_set(
        "pareto_recovery_makespan_overhead",
        &[],
        rec.makespan_overhead,
    );
    tel.gauge_set("pareto_recovery_dirty_linear_j", &[], rec.dirty_linear_j);
    tel.gauge_set("pareto_recovery_dirty_overhead_j", &[], rec.dirty_overhead_j);
}

/// Per-node simulation state.
struct NodeState<'a> {
    queue: WorkQueue<'a>,
    /// Wall-clock position (simulated seconds).
    clock: f64,
    /// Busy seconds actually charged (excludes idle waits).
    busy: f64,
    /// Completed-work cost (work lost to a crash is never charged).
    cost: Cost,
    /// Transfer cost to pay before the next item (fetch / received
    /// reassignment), accumulated.
    pending: Cost,
    /// Telemetry label for the pending transfer ("fetch", "redistribute",
    /// …). Never read by any decision.
    pending_kind: &'static str,
    alive: bool,
    retired: bool,
    /// A scheduled joiner that has not reached its join time yet: not
    /// selectable, not a steal victim, not a replan receiver.
    absent: bool,
    /// Left the roster gracefully after a drain; never selectable again.
    left: bool,
    /// Items currently assigned (for `f_i(x_i)` straggler prediction).
    assigned: usize,
}

impl NodeState<'_> {
    /// Can this node still be scheduled or receive work?
    fn active(&self) -> bool {
        self.alive && !self.left && !self.absent
    }

    fn has_work(&self) -> bool {
        !self.queue.is_empty() || self.pending != Cost::ZERO
    }
}

/// One group move of work items as the lineage trace labels it.
/// Telemetry-only: no decision reads it.
#[derive(Clone, Copy)]
struct Hop {
    /// Source node; `None` is the pool (stranded orphans, rebalance excess).
    from: Option<usize>,
    /// Simulated time of the move.
    now: f64,
    /// "redistribute", "handoff", "rescue", "rebalance" or "steal".
    kind: &'static str,
}

/// One simulation pass: the borrowed job, this pass's schedules and
/// recorder, and all mutable state. The methods below are the executor's
/// mechanisms, each existing once — `retry`, `charge`, `crash`/`orphan`,
/// `shares`, `distribute`/`deliver` — plus one method per event of the
/// main loop.
struct Sim<'a> {
    req: &'a ExecRequest<'a>,
    modeler: &'a ParetoModeler,
    faults: &'a FaultPlan,
    tel: &'a Telemetry,
    epoch: f64,
    /// A preemption's hard kill rides the crash machinery: the node's
    /// effective kill time is the earlier of its scheduled crash and its
    /// preempt notice plus grace.
    kill_at: Vec<Option<f64>>,
    /// Per node, the fault plan's straggler factor (1.0 when healthy).
    straggler: Vec<f64>,
    join_at: Vec<Option<f64>>,
    /// Earliest drain trigger per node and whether it came from a
    /// preemption (ties prefer the graceful drain).
    drain_notice: Vec<Option<(f64, bool)>>,
    nodes: Vec<NodeState<'a>>,
    /// Orphans stranded while no node was active; a later joiner rescues
    /// them (conservation across join/leave boundaries).
    lost_pool: Vec<usize>,
    /// Causal trace-context per item: (batch id, hop counter), where the
    /// batch is the node index of the item's initial placement and every
    /// subsequent move bumps the hop. Telemetry-owned (`None` when
    /// disabled); never read by any scheduling decision.
    lineage: Option<Vec<(u32, u32)>>,
    /// The outcome under construction; counters accumulate straight into
    /// it and `run` fills the per-run totals.
    out: RecoveryOutcome,
}

impl<'a> Sim<'a> {
    fn new(
        req: &'a ExecRequest<'a>,
        modeler: &'a ParetoModeler,
        faults: &'a FaultPlan,
        tel: &'a Telemetry,
        epoch: f64,
    ) -> Self {
        let p = req.cluster.num_nodes();
        let join_at: Vec<Option<f64>> = (0..p).map(|i| faults.join_time(i)).collect();
        let lineage = tel.is_enabled().then(|| {
            let mut lin = vec![(0u32, 0u32); req.work.len()];
            for (i, q) in req.initial.iter().enumerate() {
                for &r in q {
                    lin[r] = (i as u32, 0);
                }
                if !q.is_empty() {
                    tel.instant(
                        Track::Coordinator,
                        "lineage",
                        ClockDomain::Sim,
                        epoch,
                        vec![
                            ("batch".into(), i.to_string()),
                            ("hop".into(), "0".into()),
                            ("kind".into(), "place".into()),
                            ("from".into(), "-".into()),
                            ("to".into(), format!("node{i}")),
                            ("items".into(), q.len().to_string()),
                        ],
                    );
                }
            }
            lin
        });
        Sim {
            req,
            modeler,
            faults,
            tel,
            epoch,
            kill_at: (0..p)
                .map(|i| {
                    let preempt_kill = faults.preempt(i).map(|(t, grace)| t + grace);
                    faults.crash_time(i).into_iter().chain(preempt_kill).reduce(f64::min)
                })
                .collect(),
            straggler: (0..p).map(|i| faults.straggler_factor(i)).collect(),
            drain_notice: (0..p)
                .map(|i| {
                    let drain = faults.drain_time(i).map(|t| (t, false));
                    let preempt = faults.preempt(i).map(|(t, _)| (t, true));
                    match (drain, preempt) {
                        (Some(d), Some(pr)) => Some(if d.0 <= pr.0 { d } else { pr }),
                        (d, None) => d,
                        (None, pr) => pr,
                    }
                })
                .collect(),
            nodes: req
                .initial
                .iter()
                .zip(&join_at)
                .map(|(q, join)| NodeState {
                    queue: WorkQueue::new(req.work, q),
                    clock: 0.0,
                    busy: 0.0,
                    cost: Cost::ZERO,
                    pending: Cost::ZERO,
                    pending_kind: "fetch",
                    alive: true,
                    retired: false,
                    absent: join.is_some(),
                    left: false,
                    assigned: q.len(),
                })
                .collect(),
            join_at,
            lost_pool: Vec::new(),
            lineage,
            out: RecoveryOutcome {
                report: JobReport::from_runs(Vec::new()),
                recovery: RecoveryReport {
                    faults_injected: faults.len() - faults.roster_len(),
                    elastic_events: faults.roster_len(),
                    items_total: req.work.len(),
                    ..RecoveryReport::default()
                },
                completed_by: vec![None; req.work.len()],
                reassigned_items: Vec::new(),
                completed_at_s: vec![None; req.work.len()],
                join_epochs: vec![None; p],
                leave_epochs: vec![None; p],
                handed_off_items: Vec::new(),
            },
        }
    }

    /// Run the pass to completion: scheduled joiners' partitions are
    /// reassigned, every present node fetches, then the event loop always
    /// advances the smallest-clock node until everyone has retired.
    fn run(mut self) -> RecoveryOutcome {
        let p = self.nodes.len();
        // Scheduled joiners are absent at job start; the coordinator
        // reassigns their initial partitions to the present nodes before
        // anyone fetches.
        for i in 0..p {
            if self.nodes[i].absent {
                let items = self.take_queue(i);
                self.orphan(i, items, "redistribute");
            }
        }
        self.fetch_partitions();
        loop {
            if self.activate_due_joiner() {
                continue;
            }
            // Among active nodes, pick the smallest clock; on ties a node
            // with work beats an idle one (so idle waits strictly advance),
            // then the lowest id wins. f64 total_cmp keeps this
            // deterministic.
            let nodes = &self.nodes;
            let Some(node) = (0..p)
                .filter(|&i| nodes[i].active() && !nodes[i].retired)
                .min_by(|&a, &b| {
                    nodes[a]
                        .clock
                        .total_cmp(&nodes[b].clock)
                        .then_with(|| nodes[b].has_work().cmp(&nodes[a].has_work()))
                        .then(a.cmp(&b))
                })
            else {
                break;
            };
            if self.drain_if_noticed(node) {
                continue;
            }
            // Pay any pending transfer (fetch or received reassignment)
            // first.
            if self.nodes[node].pending != Cost::ZERO {
                let transfer = std::mem::replace(&mut self.nodes[node].pending, Cost::ZERO);
                if !self.charge(node, transfer, self.nodes[node].pending_kind) {
                    self.crash(node, "transfer", Vec::new());
                }
                continue;
            }
            if let Some(r) = self.nodes[node].queue.pop_front() {
                self.exec_item(node, r);
                continue;
            }
            if self.steal_from_straggler(node) {
                continue;
            }
            // Nothing to steal. If work remains elsewhere, wait (advance
            // the wall clock without charging busy time) until the
            // earliest working node's clock; otherwise retire.
            let next_work_clock = (0..p)
                .filter(|&j| j != node && self.nodes[j].active() && self.nodes[j].has_work())
                .map(|j| self.nodes[j].clock)
                .fold(f64::INFINITY, f64::min);
            if next_work_clock.is_finite() {
                // Strictly later than this node's clock, because clock
                // ties prefer working nodes.
                self.nodes[node].clock = next_work_clock;
            } else {
                self.nodes[node].retired = true;
            }
        }

        let mut out = self.out;
        out.report = JobReport::from_runs(
            (0..p)
                .map(|i| {
                    self.req
                        .cluster
                        .account_busy(i, self.nodes[i].busy, self.nodes[i].cost)
                })
                .collect(),
        );
        let rec = &mut out.recovery;
        // Idle waits only ever advance a node to another *working* node's
        // clock, so the max clock is exactly the wall completion time.
        rec.makespan_s = self.nodes.iter().map(|s| s.clock).fold(0.0, f64::max);
        rec.dirty_linear_j = out.report.total_dirty_linear;
        rec.items_reassigned = out.reassigned_items.len();
        rec.items_handed_off = out.handed_off_items.len();
        rec.items_completed = out.completed_by.iter().filter(|c| c.is_some()).count();
        rec.exactly_once = rec.items_completed == rec.items_total;
        out
    }

    /// Seconds one event takes on `node` starting at `now`: cost converted
    /// through the node's speed and the (possibly degraded) network, then
    /// stretched by the node's straggler factor.
    fn event_seconds(&self, node: usize, cost: &Cost, now: f64) -> f64 {
        let cluster = self.req.cluster;
        let net = self.faults.network_at(node, now, cluster.network());
        cost.seconds(cluster.node(node).speed(), cluster.base_ops_per_sec(), &net)
            * self.straggler[node]
    }

    /// Advance `node` by `dt` busy seconds, unless its scheduled kill
    /// (crash or preempt-grace expiry) lands inside the event; returns
    /// false if the node died (clock pinned at the kill instant, the
    /// event's work lost).
    fn advance(&mut self, node: usize, dt: f64) -> bool {
        let state = &mut self.nodes[node];
        if let Some(tc) = self.kill_at[node] {
            if state.clock + dt > tc {
                let burned = (tc - state.clock).max(0.0);
                state.clock = tc;
                state.busy += burned;
                state.alive = false;
                return false;
            }
        }
        state.clock += dt;
        state.busy += dt;
        true
    }

    /// Burn `node`'s transient store errors against the retry budget: a
    /// failed request still pays its round trip, then backs off
    /// exponentially in simulated time. `stage` names the span and ledger
    /// rows ("kv-retry" for the fetch, "handoff-retry" for a drain's
    /// handoff write). Returns the retries spent; the node is dead
    /// afterwards if it exhausted `max_retries` or its kill landed
    /// mid-retry.
    fn retry(&mut self, node: usize, stage: &str) -> u32 {
        let cfg = self.req.cfg;
        let mut spent = 0;
        for attempt in 1..=self.faults.store_error_count(node) {
            if attempt > cfg.max_retries {
                self.nodes[node].alive = false;
                break;
            }
            spent += 1;
            let failed = Cost::request(0);
            let (before, busy0) = (self.nodes[node].clock, self.nodes[node].busy);
            let dt = self.event_seconds(node, &failed, before)
                + cfg.backoff_base_s * f64::powi(2.0, (attempt - 1) as i32);
            self.nodes[node].cost.add(failed);
            let survived = self.advance(node, dt);
            if self.tel.is_enabled() {
                self.tel.span(
                    Track::Node(node),
                    stage,
                    ClockDomain::Sim,
                    self.epoch + before,
                    self.epoch + self.nodes[node].clock,
                    SpanId::NONE,
                    vec![("attempt".into(), attempt.to_string())],
                );
                self.ledger(node, stage, None, before, busy0);
            }
            if !survived {
                break;
            }
        }
        spent
    }

    /// Price a transfer on `node` at its current clock, bill it and advance
    /// through it, recording the `transfer` span, the energy-ledger row and
    /// the byte counter under `kind`. Returns false if the node died
    /// mid-transfer.
    fn charge(&mut self, node: usize, transfer: Cost, kind: &str) -> bool {
        let (before, busy0) = (self.nodes[node].clock, self.nodes[node].busy);
        let dt = self.event_seconds(node, &transfer, before);
        self.nodes[node].cost.add(transfer);
        let survived = self.advance(node, dt);
        if self.tel.is_enabled() {
            self.tel.span(
                Track::Node(node),
                "transfer",
                ClockDomain::Sim,
                self.epoch + before,
                self.epoch + self.nodes[node].clock,
                SpanId::NONE,
                vec![
                    ("kind".into(), kind.into()),
                    ("bytes".into(), transfer.bytes.to_string()),
                ],
            );
            self.ledger(node, kind, None, before, busy0);
            let labels = [("kind", kind)];
            self.tel
                .counter_add("pareto_transfer_bytes_total", &labels, transfer.bytes);
        }
        survived
    }

    /// Energy-ledger row for the busy stretch `node` just finished: from
    /// `before`/`busy0` to its current clock and cumulative busy time.
    fn ledger(&self, node: usize, stage: &str, stratum: Option<u32>, before: f64, busy0: f64) {
        let state = &self.nodes[node];
        self.tel.ledger_interval(
            node,
            stage,
            stratum,
            self.epoch + before,
            self.epoch + state.clock,
            busy0,
            state.busy,
        );
    }

    /// Empty `node`'s queue, taking the items off its assignment count.
    fn take_queue(&mut self, node: usize) -> Vec<usize> {
        let state = &mut self.nodes[node];
        state.assigned -= state.queue.len();
        state.queue.take_all()
    }

    /// `node` just died (its kill landed inside an event, or it ran out of
    /// retries) while `during` some activity: log the death and orphan
    /// `in_flight` plus its whole remaining queue.
    fn crash(&mut self, node: usize, during: &str, mut in_flight: Vec<usize>) {
        self.out.recovery.crashed_nodes.push(node);
        if self.tel.is_enabled() {
            self.tel.instant(
                Track::Node(node),
                "crash",
                ClockDomain::Sim,
                self.epoch + self.nodes[node].clock,
                vec![("during".into(), during.into())],
            );
        }
        in_flight.extend(self.take_queue(node));
        self.orphan(node, in_flight, "redistribute");
    }

    /// Redistribute `items` that `node` can no longer run, as of its clock.
    fn orphan(&mut self, node: usize, items: Vec<usize>, kind: &'static str) {
        let hop = Hop {
            from: Some(node),
            now: self.nodes[node].clock,
            kind,
        };
        self.redistribute(hop, items);
    }

    /// Re-solve the LP over the survivors and redistribute `orphans`
    /// stratum-aware. Receivers get the items appended to their queue plus
    /// a pending transfer cost; their time-intercept offsets carry current
    /// clock and backlog so completed fractions are subtracted from the
    /// solve. Survivors are nodes that are alive, present, and have not
    /// left; when none exist the orphans park in the lost pool for a
    /// future joiner.
    fn redistribute(&mut self, hop: Hop, orphans: Vec<usize>) {
        if orphans.is_empty() {
            return;
        }
        let survivors: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].active())
            .collect();
        if survivors.is_empty() {
            // No node can take the work right now: park it for a joiner.
            let parked = Hop {
                kind: "park",
                ..hop
            };
            self.trace_move(parked, None, &orphans);
            self.lost_pool.extend(orphans);
            return;
        }
        self.out.recovery.replans += 1;
        if self.tel.is_enabled() {
            self.tel.instant(
                Track::Coordinator,
                "replan",
                ClockDomain::Sim,
                self.epoch + hop.now,
                vec![
                    ("orphans".into(), orphans.len().to_string()),
                    ("survivors".into(), survivors.len().to_string()),
                ],
            );
        }
        // Wall finish estimate per survivor, in the planner's own units:
        // current clock plus model-predicted time for the remaining
        // backlog.
        let offsets: Vec<f64> = survivors
            .iter()
            .map(|&j| {
                let state = &self.nodes[j];
                state.clock + self.req.fits[j].slope.max(0.0) * state.queue.len() as f64
            })
            .collect();
        let sizes = self.shares(&survivors, &offsets, orphans.len());
        let ordered = stratum_interleave(orphans, self.req.strata);
        self.out.reassigned_items.extend(&ordered);
        // Integer-rounding slack goes to the fastest survivor.
        self.distribute(hop, &ordered, &survivors, &sizes, survivors[0]);
    }

    /// Integer LP shares of `n` items over `roster`, each node's time
    /// intercept shifted by its entry in `offsets`: exact waterfilling at
    /// `alpha >= 1`, otherwise the scalarized LP with waterfilling as the
    /// fallback if the LP fails, and an even split for degenerate models.
    fn shares(&self, roster: &[usize], offsets: &[f64], n: usize) -> Vec<usize> {
        let Ok(sub) = self.modeler.restrict_with_offsets(roster, offsets) else {
            let (base, extra) = (n / roster.len(), n % roster.len());
            return (0..roster.len())
                .map(|k| base + usize::from(k < extra))
                .collect();
        };
        if self.req.alpha < 1.0 {
            if let Ok(point) = sub.solve(n, self.req.alpha) {
                return point.sizes;
            }
        }
        sub.solve_het_aware(n).sizes
    }

    /// Hand `ordered` out along `roster`, at most `quotas[k]` items to
    /// `roster[k]`, and any integer-rounding tail to `tail_to`.
    fn distribute(
        &mut self,
        hop: Hop,
        ordered: &[usize],
        roster: &[usize],
        quotas: &[usize],
        tail_to: usize,
    ) {
        let mut cursor = 0usize;
        for (&receiver, &quota) in roster.iter().zip(quotas) {
            let take = quota.min(ordered.len() - cursor);
            self.deliver(hop, receiver, &ordered[cursor..cursor + take]);
            cursor += take;
        }
        self.deliver(hop, tail_to, &ordered[cursor..]);
    }

    /// Append `items` to `receiver`'s queue. The transfer is priced when
    /// the receiver reaches it; recording it as pending keeps it subject
    /// to the receiver's own crash. Its span will read "rebalance" for a
    /// join rebalance and "redistribute" for every other reassignment.
    fn deliver(&mut self, hop: Hop, receiver: usize, items: &[usize]) {
        if items.is_empty() {
            return;
        }
        self.trace_move(hop, Some(receiver), items);
        let bytes: u64 = items.iter().map(|&r| self.req.work[r].bytes).sum();
        let state = &mut self.nodes[receiver];
        state.pending.add(Cost::request(bytes));
        state.pending_kind = if hop.kind == "rebalance" {
            "rebalance"
        } else {
            "redistribute"
        };
        state.queue.extend(items.iter().copied());
        state.assigned += items.len();
        state.retired = false;
    }

    /// Record one group move for causal work-item tracing: bump each moved
    /// item's hop counter and emit one `lineage` instant per `(batch, hop)`
    /// group (BTreeMap order, so recording is deterministic). `to = None`
    /// is the lost pool. The endpoint labels are only built when a recorder
    /// is attached.
    fn trace_move(&mut self, hop: Hop, to: Option<usize>, items: &[usize]) {
        let Some(lin) = self.lineage.as_mut() else {
            return;
        };
        let mut groups: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for &r in items {
            let (batch, hop_count) = lin[r];
            *groups.entry((batch, hop_count)).or_insert(0) += 1;
            lin[r] = (batch, hop_count + 1);
        }
        let label = |end: Option<usize>| end.map_or("pool".to_string(), |i| format!("node{i}"));
        for ((batch, hop_count), count) in groups {
            self.tel.instant(
                Track::Coordinator,
                "lineage",
                ClockDomain::Sim,
                self.epoch + hop.now,
                vec![
                    ("batch".into(), batch.to_string()),
                    ("hop".into(), (hop_count + 1).to_string()),
                    ("kind".into(), hop.kind.into()),
                    ("from".into(), label(hop.from)),
                    ("to".into(), label(to)),
                    ("items".into(), count.to_string()),
                ],
            );
        }
    }

    /// Phase 0: every node with a partition fetches it, spending its
    /// transient-error retries first; nodes lost during the fetch orphan
    /// their whole partition.
    fn fetch_partitions(&mut self) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].queue.is_empty() {
                continue;
            }
            let spent = self.retry(i, "kv-retry");
            self.out.recovery.retries_spent += spent;
            if spent > 0 {
                self.tel
                    .counter_add("pareto_kv_retries_total", &[], u64::from(spent));
            }
            let state = &mut self.nodes[i];
            if state.alive {
                let bytes: u64 = state.queue.iter().map(|r| self.req.work[r].bytes).sum();
                state.pending = Cost::request(bytes);
                state.pending_kind = "fetch";
            }
        }
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                self.crash(i, "fetch", Vec::new());
            }
        }
    }

    /// Activate the scheduled joiner whose time has come, if any:
    /// simulated time is the minimum clock over selectable nodes, and a
    /// joiner whose join time is at or before it enters the roster
    /// (earliest join first, ties to the lowest id). When no node is
    /// selectable but orphans are stranded in the lost pool, the next
    /// joiner is activated unconditionally to rescue them. A joiner whose
    /// kill time precedes its join time never activates.
    fn activate_due_joiner(&mut self) -> bool {
        let p = self.nodes.len();
        let now_min = (0..p)
            .filter(|&i| self.nodes[i].active() && !self.nodes[i].retired)
            .map(|i| self.nodes[i].clock)
            .fold(f64::INFINITY, f64::min);
        let rescue = !now_min.is_finite() && !self.lost_pool.is_empty();
        let due = (0..p)
            .filter(|&j| self.nodes[j].absent && self.nodes[j].alive)
            .filter_map(|j| self.join_at[j].map(|t| (j, t)))
            .filter(|&(j, t)| self.kill_at[j].is_none_or(|k| k > t) && (t <= now_min || rescue))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let Some((joiner, t_join)) = due else {
            return false;
        };
        self.nodes[joiner].absent = false;
        self.nodes[joiner].clock = t_join;
        self.out.join_epochs[joiner] = Some(t_join);
        self.out.recovery.joins_applied += 1;
        if self.tel.is_enabled() {
            self.tel.instant(
                Track::Node(joiner),
                "join",
                ClockDomain::Sim,
                self.epoch + t_join,
                vec![],
            );
            self.tel
                .counter_add("pareto_elastic_events_total", &[("kind", "join")], 1);
        }
        // Rescue any stranded orphans first, then pull an LP share of the
        // queued backlog onto the joiner.
        let stranded = std::mem::take(&mut self.lost_pool);
        let from_pool = |kind| Hop {
            from: None,
            now: t_join,
            kind,
        };
        self.redistribute(from_pool("rescue"), stranded);
        self.rebalance_onto(joiner, from_pool("rebalance"));
        true
    }

    /// Rebalance queued (not in-flight) backlog when `joiner` activates:
    /// re-solve the LP over every active node for the total queued count,
    /// trim each overloaded queue back to its LP share (from the back, so
    /// imminent work stays put), and hand the pooled excess to the
    /// underloaded nodes — in practice, mostly the joiner. Only moved items
    /// pay a transfer; items that keep their node are untouched.
    fn rebalance_onto(&mut self, joiner: usize, hop: Hop) {
        let eligible: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].active())
            .collect();
        let total_queued: usize = eligible.iter().map(|&i| self.nodes[i].queue.len()).sum();
        if total_queued == 0 || eligible.len() < 2 {
            return;
        }
        // The whole queued backlog is up for re-assignment, so offsets
        // carry only each node's clock (no backlog term).
        let offsets: Vec<f64> = eligible.iter().map(|&j| self.nodes[j].clock).collect();
        let sizes = self.shares(&eligible, &offsets, total_queued);
        // Trim excess from the back of each overloaded queue.
        let mut pool: Vec<usize> = Vec::new();
        for (&i, &share) in eligible.iter().zip(&sizes) {
            let state = &mut self.nodes[i];
            if state.queue.len() > share {
                let tail = state.queue.split_off(share);
                state.assigned -= tail.len();
                pool.extend(tail);
            }
        }
        if pool.is_empty() {
            return;
        }
        self.out.recovery.replans += 1;
        if self.tel.is_enabled() {
            self.tel.instant(
                Track::Coordinator,
                "rebalance",
                ClockDomain::Sim,
                self.epoch + hop.now,
                vec![
                    ("joiner".into(), joiner.to_string()),
                    ("moved".into(), pool.len().to_string()),
                ],
            );
        }
        let ordered = stratum_interleave(pool, self.req.strata);
        self.out.reassigned_items.extend(&ordered);
        let deficits: Vec<usize> = eligible
            .iter()
            .zip(&sizes)
            .map(|(&i, &share)| share.saturating_sub(self.nodes[i].queue.len()))
            .collect();
        // Integer-rounding slack lands on the joiner.
        self.distribute(hop, &ordered, &eligible, &deficits, joiner);
    }

    /// A node at or past its drain notice stops taking work: it hands its
    /// queue off through a KV-backed handoff record (same retry + backoff
    /// discipline as the fetch path — store flakiness is a property of the
    /// node's path, not a one-shot count, so its transient-error budget
    /// applies a second time) and leaves gracefully. A failed handoff
    /// (retry exhaustion or the preempt kill landing mid-write) falls back
    /// to the crash path. Returns whether `node` was due.
    fn drain_if_noticed(&mut self, node: usize) -> bool {
        let Some((notice, from_preempt)) = self.drain_notice[node] else {
            return false;
        };
        if self.nodes[node].left || self.nodes[node].clock < notice {
            return false;
        }
        let rec = &mut self.out.recovery;
        if from_preempt {
            rec.preempts_applied += 1;
        } else {
            rec.drains_applied += 1;
        }
        if self.tel.is_enabled() {
            let kind = if from_preempt { "preempt" } else { "drain" };
            self.tel
                .counter_add("pareto_elastic_events_total", &[("kind", kind)], 1);
        }
        let items = self.take_queue(node);
        self.nodes[node].pending = Cost::ZERO;
        let mut handoff_ok = true;
        if !items.is_empty() {
            let spent = self.retry(node, "handoff-retry");
            self.out.recovery.handoff_retries += spent;
            let bytes: u64 = items.iter().map(|&r| self.req.work[r].bytes).sum();
            let record = Cost::request(bytes);
            handoff_ok = self.nodes[node].alive && self.charge(node, record, "handoff");
            if self.tel.is_enabled() {
                let outcome = if handoff_ok { "ok" } else { "failed" };
                self.tel
                    .counter_add("pareto_handoff_records_total", &[("outcome", outcome)], 1);
            }
        }
        if !handoff_ok {
            self.crash(node, "handoff", items);
            return true;
        }
        let now = self.nodes[node].clock;
        self.out.recovery.handoff_records += u32::from(!items.is_empty());
        self.out.handed_off_items.extend(&items);
        self.nodes[node].left = true;
        self.out.leave_epochs[node] = Some(now);
        self.out.recovery.left_nodes.push(node);
        if self.tel.is_enabled() {
            self.tel.instant(
                Track::Node(node),
                "leave",
                ClockDomain::Sim,
                self.epoch + now,
                vec![("items_handed_off".into(), items.len().to_string())],
            );
        }
        self.orphan(node, items, "handoff");
        true
    }

    /// Execute item `r` (already popped) on `node`. If the node dies
    /// mid-item, the in-flight item and the rest of the queue are orphans;
    /// the busy time burned before the kill still draws power, so it gets
    /// an exec ledger row either way.
    fn exec_item(&mut self, node: usize, r: usize) {
        let cost = Cost::compute(self.req.work[r].ops);
        let (before, busy0) = (self.nodes[node].clock, self.nodes[node].busy);
        let dt = self.event_seconds(node, &cost, before);
        let survived = self.advance(node, dt);
        if survived {
            self.nodes[node].cost.add(cost);
            self.out.completed_by[r] = Some(node);
            self.out.completed_at_s[r] = Some(self.nodes[node].clock);
        }
        if self.tel.is_enabled() {
            if survived {
                self.tel.span(
                    Track::Node(node),
                    "exec",
                    ClockDomain::Sim,
                    self.epoch + before,
                    self.epoch + self.nodes[node].clock,
                    SpanId::NONE,
                    vec![("item".into(), r.to_string())],
                );
            }
            let stratum = self.req.strata.get(r).copied().unwrap_or(0);
            self.ledger(node, "exec", Some(stratum), before, busy0);
        }
        if !survived {
            self.crash(node, "exec", vec![r]);
        }
    }

    /// Idle `node` looks for speculative re-execution: steal the back half
    /// of the most-behind straggler (projected finish > threshold ×
    /// `f_v(x_v)`), transfer paid by the thief — but only if the thief,
    /// priced at its own clock, speed, network and straggler factor, would
    /// finish that half strictly before the victim's projected finish.
    /// Otherwise it waits as if no victim were found. If the thief dies
    /// mid-transfer the stolen items become orphans and are replanned.
    /// Returns whether a steal happened.
    fn steal_from_straggler(&mut self, node: usize) -> bool {
        let victim = self.pick_victim(node, |v| self.projected_finish(v));
        #[cfg(test)]
        self.assert_matches_reference(node, victim);
        let Some((victim, victim_finish)) = victim else {
            return false;
        };
        let work = self.req.work;
        let (ops, bytes) = self.nodes[victim]
            .queue
            .back_half()
            .fold((0u64, 0u64), |(ops, bytes), r| {
                (ops + work[r].ops, bytes + work[r].bytes)
            });
        let before = self.nodes[node].clock;
        let thief_finish = before
            + self.event_seconds(node, &Cost::request(bytes), before)
            + self.event_seconds(node, &Cost::compute(ops), before);
        if thief_finish >= victim_finish {
            return false;
        }
        let stolen = self.nodes[victim].queue.steal_back_half();
        self.nodes[victim].assigned -= stolen.len();
        self.out.recovery.speculative_steals += 1;
        self.out.recovery.items_stolen += stolen.len();
        let survived = self.charge(node, Cost::request(bytes), "steal");
        let hop = Hop {
            from: Some(victim),
            now: before,
            kind: "steal",
        };
        self.trace_move(hop, Some(node), &stolen);
        if self.tel.is_enabled() {
            self.tel.instant(
                Track::Node(node),
                "steal",
                ClockDomain::Sim,
                self.epoch + before,
                vec![
                    ("victim".into(), victim.to_string()),
                    ("items".into(), stolen.len().to_string()),
                    ("thief_finish_s".into(), thief_finish.to_string()),
                    ("victim_finish_s".into(), victim_finish.to_string()),
                ],
            );
        }
        if survived {
            self.nodes[node].assigned += stolen.len();
            self.nodes[node].queue.extend(stolen);
        } else {
            self.crash(node, "steal", stolen);
        }
        true
    }

    /// `v`'s projected wall finish: its clock plus its queue's ops total
    /// and its pending transfer, each priced once at that clock. O(1), so a
    /// straggler poll costs O(nodes) whatever the queue lengths.
    fn projected_finish(&self, v: usize) -> f64 {
        let state = &self.nodes[v];
        let queued = Cost::compute(state.queue.ops());
        let remaining = self.event_seconds(v, &queued, state.clock)
            + self.event_seconds(v, &state.pending, state.clock);
        state.clock + remaining
    }

    /// The most-behind straggler other than `node`, with its projected
    /// finish: among active nodes with queued items, those whose
    /// `finish(v)` exceeds `threshold × f_v(x_v)` for their current
    /// assignment (the prediction floored so the ratio is always
    /// well-defined); ties go to the lowest id.
    fn pick_victim(&self, node: usize, finish: impl Fn(usize) -> f64) -> Option<(usize, f64)> {
        (0..self.nodes.len())
            .filter(|&v| v != node && self.nodes[v].active() && !self.nodes[v].queue.is_empty())
            .map(|v| (v, finish(v)))
            .filter(|&(v, projected)| {
                let assigned = self.nodes[v].assigned as f64;
                let predicted = self.req.fits[v].predict(assigned).max(1e-9);
                projected > self.req.cfg.straggler_threshold * predicted
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_cluster::NodeSpec;

    fn cluster(p: usize) -> SimCluster {
        SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, 3))
    }

    fn uniform_work(n: usize, ops: u64) -> Vec<RecordWork> {
        vec![RecordWork { ops, bytes: 256 }; n]
    }

    fn equal_split(n: usize, p: usize) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); p];
        for i in 0..n {
            parts[i * p / n].push(i);
        }
        parts
    }

    /// Per-node f_i(x) = (seconds per mean item) · x, matching the
    /// simulated cluster exactly so straggler detection has a truthful
    /// baseline.
    fn truthful_fits(cl: &SimCluster, ops: u64) -> Vec<LinearFit> {
        (0..cl.num_nodes())
            .map(|i| LinearFit {
                slope: cl.cost_to_seconds(i, &Cost::compute(ops)),
                intercept: 0.0,
                r_squared: 1.0,
                n: 2,
            })
            .collect()
    }

    fn profiles(p: usize) -> Vec<NodeEnergyProfile> {
        (0..p)
            .map(|i| NodeEnergyProfile {
                draw_watts: 200.0 + 40.0 * i as f64,
                mean_green_watts: 120.0,
            })
            .collect()
    }

    fn run_cfg(
        cl: &SimCluster,
        work: &[RecordWork],
        initial: &[Vec<usize>],
        faults: &FaultPlan,
        cfg: &RecoveryConfig,
    ) -> RecoveryOutcome {
        let strata: Vec<u32> = (0..work.len()).map(|i| (i % 3) as u32).collect();
        let fits = truthful_fits(cl, work.first().map_or(1, |w| w.ops));
        let profs = profiles(cl.num_nodes());
        execute(&ExecRequest {
            cluster: cl,
            work,
            initial,
            strata: &strata,
            fits: &fits,
            profiles: &profs,
            alpha: 1.0,
            faults,
            cfg,
            telemetry: None,
        })
        .expect("well-formed request")
    }

    fn run(
        cl: &SimCluster,
        work: &[RecordWork],
        initial: &[Vec<usize>],
        faults: &FaultPlan,
    ) -> RecoveryOutcome {
        run_cfg(cl, work, initial, faults, &RecoveryConfig::default())
    }

    /// The unit tests' side of `steal_from_straggler`'s check.
    impl Sim<'_> {
        /// The reference straggler scan: every queued item priced separately
        /// and summed.
        fn reference_victim(&self, node: usize) -> Option<(usize, f64)> {
            self.pick_victim(node, |v| self.reference_finish(v))
        }

        /// [`Sim::projected_finish`] with the queue priced item by item.
        fn reference_finish(&self, v: usize) -> f64 {
            let (state, work) = (&self.nodes[v], self.req.work);
            let remaining: f64 = state
                .queue
                .iter()
                .map(|r| self.event_seconds(v, &Cost::compute(work[r].ops), state.clock))
                .sum::<f64>()
                + self.event_seconds(v, &state.pending, state.clock);
            state.clock + remaining
        }

        /// Every idle poll in the unit tests re-derives the victim the slow
        /// way: the same victim, and for every node with queued items a
        /// projection equal up to the rounding of summing per item.
        pub(super) fn assert_matches_reference(&self, node: usize, victim: Option<(usize, f64)>) {
            for v in (0..self.nodes.len()).filter(|&v| !self.nodes[v].queue.is_empty()) {
                let (fast, slow) = (self.projected_finish(v), self.reference_finish(v));
                assert!(
                    (fast - slow).abs() <= 1e-9 * slow.abs(),
                    "node {v}: projection {fast} vs per-item {slow}"
                );
            }
            let reference = self.reference_victim(node);
            assert_eq!(
                victim.map(|v| v.0),
                reference.map(|v| v.0),
                "node {node} chose {victim:?}, the per-item scan {reference:?}"
            );
        }
    }

    #[test]
    fn fault_free_run_has_zero_overhead() {
        let cl = cluster(4);
        let work = uniform_work(120, 1_000_000);
        let out = run(&cl, &work, &equal_split(120, 4), &FaultPlan::none());
        assert!(out.recovery.exactly_once);
        assert_eq!(out.recovery.replans, 0);
        assert_eq!(out.recovery.crashed_nodes, Vec::<usize>::new());
        assert_eq!(out.recovery.makespan_overhead, 0.0);
        assert_eq!(out.recovery.dirty_overhead_j, 0.0);
        assert!(out.recovery.makespan_s > 0.0);
    }

    #[test]
    fn single_crash_replans_and_completes_everything() {
        let cl = cluster(4);
        let work = uniform_work(200, 2_000_000);
        let initial = equal_split(200, 4);
        let baseline = run(&cl, &work, &initial, &FaultPlan::none());
        let tc = baseline.recovery.makespan_s * 0.4;
        let plan = FaultPlan::new().with_crash(1, tc);
        let out = run(&cl, &work, &initial, &plan);
        assert_eq!(out.recovery.crashed_nodes, vec![1]);
        assert!(out.recovery.replans >= 1);
        assert!(out.recovery.exactly_once, "all items must complete");
        assert!(out.recovery.items_reassigned > 0);
        // No reassigned item may have completed on the dead node.
        for &item in &out.reassigned_items {
            assert_ne!(out.completed_by[item], Some(1), "item {item} on dead node");
        }
        // Under an equal split the fast nodes have idle headroom, so the
        // replanned orphans may hide entirely inside the slow node's
        // shadow — overhead can be zero but never negative.
        assert!(
            out.recovery.makespan_overhead >= 0.0,
            "recovery cannot finish before the fault-free run"
        );
    }

    #[test]
    fn retry_exhaustion_is_treated_as_node_failure() {
        let cl = cluster(3);
        let work = uniform_work(90, 1_000_000);
        let initial = equal_split(90, 3);
        // Default max_retries = 3, so 10 store errors kill node 2.
        let plan = FaultPlan::new().with_store_errors(2, 10);
        let out = run(&cl, &work, &initial, &plan);
        assert!(out.recovery.crashed_nodes.contains(&2));
        assert!(out.recovery.retries_spent > 0);
        assert!(out.recovery.exactly_once);
        assert!(out.completed_by.iter().all(|c| *c != Some(2)));
    }

    #[test]
    fn transient_errors_within_budget_only_slow_the_node() {
        let cl = cluster(3);
        let work = uniform_work(90, 1_000_000);
        let initial = equal_split(90, 3);
        let plan = FaultPlan::new().with_store_errors(2, 2);
        let out = run(&cl, &work, &initial, &plan);
        assert_eq!(out.recovery.retries_spent, 2);
        assert_eq!(out.recovery.crashed_nodes, Vec::<usize>::new());
        assert!(out.recovery.exactly_once);
        assert!(out.completed_by.contains(&Some(2)));
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert_eq!(
            RecoveryConfig::new(0, 0.05, 1.5),
            Err(RecoveryConfigError::ZeroRetries)
        );
        assert_eq!(
            RecoveryConfig::new(u32::MAX, 0.05, 1.5),
            Err(RecoveryConfigError::AbsurdRetries(u32::MAX))
        );
        assert!(matches!(
            RecoveryConfig::new(3, f64::NAN, 1.5),
            Err(RecoveryConfigError::BadBackoff(_))
        ));
        assert!(matches!(
            RecoveryConfig::new(3, -0.1, 1.5),
            Err(RecoveryConfigError::BadBackoff(_))
        ));
        assert!(matches!(
            RecoveryConfig::new(3, 0.05, f64::INFINITY),
            Err(RecoveryConfigError::BadStragglerThreshold(_))
        ));
        assert!(matches!(
            RecoveryConfig::new(3, 0.05, 0.5),
            Err(RecoveryConfigError::BadStragglerThreshold(_))
        ));
        let ok = RecoveryConfig::new(5, 0.1, 2.0).unwrap();
        assert_eq!(ok.max_retries, 5);
        assert!(ok.validate().is_ok());
        assert!(RecoveryConfig::default().validate().is_ok());
        // Error messages are self-describing.
        assert!(RecoveryConfigError::ZeroRetries.to_string().contains("max_retries"));
        assert!(RecoveryConfigError::BadStragglerThreshold(0.5)
            .to_string()
            .contains("1.0"));
    }

    /// The executor boundary returns typed errors, never panics: per-node
    /// inputs that are not node-aligned, a queued item outside `work`, and
    /// an invalid config are all rejected before anything runs.
    #[test]
    fn malformed_requests_are_typed_errors() {
        let cl = cluster(3);
        let work = uniform_work(30, 1_000_000);
        let initial = equal_split(30, 3);
        let fits = truthful_fits(&cl, 1_000_000);
        let profs = profiles(3);
        let (faults, cfg) = (FaultPlan::none(), RecoveryConfig::default());
        let good = ExecRequest {
            cluster: &cl,
            work: &work,
            initial: &initial,
            strata: &[],
            fits: &fits,
            profiles: &profs,
            alpha: 1.0,
            faults: &faults,
            cfg: &cfg,
            telemetry: None,
        };
        assert!(execute(&good).is_ok());
        let misaligned = |input, len| RecoveryConfigError::Misaligned { input, len, nodes: 3 };
        let short = ExecRequest { initial: &initial[..2], ..good };
        assert_eq!(execute(&short).unwrap_err(), misaligned("initial", 2));
        let short = ExecRequest { fits: &fits[..1], ..good };
        assert_eq!(execute(&short).unwrap_err(), misaligned("fits", 1));
        let short = ExecRequest { profiles: &[], ..good };
        assert_eq!(execute(&short).unwrap_err(), misaligned("profiles", 0));
        let mut stray = initial.clone();
        stray[1].push(30);
        let out_of_range = ExecRequest { initial: &stray, ..good };
        assert_eq!(
            execute(&out_of_range).unwrap_err(),
            RecoveryConfigError::ItemOutOfRange { item: 30, items: 30 }
        );
        let bad_cfg = RecoveryConfig { max_retries: 0, ..cfg };
        let invalid = ExecRequest { cfg: &bad_cfg, ..good };
        assert_eq!(execute(&invalid).unwrap_err(), RecoveryConfigError::ZeroRetries);
        // Queued ops summing past u64::MAX would wrap a queue's running
        // total; exactly u64::MAX passes the check. (Only the check:
        // simulating 2^64 ops does not finish in test time.)
        let two = [vec![0], vec![1], vec![]];
        let huge = uniform_work(2, u64::MAX / 2 + 1);
        let overflow = ExecRequest { work: &huge, initial: &two, ..good };
        assert_eq!(execute(&overflow).unwrap_err(), RecoveryConfigError::WorkOverflow);
        let edge = [huge[0], RecordWork { ops: u64::MAX / 2, bytes: 256 }];
        assert!(ExecRequest { work: &edge, initial: &two, ..good }.validate().is_ok());
        // Fits and profiles the planning model rejects.
        let mut negative = fits.clone();
        negative[2].slope = -1e-6;
        let bad_fit = ExecRequest { fits: &negative, alpha: 0.5, ..good };
        assert!(matches!(
            execute(&bad_fit).unwrap_err(),
            RecoveryConfigError::BadModel(PartitionPlanError::Degenerate(_))
        ));
        let mut nan = profs.clone();
        nan[0].mean_green_watts = f64::NAN;
        let bad_profile = ExecRequest { profiles: &nan, alpha: 0.5, ..good };
        assert!(matches!(
            execute(&bad_profile).unwrap_err(),
            RecoveryConfigError::BadModel(PartitionPlanError::Degenerate(_))
        ));
    }

    /// Exhaustion boundary: with `max_retries = k`, exactly `k` errors are
    /// survivable and `k + 1` is fatal.
    #[test]
    fn retry_exhaustion_boundary_is_exact() {
        let cl = cluster(3);
        let work = uniform_work(90, 1_000_000);
        let initial = equal_split(90, 3);
        let cfg = RecoveryConfig::new(4, 0.05, 1.5).unwrap();
        let run_with = |errors: u32| {
            let faults = FaultPlan::new().with_store_errors(1, errors);
            run_cfg(&cl, &work, &initial, &faults, &cfg)
        };
        // Exactly at budget: survives, all retries spent on node 1.
        let at = run_with(4);
        assert_eq!(at.recovery.crashed_nodes, Vec::<usize>::new());
        assert_eq!(at.recovery.retries_spent, 4);
        assert!(at.recovery.exactly_once);
        assert!(at.completed_by.contains(&Some(1)));
        // One past budget: node 1 is declared failed and replanned around.
        let past = run_with(5);
        assert_eq!(past.recovery.crashed_nodes, vec![1]);
        assert_eq!(past.recovery.retries_spent, 4, "stops retrying at budget");
        assert!(past.recovery.replans >= 1);
        assert!(past.recovery.exactly_once, "survivors absorb the partition");
        assert!(past.completed_by.iter().all(|c| *c != Some(1)));
        // Exhaustion costs strictly more wall time than the boundary case.
        assert!(past.recovery.makespan_overhead >= 0.0);
    }

    /// Every node exhausting retries is equivalent to total cluster loss.
    #[test]
    fn retry_exhaustion_on_all_nodes_loses_the_job() {
        let cl = cluster(2);
        let work = uniform_work(40, 1_000_000);
        let initial = equal_split(40, 2);
        let plan = FaultPlan::new()
            .with_store_errors(0, 10)
            .with_store_errors(1, 10);
        let out = run(&cl, &work, &initial, &plan);
        assert_eq!(out.recovery.crashed_nodes.len(), 2);
        assert!(!out.recovery.exactly_once);
        assert_eq!(out.recovery.items_completed, 0);
        assert!(out.completed_by.iter().all(|c| c.is_none()));
    }

    #[test]
    fn straggler_triggers_speculative_reexecution() {
        let cl = cluster(4);
        let work = uniform_work(200, 2_000_000);
        let initial = equal_split(200, 4);
        let plan = FaultPlan::new().with_straggler(3, 8.0);
        let out = run(&cl, &work, &initial, &plan);
        assert!(
            out.recovery.speculative_steals > 0,
            "an 8x straggler must be stolen from: {:?}",
            out.recovery
        );
        assert!(out.recovery.items_stolen > 0);
        assert!(out.recovery.exactly_once);
    }

    /// An unpaid transfer counts toward a victim's projected finish: node
    /// 1 runs at its predicted pace but owes a huge redistribution
    /// transfer, so an idle node steals from it. (The poll also checks every
    /// projection against the per-item scan.)
    #[test]
    fn pending_transfer_makes_a_straggler() {
        let cl = cluster(3);
        let work = uniform_work(60, 1_000_000);
        let initial = vec![(0..30).collect(), (30..60).collect(), Vec::new()];
        let (fits, profs) = (truthful_fits(&cl, 1_000_000), profiles(3));
        let (faults, cfg) = (FaultPlan::none(), RecoveryConfig::default());
        let req = ExecRequest {
            cluster: &cl,
            work: &work,
            initial: &initial,
            strata: &[],
            fits: &fits,
            profiles: &profs,
            alpha: 1.0,
            faults: &faults,
            cfg: &cfg,
            telemetry: None,
        };
        let modeler = req.validate().expect("well-formed request");
        let tel = Telemetry::disabled();
        let mut sim = Sim::new(&req, &modeler, &faults, &tel, 0.0);
        assert!(!sim.steal_from_straggler(2), "on pace: nothing to steal");
        sim.nodes[1].pending = Cost::request(1 << 40);
        assert!(sim.steal_from_straggler(2), "the transfer makes node 1 late");
        assert_eq!(sim.nodes[1].queue.len(), 15);
    }

    /// A steal is taken only when the thief finishes the stolen half first.
    /// Node 0 (speed 1) straggles at 1.8× over 40 items, 72 item-times in
    /// all; the speed-1/4 node 3 would need 80 for the back half, so it
    /// waits. With the roles swapped, node 3 straggling at 1.8× and node 0
    /// idle, the fast thief finishes its half in 20 of 288 and steals.
    #[test]
    fn a_slow_thief_does_not_steal_what_it_would_finish_last() {
        let cl = cluster(4);
        let work = uniform_work(40, 1_000_000);
        let (fits, profs) = (truthful_fits(&cl, 1_000_000), profiles(4));
        let tel = Telemetry::disabled();
        let cfg = RecoveryConfig::default();
        for (victim, thief, steals) in [(0, 3, false), (3, 0, true)] {
            let mut initial = vec![Vec::new(); 4];
            initial[victim] = (0..40).collect();
            let faults = FaultPlan::new().with_straggler(victim, 1.8);
            let req = ExecRequest {
                cluster: &cl,
                work: &work,
                initial: &initial,
                strata: &[],
                fits: &fits,
                profiles: &profs,
                alpha: 1.0,
                faults: &faults,
                cfg: &cfg,
                    telemetry: None,
            };
            let modeler = req.validate().expect("well-formed request");
            let mut sim = Sim::new(&req, &modeler, &faults, &tel, 0.0);
            assert_eq!(
                sim.steal_from_straggler(thief),
                steals,
                "node {thief} stealing from node {victim}"
            );
            assert_eq!(sim.nodes[victim].queue.len(), if steals { 20 } else { 40 });
        }
    }

    /// A start sized in proportion to node speed, under truthful fits,
    /// finishes together and leaves nothing to steal.
    #[test]
    fn no_stealing_when_already_balanced() {
        let cl = cluster(4);
        let work = uniform_work(100, 1_000_000);
        let mut next = 0;
        let initial: Vec<Vec<usize>> = [48, 24, 16, 12]
            .iter()
            .map(|&take| {
                next += take;
                (next - take..next).collect()
            })
            .collect();
        let out = run(&cl, &work, &initial, &FaultPlan::none());
        assert_eq!(
            out.recovery.speculative_steals, 0,
            "balanced start should not steal"
        );
        assert!(out.recovery.exactly_once);
        assert!(out.report.imbalance() < 1.05);
    }

    #[test]
    fn empty_and_single_record_inputs() {
        let cl = cluster(2);
        let out = run(&cl, &[], &[vec![], vec![]], &FaultPlan::none());
        assert_eq!(out.recovery.makespan_s, 0.0);
        assert!(out.recovery.exactly_once);
        let work = uniform_work(1, 5_000_000);
        let out = run(&cl, &work, &[vec![0], vec![]], &FaultPlan::none());
        assert!(out.recovery.makespan_s > 0.0);
        assert_eq!(out.completed_by, vec![Some(0)]);
    }

    /// The fits price every item at the cheapest item's ops, so the nodes
    /// run late and steal; each item's ops are still charged exactly once.
    #[test]
    fn all_records_processed_exactly_once() {
        let cl = cluster(3);
        let work: Vec<RecordWork> = (0..97)
            .map(|i| RecordWork {
                ops: 100_000 + (i as u64 % 7) * 50_000,
                bytes: 64,
            })
            .collect();
        let out = run(&cl, &work, &equal_split(97, 3), &FaultPlan::none());
        assert!(out.recovery.speculative_steals > 0, "{:?}", out.recovery);
        assert!(out.recovery.exactly_once);
        let total_ops: u64 = work.iter().map(|w| w.ops).sum();
        let charged: u64 = out.report.runs.iter().map(|r| r.cost.compute_ops).sum();
        assert_eq!(charged, total_ops, "every record charged exactly once");
    }

    #[test]
    fn total_cluster_loss_reports_incomplete() {
        let cl = cluster(2);
        let work = uniform_work(40, 5_000_000);
        let initial = equal_split(40, 2);
        let plan = FaultPlan::new().with_crash(0, 0.001).with_crash(1, 0.001);
        let out = run(&cl, &work, &initial, &plan);
        assert!(!out.recovery.exactly_once);
        assert_eq!(out.recovery.items_completed, 0);
        assert_eq!(out.recovery.crashed_nodes.len(), 2);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let cl = cluster(4);
        let work = uniform_work(150, 1_500_000);
        let initial = equal_split(150, 4);
        let plan = FaultPlan::generate(0xFA17, 4, &pareto_cluster::FaultSpec::default());
        let a = run(&cl, &work, &initial, &plan);
        let b = run(&cl, &work, &initial, &plan);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.completed_by, b.completed_by);
        assert_eq!(a.reassigned_items, b.reassigned_items);
    }

    #[test]
    fn stratum_interleave_mixes_strata() {
        let strata = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let ordered = stratum_interleave(vec![0, 1, 2, 3, 4, 5, 6, 7, 8], &strata);
        // Any contiguous prefix of length 3 carries one item per stratum.
        let first: Vec<u32> = ordered[..3].iter().map(|&i| strata[i]).collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "prefix mixes strata: {ordered:?}");
        assert_eq!(ordered.len(), 9);
    }

    /// A plan without roster events counts every event as a fault and
    /// reports no roster activity at all.
    #[test]
    fn empty_elastic_plan_changes_nothing() {
        let cl = cluster(4);
        let work = uniform_work(120, 1_000_000);
        let initial = equal_split(120, 4);
        let plan = FaultPlan::generate(0xFA17, 4, &pareto_cluster::FaultSpec::default());
        assert!(!plan.is_empty() && plan.roster_len() == 0);
        let out = run(&cl, &work, &initial, &plan);
        let rec = &out.recovery;
        assert_eq!(rec.faults_injected, plan.len());
        assert_eq!(rec.elastic_events, 0);
        assert_eq!((rec.joins_applied, rec.drains_applied, rec.preempts_applied), (0, 0, 0));
        assert_eq!((rec.handoff_records, rec.items_handed_off), (0, 0));
        assert!(rec.left_nodes.is_empty() && out.handed_off_items.is_empty());
        assert!(out.join_epochs.iter().chain(&out.leave_epochs).all(Option::is_none));
    }

    #[test]
    fn drain_hands_off_queue_and_leaves_gracefully() {
        let cl = cluster(4);
        let work = uniform_work(200, 2_000_000);
        let initial = equal_split(200, 4);
        let baseline = run(&cl, &work, &initial, &FaultPlan::none());
        let t = baseline.recovery.makespan_s * 0.3;
        let roster = FaultPlan::new().with_drain(1, t);
        let out = run(&cl, &work, &initial, &roster);
        assert_eq!(out.recovery.drains_applied, 1);
        assert_eq!(out.recovery.left_nodes, vec![1]);
        assert_eq!(out.recovery.crashed_nodes, Vec::<usize>::new());
        assert_eq!(out.recovery.handoff_records, 1);
        assert!(out.recovery.items_handed_off > 0);
        assert!(out.recovery.exactly_once, "handoff must lose nothing");
        let leave = out.leave_epochs[1].expect("node 1 left");
        assert!(leave >= t);
        // No item completes on the drained node after its leave epoch,
        // and every handed-off item completes elsewhere.
        for (r, &by) in out.completed_by.iter().enumerate() {
            if by == Some(1) {
                assert!(out.completed_at_s[r].unwrap() <= leave + 1e-9);
            }
        }
        for &r in &out.handed_off_items {
            assert_ne!(out.completed_by[r], Some(1), "item {r} stayed on leaver");
        }
    }

    #[test]
    fn preempt_with_generous_grace_leaves_gracefully() {
        let cl = cluster(4);
        let work = uniform_work(120, 1_000_000);
        let initial = equal_split(120, 4);
        let baseline = run(&cl, &work, &initial, &FaultPlan::none());
        let t = baseline.recovery.makespan_s * 0.3;
        // Grace long enough to cover the handoff write comfortably.
        let roster = FaultPlan::new().with_preempt(2, t, baseline.recovery.makespan_s);
        let out = run(&cl, &work, &initial, &roster);
        assert_eq!(out.recovery.preempts_applied, 1);
        assert_eq!(out.recovery.left_nodes, vec![2]);
        assert_eq!(out.recovery.crashed_nodes, Vec::<usize>::new());
        assert!(out.recovery.exactly_once);
    }

    #[test]
    fn preempt_with_zero_grace_falls_back_to_crash_path() {
        let cl = cluster(4);
        let work = uniform_work(200, 2_000_000);
        let initial = equal_split(200, 4);
        let baseline = run(&cl, &work, &initial, &FaultPlan::none());
        let t = baseline.recovery.makespan_s * 0.3;
        let roster = FaultPlan::new().with_preempt(2, t, 0.0);
        let out = run(&cl, &work, &initial, &roster);
        // The kill lands at the notice: the node dies mid-work or during
        // the handoff, never gracefully.
        assert_eq!(out.recovery.left_nodes, Vec::<usize>::new());
        assert_eq!(out.recovery.crashed_nodes, vec![2]);
        assert_eq!(out.recovery.handoff_records, 0);
        assert!(out.recovery.exactly_once, "survivors absorb the orphans");
        assert_eq!(out.leave_epochs[2], None);
    }

    #[test]
    fn join_rebalances_backlog_onto_the_new_node() {
        let cl = cluster(4);
        let work = uniform_work(240, 2_000_000);
        // Node 3 starts absent: its would-be share spread over 0..=2.
        let initial = equal_split(240, 4);
        let baseline = run(&cl, &work, &initial, &FaultPlan::none());
        let roster = FaultPlan::new().with_join(3, baseline.recovery.makespan_s * 0.2);
        let out = run(&cl, &work, &initial, &roster);
        assert_eq!(out.recovery.joins_applied, 1);
        assert!(out.recovery.exactly_once);
        assert!(out.join_epochs[3].is_some());
        let t_join = out.join_epochs[3].unwrap();
        // The joiner actually worked, and only after joining.
        let done_by_3 = out
            .completed_by
            .iter()
            .enumerate()
            .filter(|(_, by)| **by == Some(3))
            .count();
        assert!(done_by_3 > 0, "joiner must receive rebalanced work");
        for (r, &by) in out.completed_by.iter().enumerate() {
            if by == Some(3) {
                assert!(
                    out.completed_at_s[r].unwrap() >= t_join,
                    "item {r} completed on node 3 before it joined"
                );
            }
        }
        // Initial items of the absent node were reassigned at t=0.
        assert!(out.recovery.items_reassigned > 0);
    }

    #[test]
    fn late_joiner_rescues_orphans_after_total_loss() {
        let cl = cluster(2);
        let work = uniform_work(40, 1_000_000);
        let initial = equal_split(40, 2);
        let faults = FaultPlan::new().with_crash(0, 0.001).with_crash(1, 0.001);
        // Without a joiner the job is lost...
        let lost = run(&cl, &work, &initial, &faults);
        assert!(!lost.recovery.exactly_once);
        // ...but a cluster with a third node joining later rescues it.
        let cl3 = cluster(3);
        let mut initial3 = equal_split(40, 2);
        initial3.push(Vec::new());
        let rescued = run(&cl3, &work, &initial3, &faults.clone().with_join(2, 50.0));
        assert!(rescued.recovery.exactly_once, "{:?}", rescued.recovery);
        assert_eq!(rescued.recovery.joins_applied, 1);
        assert!(rescued.completed_by.iter().all(|c| *c == Some(2)));
    }

    /// Satellite: `backoff_base_s = 0.0` is a valid config; a drain
    /// handoff retry storm under it must terminate with zero added
    /// backoff time and exact retry accounting.
    #[test]
    fn zero_backoff_drain_handoff_retry_storm_is_exact() {
        let cl = cluster(3);
        let work = uniform_work(90, 1_000_000);
        let initial = equal_split(90, 3);
        let cfg = RecoveryConfig::new(8, 0.0, 1.5).unwrap();
        let baseline = run(&cl, &work, &initial, &FaultPlan::none());
        let t = baseline.recovery.makespan_s * 0.3;
        // 5 store errors: consumed once at fetch, then again by the
        // drain handoff write.
        let faults = FaultPlan::new().with_store_errors(1, 5).with_drain(1, t);
        let out = run_cfg(&cl, &work, &initial, &faults, &cfg);
        assert_eq!(out.recovery.retries_spent, 5, "fetch retries");
        assert_eq!(out.recovery.handoff_retries, 5, "handoff retries");
        assert_eq!(out.recovery.handoff_records, 1);
        assert_eq!(out.recovery.left_nodes, vec![1]);
        assert!(out.recovery.exactly_once);
        // Determinism with zero backoff.
        let again = run_cfg(&cl, &work, &initial, &faults, &cfg);
        assert_eq!(out.recovery, again.recovery);
    }

    /// Satellite: `max_retries` exactly at the documented doubling bound
    /// is accepted and behaves; one past it is rejected.
    #[test]
    fn max_retries_at_doubling_bound_is_accepted() {
        let bound = RecoveryConfig::MAX_RETRY_BOUND;
        let cfg = RecoveryConfig::new(bound, 0.0, 1.5).expect("bound is valid");
        assert_eq!(
            RecoveryConfig::new(bound + 1, 0.0, 1.5),
            Err(RecoveryConfigError::AbsurdRetries(bound + 1))
        );
        // With zero backoff the doubling series contributes nothing, so
        // even a storm near the bound terminates promptly.
        let cl = cluster(2);
        let work = uniform_work(40, 1_000_000);
        let initial = equal_split(40, 2);
        let faults = FaultPlan::new().with_store_errors(0, 1000).with_drain(0, 1e6);
        let out = run_cfg(&cl, &work, &initial, &faults, &cfg);
        assert_eq!(out.recovery.retries_spent, 1000);
        assert_eq!(out.recovery.crashed_nodes, Vec::<usize>::new());
        assert!(out.recovery.exactly_once);
    }

    #[test]
    fn elastic_runs_are_bit_identical() {
        let cl = cluster(4);
        let work = uniform_work(150, 1_500_000);
        let initial = equal_split(150, 4);
        let spec = pareto_cluster::FaultSpec::storage().with_roster();
        let faults = FaultPlan::generate(0xFA17, 4, &spec);
        assert!(faults.roster_len() > 0);
        let a = run(&cl, &work, &initial, &faults);
        let b = run(&cl, &work, &initial, &faults);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.completed_by, b.completed_by);
        assert_eq!(a.reassigned_items, b.reassigned_items);
        assert_eq!(a.handed_off_items, b.handed_off_items);
        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|o| o.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&a.completed_at_s), bits(&b.completed_at_s));
        assert_eq!(bits(&a.join_epochs), bits(&b.join_epochs));
        assert_eq!(bits(&a.leave_epochs), bits(&b.leave_epochs));
    }

    #[test]
    fn network_degradation_inflates_makespan() {
        let cl = cluster(3);
        let work = uniform_work(90, 500_000);
        let initial = equal_split(90, 3);
        let clean = run(&cl, &work, &initial, &FaultPlan::none());
        let plan = FaultPlan::new().with_network_degradation(0, 0.0, 1e9, 50.0);
        let out = run(&cl, &work, &initial, &plan);
        assert!(out.recovery.exactly_once);
        assert!(
            out.recovery.makespan_s >= clean.recovery.makespan_s,
            "degraded {} vs clean {}",
            out.recovery.makespan_s,
            clean.recovery.makespan_s
        );
    }
}
