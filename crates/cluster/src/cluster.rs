//! The simulated cluster executor.
//!
//! [`SimCluster`] owns the node specs, one KV store per node (§IV: "we run
//! one instance of Redis server in each of our cluster nodes"), and the
//! cost-to-time conversion. A *job* is one closure per node — typically
//! "run the real analytics algorithm on this node's partition" — returning
//! a result and the exact [`Cost`] incurred. The cluster charges each
//! node's cost through its speed factor, integrates energy over the node's
//! green trace, and reports the job's makespan (the `v = max_i f_i(x_i)`
//! objective of §III-D) and dirty-energy totals.
//!
//! Closures run on real threads (`crossbeam::scope`) so multi-second
//! experiments use the host's cores, but all *reported* times are
//! simulated and therefore deterministic.

use std::sync::Arc;

use pareto_energy::{dirty_energy_joules, DirtyEnergyMode};
use pareto_telemetry::ledger::{attribute, BusyInterval, GreenSource, LedgerRow};
use pareto_telemetry::{ClockDomain, SpanId, Telemetry, Track};
use parking_lot::Mutex;

use crate::cost::Cost;
use crate::error::ClusterError;
use crate::kvstore::KvStore;
use crate::network::NetworkModel;
use crate::node::NodeSpec;

/// Default compute rate of a type-1 node, in abstract ops/second.
///
/// Calibrated so the synthetic datasets at default scale yield job times of
/// the same order as the paper's (tens to hundreds of seconds) — which also
/// makes the energy objective's scale dominate the time objective's, the
/// §III-D property that forces α ≈ 1 for useful trade-offs.
pub const DEFAULT_BASE_OPS_PER_SEC: f64 = 1.0e6;

/// Job start offset into the green traces, seconds: every job starts at
/// the traces' origin.
const JOB_START_S: f64 = 0.0;

/// Per-node outcome of a job.
#[derive(Debug, Clone)]
pub struct NodeRun {
    /// Node index.
    pub node_id: usize,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Total energy drawn (joules).
    pub energy_joules: f64,
    /// Dirty energy, paper-linear form (can be negative).
    pub dirty_joules_linear: f64,
    /// Dirty energy, physically clamped form.
    pub dirty_joules_clamped: f64,
    /// The raw cost the node reported.
    pub cost: Cost,
}

/// Whole-job outcome.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Per-node runs, indexed by node.
    pub runs: Vec<NodeRun>,
    /// Makespan: `max_i seconds_i` (the paper's `v`).
    pub makespan_seconds: f64,
    /// Σ dirty energy, paper-linear form.
    pub total_dirty_linear: f64,
    /// Σ dirty energy, clamped form.
    pub total_dirty_clamped: f64,
    /// Σ total draw.
    pub total_energy_joules: f64,
}

impl JobReport {
    /// Aggregate per-node runs into a report (makespan + energy totals).
    pub fn from_runs(runs: Vec<NodeRun>) -> Self {
        let makespan = runs.iter().map(|r| r.seconds).fold(0.0, f64::max);
        JobReport {
            makespan_seconds: makespan,
            total_dirty_linear: runs.iter().map(|r| r.dirty_joules_linear).sum(),
            total_dirty_clamped: runs.iter().map(|r| r.dirty_joules_clamped).sum(),
            total_energy_joules: runs.iter().map(|r| r.energy_joules).sum(),
            runs,
        }
    }

    /// Per-node simulated times.
    pub fn node_seconds(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.seconds).collect()
    }

    /// Load-imbalance ratio `max/mean` of node times (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        if self.runs.is_empty() {
            return 1.0;
        }
        let mean: f64 =
            self.runs.iter().map(|r| r.seconds).sum::<f64>() / self.runs.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            self.makespan_seconds / mean
        }
    }
}

/// The simulated heterogeneous cluster.
pub struct SimCluster {
    nodes: Vec<NodeSpec>,
    stores: Vec<KvStore>,
    network: NetworkModel,
    /// Instrumentation recorder (disabled by default: every recording
    /// call is a no-op and no epoch state mutates).
    telemetry: Arc<Telemetry>,
    /// Telemetry-only cursor along the shared simulated timeline: where
    /// the next job's spans begin. Barrier-separated jobs (SON phase 1 /
    /// phase 2) each compute from simulated t = 0; the cursor keeps their
    /// recorded spans from overlapping on the node tracks. Never read by
    /// any scheduling or accounting decision.
    sim_epoch: Mutex<f64>,
}

impl SimCluster {
    /// Build a cluster from node specs with the default network and
    /// compute rate; rejects an empty node list.
    pub fn try_new(nodes: Vec<NodeSpec>) -> Result<Self, ClusterError> {
        if nodes.is_empty() {
            return Err(ClusterError::EmptyCluster);
        }
        let stores = nodes.iter().map(|_| KvStore::new()).collect();
        Ok(SimCluster {
            nodes,
            stores,
            network: NetworkModel::default(),
            telemetry: Telemetry::disabled(),
            sim_epoch: Mutex::new(0.0),
        })
    }

    /// Build a cluster from node specs with the default network and
    /// compute rate.
    ///
    /// # Panics
    /// Panics on an empty node list; see [`SimCluster::try_new`] for the
    /// non-panicking form.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        Self::try_new(nodes).expect("cluster needs at least one node")
    }

    /// Attach a telemetry recorder: jobs record per-node execution spans
    /// on the simulated timeline plus traffic counters.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry recorder.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Current start of the simulated-timeline window for the next job's
    /// spans (telemetry bookkeeping only).
    pub fn sim_epoch(&self) -> f64 {
        *self.sim_epoch.lock()
    }

    /// Advance the simulated-timeline cursor past a job that took
    /// `makespan_s`, returning the epoch the job started at. Telemetry
    /// bookkeeping only — callers gate on an enabled recorder, so a
    /// telemetry-free run never touches this state.
    pub fn advance_sim_epoch(&self, makespan_s: f64) -> f64 {
        let mut epoch = self.sim_epoch.lock();
        let start = *epoch;
        *epoch += makespan_s.max(0.0);
        start
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node specs.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// One node's spec.
    pub fn node(&self, id: usize) -> &NodeSpec {
        &self.nodes[id]
    }

    /// The KV store living on node `id`.
    pub fn store(&self, id: usize) -> &KvStore {
        &self.stores[id]
    }

    /// Network model in force.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Base compute rate (type-1 ops/second):
    /// [`DEFAULT_BASE_OPS_PER_SEC`].
    pub fn base_ops_per_sec(&self) -> f64 {
        DEFAULT_BASE_OPS_PER_SEC
    }

    /// Deterministic digest of the planning-relevant state of an active
    /// node `roster` (ids into this cluster): base throughput plus each
    /// roster node's [`NodeSpec::planning_fingerprint`], folded in roster
    /// order. Any node add/remove/reorder — or a change to a rostered
    /// node's speed, power, or green trace — changes the digest, which is
    /// the roster-change invalidation hook the incremental planner keys
    /// its profile/optimize stages on.
    ///
    /// # Panics
    /// Panics if a roster id is out of range.
    pub fn roster_fingerprint(&self, roster: &[usize]) -> u64 {
        let mut state =
            pareto_stats::split_seed(0x0057_A7E5_9EC0_0001, DEFAULT_BASE_OPS_PER_SEC.to_bits());
        state = pareto_stats::split_seed(state, roster.len() as u64);
        for &id in roster {
            state = pareto_stats::split_seed(state, id as u64);
            state = pareto_stats::split_seed(state, self.nodes[id].planning_fingerprint());
        }
        state
    }

    /// Attribute recorded busy intervals against this cluster's power
    /// models and green traces, one ledger row per `(node, stage,
    /// stratum)` — see [`pareto_telemetry::ledger`] for the reconciliation
    /// contract with [`SimCluster::account_busy`].
    pub fn attribute_energy(&self, intervals: &[BusyInterval]) -> Vec<LedgerRow> {
        attribute(intervals, self)
    }

    /// Convert a cost to simulated seconds on node `id`.
    pub fn cost_to_seconds(&self, node_id: usize, cost: &Cost) -> f64 {
        cost.seconds(
            self.nodes[node_id].speed(),
            DEFAULT_BASE_OPS_PER_SEC,
            &self.network,
        )
    }

    /// Charge a node's run and produce its [`NodeRun`].
    fn account(&self, node_id: usize, cost: Cost) -> NodeRun {
        let node = &self.nodes[node_id];
        let seconds = self.cost_to_seconds(node_id, &cost);
        let power = node.power();
        let energy_joules = power.energy_joules(seconds);
        let dirty_linear = dirty_energy_joules(
            &power,
            &node.trace,
            JOB_START_S,
            seconds,
            DirtyEnergyMode::PaperLinear,
        );
        let dirty_clamped = dirty_energy_joules(
            &power,
            &node.trace,
            JOB_START_S,
            seconds,
            DirtyEnergyMode::Clamped,
        );
        NodeRun {
            node_id,
            seconds,
            energy_joules,
            dirty_joules_linear: dirty_linear,
            dirty_joules_clamped: dirty_clamped,
            cost,
        }
    }

    /// Account a node that was busy for an explicit number of simulated
    /// seconds (rather than the seconds implied by `cost`). The fault
    /// executor uses this: a crashed node burned wall time and energy up
    /// to its crash without completing the corresponding work, and
    /// degraded networks or straggler factors stretch an event's time
    /// beyond what the raw cost converts to.
    pub fn account_busy(&self, node_id: usize, busy_seconds: f64, cost: Cost) -> NodeRun {
        let node = &self.nodes[node_id];
        let power = node.power();
        let energy_joules = power.energy_joules(busy_seconds);
        let dirty_linear = dirty_energy_joules(
            &power,
            &node.trace,
            JOB_START_S,
            busy_seconds,
            DirtyEnergyMode::PaperLinear,
        );
        let dirty_clamped = dirty_energy_joules(
            &power,
            &node.trace,
            JOB_START_S,
            busy_seconds,
            DirtyEnergyMode::Clamped,
        );
        NodeRun {
            node_id,
            seconds: busy_seconds,
            energy_joules,
            dirty_joules_linear: dirty_linear,
            dirty_joules_clamped: dirty_clamped,
            cost,
        }
    }

    /// Execute one task per node **in parallel** (real threads) and account
    /// simulated time/energy. `tasks[i]` runs logically on node `i`.
    /// Rejects a task vector whose length differs from the node count.
    ///
    /// # Panics
    /// Panics if any task panics.
    pub fn try_execute_job<T, F>(&self, tasks: Vec<F>) -> Result<(Vec<T>, JobReport), ClusterError>
    where
        T: Send,
        F: FnOnce(JobCtx<'_>) -> (T, Cost) + Send,
    {
        if tasks.len() != self.nodes.len() {
            return Err(ClusterError::TaskCountMismatch {
                nodes: self.nodes.len(),
                tasks: tasks.len(),
            });
        }
        let mut slots: Vec<Option<(T, Cost)>> = Vec::with_capacity(tasks.len());
        for _ in 0..tasks.len() {
            slots.push(None);
        }
        crossbeam::thread::scope(|scope| {
            for (node_id, (task, slot)) in tasks.into_iter().zip(slots.iter_mut()).enumerate()
            {
                let ctx = JobCtx {
                    node_id,
                    store: &self.stores[node_id],
                    cluster: self,
                };
                scope.spawn(move |_| {
                    *slot = Some(task(ctx));
                });
            }
        })
        .expect("worker thread panicked");

        let mut results = Vec::with_capacity(slots.len());
        let mut runs = Vec::with_capacity(slots.len());
        for (node_id, slot) in slots.into_iter().enumerate() {
            let (result, cost) = slot.expect("every task must complete");
            runs.push(self.account(node_id, cost));
            results.push(result);
        }
        let report = JobReport::from_runs(runs);
        self.record_job_telemetry(&report);
        Ok((results, report))
    }

    /// Record one executed job on the simulated timeline: a coordinator
    /// `job` span covering the makespan, one `exec` span per node, and
    /// per-node traffic counters. Runs serially after the worker threads
    /// join, so recording order is deterministic; nothing here feeds back.
    fn record_job_telemetry(&self, report: &JobReport) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let tel = &self.telemetry;
        let epoch = self.advance_sim_epoch(report.makespan_seconds);
        let job = tel.span(
            Track::Coordinator,
            "job",
            ClockDomain::Sim,
            epoch,
            epoch + report.makespan_seconds,
            SpanId::NONE,
            vec![("nodes".into(), report.runs.len().to_string())],
        );
        for run in &report.runs {
            let node = run.node_id.to_string();
            tel.span(
                Track::Node(run.node_id),
                "exec",
                ClockDomain::Sim,
                epoch,
                epoch + run.seconds,
                job,
                vec![
                    ("ops".into(), run.cost.compute_ops.to_string()),
                    ("bytes".into(), run.cost.bytes.to_string()),
                    ("round_trips".into(), run.cost.round_trips.to_string()),
                ],
            );
            tel.counter_add(
                "pareto_cluster_compute_ops_total",
                &[("node", &node)],
                run.cost.compute_ops,
            );
            tel.counter_add(
                "pareto_cluster_bytes_total",
                &[("node", &node)],
                run.cost.bytes,
            );
            tel.counter_add(
                "pareto_cluster_round_trips_total",
                &[("node", &node)],
                run.cost.round_trips,
            );
            tel.ledger_interval(
                run.node_id,
                "exec",
                None,
                epoch,
                epoch + run.seconds,
                0.0,
                run.seconds,
            );
        }
        tel.counter_add("pareto_cluster_jobs_total", &[], 1);
    }

    /// Execute one task per node **in parallel** (real threads) and account
    /// simulated time/energy. `tasks[i]` runs logically on node `i`.
    ///
    /// # Panics
    /// Panics if `tasks.len() != num_nodes()` or if any task panics; see
    /// [`SimCluster::try_execute_job`] for the non-panicking form.
    pub fn execute_job<T, F>(&self, tasks: Vec<F>) -> (Vec<T>, JobReport)
    where
        T: Send,
        F: FnOnce(JobCtx<'_>) -> (T, Cost) + Send,
    {
        self.try_execute_job(tasks)
            .expect("one task per node required")
    }

    /// Account a pre-computed per-node cost vector without running
    /// anything; rejects a cost vector whose length differs from the node
    /// count.
    pub fn try_account_costs(&self, costs: &[Cost]) -> Result<JobReport, ClusterError> {
        if costs.len() != self.nodes.len() {
            return Err(ClusterError::CostCountMismatch {
                nodes: self.nodes.len(),
                costs: costs.len(),
            });
        }
        let runs: Vec<NodeRun> = costs
            .iter()
            .enumerate()
            .map(|(id, &c)| self.account(id, c))
            .collect();
        Ok(JobReport::from_runs(runs))
    }

    /// Account a pre-computed per-node cost vector without running
    /// anything (used by planners that already know the costs).
    ///
    /// # Panics
    /// Panics on a length mismatch; see [`SimCluster::try_account_costs`]
    /// for the non-panicking form.
    pub fn account_costs(&self, costs: &[Cost]) -> JobReport {
        self.try_account_costs(costs).expect("one cost per node")
    }
}

impl GreenSource for SimCluster {
    fn draw_watts(&self, node: usize) -> f64 {
        self.nodes[node].power().watts()
    }

    fn green_energy_joules(&self, node: usize, t0: f64, t1: f64) -> f64 {
        self.nodes[node].trace.energy_joules(t0, t1)
    }

    fn job_start_s(&self) -> f64 {
        JOB_START_S
    }
}

/// Per-task handle: which node the task runs on and that node's store.
pub struct JobCtx<'a> {
    /// The node this task is bound to.
    pub node_id: usize,
    /// The node's KV store.
    pub store: &'a KvStore,
    /// The owning cluster (for cross-node store access, e.g. writing to
    /// the master node's store).
    pub cluster: &'a SimCluster,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::MachineType;

    fn cluster(p: usize) -> SimCluster {
        SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, 42))
    }

    #[test]
    fn equal_work_makespan_set_by_slowest() {
        let c = cluster(4);
        let work = Cost::compute(100_000_000);
        let tasks: Vec<_> = (0..4).map(|_| move |_ctx: JobCtx<'_>| ((), work)).collect();
        let (_, report) = c.execute_job(tasks);
        // Type 4 runs at 1/4 speed => 4x the type-1 time.
        let t1 = report.runs[0].seconds;
        let t4 = report.runs[3].seconds;
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
        assert!((report.makespan_seconds - t4).abs() < 1e-12);
        assert!(report.imbalance() > 1.5);
    }

    #[test]
    fn speed_proportional_work_balances() {
        let c = cluster(4);
        let speeds: Vec<f64> = c.nodes().iter().map(|n| n.speed()).collect();
        let tasks: Vec<_> = speeds
            .iter()
            .map(|&s| {
                let ops = (100_000_000.0 * s) as u64;
                move |_ctx: JobCtx<'_>| ((), Cost::compute(ops))
            })
            .collect();
        let (_, report) = c.execute_job(tasks);
        assert!(
            (report.imbalance() - 1.0).abs() < 1e-6,
            "proportional sizing must balance: {:?}",
            report.node_seconds()
        );
    }

    #[test]
    fn energy_accounting_consistent() {
        let c = cluster(4);
        let tasks: Vec<_> = (0..4)
            .map(|_| move |_ctx: JobCtx<'_>| ((), Cost::compute(50_000_000)))
            .collect();
        let (_, report) = c.execute_job(tasks);
        for run in &report.runs {
            let watts = c.node(run.node_id).power().watts();
            assert!((run.energy_joules - watts * run.seconds).abs() < 1e-6);
            // Clamped dirty energy never exceeds total draw and is >= 0.
            assert!(run.dirty_joules_clamped >= 0.0);
            assert!(run.dirty_joules_clamped <= run.energy_joules + 1e-6);
            // Linear <= clamped (the credit can only reduce it).
            assert!(run.dirty_joules_linear <= run.dirty_joules_clamped + 1e-6);
        }
    }

    #[test]
    fn tasks_can_use_their_store() {
        let c = cluster(2);
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                |ctx: JobCtx<'_>| {
                    let mut cost = Cost::ZERO;
                    let (_, c1) = ctx.store.set("x", &b"v"[..]).unwrap();
                    cost.add(c1);
                    let (_, c2) = ctx.store.get("x").unwrap();
                    cost.add(c2);
                    (ctx.node_id, cost)
                }
            })
            .collect();
        let (results, report) = c.execute_job(tasks);
        assert_eq!(results, vec![0, 1]);
        assert!(report.runs.iter().all(|r| r.cost.round_trips == 2));
        // Stores are per-node: node 1's writes don't appear on node 0's
        // store beyond its own.
        assert!(matches!(
            c.store(0).get("x").unwrap().0,
            crate::kvstore::Reply::Bytes(_)
        ));
    }

    #[test]
    fn account_costs_matches_execute() {
        let c = cluster(3);
        let costs = vec![
            Cost::compute(10_000_000),
            Cost::compute(20_000_000),
            Cost::compute(30_000_000),
        ];
        let report = c.account_costs(&costs);
        let tasks: Vec<_> = costs
            .iter()
            .map(|&k| move |_ctx: JobCtx<'_>| ((), k))
            .collect();
        let (_, report2) = c.execute_job(tasks);
        for (a, b) in report.runs.iter().zip(&report2.runs) {
            assert_eq!(a.seconds, b.seconds);
            assert_eq!(a.dirty_joules_linear, b.dirty_joules_linear);
        }
    }

    #[test]
    fn deterministic_reports() {
        let c1 = cluster(8);
        let c2 = cluster(8);
        let costs: Vec<Cost> = (0..8).map(|i| Cost::compute(1_000_000 * (i + 1))).collect();
        let r1 = c1.account_costs(&costs);
        let r2 = c2.account_costs(&costs);
        assert_eq!(r1.makespan_seconds, r2.makespan_seconds);
        assert_eq!(r1.total_dirty_linear, r2.total_dirty_linear);
    }

    #[test]
    fn machine_cycle_in_cluster() {
        let c = cluster(8);
        assert_eq!(c.node(0).machine_type, MachineType::Type1);
        assert_eq!(c.node(5).machine_type, MachineType::Type2);
    }

    #[test]
    fn job_ledger_reconciles_with_node_runs() {
        use pareto_telemetry::ledger::{reconcile, ReferenceTotal};
        let tel = Telemetry::enabled();
        let c = cluster(4).with_telemetry(tel.clone());
        let tasks: Vec<_> = (0..4)
            .map(|i| move |_ctx: JobCtx<'_>| ((), Cost::compute(20_000_000 * (i + 1))))
            .collect();
        let (_, report) = c.execute_job(tasks);
        let snap = tel.snapshot();
        assert_eq!(snap.ledger.len(), 4);
        let rows = c.attribute_energy(&snap.ledger);
        let reference: Vec<ReferenceTotal> = report
            .runs
            .iter()
            .map(|r| ReferenceTotal {
                node: r.node_id,
                busy_s: r.seconds,
                energy_j: r.energy_joules,
                dirty_j: r.dirty_joules_linear,
            })
            .collect();
        let errors = reconcile(&rows, &reference, 1e-3);
        assert!(errors.is_empty(), "{errors:?}");
        // The attribution actually split something green off: at start
        // hour 9 the panels produce, so green > 0 somewhere.
        assert!(rows.iter().any(|r| r.green_j > 0.0));
    }

    #[test]
    #[should_panic(expected = "one task per node")]
    fn wrong_task_count_panics() {
        let c = cluster(2);
        let tasks: Vec<fn(JobCtx<'_>) -> ((), Cost)> = vec![|_| ((), Cost::ZERO)];
        c.execute_job(tasks);
    }

    #[test]
    fn malformed_configs_are_typed_errors() {
        assert_eq!(
            SimCluster::try_new(vec![]).err(),
            Some(ClusterError::EmptyCluster)
        );
        let c = cluster(2);
        let tasks: Vec<fn(JobCtx<'_>) -> ((), Cost)> = vec![|_| ((), Cost::ZERO)];
        assert_eq!(
            c.try_execute_job(tasks).err(),
            Some(ClusterError::TaskCountMismatch { nodes: 2, tasks: 1 })
        );
        assert_eq!(
            c.try_account_costs(&[Cost::ZERO]).err(),
            Some(ClusterError::CostCountMismatch { nodes: 2, costs: 1 })
        );
    }

    #[test]
    fn account_busy_matches_account_for_implied_seconds() {
        let c = cluster(4);
        let cost = Cost::compute(50_000_000);
        let implied = c.cost_to_seconds(2, &cost);
        let via_busy = c.account_busy(2, implied, cost);
        let via_costs = c.account_costs(&[Cost::ZERO, Cost::ZERO, cost, Cost::ZERO]);
        let direct = &via_costs.runs[2];
        assert_eq!(via_busy.seconds, direct.seconds);
        assert_eq!(via_busy.energy_joules, direct.energy_joules);
        assert_eq!(via_busy.dirty_joules_linear, direct.dirty_joules_linear);
        // Stretched time burns proportionally more energy for the same cost.
        let stretched = c.account_busy(2, implied * 2.0, cost);
        assert!(stretched.energy_joules > via_busy.energy_joules);
        assert_eq!(stretched.cost, cost);
    }
}
