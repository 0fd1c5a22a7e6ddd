//! The end-to-end framework (paper Fig. 1): stratifier → estimators →
//! Pareto modeler → partitioner → distributed execution on the simulated
//! cluster.
//!
//! [`Framework::try_plan`] produces a [`Plan`] (strata, per-node time
//! models, energy profiles, partition sizes and record placement);
//! [`Framework::try_run`] additionally places the partitions into the per-node
//! KV stores and executes the workload — the SON two-phase protocol for
//! frequent pattern mining (local mine, global barrier, candidate
//! broadcast, global count, merge) or single-phase distributed compression
//! — returning measured makespan, dirty energy, and workload quality.

use std::sync::Arc;

use pareto_cluster::{entries_to_bytes, Cost, Durability, FaultPlan, JobCtx, JobReport, KvStore, SimCluster};
use pareto_datagen::{DataItem, Dataset};
use pareto_energy::NodeEnergyProfile;
use pareto_stats::LinearFit;
use pareto_telemetry::Telemetry;
use pareto_stratify::{Stratification, StratifierConfig};
use pareto_workloads::{
    lz77_compress, son_candidate_union, son_global_count, son_local_mine_with, son_merge,
    webgraph_compress, AprioriConfig, LocalMiner, Lz77Config, MiningOutput, WebGraphConfig,
    WorkloadKind,
};

use crate::estimator::{NodeTimeModel, SamplingPlan};
use crate::pareto::ParetoPoint;
use crate::partitioner::PartitionLayout;
use crate::recovery::{self, ExecRequest, RecoveryConfig, RecoveryOutcome};
use crate::stages::{PlanEngine, PlanError};
use crate::stealing::RecordWork;

/// Partitioning strategy under test (§V-C compares the first three).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// The baseline: stratified partitions of *equal* size
    /// (heterogeneity-oblivious; Wang et al.'s scheme).
    Stratified,
    /// Het-Aware: optimizer with `α = 1.0` (§III-D) — pure makespan.
    HetAware,
    /// Het-Energy-Aware: optimizer at the given `α < 1`.
    HetEnergyAware {
        /// Scalarization weight (paper uses 0.999 for mining, 0.995 for
        /// compression).
        alpha: f64,
    },
    /// Het-Energy-Aware with both objectives normalized to `[0, 1]`
    /// before scalarization (the §III-D future-work fix), so `alpha` is
    /// scale-free: 0.5 weighs time and dirty energy equally.
    HetEnergyAwareNormalized {
        /// Scale-free scalarization weight in `[0, 1]`.
        alpha: f64,
    },
    /// Naive baseline: uniform random placement, equal sizes.
    Random,
    /// Naive baseline: round-robin placement.
    RoundRobin,
    /// Redis-cluster-mode baseline: CRC16 hash-slot placement (§IV). No
    /// control over partition sizes *or* contents — the contrast the
    /// middleware exists to fix.
    ClusterMode,
}

impl Strategy {
    /// Short label used by the experiment harness's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Stratified => "Stratified",
            Strategy::HetAware => "Het-Aware",
            Strategy::HetEnergyAware { .. } => "Het-Energy-Aware",
            Strategy::HetEnergyAwareNormalized { .. } => "Het-Energy-Aware-Norm",
            Strategy::Random => "Random",
            Strategy::RoundRobin => "RoundRobin",
            Strategy::ClusterMode => "ClusterMode",
        }
    }

    /// The scalarization weight runtime re-solves use: the strategy's own
    /// α, or 1.0 (pure makespan) for the strategies that have none.
    pub fn alpha(&self) -> f64 {
        match *self {
            Strategy::HetEnergyAware { alpha } | Strategy::HetEnergyAwareNormalized { alpha } => {
                alpha
            }
            _ => 1.0,
        }
    }
}

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Stratifier settings (sketch size, strata count, `L`, …).
    pub stratifier: StratifierConfig,
    /// Progressive-sampling schedule for the heterogeneity estimator.
    pub sampling: SamplingPlan,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Record layout within partitions.
    pub layout: PartitionLayout,
    /// Green-energy planning window (seconds) for the `k_i` profiles.
    pub planning_horizon_s: f64,
    /// Master seed for all randomized steps.
    pub seed: u64,
    /// Durability mode armed on every node's KV store at partition
    /// placement. `Wal` logs every mutation and verifies bit-identical
    /// recovery after the run ([`RunOutcome::durability`]);
    /// `SnapshotOnCheckpoint` verifies a checkpoint round-trip; `None`
    /// (the default) skips durability entirely — the historical behavior.
    pub durability: Durability,
    /// Accepted and ignored: the partition LP is solved exactly by a
    /// breakpoint walk, which has no starting point to choose. Kept so
    /// callers that set it (the benchmark harness) still compile; excluded
    /// from every stage fingerprint.
    pub lp_warm: bool,
    /// Worker threads for the planning pipeline (1 = serial). Copied into
    /// the stratifier's config and the heterogeneity estimator, which
    /// shard sketching, cluster assignment/updates, schedule steps, and
    /// per-node fits. Every parallel stage is deterministic by
    /// construction (contiguous index shards merged in order; per-step
    /// RNG streams split from the seed), so the resulting [`Plan`] is
    /// bit-identical at any thread count.
    pub threads: usize,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            stratifier: StratifierConfig::default(),
            sampling: SamplingPlan::default(),
            strategy: Strategy::Stratified,
            layout: PartitionLayout::Representative,
            planning_horizon_s: 6.0 * 3600.0,
            seed: 0x9A9A,
            durability: Durability::None,
            lp_warm: true,
            threads: 1,
        }
    }
}

/// Wall-clock seconds spent in each planning stage. Purely observational:
/// timings never feed back into any decision, so they do not perturb the
/// plan's determinism.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTimings {
    /// MinHash sketching of every record.
    pub sketch_s: f64,
    /// CompositeKModes clustering of the sketches.
    pub stratify_s: f64,
    /// Energy profiling + progressive-sampling time-model estimation.
    pub profile_s: f64,
    /// Pareto LP solve (zero for strategies that solve none).
    pub optimize_s: f64,
    /// Partition materialization: placing every record on its node.
    pub partition_s: f64,
    /// End-to-end planning time (≥ the sum of the stages).
    pub total_s: f64,
}

/// Everything decided before execution.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The stratification (component III output).
    pub stratification: Stratification,
    /// Per-node fitted time models (absent for naive baselines).
    pub time_models: Option<Vec<NodeTimeModel>>,
    /// Per-node `k_i` profiles.
    pub energy_profiles: Vec<NodeEnergyProfile>,
    /// The optimizer's chosen point (absent for equal-size strategies).
    pub pareto: Option<ParetoPoint>,
    /// Final integer partition sizes (always sums to the dataset size).
    pub sizes: Vec<usize>,
    /// Record indices per partition.
    pub partitions: Vec<Vec<usize>>,
    /// One-time cost of the progressive-sampling estimation (§III: "a
    /// one-time cost (small)… amortized over multiple runs").
    pub estimation_cost: Cost,
    /// Wall-clock time spent in each planning stage.
    pub timings: PlanTimings,
}

/// Workload quality measures (paper: compression ratio; pattern counts).
#[derive(Debug, Clone)]
pub enum Quality {
    /// Frequent-pattern mining outcome.
    Mining {
        /// Globally frequent itemsets found.
        global_frequent: usize,
        /// Phase-2 candidate-set size (the SON search space).
        candidates: usize,
        /// Candidates pruned by the global scan.
        false_positives: usize,
    },
    /// Compression outcome.
    Compression {
        /// Total uncompressed bytes.
        input_bytes: u64,
        /// Total compressed bytes.
        output_bytes: u64,
        /// `input/output`.
        ratio: f64,
    },
}

/// Per-node durability verification result (post-run drill).
#[derive(Debug, Clone)]
pub struct NodeDurability {
    /// Which node.
    pub node_id: usize,
    /// Mutations logged to the node's WAL during the run (0 in
    /// `SnapshotOnCheckpoint` mode).
    pub wal_records: u64,
    /// WAL byte volume at verification time.
    pub wal_bytes: usize,
    /// Whether recovery reproduced the live store bit-for-bit.
    pub recovered_ok: bool,
}

/// Post-run durability verification: for every node, rebuild the store
/// from `(baseline snapshot, WAL)` — or from a fresh checkpoint in
/// `SnapshotOnCheckpoint` mode — and compare against the live state.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// The mode that was armed.
    pub mode: Durability,
    /// Per-node verification results.
    pub nodes: Vec<NodeDurability>,
}

impl DurabilityReport {
    /// True when every node's recovery was bit-identical.
    pub fn all_recovered(&self) -> bool {
        self.nodes.iter().all(|n| n.recovered_ok)
    }

    /// Total WAL records across the cluster.
    pub fn total_wal_records(&self) -> u64 {
        self.nodes.iter().map(|n| n.wal_records).sum()
    }
}

/// A full run: the plan plus measured execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The plan that was executed.
    pub plan: Plan,
    /// Simulated execution report (makespan, per-node dirty energy).
    pub report: JobReport,
    /// Workload quality.
    pub quality: Quality,
    /// Durability verification (`None` when
    /// [`FrameworkConfig::durability`] is [`Durability::None`]).
    pub durability: Option<DurabilityReport>,
}

/// A fault-injected run: the plan plus the recovery outcome.
#[derive(Debug, Clone)]
pub struct FaultRunOutcome {
    /// The plan that was executed (and re-solved on failures).
    pub plan: Plan,
    /// Execution accounting plus the structured recovery story.
    pub outcome: RecoveryOutcome,
}

/// The framework, bound to a cluster.
pub struct Framework<'a> {
    cluster: &'a SimCluster,
    cfg: FrameworkConfig,
    /// Instrumentation recorder. Disabled by default, in which case every
    /// recording call is a no-op behind one branch; recording never feeds
    /// back into any planning or execution decision either way.
    telemetry: Arc<Telemetry>,
}

impl<'a> Framework<'a> {
    /// Bind a framework to a simulated cluster.
    pub fn new(cluster: &'a SimCluster, cfg: FrameworkConfig) -> Self {
        Framework {
            cluster,
            cfg,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder (planning spans, plan metrics, and —
    /// for faulted runs — the full recovery story are recorded into it).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry recorder.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Configuration in force.
    pub fn config(&self) -> &FrameworkConfig {
        &self.cfg
    }

    /// Produce the partitioning plan for `dataset` under `workload`.
    ///
    /// The pipeline runs as five cache-keyed stages — **sketch** (MinHash
    /// over every record), **stratify** (compositeKModes over the
    /// sketches), **profile** (energy `k_i` profiles + progressive-sampling
    /// time models), **optimize** (Pareto LP), and **partition**
    /// (materialization) — in a one-shot cold
    /// [`crate::stages::PlanEngine`]; long-lived callers use
    /// [`crate::session::PlanSession`] to keep the engine's artifact cache
    /// warm across replans. The first three stages shard their inner loops
    /// across [`FrameworkConfig::threads`] workers; the plan is
    /// bit-identical at any thread count. Planning failures (empty dataset,
    /// infeasible LP) come back as a typed [`PlanError`].
    pub fn try_plan(&self, dataset: &Dataset, workload: WorkloadKind) -> Result<Plan, PlanError> {
        PlanEngine::new(self.cluster, self.cfg.clone())
            .with_telemetry(self.telemetry.clone())
            .plan(dataset, workload)
    }

    /// Plan, place, and execute the workload; returns the measured run, or
    /// the planning failure as a typed [`PlanError`].
    pub fn try_run(
        &self,
        dataset: &Dataset,
        workload: WorkloadKind,
    ) -> Result<RunOutcome, PlanError> {
        let plan = self.try_plan(dataset, workload)?;
        Ok(self.run_with_plan(dataset, workload, plan))
    }

    /// Execute a workload under an existing plan (lets experiments reuse
    /// one plan across support thresholds etc.).
    pub fn run_with_plan(
        &self,
        dataset: &Dataset,
        workload: WorkloadKind,
        plan: Plan,
    ) -> RunOutcome {
        let baselines = self.place_partitions(dataset, &plan.partitions);
        let (report, quality) = match workload {
            WorkloadKind::FrequentPatterns { support } => {
                self.run_mining(dataset, &plan.partitions, support, LocalMiner::Apriori)
            }
            WorkloadKind::FrequentPatternsEclat { support } => {
                self.run_mining(dataset, &plan.partitions, support, LocalMiner::Eclat)
            }
            WorkloadKind::Lz77 | WorkloadKind::WebGraph => {
                self.run_compression(dataset, &plan.partitions, workload)
            }
        };
        let durability = self.verify_durability(&baselines, plan.partitions.len());
        RunOutcome {
            plan,
            report,
            quality,
            durability,
        }
    }

    /// Plan, then execute the workload under an injected [`FaultPlan`],
    /// recovering from crashes by re-solving the LP over the survivors and
    /// carrying out its roster changes — scheduled joins, drain-then-leave
    /// departures and preemptions (see [`crate::recovery`] for the full
    /// fault model).
    ///
    /// The per-item work profile comes from one real execution of the
    /// workload: its total measured op count is spread over records
    /// proportional to payload bytes (exactly — remainders distributed by
    /// index), so the fault-free baseline charges the same total compute
    /// as the happy-path executor. Replans reuse the plan's fitted
    /// `f_i(x)` models; strategies without models (baselines) get
    /// speed-derived synthetic fits so recovery still works. Planning
    /// failures and an invalid `recovery_cfg` come back as a typed
    /// [`PlanError`].
    pub fn try_run_with_faults(
        &self,
        dataset: &Dataset,
        workload: WorkloadKind,
        faults: &FaultPlan,
        recovery_cfg: &RecoveryConfig,
    ) -> Result<FaultRunOutcome, PlanError> {
        recovery_cfg.validate()?;
        let plan = self.try_plan(dataset, workload)?;
        let (work, fits, alpha) =
            recovery_inputs(self.cluster, dataset, workload, self.cfg.strategy, &plan);
        let outcome = recovery::execute(&ExecRequest {
            cluster: self.cluster,
            work: &work,
            initial: &plan.partitions,
            strata: &plan.stratification.assignments,
            fits: &fits,
            profiles: &plan.energy_profiles,
            alpha,
            faults,
            cfg: recovery_cfg,
            telemetry: Some(&self.telemetry),
        })?;
        Ok(FaultRunOutcome { plan, outcome })
    }

    /// Write every partition into its node's store as a §IV blob (one
    /// length-prefixed byte sequence per record, whole partition under one
    /// key). This is the one-time placement; its cost is not part of the
    /// measured job, matching the paper's evaluation.
    ///
    /// When [`FrameworkConfig::durability`] is `Wal`, every store is armed
    /// *before* placement so the partition write itself is the first
    /// logged record; the returned per-node baselines are the recovery
    /// starting points [`Framework::verify_durability`] replays from
    /// (empty when durability is off).
    fn place_partitions(&self, dataset: &Dataset, partitions: &[Vec<usize>]) -> Vec<Vec<u8>> {
        let mut baselines = Vec::with_capacity(partitions.len());
        for (node_id, part) in partitions.iter().enumerate() {
            let store = self.cluster.store(node_id);
            match self.cfg.durability {
                Durability::Wal => baselines.push(store.enable_wal()),
                other => store.set_durability(other),
            }
            let records: Vec<Vec<u8>> = part
                .iter()
                .map(|&i| dataset.items[i].payload.to_bytes())
                .collect();
            let blob = pareto_cluster::kvstore::encode_records(&records);
            store
                .set("partition:data", blob)
                .expect("fresh key cannot be WRONGTYPE");
        }
        baselines
    }

    /// Post-run durability drill. In `Wal` mode every node's store is
    /// rebuilt from `(arming baseline, WAL)` and compared bit-for-bit
    /// against the live export; in `SnapshotOnCheckpoint` mode a fresh
    /// checkpoint must round-trip. Records the WAL/recovery telemetry
    /// counters; recording and verification never feed back into any
    /// decision — the report is purely observational.
    fn verify_durability(
        &self,
        baselines: &[Vec<u8>],
        num_nodes: usize,
    ) -> Option<DurabilityReport> {
        let mode = self.cfg.durability;
        if mode == Durability::None {
            return None;
        }
        let mut nodes = Vec::with_capacity(num_nodes);
        for node_id in 0..num_nodes {
            let store = self.cluster.store(node_id);
            let (recovered_ok, wal_records, wal_bytes) = match mode {
                Durability::Wal => {
                    let (entries, wal) = store.export_with_wal();
                    let stats = store.wal_stats();
                    for (op, count) in stats.by_op() {
                        self.telemetry
                            .counter_add("pareto_wal_records_total", &[("op", op)], count);
                    }
                    let ok = match KvStore::recover(baselines.get(node_id).map(Vec::as_slice), &wal)
                    {
                        Ok((rebuilt, _)) => {
                            entries_to_bytes(&rebuilt.export_entries())
                                == entries_to_bytes(&entries)
                        }
                        Err(_) => false,
                    };
                    (ok, stats.records, wal.len())
                }
                Durability::SnapshotOnCheckpoint => {
                    let snap = store.checkpoint();
                    let ok = match KvStore::recover(Some(&snap), &[]) {
                        Ok((rebuilt, _)) => {
                            entries_to_bytes(&rebuilt.export_entries())
                                == entries_to_bytes(&store.export_entries())
                        }
                        Err(_) => false,
                    };
                    (ok, 0, 0)
                }
                Durability::None => unreachable!("early-returned above"),
            };
            self.telemetry.counter_add(
                "pareto_wal_recoveries_total",
                &[("outcome", if recovered_ok { "ok" } else { "mismatch" })],
                1,
            );
            nodes.push(NodeDurability {
                node_id,
                wal_records,
                wal_bytes,
                recovered_ok,
            });
        }
        Some(DurabilityReport { mode, nodes })
    }

    /// Fetch a partition blob from the node's own store, charging the GET.
    fn fetch_partition_cost(ctx: &JobCtx<'_>) -> Cost {
        let (_, cost) = ctx
            .store
            .get("partition:data")
            .expect("partition was placed before execution");
        cost
    }

    /// SON distributed frequent-pattern mining (§V-C1): local mine →
    /// barrier → candidate union and broadcast → global count → merge.
    fn run_mining(
        &self,
        dataset: &Dataset,
        partitions: &[Vec<usize>],
        support: f64,
        miner: LocalMiner,
    ) -> (JobReport, Quality) {
        let apriori_cfg = AprioriConfig {
            min_support: support,
            ..AprioriConfig::default()
        };
        // --- Phase 1: local mining on every node ---
        let phase1_tasks: Vec<_> = partitions
            .iter()
            .map(|part| {
                let cfg = apriori_cfg;
                move |ctx: JobCtx<'_>| {
                    let mut cost = Self::fetch_partition_cost(&ctx);
                    let sets: Vec<&pareto_datagen::ItemSet> =
                        part.iter().map(|&i| &dataset.items[i].items).collect();
                    let local = son_local_mine_with(miner, &sets, &cfg);
                    cost.add(Cost::compute(local.ops));
                    // Barrier before the union step (§IV).
                    cost.add(Cost::request(8).plus(Cost::request(8)));
                    (local.local, cost)
                }
            })
            .collect();
        let (locals, report1): (Vec<MiningOutput>, JobReport) =
            self.cluster.execute_job(phase1_tasks);

        // --- Master: union candidates (runs on node 0, a type-1 node —
        // the §IV master-selection priority) ---
        let local_refs: Vec<&MiningOutput> = locals.iter().collect();
        let candidates = son_candidate_union(&local_refs);
        let candidate_bytes: u64 = candidates
            .iter()
            .map(|c| 8 * c.len() as u64 + 4)
            .sum();

        // --- Phase 2: every node counts the global candidates ---
        let phase2_tasks: Vec<_> = partitions
            .iter()
            .map(|part| {
                let candidates = &candidates;
                move |ctx: JobCtx<'_>| {
                    // Fetch the broadcast candidate set from the master.
                    let mut cost = Cost::request(candidate_bytes);
                    let sets: Vec<&pareto_datagen::ItemSet> =
                        part.iter().map(|&i| &dataset.items[i].items).collect();
                    let (counts, ops) = son_global_count(candidates, &sets);
                    cost.add(Cost::compute(ops));
                    cost.add(Cost::request(4 * counts.len() as u64)); // ship counts
                    let _ = ctx;
                    (counts, cost)
                }
            })
            .collect();
        let (all_counts, report2): (Vec<Vec<u32>>, JobReport) =
            self.cluster.execute_job(phase2_tasks);

        let (global, false_positives) =
            son_merge(candidates.clone(), &all_counts, dataset.len(), support);
        let report = sequential_report(&report1, &report2);
        (
            report,
            Quality::Mining {
                global_frequent: global.len(),
                candidates: candidates.len(),
                false_positives,
            },
        )
    }

    /// Distributed compression (§V-C2): each node compresses its own
    /// partition independently; quality is the aggregate ratio.
    fn run_compression(
        &self,
        dataset: &Dataset,
        partitions: &[Vec<usize>],
        workload: WorkloadKind,
    ) -> (JobReport, Quality) {
        let tasks: Vec<_> = partitions
            .iter()
            .map(|part| {
                move |ctx: JobCtx<'_>| {
                    let mut cost = Self::fetch_partition_cost(&ctx);
                    let records: Vec<&DataItem> =
                        part.iter().map(|&i| &dataset.items[i]).collect();
                    let (input_bytes, output_bytes, ops, blob) = match workload {
                        WorkloadKind::Lz77 => {
                            let mut input = Vec::new();
                            for r in &records {
                                input.extend_from_slice(&r.payload.to_bytes());
                            }
                            let (out, ops) = lz77_compress(&input, &Lz77Config::default());
                            (input.len() as u64, out.len() as u64, ops, out)
                        }
                        WorkloadKind::WebGraph => {
                            let lists: Vec<&[u32]> = records
                                .iter()
                                .map(|r| match &r.payload {
                                    pareto_datagen::Payload::Adjacency(ns) => ns.as_slice(),
                                    _ => &[][..],
                                })
                                .collect();
                            let (out, ops) =
                                webgraph_compress(&lists, &WebGraphConfig::default());
                            let in_bytes =
                                lists.iter().map(|l| 4 + 4 * l.len() as u64).sum();
                            (in_bytes, out.len() as u64, ops, out)
                        }
                        WorkloadKind::FrequentPatterns { .. }
                        | WorkloadKind::FrequentPatternsEclat { .. } => {
                            unreachable!("mining dispatched separately")
                        }
                    };
                    cost.add(Cost::compute(ops));
                    // Write the compressed blob back (one pipelined PUT).
                    let (_, put_cost) = ctx
                        .store
                        .set("partition:compressed", blob)
                        .expect("fresh key cannot be WRONGTYPE");
                    cost.add(put_cost);
                    ((input_bytes, output_bytes), cost)
                }
            })
            .collect();
        let (sizes, report): (Vec<(u64, u64)>, JobReport) = self.cluster.execute_job(tasks);
        let input_bytes: u64 = sizes.iter().map(|s| s.0).sum();
        let output_bytes: u64 = sizes.iter().map(|s| s.1).sum();
        let ratio = if output_bytes == 0 {
            0.0
        } else {
            input_bytes as f64 / output_bytes as f64
        };
        (
            report,
            Quality::Compression {
                input_bytes,
                output_bytes,
                ratio,
            },
        )
    }
}

/// Combine two barrier-separated phases into one report: per-node busy
/// times and energies add; the makespan is the sum of per-phase makespans
/// (every node waits at the barrier for the slowest).
pub fn sequential_report(r1: &JobReport, r2: &JobReport) -> JobReport {
    assert_eq!(r1.runs.len(), r2.runs.len());
    let runs: Vec<pareto_cluster::NodeRun> = r1
        .runs
        .iter()
        .zip(&r2.runs)
        .map(|(a, b)| pareto_cluster::NodeRun {
            node_id: a.node_id,
            seconds: a.seconds + b.seconds,
            energy_joules: a.energy_joules + b.energy_joules,
            dirty_joules_linear: a.dirty_joules_linear + b.dirty_joules_linear,
            dirty_joules_clamped: a.dirty_joules_clamped + b.dirty_joules_clamped,
            cost: a.cost.plus(b.cost),
        })
        .collect();
    JobReport {
        makespan_seconds: r1.makespan_seconds + r2.makespan_seconds,
        total_dirty_linear: runs.iter().map(|r| r.dirty_joules_linear).sum(),
        total_dirty_clamped: runs.iter().map(|r| r.dirty_joules_clamped).sum(),
        total_energy_joules: runs.iter().map(|r| r.energy_joules).sum(),
        runs,
    }
}

/// What the recovery executor needs beyond the plan itself: the per-item
/// work of actually running `workload`, the per-node time models (the
/// plan's fitted ones, else speed-derived stand-ins) and the weight its
/// runtime re-solves scalarize with.
pub(crate) fn recovery_inputs(
    cluster: &SimCluster,
    dataset: &Dataset,
    workload: WorkloadKind,
    strategy: Strategy,
    plan: &Plan,
) -> (Vec<RecordWork>, Vec<LinearFit>, f64) {
    let refs: Vec<&DataItem> = dataset.items.iter().collect();
    let work = per_item_work(dataset, pareto_workloads::workload_ops(workload, &refs));
    let fits = match &plan.time_models {
        Some(models) => models.iter().map(|m| m.fit).collect(),
        None => synthetic_fits(cluster, &work),
    };
    (work, fits, strategy.alpha())
}

/// Spread `total_ops` over a dataset's records proportional to payload
/// bytes, exactly: each record gets the floor of its share and the
/// (at most `n − 1`) leftover ops go to the lowest-index records, so the
/// per-item ops always sum to `total_ops`.
fn per_item_work(dataset: &Dataset, total_ops: u64) -> Vec<RecordWork> {
    let bytes: Vec<u64> = dataset
        .items
        .iter()
        .map(|i| i.payload.to_bytes().len() as u64)
        .collect();
    let n = bytes.len();
    if n == 0 {
        return Vec::new();
    }
    let total_bytes: u64 = bytes.iter().sum();
    let mut ops: Vec<u64> = if total_bytes == 0 {
        vec![total_ops / n as u64; n]
    } else {
        bytes
            .iter()
            .map(|&b| ((total_ops as u128 * b as u128) / total_bytes as u128) as u64)
            .collect()
    };
    let mut leftover = total_ops - ops.iter().sum::<u64>();
    let mut i = 0usize;
    while leftover > 0 {
        ops[i % n] += 1;
        leftover -= 1;
        i += 1;
    }
    ops.into_iter()
        .zip(bytes)
        .map(|(ops, bytes)| RecordWork { ops, bytes })
        .collect()
}

/// Speed-derived time models for strategies that do not fit any: one
/// mean-item slope per node, zero intercept. Only used so recovery can
/// replan and detect stragglers under baseline strategies.
fn synthetic_fits(cluster: &SimCluster, work: &[RecordWork]) -> Vec<LinearFit> {
    let mean_ops = if work.is_empty() {
        1.0
    } else {
        work.iter().map(|w| w.ops as f64).sum::<f64>() / work.len() as f64
    };
    (0..cluster.num_nodes())
        .map(|i| {
            let secs_per_item =
                mean_ops / (cluster.base_ops_per_sec() * cluster.node(i).speed());
            LinearFit {
                slope: secs_per_item.max(f64::MIN_POSITIVE),
                intercept: 0.0,
                r_squared: 1.0,
                n: 2,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_cluster::NodeSpec;

    fn cluster(p: usize) -> SimCluster {
        SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, 21))
    }

    fn text_ds() -> Dataset {
        pareto_datagen::rcv1_syn(5, 0.04) // 200 docs
    }

    fn graph_ds() -> Dataset {
        pareto_datagen::uk_syn(5, 0.05) // 450 vertices
    }

    fn cfg(strategy: Strategy, layout: PartitionLayout) -> FrameworkConfig {
        FrameworkConfig {
            strategy,
            layout,
            stratifier: StratifierConfig {
                num_strata: 8,
                ..StratifierConfig::default()
            },
            ..FrameworkConfig::default()
        }
    }

    #[test]
    fn plan_covers_dataset_for_all_strategies() {
        let ds = text_ds();
        let cl = cluster(4);
        for strategy in [
            Strategy::Stratified,
            Strategy::HetAware,
            Strategy::HetEnergyAware { alpha: 0.999 },
            Strategy::Random,
            Strategy::RoundRobin,
        ] {
            let plan = Framework::new(&cl, cfg(strategy, PartitionLayout::Representative))
                .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.1 })
                .expect("non-empty dataset");
            let mut all: Vec<usize> = plan.partitions.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..ds.len()).collect::<Vec<_>>(),
                "strategy {strategy:?} lost records"
            );
        }
    }

    #[test]
    fn het_aware_gives_slow_nodes_less_data() {
        let ds = text_ds();
        let cl = cluster(4);
        let plan = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
            .try_plan(&ds, WorkloadKind::Lz77)
            .expect("non-empty dataset");
        // Node 0 is 4x faster than node 3.
        assert!(
            plan.sizes[0] > 2 * plan.sizes[3],
            "sizes {:?} should favor fast nodes",
            plan.sizes
        );
        assert!(plan.time_models.is_some());
        assert!(plan.estimation_cost.compute_ops > 0);
    }

    #[test]
    fn het_aware_beats_stratified_on_makespan() {
        let ds = text_ds();
        let cl = cluster(4);
        let base = Framework::new(&cl, cfg(Strategy::Stratified, PartitionLayout::Representative))
            .try_run(&ds, WorkloadKind::Lz77)
            .expect("non-empty dataset");
        let het = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
            .try_run(&ds, WorkloadKind::Lz77)
            .expect("non-empty dataset");
        assert!(
            het.report.makespan_seconds < base.report.makespan_seconds * 0.75,
            "het {} vs stratified {}",
            het.report.makespan_seconds,
            base.report.makespan_seconds
        );
    }

    #[test]
    fn energy_aware_cuts_dirty_energy() {
        let ds = graph_ds();
        let cl = cluster(4);
        let het = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::SimilarTogether))
            .try_run(&ds, WorkloadKind::WebGraph)
            .expect("non-empty dataset");
        let green = Framework::new(
            &cl,
            cfg(
                Strategy::HetEnergyAware { alpha: 0.9 },
                PartitionLayout::SimilarTogether,
            ),
        )
        .try_run(&ds, WorkloadKind::WebGraph)
        .expect("non-empty dataset");
        assert!(
            green.report.total_dirty_linear < het.report.total_dirty_linear,
            "green {} vs het {}",
            green.report.total_dirty_linear,
            het.report.total_dirty_linear
        );
        assert!(green.report.makespan_seconds >= het.report.makespan_seconds * 0.99);
    }

    #[test]
    fn mining_quality_reported_and_exact() {
        let ds = text_ds();
        let cl = cluster(4);
        let support = 0.2;
        let outcome = Framework::new(
            &cl,
            cfg(Strategy::Stratified, PartitionLayout::Representative),
        )
        .try_run(&ds, WorkloadKind::FrequentPatterns { support })
        .expect("non-empty dataset");
        let Quality::Mining {
            global_frequent,
            candidates,
            false_positives,
        } = outcome.quality
        else {
            panic!("expected mining quality");
        };
        assert!(candidates >= global_frequent);
        assert_eq!(false_positives, candidates - global_frequent);
        // SON is exact: compare against direct Apriori.
        let sets: Vec<&pareto_datagen::ItemSet> = ds.items.iter().map(|i| &i.items).collect();
        let (direct, _) = pareto_workloads::Apriori::new(AprioriConfig {
            min_support: support,
            ..AprioriConfig::default()
        })
        .mine(&sets);
        assert_eq!(global_frequent, direct.itemsets.len());
    }

    #[test]
    fn similar_together_improves_compression_ratio() {
        let ds = graph_ds();
        let cl = cluster(4);
        let grouped = Framework::new(
            &cl,
            cfg(Strategy::Stratified, PartitionLayout::SimilarTogether),
        )
        .try_run(&ds, WorkloadKind::WebGraph)
        .expect("non-empty dataset");
        let random = Framework::new(&cl, cfg(Strategy::Random, PartitionLayout::Representative))
            .try_run(&ds, WorkloadKind::WebGraph)
            .expect("non-empty dataset");
        let ratio = |q: &Quality| match q {
            Quality::Compression { ratio, .. } => *ratio,
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            ratio(&grouped.quality) > ratio(&random.quality),
            "grouped {} vs random {}",
            ratio(&grouped.quality),
            ratio(&random.quality)
        );
    }

    #[test]
    fn eclat_workload_finds_same_patterns_as_apriori() {
        let ds = text_ds();
        let cl = cluster(4);
        let config = cfg(Strategy::Stratified, PartitionLayout::Representative);
        let apriori = Framework::new(&cl, config.clone())
            .try_run(&ds, WorkloadKind::FrequentPatterns { support: 0.2 })
            .expect("non-empty dataset");
        let eclat = Framework::new(&cl, config)
            .try_run(&ds, WorkloadKind::FrequentPatternsEclat { support: 0.2 })
            .expect("non-empty dataset");
        let freq = |q: &Quality| match q {
            Quality::Mining { global_frequent, .. } => *global_frequent,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(freq(&apriori.quality), freq(&eclat.quality));
        // Different algorithms, different cost profiles.
        assert_ne!(
            apriori.report.makespan_seconds,
            eclat.report.makespan_seconds
        );
    }

    #[test]
    fn plan_records_stage_timings() {
        let ds = text_ds();
        let cl = cluster(4);
        let plan = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
            .try_plan(&ds, WorkloadKind::Lz77)
            .expect("non-empty dataset");
        let t = plan.timings;
        for (label, v) in [
            ("sketch", t.sketch_s),
            ("stratify", t.stratify_s),
            ("profile", t.profile_s),
            ("optimize", t.optimize_s),
            ("partition", t.partition_s),
        ] {
            assert!(v >= 0.0 && v.is_finite(), "{label} timing {v}");
        }
        assert!(
            t.total_s >= t.sketch_s + t.stratify_s + t.profile_s + t.optimize_s + t.partition_s,
            "total must cover the stages: {t:?}"
        );
    }

    #[test]
    fn plan_is_bit_identical_across_thread_counts() {
        let ds = text_ds();
        let cl = cluster(4);
        let plan_at = |threads: usize| {
            let mut config = cfg(Strategy::HetEnergyAware { alpha: 0.995 }, PartitionLayout::SimilarTogether);
            config.threads = threads;
            Framework::new(&cl, config)
                .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.15 })
                .expect("non-empty dataset")
        };
        let serial = plan_at(1);
        // CI's thread matrix appends counts through `PARETO_TEST_THREADS`.
        let extra = std::env::var("PARETO_TEST_THREADS").unwrap_or_default();
        let counts = extra.split(',').filter_map(|t| t.trim().parse().ok());
        for threads in [2, 4, 8].into_iter().chain(counts) {
            let par = plan_at(threads);
            assert_eq!(serial.stratification.assignments, par.stratification.assignments);
            assert_eq!(serial.sizes, par.sizes);
            assert_eq!(serial.partitions, par.partitions);
            let (a, b) = (
                serial.time_models.as_ref().unwrap(),
                par.time_models.as_ref().unwrap(),
            );
            for (ma, mb) in a.iter().zip(b) {
                assert_eq!(ma.fit.slope.to_bits(), mb.fit.slope.to_bits());
                assert_eq!(ma.fit.intercept.to_bits(), mb.fit.intercept.to_bits());
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let ds = text_ds();
        let cl = cluster(4);
        let run = || {
            Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
                .try_run(&ds, WorkloadKind::FrequentPatterns { support: 0.15 })
                .expect("non-empty dataset")
        };
        let a = run();
        let b = run();
        assert_eq!(a.report.makespan_seconds, b.report.makespan_seconds);
        assert_eq!(a.report.total_dirty_linear, b.report.total_dirty_linear);
        assert_eq!(a.plan.sizes, b.plan.sizes);
    }

    #[test]
    fn faulted_run_recovers_from_mid_job_crash() {
        let ds = text_ds();
        let cl = cluster(4);
        let fw = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative));
        let workload = WorkloadKind::Lz77;
        let cfg = RecoveryConfig::default();
        // Fault-free pass to place the crash mid-job.
        let clean = fw
            .try_run_with_faults(&ds, workload, &FaultPlan::none(), &cfg)
            .expect("non-empty dataset, valid config");
        assert!(clean.outcome.recovery.exactly_once);
        let tc = clean.outcome.recovery.makespan_s * 0.4;
        let faults = FaultPlan::new().with_crash(0, tc);
        let out = fw
            .try_run_with_faults(&ds, workload, &faults, &cfg)
            .expect("non-empty dataset, valid config");
        let rec = &out.outcome.recovery;
        assert_eq!(rec.crashed_nodes, vec![0]);
        assert!(rec.replans >= 1);
        assert!(rec.exactly_once, "all items complete despite the crash");
        assert_eq!(rec.items_total, ds.len());
        // Reassigned items land only on survivors.
        for &item in &out.outcome.reassigned_items {
            assert_ne!(out.outcome.completed_by[item], Some(0));
        }
        // Node 0 is the fastest: losing it mid-job must cost wall time.
        assert!(rec.makespan_overhead > 0.0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let ds = text_ds();
        let cl = cluster(4);
        let faults = FaultPlan::generate(7, 4, &pareto_cluster::FaultSpec::default());
        let run = || {
            Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
                .try_run_with_faults(&ds, WorkloadKind::Lz77, &faults, &RecoveryConfig::default())
                .expect("non-empty dataset, valid config")
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcome.recovery, b.outcome.recovery);
        assert_eq!(a.outcome.completed_by, b.outcome.completed_by);
    }

    #[test]
    fn wal_durability_verifies_bit_identical_recovery() {
        let ds = graph_ds();
        let cl = cluster(4);
        let mut config = cfg(Strategy::HetAware, PartitionLayout::SimilarTogether);
        config.durability = pareto_cluster::Durability::Wal;
        let out = Framework::new(&cl, config)
            .try_run(&ds, WorkloadKind::WebGraph)
            .expect("non-empty dataset");
        let dur = out.durability.expect("durability report in Wal mode");
        assert_eq!(dur.mode, pareto_cluster::Durability::Wal);
        assert_eq!(dur.nodes.len(), 4);
        assert!(dur.all_recovered(), "{dur:?}");
        // Placement + the compressed write-back are logged on every node.
        for node in &dur.nodes {
            assert!(node.wal_records >= 2, "node {}: {:?}", node.node_id, node);
            assert!(node.wal_bytes > 0);
        }
    }

    #[test]
    fn snapshot_durability_round_trips_checkpoints() {
        let ds = text_ds();
        let cl = cluster(4);
        let mut config = cfg(Strategy::Stratified, PartitionLayout::Representative);
        config.durability = pareto_cluster::Durability::SnapshotOnCheckpoint;
        let out = Framework::new(&cl, config)
            .try_run(&ds, WorkloadKind::FrequentPatterns { support: 0.2 })
            .expect("non-empty dataset");
        let dur = out.durability.expect("durability report in snapshot mode");
        assert!(dur.all_recovered(), "{dur:?}");
        assert_eq!(dur.total_wal_records(), 0, "snapshot mode logs nothing");
    }

    #[test]
    fn durability_off_reports_nothing_and_changes_nothing() {
        let ds = text_ds();
        let cl = cluster(4);
        let base = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
            .try_run(&ds, WorkloadKind::Lz77)
            .expect("non-empty dataset");
        assert!(base.durability.is_none());
        // Arming WAL must not perturb the measured run (durability is
        // observational): identical makespan and plan either way.
        let mut config = cfg(Strategy::HetAware, PartitionLayout::Representative);
        config.durability = pareto_cluster::Durability::Wal;
        let walled = Framework::new(&cl, config)
            .try_run(&ds, WorkloadKind::Lz77)
            .expect("non-empty dataset");
        assert_eq!(base.report.makespan_seconds, walled.report.makespan_seconds);
        assert_eq!(base.plan.sizes, walled.plan.sizes);
    }

    #[test]
    fn invalid_recovery_config_surfaces_as_plan_error() {
        let ds = text_ds();
        let cl = cluster(4);
        let fw = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative));
        let bad = RecoveryConfig {
            max_retries: 0,
            ..RecoveryConfig::default()
        };
        let err = fw
            .try_run_with_faults(&ds, WorkloadKind::Lz77, &FaultPlan::none(), &bad)
            .unwrap_err();
        assert!(matches!(err, PlanError::Recovery(_)), "got {err}");
    }

    #[test]
    fn invalid_stratifier_config_surfaces_as_plan_error() {
        let ds = text_ds();
        let cl = cluster(4);
        let bad = |stratifier: StratifierConfig| {
            let config = FrameworkConfig {
                stratifier,
                ..cfg(Strategy::HetAware, PartitionLayout::Representative)
            };
            Framework::new(&cl, config)
                .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.1 })
                .unwrap_err()
        };
        let default = StratifierConfig::default;
        for (stratifier, expected) in [
            (StratifierConfig { num_strata: 0, ..default() }, "num_strata"),
            (StratifierConfig { l: 0, ..default() }, "l"),
            // 200 documents x 2^25 hash functions = 2^32.7 coordinates.
            (StratifierConfig { sketch_size: 1 << 25, ..default() }, "sketch_size"),
            (StratifierConfig { sketch_size: usize::MAX, ..default() }, "sketch_size"),
        ] {
            let err = bad(stratifier);
            assert!(
                matches!(err, PlanError::InvalidStratifier { field, .. } if field == expected),
                "got {err}"
            );
        }
    }

    #[test]
    fn degenerate_sampling_plan_surfaces_as_plan_error() {
        let ds = pareto_datagen::rcv1_syn(7, 0.125);
        let cl = cluster(8);
        let plan = |sampling: SamplingPlan| {
            let config = FrameworkConfig {
                strategy: Strategy::HetEnergyAware { alpha: 0.995 },
                sampling,
                ..FrameworkConfig::default()
            };
            Framework::new(&cl, config)
                .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.1 })
        };
        let default = SamplingPlan::default;
        for (sampling, expected) in [
            // 0.05 % of 625 records rounds to 0, and no floor lifts it.
            (SamplingPlan { min_records: 0, ..default() }, "min_records"),
            (SamplingPlan { steps: 0, ..default() }, "steps"),
            (SamplingPlan { lo_frac: 0.0, ..default() }, "lo_frac"),
            (SamplingPlan { lo_frac: f64::NAN, ..default() }, "lo_frac"),
            (SamplingPlan { hi_frac: 0.0001, ..default() }, "hi_frac"),
            (SamplingPlan { hi_frac: f64::INFINITY, ..default() }, "hi_frac"),
        ] {
            let err = plan(sampling).unwrap_err();
            assert!(
                matches!(err, PlanError::InvalidSampling { field, .. } if field == expected),
                "got {err}"
            );
        }
        assert!(plan(default()).is_ok());
    }

    #[test]
    fn sequential_report_adds() {
        let cl = cluster(2);
        let r1 = cl.account_costs(&[Cost::compute(1_000_000), Cost::compute(2_000_000)]);
        let r2 = cl.account_costs(&[Cost::compute(3_000_000), Cost::compute(1_000_000)]);
        let combined = sequential_report(&r1, &r2);
        assert!(
            (combined.makespan_seconds - (r1.makespan_seconds + r2.makespan_seconds)).abs()
                < 1e-12
        );
        assert!(
            (combined.runs[0].seconds - (r1.runs[0].seconds + r2.runs[0].seconds)).abs() < 1e-12
        );
        assert!(
            (combined.total_energy_joules
                - (r1.total_energy_joules + r2.total_energy_joules))
                .abs()
                < 1e-9
        );
    }
}
