//! A long-lived planning session: one [`PlanEngine`] kept warm across
//! replans, plus the delta operations a production planner sees most —
//! dataset appends, node churn, and α/strategy changes.
//!
//! The session owns its dataset and maintains the content chain digest
//! incrementally (appending records extends a chain hash), so an append
//! costs a digest of the *new* records only and the previous generation's
//! digest survives as the prefix hint that lets the sketch stage reuse its
//! cached signatures.
//!
//! Every plan a warm session produces is bit-identical to a cold
//! [`crate::Framework::try_plan`] over the same inputs — the cache only ever
//! returns what a cold compute would have produced (the `incremental`
//! integration suite proptests this across deltas, threads, and seeds).

use std::sync::Arc;

use pareto_cluster::SimCluster;
use pareto_datagen::{DataItem, Dataset};
use pareto_energy::NodeEnergyProfile;
use pareto_stats::LinearFit;
use pareto_telemetry::Telemetry;
use pareto_workloads::WorkloadKind;

use crate::cache::{CacheStats, Fingerprint, SharedPlanCache};
use crate::framework::{FrameworkConfig, Plan, Strategy};
use crate::frontier::{explore, AlphaSolver, FrontierConfig, FrontierPoint, FrontierResult};
use crate::pareto::{ParetoModeler, PartitionPlanError};
use crate::partitioner::DataPartitioner;
use crate::stages::{self, Deadline, PlanEngine, PlanError, StageReuse};

/// A replanning session over one dataset/workload pair.
pub struct PlanSession<'a> {
    engine: PlanEngine<'a>,
    dataset: Dataset,
    workload: WorkloadKind,
    /// Chain digest of the current dataset contents.
    dataset_fp: Fingerprint,
    /// Digest + length at the last successful plan (the sketch-append
    /// prefix hint).
    prev_dataset: Option<(Fingerprint, usize)>,
}

impl<'a> PlanSession<'a> {
    /// Open a session over `dataset` (full cluster roster, cold cache).
    pub fn new(
        cluster: &'a SimCluster,
        cfg: FrameworkConfig,
        dataset: Dataset,
        workload: WorkloadKind,
    ) -> Self {
        Self::over(PlanEngine::new(cluster, cfg), dataset, workload)
    }

    /// Open a `'static` session over a shared cluster handle, so the
    /// session can move across threads (the plan server keeps one per
    /// tenant, typically combined with
    /// [`with_shared_cache`](Self::with_shared_cache)).
    pub fn new_shared(
        cluster: Arc<SimCluster>,
        cfg: FrameworkConfig,
        dataset: Dataset,
        workload: WorkloadKind,
    ) -> PlanSession<'static> {
        PlanSession::over(PlanEngine::new_shared(cluster, cfg), dataset, workload)
    }

    fn over(engine: PlanEngine<'a>, dataset: Dataset, workload: WorkloadKind) -> Self {
        PlanSession {
            engine,
            dataset_fp: stages::dataset_fingerprint(&dataset),
            dataset,
            workload,
            prev_dataset: None,
        }
    }

    /// Attach a telemetry recorder (cache counters + plan spans).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.engine = self.engine.with_telemetry(telemetry);
        self
    }

    /// Bound the artifact cache.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.engine = self.engine.with_cache_capacity(capacity);
        self
    }

    /// Share an artifact cache with other sessions: identical stage
    /// fingerprints (same dataset digest, roster, config) dedupe across
    /// every session holding a clone of the handle.
    pub fn with_shared_cache(mut self, cache: SharedPlanCache) -> Self {
        self.engine = self.engine.with_shared_cache(cache);
        self
    }

    /// Set the cancellation token polled before every stage of subsequent
    /// plans ([`Deadline::None`] clears it).
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.engine.set_deadline(deadline);
    }

    /// Plan (or replan) with the current dataset, roster, and config.
    /// Only stages whose inputs changed since the cached artifacts were
    /// produced are recomputed.
    pub fn plan(&mut self) -> Result<Plan, PlanError> {
        let plan = self.engine.plan_with_fingerprint(
            &self.dataset,
            self.workload,
            self.dataset_fp,
            self.prev_dataset,
        )?;
        self.prev_dataset = Some((self.dataset_fp, self.dataset.len()));
        Ok(plan)
    }

    /// Sweep the scalarization weight: one plan per α, in order. The
    /// sketch/stratify/profile artifacts are computed once (cold) and
    /// reused for every subsequent α — only the LP + partitioning rerun.
    pub fn sweep(&mut self, alphas: &[f64]) -> Result<Vec<Plan>, PlanError> {
        let mut plans = Vec::with_capacity(alphas.len());
        for &alpha in alphas {
            self.set_alpha(alpha);
            plans.push(self.plan()?);
        }
        Ok(plans)
    }

    /// Append records to the dataset, extending the content digest
    /// incrementally. The next [`plan`](Self::plan) re-sketches only the
    /// appended records and re-stratifies/re-profiles from there.
    pub fn append_items(&mut self, items: Vec<DataItem>) {
        self.dataset_fp = stages::extend_dataset_fingerprint(self.dataset_fp, &items);
        self.dataset.items.extend(items);
    }

    /// Remove a node from the active roster. Cached measurements survive
    /// (they are node-independent); profile/optimize/partition re-run.
    /// Dropping the last remaining node is refused with
    /// [`PlanError::LastRosterNode`] — a session with an empty roster
    /// could never plan again.
    pub fn drop_node(&mut self, node: usize) -> Result<(), PlanError> {
        let roster = self.engine.roster();
        if !roster.contains(&node) {
            return Err(PlanError::UnknownNode {
                node,
                cluster_size: self.engine.cluster().num_nodes(),
            });
        }
        if roster == [node] {
            return Err(PlanError::LastRosterNode { node });
        }
        let next: Vec<usize> = roster.iter().copied().filter(|&id| id != node).collect();
        self.engine.set_roster(next)
    }

    /// Return a cluster node to the active roster (no-op if present).
    pub fn restore_node(&mut self, node: usize) -> Result<(), PlanError> {
        let mut next = self.engine.roster().to_vec();
        next.push(node);
        self.engine.set_roster(next)
    }

    /// Change the scalarization weight. Energy-aware strategies keep
    /// their class; any other strategy switches to
    /// [`Strategy::HetEnergyAware`] at the given α.
    pub fn set_alpha(&mut self, alpha: f64) {
        let cfg = self.engine.config_mut();
        cfg.strategy = match cfg.strategy {
            Strategy::HetEnergyAwareNormalized { .. } => {
                Strategy::HetEnergyAwareNormalized { alpha }
            }
            _ => Strategy::HetEnergyAware { alpha },
        };
    }

    /// Switch the partitioning strategy outright.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.engine.config_mut().strategy = strategy;
    }

    /// The current dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The current content digest.
    pub fn dataset_fingerprint(&self) -> Fingerprint {
        self.dataset_fp
    }

    /// The active roster (sorted node ids).
    pub fn roster(&self) -> &[usize] {
        self.engine.roster()
    }

    /// Configuration in force.
    pub fn config(&self) -> &FrameworkConfig {
        self.engine.config()
    }

    /// Snapshot of the cache hit/miss/evict counters accumulated over the
    /// session (over the whole fleet, for a shared cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache().stats()
    }

    /// The session's cache handle, for sharing with sibling sessions.
    pub fn cache(&self) -> &SharedPlanCache {
        self.engine.cache()
    }

    /// Which stages of the last plan were served from the cache.
    pub fn last_reuse(&self) -> StageReuse {
        self.engine.last_reuse()
    }

    /// Run the adaptive frontier explorer ([`crate::frontier::explore`])
    /// through this warm session. Each per-α solve is a full
    /// [`plan`](Self::plan), so sketch/stratify/profile artifacts are
    /// reused across every bisection (only the LP + partitioning rerun),
    /// and the whole [`FrontierResult`] is itself a fingerprinted cache
    /// artifact (stage name `frontier`): re-exploring with unchanged
    /// inputs is a single cache hit with zero LP solves.
    ///
    /// The session's strategy is forced to
    /// [`Strategy::HetEnergyAware`] for the duration (the explorer owns
    /// α) and restored afterwards.
    pub fn explore_frontier(
        &mut self,
        cfg: &FrontierConfig,
    ) -> Result<FrontierOutcome, PlanError> {
        cfg.validate().map_err(PlanError::Frontier)?;
        // The key comes from the same derivation as the plan's key chain,
        // so every input any stage reads invalidates the frontier too.
        let key = self
            .engine
            .key_inputs(self.workload, self.dataset_fp, self.dataset.len())
            .frontier_key(cfg);
        let telemetry = self.engine.telemetry().clone();
        // The exploration calls `plan()`, which takes the cache lock per
        // stage: look up, explore unlocked, then store.
        let found = stages::lookup(&mut self.engine.cache().lock(), &telemetry, "frontier", key);
        if let Some(result) = found {
            return Ok(FrontierOutcome {
                result,
                cache_hit: true,
            });
        }
        let saved_strategy = self.engine.config().strategy;
        let explored = {
            let mut solver = SessionSolver::new(self);
            explore(&mut solver, cfg, &telemetry)
        };
        self.engine.config_mut().strategy = saved_strategy;
        let result = Arc::new(explored?);
        stages::store(
            &mut self.engine.cache().lock(),
            &telemetry,
            "frontier",
            key,
            result.clone(),
        );
        Ok(FrontierOutcome {
            result,
            cache_hit: false,
        })
    }
}

/// Result of [`PlanSession::explore_frontier`]: the frontier artifact and
/// whether it was served from the session cache.
#[derive(Debug, Clone)]
pub struct FrontierOutcome {
    /// The explored (or cached) frontier.
    pub result: Arc<FrontierResult>,
    /// True when the whole artifact came from the cache (no LP solved).
    pub cache_hit: bool,
}

/// [`AlphaSolver`] backend over a warm session: each α becomes one full
/// `plan()` (warm stages reused), and transfer bytes are measured against
/// the content-hash home placement.
struct SessionSolver<'s, 'a> {
    session: &'s mut PlanSession<'a>,
    /// Record ids, for the hash-home placement.
    ids: Vec<u64>,
    /// Per-record payload bytes.
    payload_bytes: Vec<f64>,
    /// record index → home partition, lazily built once the partition
    /// count is known (constant within one exploration).
    home: Option<Vec<usize>>,
    /// Time models + energy profiles captured from the last solve, for
    /// the equal-split baseline.
    captured: Option<(Vec<LinearFit>, Vec<NodeEnergyProfile>)>,
}

impl<'s, 'a> SessionSolver<'s, 'a> {
    fn new(session: &'s mut PlanSession<'a>) -> Self {
        let items = &session.dataset.items;
        let ids: Vec<u64> = items.iter().map(|i| i.id).collect();
        let payload_bytes: Vec<f64> = items
            .iter()
            .map(|i| i.payload.to_bytes().len() as f64)
            .collect();
        SessionSolver {
            session,
            ids,
            payload_bytes,
            home: None,
            captured: None,
        }
    }

    /// Bytes that must move relative to the hash-home placement.
    fn transfer_bytes(&mut self, partitions: &[Vec<usize>]) -> f64 {
        let p = partitions.len();
        let home = self.home.get_or_insert_with(|| {
            let slots = DataPartitioner::hash_slots(&self.ids, p);
            let mut home = vec![0usize; self.ids.len()];
            for (slot, members) in slots.iter().enumerate() {
                for &i in members {
                    home[i] = slot;
                }
            }
            home
        });
        let mut moved = 0.0;
        for (slot, members) in partitions.iter().enumerate() {
            for &i in members {
                if home[i] != slot {
                    moved += self.payload_bytes[i];
                }
            }
        }
        moved
    }
}

impl AlphaSolver for SessionSolver<'_, '_> {
    fn solve_alpha(&mut self, alpha: f64) -> Result<FrontierPoint, PlanError> {
        self.session
            .set_strategy(Strategy::HetEnergyAware { alpha });
        let plan = self.session.plan()?;
        let point = plan.pareto.as_ref().ok_or(PlanError::Lp(
            PartitionPlanError::Degenerate("energy-aware plan produced no LP point"),
        ))?;
        if let Some(models) = &plan.time_models {
            self.captured = Some((
                models.iter().map(|m| m.fit).collect(),
                plan.energy_profiles.clone(),
            ));
        }
        let transfer_bytes = self.transfer_bytes(&plan.partitions);
        Ok(FrontierPoint {
            alpha,
            makespan_s: point.predicted_makespan,
            dirty_joules: point.predicted_dirty_joules,
            transfer_bytes,
            sizes: plan.sizes.clone(),
        })
    }

    fn baseline(&mut self) -> Result<(f64, f64), PlanError> {
        let (fits, profiles) = self.captured.clone().ok_or(PlanError::Lp(
            PartitionPlanError::Degenerate("baseline requested before any solve"),
        ))?;
        let n = self.session.dataset.len();
        let p = fits.len();
        let modeler = ParetoModeler::new(fits, profiles)?;
        let equal = vec![n as f64 / p as f64; p];
        let t = modeler
            .predicted_times(&equal)
            .iter()
            .copied()
            .fold(0.0, f64::max);
        Ok((t, modeler.predicted_dirty(&equal)))
    }
}
