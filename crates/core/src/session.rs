//! The planner: a cluster, a configuration, an artifact cache and an
//! active node roster over one dataset/workload pair. [`PlanSession::plan`]
//! runs the five cache-keyed stages of [`crate::stages`] as straight-line
//! code; the delta operations a production planner sees most — dataset
//! appends, node churn, and α/strategy changes — edit the session between
//! plans, and only stages whose keys changed rerun.
//!
//! The dataset's content chain digest is computed on demand: when the
//! session is handed a cache ([`PlanSession::with_shared_cache`]), where
//! another session's keys could meet its own, or when
//! [`PlanSession::dataset_fingerprint`] is read. Until then the session
//! keys its own cache by a stand-in that names the dataset's generation
//! (its length — appends only grow it). A session handed that cache
//! digests, so no other session can meet such a key. Once computed, the
//! digest is maintained incrementally (appending records extends a chain
//! hash), so an append costs a digest of the *new* records only.
//!
//! The key of the last sketched generation names its cached signatures,
//! which the next plan after an append extends by the new records; the
//! sketch stage then retires them, so the cache holds one signature
//! matrix per session lineage, not one per generation.
//! [`crate::Framework::try_plan`] opens a one-shot cold session over a
//! *borrowed* dataset, which it does not copy.
//!
//! Every plan a warm session produces is bit-identical to a cold
//! [`crate::Framework::try_plan`] over the same inputs — the cache only ever
//! returns what a cold compute would have produced (the `incremental`
//! integration suite proptests this across deltas, threads, and seeds).

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use pareto_cluster::{Cost, SimCluster};
use pareto_datagen::{DataItem, Dataset};
use pareto_energy::NodeEnergyProfile;
use pareto_sketch::SignatureMatrix;
use pareto_stats::LinearFit;
use pareto_stratify::Stratifier;
use pareto_telemetry::Telemetry;
use pareto_workloads::WorkloadKind;

use crate::cache::{CacheStats, Fingerprint, SharedPlanCache};
use crate::estimator::{EnergyEstimator, HeterogeneityEstimator, NodeTimeModel};
use crate::framework::{FrameworkConfig, Plan, PlanTimings, Strategy};
use crate::frontier::{explore, AlphaSolver, FrontierConfig, FrontierPoint, FrontierResult};
use crate::pareto::{ParetoModeler, PartitionPlanError};
use crate::partitioner::DataPartitioner;
use crate::stages::{
    self, cached, placement_seed, record_plan_telemetry, sampling_seed, sketch_key,
    strategy_needs_models, validate_sampling, validate_stratifier, Deadline, KeyInputs, PlanError,
    StageRecord, StageReuse, StageRunner,
};

/// How a session holds its cluster: borrowed (zero-cost) or shared (`Arc`,
/// for sessions that must be `'static` — one per tenant in the plan
/// server).
enum ClusterRef<'a> {
    Borrowed(&'a SimCluster),
    Shared(Arc<SimCluster>),
}

impl ClusterRef<'_> {
    fn get(&self) -> &SimCluster {
        match self {
            ClusterRef::Borrowed(c) => c,
            ClusterRef::Shared(c) => c,
        }
    }
}

/// The `profile` artifact: energy `k_i` profiles for the roster plus (for
/// model-driven strategies) the fitted per-node time models and the
/// one-time estimation cost.
struct ProfileArtifact {
    profiles: Vec<NodeEnergyProfile>,
    models: Option<Vec<NodeTimeModel>>,
    cost: Cost,
}

/// The `measure` sub-artifact: the raw `(sample size, ops)` measurements
/// behind the fits. Crucially **node-independent** — a roster change
/// re-fits without re-measuring.
struct MeasureArtifact {
    measurements: Vec<(usize, u64)>,
    cost: Cost,
}

/// The `partition` artifact: final sizes + record placement.
struct PartitionArtifact {
    sizes: Vec<usize>,
    partitions: Vec<Vec<usize>>,
}

/// A planning session over one dataset/workload pair.
pub struct PlanSession<'a> {
    cluster: ClusterRef<'a>,
    cfg: FrameworkConfig,
    telemetry: Arc<Telemetry>,
    cache: SharedPlanCache,
    /// Active node ids (sorted).
    roster: Vec<usize>,
    last_reuse: StageReuse,
    /// Cooperative cancellation token, polled before every stage.
    deadline: Deadline,
    /// Owned by a long-lived session; borrowed by the cold one-shot plan
    /// of [`crate::Framework::try_plan`], which must not copy it.
    dataset: Cow<'a, Dataset>,
    workload: WorkloadKind,
    /// Chain digest of the current dataset contents, once computed (see
    /// the module doc); until then keys name the generation instead.
    digest: Option<Fingerprint>,
    /// Dataset key + length of the last generation whose sketch stage
    /// completed (the sketch-append prefix hint).
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
        Self::over(
            ClusterRef::Borrowed(cluster),
            cfg,
            Cow::Owned(dataset),
            workload,
        )
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
        PlanSession::over(
            ClusterRef::Shared(cluster),
            cfg,
            Cow::Owned(dataset),
            workload,
        )
    }

    /// A cold session over a borrowed dataset, for one plan.
    pub(crate) fn borrowed(
        cluster: &'a SimCluster,
        cfg: FrameworkConfig,
        dataset: &'a Dataset,
        workload: WorkloadKind,
    ) -> Self {
        Self::over(
            ClusterRef::Borrowed(cluster),
            cfg,
            Cow::Borrowed(dataset),
            workload,
        )
    }

    fn over(
        cluster: ClusterRef<'a>,
        cfg: FrameworkConfig,
        dataset: Cow<'a, Dataset>,
        workload: WorkloadKind,
    ) -> Self {
        PlanSession {
            roster: (0..cluster.get().num_nodes()).collect(),
            cluster,
            cfg,
            telemetry: Telemetry::disabled(),
            cache: SharedPlanCache::default(),
            last_reuse: StageReuse::default(),
            deadline: Deadline::None,
            digest: None,
            dataset,
            workload,
            prev_dataset: None,
        }
    }

    /// Attach a telemetry recorder (cache counters + plan spans).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Bound the artifact cache to `capacity` entries (replaces the
    /// session's private cache with a fresh one).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = SharedPlanCache::new(capacity);
        self
    }

    /// Share an artifact cache with other sessions: a stage whose
    /// fingerprint (same dataset digest, roster, config) another session
    /// already stored is served from that session's artifact. Digests the
    /// dataset, if it is not yet: from here on keys name content.
    pub fn with_shared_cache(mut self, cache: SharedPlanCache) -> Self {
        if self.digest.is_none() {
            // The prefix hint names a generation too; re-key it by the
            // digest of that prefix, on the way to the whole dataset's.
            let split = self.prev_dataset.map_or(0, |(_, len)| len);
            let (head, tail) = self.dataset.items.split_at(split);
            let prefix = stages::records_fingerprint(head);
            self.prev_dataset = self.prev_dataset.map(|(_, len)| (prefix, len));
            self.digest = Some(stages::extend_dataset_fingerprint(prefix, tail));
        }
        self.cache = cache;
        self
    }

    /// Set the cancellation token polled before every stage of subsequent
    /// plans ([`Deadline::None`] clears it).
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// The [`KeyInputs`] of a plan of the current dataset under the
    /// current configuration and roster.
    fn key_inputs(&self) -> KeyInputs<'_> {
        KeyInputs {
            cfg: &self.cfg,
            workload: self.workload,
            dataset_fp: self.dataset_key(),
            records: self.dataset.len(),
            roster_fp: Fingerprint(self.cluster.get().roster_fingerprint(&self.roster)),
            nodes: self.roster.len(),
        }
    }

    /// Plan (or replan) with the current dataset, roster, and config,
    /// consulting the cache per stage: only stages whose inputs changed
    /// since the cached artifacts were produced are recomputed.
    pub fn plan(&mut self) -> Result<Plan, PlanError> {
        let dataset: &Dataset = &self.dataset;
        let workload = self.workload;
        if dataset.is_empty() {
            return Err(PlanError::EmptyDataset);
        }
        if self.roster.is_empty() {
            return Err(PlanError::EmptyRoster);
        }
        validate_stratifier(&self.cfg.stratifier, dataset.len())?;
        validate_sampling(&self.cfg.sampling, dataset.len())?;
        workload
            .validate()
            .map_err(|reason| PlanError::InvalidWorkload { reason })?;
        let started = Instant::now();
        let wall_start = self.telemetry.wall_now();
        let inputs = self.key_inputs();
        let (keys, dataset_key) = (inputs.plan_keys(), inputs.dataset_fp);
        let prev_dataset = self.prev_dataset;

        let cluster = self.cluster.get();
        let cfg = &self.cfg;
        let roster = self.roster.as_slice();
        let telemetry: &Telemetry = &self.telemetry;
        let (n, p) = (dataset.len(), roster.len());
        let stratifier = Stratifier::new(cfg.stratifier.clone()).with_threads(cfg.threads);
        let cache = &self.cache;
        let mut run = StageRunner {
            cache,
            telemetry,
            deadline: &mut self.deadline,
        };

        // After an append the full-dataset key misses, but the previous
        // generation's sketch is a bit-identical prefix (MinHash is a pure
        // per-record function): sketch only the appended records. The
        // dataset has moved past that generation, so the stage retires it
        // whether the extended sketch is found or stored.
        let prefix_key = prev_dataset
            .filter(|&(_, prev_len)| prev_len < n)
            .map(|(prev_fp, _)| sketch_key(prev_fp, &cfg.stratifier));
        let (signatures, sketched) = run.stage("sketch", keys.sketch, prefix_key, || {
            let prefix = prefix_key.and_then(|key| {
                stages::get_if_cached::<SignatureMatrix>(cache, telemetry, "sketch", key)
            });
            Ok(match prefix {
                Some(prefix) => stratifier.sketch_append(dataset, &prefix),
                None => stratifier.sketch(dataset),
            })
        })?;
        // The current generation's sketch is cached from here on: it is
        // the next append's prefix even if a later stage fails.
        self.prev_dataset = Some((dataset_key, n));

        let (stratification, stratified) = run.stage("stratify", keys.stratify, None, || {
            Ok(stratifier.stratify_signatures(&signatures))
        })?;

        let (profile, profiled) = run.stage("profile", keys.profile, None, || {
            let all_profiles = EnergyEstimator::profiles(cluster, 0.0, cfg.planning_horizon_s);
            let profiles = roster.iter().map(|&id| all_profiles[id]).collect();
            if !strategy_needs_models(&cfg.strategy) {
                return Ok(ProfileArtifact {
                    profiles,
                    models: None,
                    cost: Cost::ZERO,
                });
            }
            let estimator = HeterogeneityEstimator::new(cluster, cfg.sampling, sampling_seed(cfg))
                .with_threads(cfg.threads);
            // Measurements are cached separately: they survive roster
            // changes (the workload sample never touches a node), so
            // dropping a node re-fits the cheap per-node lines without
            // re-running the workload.
            let (measured, _) = cached(cache, telemetry, "measure", keys.measure, None, || {
                let (measurements, cost) = estimator.measure(dataset, &stratification, workload);
                Ok(MeasureArtifact { measurements, cost })
            })?;
            Ok(ProfileArtifact {
                profiles,
                models: Some(estimator.fit_measurements(&measured.measurements, roster)),
                cost: measured.cost,
            })
        })?;

        // The scalarized LP (or waterfilling for pure Het-Aware) runs
        // exactly when the profile stage fitted time models. The artifact
        // is the chosen Pareto point.
        let optimized = match &profile.models {
            None => None,
            Some(models) => Some(run.stage("optimize", keys.optimize, None, || {
                let fits: Vec<LinearFit> = models.iter().map(|m| m.fit).collect();
                let modeler = ParetoModeler::new(fits, profile.profiles.clone())?;
                Ok(match cfg.strategy {
                    Strategy::HetEnergyAware { alpha } => modeler.solve(n, alpha)?,
                    Strategy::HetEnergyAwareNormalized { alpha } => {
                        modeler.solve_normalized(n, alpha)?
                    }
                    // Het-Aware, the one model-driven strategy left.
                    _ => modeler.solve_het_aware(n),
                })
            })?),
        };

        let (placed, partitioned) = run.stage("partition", keys.partition, None, || {
            let sizes = match &optimized {
                Some((point, _)) => point.sizes.clone(),
                None => DataPartitioner::equal_sizes(n, p),
            };
            let partitioner = DataPartitioner::new(placement_seed(cfg));
            let partitions = match cfg.strategy {
                Strategy::Random => partitioner.random(n, &sizes),
                Strategy::RoundRobin => DataPartitioner::round_robin(n, p),
                Strategy::ClusterMode => {
                    let ids: Vec<u64> = dataset.items.iter().map(|i| i.id).collect();
                    DataPartitioner::hash_slots(&ids, p)
                }
                _ => partitioner.partition(&stratification, &sizes, cfg.layout),
            };
            // Hash placement dictates its own sizes; report what it produced.
            let sizes = if matches!(cfg.strategy, Strategy::ClusterMode) {
                partitions.iter().map(Vec::len).collect()
            } else {
                sizes
            };
            Ok(PartitionArtifact { sizes, partitions })
        })?;

        let (point, optimize_record) = optimized.unzip();
        let plan = Plan {
            stratification: stratification.as_ref().clone(),
            time_models: profile.models.clone(),
            energy_profiles: profile.profiles.clone(),
            pareto: point.map(|point| point.as_ref().clone()),
            sizes: placed.sizes.clone(),
            partitions: placed.partitions.clone(),
            estimation_cost: profile.cost,
            timings: PlanTimings {
                sketch_s: sketched.seconds,
                stratify_s: stratified.seconds,
                profile_s: profiled.seconds,
                optimize_s: optimize_record.map_or(0.0, |r| r.seconds),
                partition_s: partitioned.seconds,
                total_s: started.elapsed().as_secs_f64(),
            },
        };
        // A strategy that solves no LP never runs "optimize": its
        // zero-length span reads as cached.
        let skipped = StageRecord {
            name: "optimize",
            hit: true,
            seconds: 0.0,
        };
        record_plan_telemetry(
            telemetry,
            cfg,
            &plan,
            n,
            wall_start,
            [
                sketched,
                stratified,
                profiled,
                optimize_record.unwrap_or(skipped),
                partitioned,
            ],
        );
        self.last_reuse = StageReuse {
            sketch: sketched.hit,
            stratify: stratified.hit,
            profile: profiled.hit,
            optimize: optimize_record.is_some_and(|r| r.hit),
            partition: partitioned.hit,
        };
        Ok(plan)
    }

    /// Append records to the dataset, extending the content digest
    /// incrementally. The next [`plan`](Self::plan) re-sketches only the
    /// appended records and re-stratifies/re-profiles from there.
    pub fn append_items(&mut self, items: Vec<DataItem>) {
        if let Some(digest) = &mut self.digest {
            *digest = stages::extend_dataset_fingerprint(*digest, &items);
        }
        self.dataset.to_mut().items.extend(items);
    }

    /// Remove a node from the active roster. Cached measurements survive
    /// (they are node-independent); profile/optimize/partition re-run.
    /// Dropping the last remaining node is refused with
    /// [`PlanError::LastRosterNode`] — a session with an empty roster
    /// could never plan again.
    pub fn drop_node(&mut self, node: usize) -> Result<(), PlanError> {
        let roster = &self.roster;
        if !roster.contains(&node) {
            return Err(PlanError::UnknownNode {
                node,
                cluster_size: self.cluster.get().num_nodes(),
            });
        }
        if roster == &[node] {
            return Err(PlanError::LastRosterNode { node });
        }
        let next: Vec<usize> = roster.iter().copied().filter(|&id| id != node).collect();
        self.set_roster(next)
    }

    /// Return a cluster node to the active roster (no-op if present).
    pub fn restore_node(&mut self, node: usize) -> Result<(), PlanError> {
        let mut next = self.roster.clone();
        next.push(node);
        self.set_roster(next)
    }

    /// Replace the active roster; ids must exist in the cluster.
    fn set_roster(&mut self, mut roster: Vec<usize>) -> Result<(), PlanError> {
        roster.sort_unstable();
        roster.dedup();
        if roster.is_empty() {
            return Err(PlanError::EmptyRoster);
        }
        let p = self.cluster.get().num_nodes();
        if let Some(&bad) = roster.iter().find(|&&id| id >= p) {
            return Err(PlanError::UnknownNode {
                node: bad,
                cluster_size: p,
            });
        }
        self.roster = roster;
        Ok(())
    }

    /// Change the scalarization weight. Energy-aware strategies keep
    /// their class; any other strategy switches to
    /// [`Strategy::HetEnergyAware`] at the given α.
    pub fn set_alpha(&mut self, alpha: f64) {
        self.cfg.strategy = match self.cfg.strategy {
            Strategy::HetEnergyAwareNormalized { .. } => {
                Strategy::HetEnergyAwareNormalized { alpha }
            }
            _ => Strategy::HetEnergyAware { alpha },
        };
    }

    /// Switch the partitioning strategy outright.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.cfg.strategy = strategy;
    }

    /// The current dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The current content digest ([`crate::dataset_fingerprint`] of the
    /// dataset). A session whose cache was never shared computes it here,
    /// on every call.
    pub fn dataset_fingerprint(&self) -> Fingerprint {
        self.digest
            .unwrap_or_else(|| stages::records_fingerprint(&self.dataset.items))
    }

    /// What cache keys mix in for the dataset: its digest once computed,
    /// else a stand-in naming the generation. Appends only grow the
    /// dataset, so the length tells a session's generations apart, and
    /// the prefix key of an append never equals the key it extends.
    fn dataset_key(&self) -> Fingerprint {
        self.digest
            .unwrap_or_else(|| stages::generation_key(self.dataset.len()))
    }

    /// The active roster (sorted node ids).
    pub fn roster(&self) -> &[usize] {
        &self.roster
    }

    /// Configuration in force.
    pub fn config(&self) -> &FrameworkConfig {
        &self.cfg
    }

    /// Snapshot of the cache hit/miss/evict counters accumulated over the
    /// session (over the whole fleet, for a shared cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The session's cache handle, for sharing with sibling sessions.
    pub fn cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    /// Which stages of the last plan were served from the cache.
    pub fn last_reuse(&self) -> StageReuse {
        self.last_reuse
    }

    /// Run the frontier explorer ([`crate::frontier::explore`]) through
    /// this warm session. Each vertex's plan is a full
    /// [`plan`](Self::plan), so sketch/stratify/profile artifacts are
    /// reused across every vertex (only the LP + partitioning rerun),
    /// and the whole [`FrontierResult`] is itself a fingerprinted cache
    /// artifact (stage name `frontier`): re-exploring with unchanged
    /// inputs is a single cache hit with zero LP solves.
    ///
    /// The session's strategy is forced to
    /// [`Strategy::HetEnergyAware`] for the duration (the explorer owns
    /// α) and restored afterwards.
    pub fn explore_frontier(&mut self, cfg: &FrontierConfig) -> Result<FrontierOutcome, PlanError> {
        cfg.validate().map_err(PlanError::Frontier)?;
        // The key comes from the same derivation as the plan's key chain,
        // so every input any stage reads invalidates the frontier too.
        let key = self.key_inputs().frontier_key(cfg);
        // The exploration plans through this session's own cache, so the
        // driver gets a second handle to it.
        let cache = self.cache.clone();
        let telemetry = self.telemetry.clone();
        let (result, cache_hit) = cached(&cache, &telemetry, "frontier", key, None, || {
            let saved_strategy = self.cfg.strategy;
            let explored = explore(&mut SessionSolver::new(self), cfg, &telemetry);
            self.cfg.strategy = saved_strategy;
            explored
        })?;
        Ok(FrontierOutcome { result, cache_hit })
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
    /// The modeler built from the first plan's time models and energy
    /// profiles; every later plan of the exploration solves against it.
    modeler: Option<ParetoModeler>,
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
            modeler: None,
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
        let point = plan
            .pareto
            .as_ref()
            .ok_or(PlanError::Lp(PartitionPlanError::Degenerate(
                "energy-aware plan produced no LP point",
            )))?;
        if let (None, Some(models)) = (&self.modeler, &plan.time_models) {
            let fits = models.iter().map(|m| m.fit).collect();
            self.modeler = Some(ParetoModeler::new(fits, plan.energy_profiles.clone())?);
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

    fn modeler(&self) -> Option<(&ParetoModeler, usize)> {
        let n = self.session.dataset.len();
        self.modeler.as_ref().map(|m| (m, n))
    }
}
