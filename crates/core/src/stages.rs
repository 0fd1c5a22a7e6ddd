//! The staged planning engine: `Framework::try_plan` decomposed into five
//! cache-keyed stages — **sketch**, **stratify**, **profile**,
//! **optimize**, **partition** — each declaring a [`Fingerprint`] of the
//! inputs it reads and producing an immutable artifact in a [`PlanCache`].
//!
//! A cold run through [`PlanEngine::plan`] computes every stage and is
//! bit-identical to the historical monolithic pipeline; a warm run (same
//! cache, e.g. via [`crate::session::PlanSession`]) recomputes only the
//! stages whose fingerprints changed. The invalidation matrix lives in
//! DESIGN.md §10; the short version:
//!
//! | input changed            | sketch | stratify | profile | optimize | partition |
//! |--------------------------|--------|----------|---------|----------|-----------|
//! | dataset content          | ✗      | ✗        | ✗¹      | ✗        | ✗         |
//! | stratifier config        | ✗      | ✗        | ✗¹      | ✗        | ✗         |
//! | node roster / traces     | —      | —        | ✗²      | ✗        | ✗         |
//! | α (same strategy class)  | —      | —        | —       | ✗        | ✗         |
//! | strategy class / layout  | —      | —        | ✗³      | ✗        | ✗         |
//! | `threads`                | —      | —        | —       | —        | —         |
//!
//! ¹ via the measurement sub-artifact; a dataset *append* still reuses the
//!   prefix sketch. ² measurements are node-independent and survive roster
//!   changes — only the cheap per-node fits re-run. ³ only when the change
//!   toggles whether time models are needed. `threads` never invalidates
//!   anything because every stage is bit-identical at any thread count.

use std::sync::Arc;
use std::time::Instant;

use pareto_cluster::{Cost, SimCluster};
use pareto_datagen::{DataItem, Dataset};
use pareto_energy::NodeEnergyProfile;
use pareto_sketch::SignatureMatrix;
use pareto_stats::LinearFit;
use pareto_stratify::{Stratification, Stratifier, StratifierConfig};
use pareto_telemetry::{metrics, ClockDomain, SpanId, Telemetry, Track};
use pareto_workloads::WorkloadKind;

use crate::cache::{CacheStats, Fingerprint, FingerprintBuilder, PlanCache, SharedPlanCache};
use crate::estimator::{EnergyEstimator, HeterogeneityEstimator, NodeTimeModel};
use crate::framework::{FrameworkConfig, Plan, PlanTimings, Strategy};
use crate::pareto::{
    map_partition_basis, LpBasis, ParetoModeler, ParetoPoint, PartitionPlanError,
};
use crate::partitioner::DataPartitioner;

/// A planning failure, returned instead of the historical panics so the
/// CLI (and any embedding service) can map it to a clean exit.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The dataset has no records.
    EmptyDataset,
    /// Every node has been dropped from the roster.
    EmptyRoster,
    /// A [`StratifierConfig`] field the stratify stage cannot run with:
    /// zero strata, zero center-list length, or a sketch so wide that the
    /// dataset has 2³² or more sketch coordinates (the kModes kernel
    /// indexes them with `u32`).
    InvalidStratifier {
        /// The offending `FrameworkConfig.stratifier` field.
        field: &'static str,
        /// What is wrong with its value.
        reason: &'static str,
    },
    /// A roster operation named a node the cluster does not have (or the
    /// roster does not contain, for removals).
    UnknownNode {
        /// The offending node id.
        node: usize,
        /// Cluster size, for the message.
        cluster_size: usize,
    },
    /// A drop would empty the roster: the named node is the last one
    /// left, and a session with no nodes can never plan again.
    LastRosterNode {
        /// The node whose removal was refused.
        node: usize,
    },
    /// The scalarized LP failed (bad α, degenerate inputs, …).
    Lp(PartitionPlanError),
    /// An invalid [`FrontierConfig`] (bad tolerance, malformed coarse
    /// grid, budget below the grid size).
    ///
    /// [`FrontierConfig`]: crate::frontier::FrontierConfig
    Frontier(String),
    /// The caller supplied an invalid [`RecoveryConfig`]
    /// (zero/absurd retry bounds, non-finite thresholds).
    ///
    /// [`RecoveryConfig`]: crate::recovery::RecoveryConfig
    Recovery(crate::recovery::RecoveryConfigError),
    /// A [`Deadline`] checkpoint tripped before the named stage ran. Every
    /// stage that completed before the checkpoint is already cached, so a
    /// retry (or a later request for the same digest) resumes from the
    /// partial artifacts rather than from scratch.
    DeadlineExceeded {
        /// The stage whose checkpoint observed the expired deadline.
        stage: &'static str,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyDataset => write!(f, "cannot plan an empty dataset"),
            PlanError::EmptyRoster => write!(f, "cannot plan with an empty node roster"),
            PlanError::InvalidStratifier { field, reason } => {
                write!(f, "invalid stratifier config: {field} {reason}")
            }
            PlanError::UnknownNode { node, cluster_size } => write!(
                f,
                "node {node} is not available (cluster has {cluster_size} nodes)"
            ),
            PlanError::LastRosterNode { node } => write!(
                f,
                "refusing to drop node {node}: it is the last node on the roster"
            ),
            PlanError::Lp(e) => write!(f, "partitioning LP failed: {e}"),
            PlanError::Frontier(m) => write!(f, "invalid frontier config: {m}"),
            PlanError::Recovery(e) => write!(f, "invalid recovery config: {e}"),
            PlanError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded before the {stage} stage")
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Lp(e) => Some(e),
            PlanError::Recovery(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionPlanError> for PlanError {
    fn from(e: PartitionPlanError) -> Self {
        PlanError::Lp(e)
    }
}

impl From<crate::recovery::RecoveryConfigError> for PlanError {
    fn from(e: crate::recovery::RecoveryConfigError) -> Self {
        PlanError::Recovery(e)
    }
}

/// A cooperative cancellation token polled at every stage boundary of
/// [`PlanEngine::plan_with_fingerprint`]. The pipeline checks it *before*
/// each stage, so when it trips the stages already computed are cached and
/// the caller gets [`PlanError::DeadlineExceeded`] naming the first stage
/// that did not run.
///
/// The deadline is control-plane state: it never enters a fingerprint, and
/// a plan that completes under a deadline is bit-identical to one computed
/// without it — the token can only abort work, never change it.
#[derive(Debug, Clone, Default)]
pub enum Deadline {
    /// Never expires.
    #[default]
    None,
    /// A deterministic budget of stage checkpoints: each poll consumes
    /// one, and the poll that finds the budget exhausted trips. This is
    /// the variant simulated serving uses — `Budget(k)` expires before the
    /// `k+1`-th stage on every run, on every thread count.
    Budget(u64),
    /// Expires at a wall-clock instant (real-server request deadlines).
    Wall(Instant),
    /// Trips as soon as the flag reads `true` (remote cancellation).
    Flag(Arc<std::sync::atomic::AtomicBool>),
}

impl Deadline {
    /// Wall-clock deadline `timeout` from now.
    pub fn after(timeout: std::time::Duration) -> Self {
        Deadline::Wall(Instant::now() + timeout)
    }

    /// True for [`Deadline::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Deadline::None)
    }

    /// Consume one checkpoint before running `stage`. Returns
    /// [`PlanError::DeadlineExceeded`] once the deadline has passed.
    pub fn poll(&mut self, stage: &'static str) -> Result<(), PlanError> {
        let expired = match self {
            Deadline::None => false,
            Deadline::Budget(remaining) => {
                if *remaining == 0 {
                    true
                } else {
                    *remaining -= 1;
                    false
                }
            }
            Deadline::Wall(at) => Instant::now() >= *at,
            Deadline::Flag(cancelled) => {
                cancelled.load(std::sync::atomic::Ordering::Relaxed)
            }
        };
        if expired {
            Err(PlanError::DeadlineExceeded { stage })
        } else {
            Ok(())
        }
    }
}

/// Which stages of the last plan were served from the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageReuse {
    /// MinHash signatures reused.
    pub sketch: bool,
    /// Stratification reused.
    pub stratify: bool,
    /// Energy profiles + time models reused.
    pub profile: bool,
    /// LP solution reused (false when the strategy solves no LP).
    pub optimize: bool,
    /// Materialized partitions reused.
    pub partition: bool,
}

/// Everything a stage may read, plus upstream artifacts filled in as the
/// pipeline advances. Immutable inputs are borrowed; artifacts are `Arc`s
/// out of the cache.
pub struct StageCtx<'a> {
    /// The cluster being planned for.
    pub cluster: &'a SimCluster,
    /// Planning configuration.
    pub cfg: &'a FrameworkConfig,
    /// The dataset.
    pub dataset: &'a Dataset,
    /// The workload the estimator drives.
    pub workload: WorkloadKind,
    /// Active node ids (sorted, strictly increasing).
    pub roster: &'a [usize],
    /// Telemetry recorder for cache counters (inert: never read back).
    pub telemetry: &'a Telemetry,
    /// Content digest of the dataset (chain hash; see
    /// [`dataset_fingerprint`]).
    pub dataset_fp: Fingerprint,
    /// Digest of the planning-relevant cluster state for the roster.
    pub roster_fp: Fingerprint,
    /// Dataset digest + length at the session's previous successful plan,
    /// used to find a prefix sketch after an append.
    pub prev_dataset: Option<(Fingerprint, usize)>,
    /// Sketch artifact + fingerprint (after the sketch stage).
    pub signatures: Option<(Arc<SignatureMatrix>, Fingerprint)>,
    /// Stratification artifact + fingerprint (after the stratify stage).
    pub stratification: Option<(Arc<Stratification>, Fingerprint)>,
    /// Profile artifact + fingerprint (after the profile stage).
    pub profile: Option<(Arc<ProfileArtifact>, Fingerprint)>,
    /// LP artifact + fingerprint (after the optimize stage, when solved).
    pub optimize: Option<(Arc<OptimizeArtifact>, Fingerprint)>,
    /// Warm-start seed for the optimize stage's LP: the previous optimal
    /// basis, already mapped onto the current roster. Advisory only — it
    /// never enters a fingerprint, and by the solver's bit-identity
    /// contract the computed artifact is independent of it.
    pub warm_lp: Option<LpBasis>,
}

impl StageCtx<'_> {
    fn stratifier(&self) -> Stratifier {
        Stratifier::new(StratifierConfig {
            threads: self.cfg.threads,
            ..self.cfg.stratifier.clone()
        })
    }

    fn needs_models(&self) -> bool {
        strategy_needs_models(&self.cfg.strategy)
    }
}

/// True for the strategies that fit per-node time models and solve the LP.
pub fn strategy_needs_models(strategy: &Strategy) -> bool {
    matches!(
        strategy,
        Strategy::HetAware
            | Strategy::HetEnergyAware { .. }
            | Strategy::HetEnergyAwareNormalized { .. }
    )
}

/// Strategy discriminant + scalarization weight, for fingerprints.
fn strategy_fingerprint(strategy: &Strategy) -> FingerprintBuilder {
    let b = FingerprintBuilder::new("strategy");
    match strategy {
        Strategy::Stratified => b.mix_u64(0),
        Strategy::HetAware => b.mix_u64(1),
        Strategy::HetEnergyAware { alpha } => b.mix_u64(2).mix_f64(*alpha),
        Strategy::HetEnergyAwareNormalized { alpha } => b.mix_u64(3).mix_f64(*alpha),
        Strategy::Random => b.mix_u64(4),
        Strategy::RoundRobin => b.mix_u64(5),
        Strategy::ClusterMode => b.mix_u64(6),
    }
}

pub(crate) fn workload_fingerprint(workload: WorkloadKind) -> Fingerprint {
    let b = FingerprintBuilder::new("workload");
    match workload {
        WorkloadKind::FrequentPatterns { support } => b.mix_u64(0).mix_f64(support),
        WorkloadKind::FrequentPatternsEclat { support } => b.mix_u64(1).mix_f64(support),
        WorkloadKind::Lz77 => b.mix_u64(2),
        WorkloadKind::WebGraph => b.mix_u64(3),
    }
    .finish()
}

/// Fold `items` into a dataset chain digest: `fp' = mix(fp, digest(item))`.
/// Appending records extends the chain, so a session can update its digest
/// incrementally and the digest of any prefix is recoverable — that is
/// what lets the sketch stage reuse a prefix sketch after an append.
pub fn extend_dataset_fingerprint(fp: Fingerprint, items: &[DataItem]) -> Fingerprint {
    let mut state = fp;
    for item in items {
        let mut b = FingerprintBuilder::new("record")
            .mix_fp(state)
            .mix_u64(item.id)
            .mix_usize(item.items.len());
        for &v in item.items.as_slice() {
            b = b.mix_u64(v);
        }
        state = b.mix_bytes(&item.payload.to_bytes()).finish();
    }
    state
}

/// Content digest of a whole dataset (name excluded: the cache is
/// content-addressed).
pub fn dataset_fingerprint(dataset: &Dataset) -> Fingerprint {
    extend_dataset_fingerprint(
        FingerprintBuilder::new("dataset").finish(),
        &dataset.items,
    )
}

/// One stage of the plan pipeline: names itself, digests its inputs, and
/// computes its artifact from the context (upstream artifacts included).
/// The engine's driver owns timing, cache lookup/insertion, and telemetry,
/// so stage implementations stay pure.
pub trait PlanStage {
    /// The cached artifact type.
    type Artifact: Send + Sync + 'static;

    /// Cache namespace + telemetry label.
    fn name(&self) -> &'static str;

    /// Digest of every input this stage reads. `threads` is deliberately
    /// excluded everywhere: stage outputs are bit-identical at any thread
    /// count, so a thread-count change must hit.
    fn fingerprint(&self, ctx: &StageCtx<'_>) -> Fingerprint;

    /// Compute the artifact from scratch. Receives the cache for
    /// *auxiliary* lookups (prefix sketches, measurement sub-artifacts) —
    /// the stage's own artifact is stored by the driver.
    fn compute(&self, ctx: &StageCtx<'_>, cache: &mut PlanCache)
        -> Result<Self::Artifact, PlanError>;
}

/// Stage 1: MinHash signatures for every record.
pub struct SketchStage;

impl PlanStage for SketchStage {
    type Artifact = SignatureMatrix;

    fn name(&self) -> &'static str {
        "sketch"
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>) -> Fingerprint {
        sketch_fingerprint(ctx.dataset_fp, &ctx.cfg.stratifier)
    }

    fn compute(
        &self,
        ctx: &StageCtx<'_>,
        cache: &mut PlanCache,
    ) -> Result<Self::Artifact, PlanError> {
        let stratifier = ctx.stratifier();
        // After an append the full-dataset key misses, but the previous
        // generation's sketch is a bit-identical prefix (MinHash is a pure
        // per-record function): sketch only the appended records.
        if let Some((prev_fp, prev_len)) = ctx.prev_dataset {
            if prev_len < ctx.dataset.len() {
                let prev_key = sketch_fingerprint(prev_fp, &ctx.cfg.stratifier);
                if let Some(prefix) =
                    cache.get_if_cached::<SignatureMatrix>(self.name(), prev_key)
                {
                    return Ok(stratifier.sketch_append(ctx.dataset, &prefix));
                }
            }
        }
        Ok(stratifier.sketch(ctx.dataset))
    }
}

/// Reject the stratifier settings that would panic inside the stratify
/// stage, mid-plan, for a dataset of `records` records.
fn validate_stratifier(cfg: &StratifierConfig, records: usize) -> Result<(), PlanError> {
    let invalid = |field, reason| Err(PlanError::InvalidStratifier { field, reason });
    if cfg.num_strata == 0 {
        return invalid("num_strata", "must be at least 1");
    }
    if cfg.l == 0 {
        return invalid("l", "must be at least 1");
    }
    let cells = records.checked_mul(cfg.sketch_size);
    if cells.and_then(|cells| u32::try_from(cells).ok()).is_none() {
        return invalid("sketch_size", "times the record count must stay below 2^32");
    }
    Ok(())
}

fn sketch_fingerprint(dataset_fp: Fingerprint, cfg: &StratifierConfig) -> Fingerprint {
    FingerprintBuilder::new("sketch")
        .mix_fp(dataset_fp)
        .mix_usize(cfg.sketch_size)
        .mix_u64(cfg.seed)
        .finish()
}

/// Stage 2: compositeKModes clustering of the signatures.
pub struct StratifyStage;

impl PlanStage for StratifyStage {
    type Artifact = Stratification;

    fn name(&self) -> &'static str {
        "stratify"
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>) -> Fingerprint {
        let (_, sketch_fp) = ctx.signatures.as_ref().expect("sketch ran first");
        FingerprintBuilder::new("stratify")
            .mix_fp(*sketch_fp)
            .mix_usize(ctx.cfg.stratifier.num_strata)
            .mix_usize(ctx.cfg.stratifier.l)
            .mix_usize(ctx.cfg.stratifier.max_iters)
            .mix_u64(ctx.cfg.stratifier.seed)
            .finish()
    }

    fn compute(
        &self,
        ctx: &StageCtx<'_>,
        _cache: &mut PlanCache,
    ) -> Result<Self::Artifact, PlanError> {
        let (signatures, _) = ctx.signatures.as_ref().expect("sketch ran first");
        Ok(ctx.stratifier().stratify_signatures(signatures))
    }
}

/// The profile stage's artifact: energy `k_i` profiles for the roster plus
/// (for model-driven strategies) the fitted per-node time models and the
/// one-time estimation cost.
pub struct ProfileArtifact {
    /// Per-roster-node energy profiles.
    pub profiles: Vec<NodeEnergyProfile>,
    /// Per-roster-node time models (strategies that need them only).
    pub models: Option<Vec<NodeTimeModel>>,
    /// Total progressive-sampling cost charged.
    pub cost: Cost,
}

/// The raw `(sample size, ops)` measurements behind the fits. Crucially
/// **node-independent** — a roster change re-fits without re-measuring.
struct MeasureArtifact {
    measurements: Vec<(usize, u64)>,
    cost: Cost,
}

/// Stage 3: energy profiles + progressive-sampling time models.
pub struct ProfileStage;

impl PlanStage for ProfileStage {
    type Artifact = ProfileArtifact;

    fn name(&self) -> &'static str {
        "profile"
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>) -> Fingerprint {
        let needs_models = ctx.needs_models();
        let mut b = FingerprintBuilder::new("profile")
            .mix_fp(ctx.roster_fp)
            .mix_f64(ctx.cfg.planning_horizon_s)
            .mix_bool(needs_models);
        if needs_models {
            // Keyed on the measurement inputs — not on α — so a whole α
            // sweep reuses one profile pass.
            let (_, stratify_fp) = ctx.stratification.as_ref().expect("stratify ran first");
            b = b.mix_fp(measure_fingerprint(ctx, *stratify_fp));
        }
        b.finish()
    }

    fn compute(
        &self,
        ctx: &StageCtx<'_>,
        cache: &mut PlanCache,
    ) -> Result<Self::Artifact, PlanError> {
        let all_profiles =
            EnergyEstimator::profiles(ctx.cluster, 0.0, ctx.cfg.planning_horizon_s);
        let profiles: Vec<NodeEnergyProfile> = ctx
            .roster
            .iter()
            .map(|&id| all_profiles[id])
            .collect();
        if !ctx.needs_models() {
            return Ok(ProfileArtifact {
                profiles,
                models: None,
                cost: Cost::ZERO,
            });
        }
        let (stratification, stratify_fp) =
            ctx.stratification.as_ref().expect("stratify ran first");
        let estimator = HeterogeneityEstimator::new(
            ctx.cluster,
            ctx.cfg.sampling,
            ctx.cfg.seed ^ 0x5A17,
        )
        .with_threads(ctx.cfg.threads);
        // Measurements are cached separately: they survive roster changes
        // (the workload sample never touches a node), so dropping a node
        // re-fits the cheap per-node lines without re-running the workload.
        let measure_fp = measure_fingerprint(ctx, *stratify_fp);
        let measured = match cache.get::<MeasureArtifact>("measure", measure_fp) {
            Some(m) => {
                ctx.telemetry.counter_add(
                    metrics::PLAN_CACHE_EVENTS_TOTAL,
                    &[("event", "hit"), ("stage", "measure")],
                    1,
                );
                m
            }
            None => {
                ctx.telemetry.counter_add(
                    metrics::PLAN_CACHE_EVENTS_TOTAL,
                    &[("event", "miss"), ("stage", "measure")],
                    1,
                );
                let (measurements, cost) =
                    estimator.measure(ctx.dataset, stratification, ctx.workload);
                let artifact = Arc::new(MeasureArtifact { measurements, cost });
                cache.insert("measure", measure_fp, artifact.clone());
                artifact
            }
        };
        let models = estimator.fit_measurements(&measured.measurements, ctx.roster);
        Ok(ProfileArtifact {
            profiles,
            models: Some(models),
            cost: measured.cost,
        })
    }
}

fn measure_fingerprint(ctx: &StageCtx<'_>, stratify_fp: Fingerprint) -> Fingerprint {
    FingerprintBuilder::new("measure")
        .mix_fp(stratify_fp)
        .mix_f64(ctx.cfg.sampling.lo_frac)
        .mix_f64(ctx.cfg.sampling.hi_frac)
        .mix_usize(ctx.cfg.sampling.steps)
        .mix_usize(ctx.cfg.sampling.min_records)
        .mix_u64(ctx.cfg.seed ^ 0x5A17)
        .mix_fp(workload_fingerprint(ctx.workload))
        .finish()
}

/// The optimize stage's artifact: the chosen Pareto point plus the final
/// LP basis so later replans (α deltas, appends, roster churn, recovery)
/// can warm-start. The basis is a pure function of the fingerprinted
/// inputs — warm starts are bit-identical to cold by the solver's
/// contract, so caching it alongside the point keeps the cache
/// content-addressed even though solves may be seeded differently.
pub struct OptimizeArtifact {
    /// The optimizer's chosen point.
    pub point: ParetoPoint,
    /// Final optimal basis (absent for the waterfilling path).
    pub basis: Option<LpBasis>,
}

/// Stage 4: the scalarized LP (or waterfilling for pure Het-Aware). Only
/// runs for model-driven strategies.
pub struct OptimizeStage;

impl PlanStage for OptimizeStage {
    type Artifact = OptimizeArtifact;

    fn name(&self) -> &'static str {
        "optimize"
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>) -> Fingerprint {
        let (_, profile_fp) = ctx.profile.as_ref().expect("profile ran first");
        FingerprintBuilder::new("optimize")
            .mix_fp(*profile_fp)
            .mix_fp(strategy_fingerprint(&ctx.cfg.strategy).finish())
            .mix_usize(ctx.dataset.len())
            .finish()
    }

    fn compute(
        &self,
        ctx: &StageCtx<'_>,
        _cache: &mut PlanCache,
    ) -> Result<Self::Artifact, PlanError> {
        let (profile, _) = ctx.profile.as_ref().expect("profile ran first");
        let models = profile.models.as_ref().expect("optimize needs models");
        let fits: Vec<LinearFit> = models.iter().map(|m| m.fit).collect();
        let modeler = ParetoModeler::new(fits, profile.profiles.clone())
            .expect("aligned models and profiles");
        let n = ctx.dataset.len();
        let warm = ctx.warm_lp.as_ref();
        let (point, basis) = match ctx.cfg.strategy {
            Strategy::HetAware => (modeler.solve_het_aware(n), None),
            Strategy::HetEnergyAware { alpha } => {
                let solved = modeler.solve(n, alpha, warm)?;
                solved.stats.record(ctx.telemetry);
                (solved.point, solved.basis)
            }
            Strategy::HetEnergyAwareNormalized { alpha } => {
                let solved = modeler.solve_normalized(n, alpha, warm)?;
                solved.stats.record(ctx.telemetry);
                (solved.point, solved.basis)
            }
            _ => unreachable!("needs_models gates the strategies"),
        };
        Ok(OptimizeArtifact { point, basis })
    }
}

/// The partition stage's artifact: final sizes + record placement.
pub struct PartitionArtifact {
    /// Integer partition sizes (sums to the dataset size).
    pub sizes: Vec<usize>,
    /// Record indices per partition.
    pub partitions: Vec<Vec<usize>>,
}

/// Stage 5: materialize the partitions.
pub struct PartitionStage;

impl PlanStage for PartitionStage {
    type Artifact = PartitionArtifact;

    fn name(&self) -> &'static str {
        "partition"
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>) -> Fingerprint {
        let (_, stratify_fp) = ctx.stratification.as_ref().expect("stratify ran first");
        let optimize_fp = ctx.optimize.as_ref().map(|(_, fp)| *fp);
        FingerprintBuilder::new("partition")
            .mix_fp(*stratify_fp)
            .mix_fp(optimize_fp.unwrap_or(Fingerprint(0)))
            .mix_fp(strategy_fingerprint(&ctx.cfg.strategy).finish())
            .mix_u64(ctx.cfg.layout as u64)
            .mix_u64(ctx.cfg.seed ^ 0x9A27)
            .mix_usize(ctx.roster.len())
            .mix_fp(ctx.dataset_fp)
            .finish()
    }

    fn compute(
        &self,
        ctx: &StageCtx<'_>,
        _cache: &mut PlanCache,
    ) -> Result<Self::Artifact, PlanError> {
        let (stratification, _) = ctx.stratification.as_ref().expect("stratify ran first");
        let n = ctx.dataset.len();
        let p = ctx.roster.len();
        let sizes = match ctx.optimize.as_ref() {
            Some((art, _)) => art.point.sizes.clone(),
            None => DataPartitioner::equal_sizes(n, p),
        };
        let partitioner = DataPartitioner::new(ctx.cfg.seed ^ 0x9A27);
        let partitions = match ctx.cfg.strategy {
            Strategy::Random => partitioner.random(n, &sizes),
            Strategy::RoundRobin => DataPartitioner::round_robin(n, p),
            Strategy::ClusterMode => {
                let ids: Vec<u64> = ctx.dataset.items.iter().map(|i| i.id).collect();
                DataPartitioner::hash_slots(&ids, p)
            }
            _ => partitioner.partition(stratification, &sizes, ctx.cfg.layout),
        };
        // Hash placement dictates its own sizes; report what it produced.
        let sizes = if matches!(ctx.cfg.strategy, Strategy::ClusterMode) {
            partitions.iter().map(Vec::len).collect()
        } else {
            sizes
        };
        Ok(PartitionArtifact { sizes, partitions })
    }
}

/// How an engine holds its cluster: borrowed (the historical embedding,
/// zero-cost) or shared (`Arc`, for engines that must be `'static` — one
/// per tenant in the plan server).
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

/// The staged engine: a cluster + configuration + artifact cache + active
/// node roster. [`crate::Framework::try_plan`] wraps a fresh (cold) engine per
/// call; [`crate::session::PlanSession`] keeps one warm across replans.
pub struct PlanEngine<'a> {
    cluster: ClusterRef<'a>,
    cfg: FrameworkConfig,
    telemetry: Arc<Telemetry>,
    cache: SharedPlanCache,
    roster: Vec<usize>,
    last_reuse: StageReuse,
    /// The last optimize artifact's basis, tagged with the roster it was
    /// solved for, seeding the next plan's LP (mapped across roster
    /// deltas; see [`map_partition_basis`]).
    lp_warm: Option<(Vec<usize>, LpBasis)>,
    /// Cooperative cancellation token, polled before every stage.
    deadline: Deadline,
}

impl<'a> PlanEngine<'a> {
    /// An engine over the full cluster roster with a cold default cache.
    pub fn new(cluster: &'a SimCluster, cfg: FrameworkConfig) -> Self {
        PlanEngine {
            roster: (0..cluster.num_nodes()).collect(),
            cluster: ClusterRef::Borrowed(cluster),
            cfg,
            telemetry: Telemetry::disabled(),
            cache: SharedPlanCache::default(),
            last_reuse: StageReuse::default(),
            lp_warm: None,
            deadline: Deadline::None,
        }
    }

    /// Like [`new`](Self::new) over a shared cluster handle, yielding a
    /// `'static` engine that can move across threads (the plan server
    /// keeps one per tenant).
    pub fn new_shared(cluster: Arc<SimCluster>, cfg: FrameworkConfig) -> PlanEngine<'static> {
        PlanEngine {
            roster: (0..cluster.num_nodes()).collect(),
            cluster: ClusterRef::Shared(cluster),
            cfg,
            telemetry: Telemetry::disabled(),
            cache: SharedPlanCache::default(),
            last_reuse: StageReuse::default(),
            lp_warm: None,
            deadline: Deadline::None,
        }
    }

    /// Attach a telemetry recorder.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Bound the artifact cache to `capacity` entries (replaces the
    /// engine's private cache with a fresh one).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = SharedPlanCache::new(capacity);
        self
    }

    /// Plug in a fleet-shared artifact cache (replacing the engine's
    /// private one). Identical stage fingerprints then dedupe across every
    /// engine holding a clone of the handle.
    pub fn with_shared_cache(mut self, cache: SharedPlanCache) -> Self {
        self.cache = cache;
        self
    }

    /// Set the cancellation token polled before every stage of subsequent
    /// plans ([`Deadline::None`] clears it).
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Configuration in force (mutable: α/strategy deltas edit in place).
    pub fn config_mut(&mut self) -> &mut FrameworkConfig {
        &mut self.cfg
    }

    /// Configuration in force.
    pub fn config(&self) -> &FrameworkConfig {
        &self.cfg
    }

    /// The cluster this engine plans for.
    pub fn cluster(&self) -> &SimCluster {
        self.cluster.get()
    }

    /// Active node ids (sorted).
    pub fn roster(&self) -> &[usize] {
        &self.roster
    }

    /// Replace the active roster; ids must exist in the cluster.
    pub fn set_roster(&mut self, mut roster: Vec<usize>) -> Result<(), PlanError> {
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

    /// Snapshot of the cache hit/miss/evict counters. With a shared cache
    /// the counters cover every engine on the handle, not just this one.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cache handle (shared or private), for same-crate composite
    /// artifacts (the frontier stage stores its whole result under one
    /// fingerprint) and for plugging the handle into sibling engines.
    pub fn cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    /// The attached telemetry recorder.
    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Which stages of the last successful plan came from the cache.
    pub fn last_reuse(&self) -> StageReuse {
        self.last_reuse
    }

    /// Plan `dataset` under `workload`, consulting the cache per stage.
    pub fn plan(&mut self, dataset: &Dataset, workload: WorkloadKind) -> Result<Plan, PlanError> {
        let fp = dataset_fingerprint(dataset);
        self.plan_with_fingerprint(dataset, workload, fp, None)
    }

    /// Like [`plan`](Self::plan) with a precomputed dataset digest and an
    /// optional previous-generation hint (digest + length) enabling
    /// append-prefix sketch reuse. Used by `PlanSession`, which maintains
    /// the chain digest incrementally.
    pub fn plan_with_fingerprint(
        &mut self,
        dataset: &Dataset,
        workload: WorkloadKind,
        dataset_fp: Fingerprint,
        prev_dataset: Option<(Fingerprint, usize)>,
    ) -> Result<Plan, PlanError> {
        if dataset.is_empty() {
            return Err(PlanError::EmptyDataset);
        }
        if self.roster.is_empty() {
            return Err(PlanError::EmptyRoster);
        }
        validate_stratifier(&self.cfg.stratifier, dataset.len())?;
        let started = Instant::now();
        let mut timings = PlanTimings::default();
        let wall_start = self.telemetry.wall_now();
        let roster_fp = Fingerprint(self.cluster.get().roster_fingerprint(&self.roster));
        // Advisory warm seed: the previous optimize basis mapped onto the
        // current roster. Never fingerprinted; artifacts are unaffected.
        let warm_lp = if self.cfg.lp_warm {
            self.lp_warm
                .as_ref()
                .and_then(|(prev, basis)| map_partition_basis(prev, &self.roster, basis))
        } else {
            None
        };
        let mut ctx = StageCtx {
            cluster: self.cluster.get(),
            cfg: &self.cfg,
            dataset,
            workload,
            roster: &self.roster,
            telemetry: &self.telemetry,
            dataset_fp,
            roster_fp,
            prev_dataset,
            signatures: None,
            stratification: None,
            profile: None,
            optimize: None,
            warm_lp,
        };
        // The cache lock is taken per stage (not across the plan), so on a
        // shared cache concurrent tenants pipeline: while one computes
        // `optimize` another can compute `sketch`. The deadline is polled
        // *before* each stage — an expired token leaves every stage that
        // already ran cached for the next attempt.
        let cache = &self.cache;
        let deadline = &mut self.deadline;
        let mut reuse = StageReuse::default();

        deadline.poll(SketchStage.name())?;
        let (signatures, sketch_fp, hit) =
            run_stage(&mut cache.lock(), &SketchStage, &ctx, &mut timings.sketch_s)?;
        reuse.sketch = hit;
        ctx.signatures = Some((signatures, sketch_fp));

        deadline.poll(StratifyStage.name())?;
        let (stratification, stratify_fp, hit) =
            run_stage(&mut cache.lock(), &StratifyStage, &ctx, &mut timings.stratify_s)?;
        reuse.stratify = hit;
        ctx.stratification = Some((stratification, stratify_fp));

        deadline.poll(ProfileStage.name())?;
        let (profile, profile_fp, hit) =
            run_stage(&mut cache.lock(), &ProfileStage, &ctx, &mut timings.profile_s)?;
        reuse.profile = hit;
        ctx.profile = Some((profile, profile_fp));

        if ctx.needs_models() {
            deadline.poll(OptimizeStage.name())?;
            let (art, optimize_fp, hit) =
                run_stage(&mut cache.lock(), &OptimizeStage, &ctx, &mut timings.optimize_s)?;
            reuse.optimize = hit;
            ctx.optimize = Some((art, optimize_fp));
        }

        deadline.poll(PartitionStage.name())?;
        let (placed, _, hit) =
            run_stage(&mut cache.lock(), &PartitionStage, &ctx, &mut timings.partition_s)?;
        reuse.partition = hit;

        timings.total_s = started.elapsed().as_secs_f64();
        let profile = ctx.profile.as_ref().expect("profile stage ran").0.clone();
        let lp_basis = ctx
            .optimize
            .as_ref()
            .and_then(|(art, _)| art.basis.clone());
        let plan = Plan {
            stratification: ctx
                .stratification
                .as_ref()
                .expect("stratify stage ran")
                .0
                .as_ref()
                .clone(),
            time_models: profile.models.clone(),
            energy_profiles: profile.profiles.clone(),
            pareto: ctx.optimize.as_ref().map(|(art, _)| art.point.clone()),
            sizes: placed.sizes.clone(),
            partitions: placed.partitions.clone(),
            lp_basis: lp_basis.clone(),
            estimation_cost: profile.cost,
            timings,
        };
        // A cache-hit optimize still yields a basis: warm seeds survive
        // artifact reuse as well as fresh solves.
        self.lp_warm = lp_basis.map(|b| (self.roster.clone(), b));
        self.last_reuse = reuse;
        record_plan_telemetry(&self.telemetry, &self.cfg, &plan, dataset.len(), wall_start, reuse);
        Ok(plan)
    }
}

/// The stage driver (satellite: the historical `Instant` + `timings.*_s`
/// boilerplate lives here once): digest inputs, consult the cache, compute
/// on a miss, store, and fold the stage's wall time into its
/// [`PlanTimings`] slot. Cache events are counted both in [`CacheStats`]
/// and (inertly) in telemetry.
fn run_stage<S: PlanStage>(
    cache: &mut PlanCache,
    stage: &S,
    ctx: &StageCtx<'_>,
    timing_slot: &mut f64,
) -> Result<(Arc<S::Artifact>, Fingerprint, bool), PlanError> {
    let started = Instant::now();
    let name = stage.name();
    let fp = stage.fingerprint(ctx);
    let (artifact, hit) = match cache.get::<S::Artifact>(name, fp) {
        Some(found) => (found, true),
        None => {
            let computed = Arc::new(stage.compute(ctx, cache)?);
            for victim in cache.insert(name, fp, computed.clone()) {
                ctx.telemetry.counter_add(
                    metrics::PLAN_CACHE_EVENTS_TOTAL,
                    &[("event", "evict"), ("stage", victim)],
                    1,
                );
            }
            (computed, false)
        }
    };
    ctx.telemetry.counter_add(
        metrics::PLAN_CACHE_EVENTS_TOTAL,
        &[("event", if hit { "hit" } else { "miss" }), ("stage", name)],
        1,
    );
    *timing_slot += started.elapsed().as_secs_f64();
    Ok((artifact, fp, hit))
}

/// Record the planning span tree (§9 taxonomy: `plan` → `sketch` /
/// `stratify` / `profile` / `optimize` / `partition` on the planner track,
/// wall clock) plus the plan-shape metrics. Called from serial code only,
/// after the plan is fully decided — nothing here can feed back. Each
/// stage span carries a `cache` attribute (`hit`/`miss`) describing
/// artifact reuse.
fn record_plan_telemetry(
    telemetry: &Telemetry,
    cfg: &FrameworkConfig,
    plan: &Plan,
    n: usize,
    wall_start: f64,
    reuse: StageReuse,
) {
    if !telemetry.is_enabled() {
        return;
    }
    let tel = telemetry;
    let t = plan.timings;
    let root = tel.span(
        Track::Planner,
        "plan",
        ClockDomain::Wall,
        wall_start,
        wall_start + t.total_s,
        SpanId::NONE,
        vec![
            ("records".into(), n.to_string()),
            ("nodes".into(), plan.sizes.len().to_string()),
            ("strategy".into(), cfg.strategy.label().into()),
            ("threads".into(), cfg.threads.to_string()),
        ],
    );
    let mut cursor = wall_start;
    // A strategy that solves no LP never runs "optimize": its zero-length
    // span reads as cached.
    for (name, secs, hit) in [
        ("sketch", t.sketch_s, reuse.sketch),
        ("stratify", t.stratify_s, reuse.stratify),
        ("profile", t.profile_s, reuse.profile),
        (
            "optimize",
            t.optimize_s,
            reuse.optimize || !strategy_needs_models(&cfg.strategy),
        ),
        ("partition", t.partition_s, reuse.partition),
    ] {
        tel.span(
            Track::Planner,
            name,
            ClockDomain::Wall,
            cursor,
            cursor + secs,
            root,
            vec![("cache".into(), if hit { "hit".into() } else { "miss".into() })],
        );
        cursor += secs;
        tel.observe(
            "pareto_plan_stage_s",
            &[("stage", name)],
            secs,
            pareto_telemetry::metrics::DURATION_BOUNDS_S,
        );
    }

    for (i, &size) in plan.sizes.iter().enumerate() {
        let node = i.to_string();
        tel.gauge_set(
            "pareto_partition_size_records",
            &[("node", &node)],
            size as f64,
        );
        tel.observe(
            "pareto_partition_size",
            &[],
            size as f64,
            pareto_telemetry::metrics::SIZE_BOUNDS,
        );
    }
    if let Some(point) = &plan.pareto {
        tel.gauge_set("pareto_lp_alpha", &[], point.alpha);
        tel.gauge_set(
            "pareto_lp_predicted_makespan_s",
            &[],
            point.predicted_makespan,
        );
        tel.gauge_set(
            "pareto_lp_predicted_dirty_joules",
            &[],
            point.predicted_dirty_joules,
        );
    }
    if let Some(models) = &plan.time_models {
        for (i, m) in models.iter().enumerate() {
            let node = i.to_string();
            tel.gauge_set("pareto_fit_slope_s_per_item", &[("node", &node)], m.fit.slope);
            tel.gauge_set(
                "pareto_fit_intercept_s",
                &[("node", &node)],
                m.fit.intercept,
            );
        }
    }
    for (i, prof) in plan.energy_profiles.iter().enumerate() {
        let node = i.to_string();
        tel.gauge_set("pareto_node_draw_watts", &[("node", &node)], prof.draw_watts);
        tel.gauge_set(
            "pareto_node_green_watts",
            &[("node", &node)],
            prof.mean_green_watts,
        );
    }
    tel.counter_add(
        "pareto_estimation_ops_total",
        &[],
        plan.estimation_cost.compute_ops,
    );
}
