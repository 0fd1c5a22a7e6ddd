//! The staged planning engine: `Framework::try_plan` as a fixed pipeline
//! of five cache-keyed stages — **sketch**, **stratify**, **profile**,
//! **optimize**, **partition** — written as straight-line code in
//! [`PlanEngine::plan_with_fingerprint`].
//!
//! Two pieces carry the design:
//!
//! * the **key chain** (`KeyInputs::plan_keys`): every stage's
//!   [`Fingerprint`] is a pure function of upstream *keys*, the
//!   configuration, the workload, and digests + sizes of the dataset and
//!   roster — never of an artifact — so the whole chain is derived before
//!   the first stage runs;
//! * the **driver** (`cached`, made of a counting `lookup` and a counting
//!   `store`): the one place an artifact is looked up, computed on a miss,
//!   inserted, and counted in [`crate::cache::CacheStats`] and telemetry.
//!   Each stage is one call to it with a closure over the upstream
//!   artifacts.
//!
//! A cold run computes every stage and is bit-identical to the historical
//! monolithic pipeline; a warm run (same cache, e.g. via
//! [`crate::session::PlanSession`]) recomputes only the stages whose keys
//! changed. The invalidation matrix lives in DESIGN.md §10; the short
//! version:
//!
//! | input changed            | sketch | stratify | profile | optimize | partition |
//! |--------------------------|--------|----------|---------|----------|-----------|
//! | dataset content          | ✗      | ✗        | ✗¹      | ✗        | ✗         |
//! | stratifier config        | ✗      | ✗        | ✗¹      | ✗        | ✗         |
//! | node roster / traces     | —      | —        | ✗²      | ✗        | ✗         |
//! | α (same strategy class)  | —      | —        | —       | ✗        | ✗         |
//! | strategy class / layout  | —      | —        | ✗³      | ✗        | ✗         |
//! | `threads` / `lp_warm`    | —      | —        | —       | —        | —         |
//!
//! ¹ via the measurement sub-artifact; a dataset *append* still reuses the
//!   prefix sketch. ² measurements are node-independent and survive roster
//!   changes — only the cheap per-node fits re-run. ³ only when the change
//!   toggles whether time models are needed. `threads` and `lp_warm` never
//!   invalidate anything because every stage is bit-identical at any
//!   thread count and from any LP starting basis.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use pareto_cluster::{Cost, SimCluster};
use pareto_datagen::{DataItem, Dataset};
use pareto_energy::NodeEnergyProfile;
use pareto_sketch::SignatureMatrix;
use pareto_stats::LinearFit;
use pareto_stratify::{Stratifier, StratifierConfig};
use pareto_telemetry::{metrics, ClockDomain, SpanId, Telemetry, Track};
use pareto_workloads::WorkloadKind;

use crate::cache::{Fingerprint, FingerprintBuilder, PlanCache, SharedPlanCache};
use crate::estimator::{EnergyEstimator, HeterogeneityEstimator, NodeTimeModel};
use crate::framework::{FrameworkConfig, Plan, PlanTimings, Strategy};
use crate::frontier::FrontierConfig;
use crate::pareto::{map_partition_basis, LpBasis, ParetoModeler, ParetoPoint, PartitionPlanError};
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
    /// one, and the poll that finds the budget exhausted trips, so
    /// `Budget(k)` expires before the `k+1`-th stage on every run, on
    /// every thread count.
    Budget(u64),
}

impl Deadline {
    /// Consume one checkpoint before running `stage`. Returns
    /// [`PlanError::DeadlineExceeded`] once the deadline has passed.
    pub fn poll(&mut self, stage: &'static str) -> Result<(), PlanError> {
        match self {
            Deadline::None => Ok(()),
            Deadline::Budget(0) => Err(PlanError::DeadlineExceeded { stage }),
            Deadline::Budget(remaining) => {
                *remaining -= 1;
                Ok(())
            }
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

/// True for the strategies that fit per-node time models and solve the LP.
fn strategy_needs_models(strategy: &Strategy) -> bool {
    matches!(
        strategy,
        Strategy::HetAware
            | Strategy::HetEnergyAware { .. }
            | Strategy::HetEnergyAwareNormalized { .. }
    )
}

/// Strategy discriminant + scalarization weight, for fingerprints.
fn strategy_fingerprint(strategy: &Strategy) -> Fingerprint {
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
    .finish()
}

fn workload_fingerprint(workload: WorkloadKind) -> Fingerprint {
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
pub(crate) fn extend_dataset_fingerprint(fp: Fingerprint, items: &[DataItem]) -> Fingerprint {
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

/// Seed of the progressive-sampling estimator (keyed by `measure`).
fn sampling_seed(cfg: &FrameworkConfig) -> u64 {
    cfg.seed ^ 0x5A17
}

/// Seed of the partitioner's record placement (keyed by `partition`).
fn placement_seed(cfg: &FrameworkConfig) -> u64 {
    cfg.seed ^ 0x9A27
}

/// Everything a cache key may depend on: the configuration, the workload,
/// and digests + sizes of the dataset and roster. No artifact appears
/// here, which is what lets the whole chain be derived up front.
#[derive(Clone, Copy)]
pub(crate) struct KeyInputs<'a> {
    /// Planning configuration.
    pub cfg: &'a FrameworkConfig,
    /// The workload the estimator drives.
    pub workload: WorkloadKind,
    /// Content digest of the dataset (chain hash; see
    /// [`dataset_fingerprint`]).
    pub dataset_fp: Fingerprint,
    /// `dataset.len()`.
    pub records: usize,
    /// Digest of the planning-relevant cluster state for the roster.
    pub roster_fp: Fingerprint,
    /// `roster.len()`.
    pub nodes: usize,
}

/// The cache keys of one plan, in pipeline order. Each key mixes the
/// upstream keys its stage builds on plus the fields that stage reads, so
/// a change invalidates exactly the first stage that reads it and
/// everything downstream. `threads` and `lp_warm` appear nowhere: stage
/// outputs are bit-identical at any thread count and from any LP starting
/// basis, so changing either must hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanKeys {
    /// MinHash signatures: dataset content, sketch width, sketch seed.
    pub sketch: Fingerprint,
    /// Stratification: `sketch` + the kModes settings.
    pub stratify: Fingerprint,
    /// Progressive-sampling measurements: `stratify` + the sampling
    /// schedule, its seed and the workload. Node-independent on purpose.
    pub measure: Fingerprint,
    /// Energy profiles + time models: roster state, planning horizon and —
    /// for model-driven strategies only — `measure`. Not α, so a whole α
    /// sweep reuses one profile pass.
    pub profile: Fingerprint,
    /// LP solution: `profile` + strategy (α included) + record count.
    /// Derived for every strategy; only the model-driven ones run the
    /// stage and mix it into `partition`.
    pub optimize: Fingerprint,
    /// Materialized partitions: `stratify`, `optimize`, strategy, layout,
    /// placement seed, roster size, dataset content.
    pub partition: Fingerprint,
}

fn sketch_key(dataset_fp: Fingerprint, cfg: &StratifierConfig) -> Fingerprint {
    FingerprintBuilder::new("sketch")
        .mix_fp(dataset_fp)
        .mix_usize(cfg.sketch_size)
        .mix_u64(cfg.seed)
        .finish()
}

impl KeyInputs<'_> {
    /// Derive the plan's whole key chain.
    pub(crate) fn plan_keys(&self) -> PlanKeys {
        let cfg = self.cfg;
        let needs_models = strategy_needs_models(&cfg.strategy);
        let strategy = strategy_fingerprint(&cfg.strategy);
        let sketch = sketch_key(self.dataset_fp, &cfg.stratifier);
        let stratify = FingerprintBuilder::new("stratify")
            .mix_fp(sketch)
            .mix_usize(cfg.stratifier.num_strata)
            .mix_usize(cfg.stratifier.l)
            .mix_usize(cfg.stratifier.max_iters)
            .mix_u64(cfg.stratifier.seed)
            .finish();
        let measure = FingerprintBuilder::new("measure")
            .mix_fp(stratify)
            .mix_f64(cfg.sampling.lo_frac)
            .mix_f64(cfg.sampling.hi_frac)
            .mix_usize(cfg.sampling.steps)
            .mix_usize(cfg.sampling.min_records)
            .mix_u64(sampling_seed(cfg))
            .mix_fp(workload_fingerprint(self.workload))
            .finish();
        let mut profile = FingerprintBuilder::new("profile")
            .mix_fp(self.roster_fp)
            .mix_f64(cfg.planning_horizon_s)
            .mix_bool(needs_models);
        if needs_models {
            profile = profile.mix_fp(measure);
        }
        let profile = profile.finish();
        let optimize = FingerprintBuilder::new("optimize")
            .mix_fp(profile)
            .mix_fp(strategy)
            .mix_usize(self.records)
            .finish();
        let partition = FingerprintBuilder::new("partition")
            .mix_fp(stratify)
            .mix_fp(if needs_models { optimize } else { Fingerprint(0) })
            .mix_fp(strategy)
            .mix_u64(cfg.layout as u64)
            .mix_u64(placement_seed(cfg))
            .mix_usize(self.nodes)
            .mix_fp(self.dataset_fp)
            .finish();
        PlanKeys {
            sketch,
            stratify,
            measure,
            profile,
            optimize,
            partition,
        }
    }

    /// Key of the session's `frontier` artifact. An exploration is a set
    /// of [`Strategy::HetEnergyAware`] plans that differ only in α, which
    /// the explorer owns — so the key is the `partition` key (the end of
    /// the chain: downstream of every field any stage reads) of that plan
    /// at a stand-in α, plus the explorer's own knobs. The session's
    /// current strategy is deliberately not an input.
    pub(crate) fn frontier_key(&self, explorer: &FrontierConfig) -> Fingerprint {
        let cfg = FrameworkConfig {
            strategy: Strategy::HetEnergyAware { alpha: 0.0 },
            ..self.cfg.clone()
        };
        let plan = KeyInputs { cfg: &cfg, ..*self }.plan_keys();
        let mut b = FingerprintBuilder::new("frontier")
            .mix_fp(plan.partition)
            .mix_f64(explorer.tol)
            .mix_usize(explorer.max_points);
        for o in explorer.objectives.objectives() {
            b = b.mix_u64(*o as u64);
        }
        for &alpha in &explorer.coarse {
            b = b.mix_f64(alpha);
        }
        b.finish()
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

/// The `optimize` artifact: the chosen Pareto point plus the final LP
/// basis so later replans (α deltas, appends, roster churn, recovery) can
/// warm-start. The basis is a pure function of the fingerprinted inputs —
/// warm starts are bit-identical to cold by the solver's contract, so
/// caching it alongside the point keeps the cache content-addressed even
/// though solves may be seeded differently.
struct OptimizeArtifact {
    point: ParetoPoint,
    /// Absent for the waterfilling path.
    basis: Option<LpBasis>,
}

/// The `partition` artifact: final sizes + record placement.
struct PartitionArtifact {
    sizes: Vec<usize>,
    partitions: Vec<Vec<usize>>,
}

/// Counting lookup, the driver's first half: consult the cache and count
/// the hit or miss in `CacheStats` (inside [`PlanCache::get`]) and,
/// inertly, in telemetry.
pub(crate) fn lookup<T: Any + Send + Sync>(
    cache: &mut PlanCache,
    telemetry: &Telemetry,
    name: &'static str,
    key: Fingerprint,
) -> Option<Arc<T>> {
    let found = cache.get::<T>(name, key);
    let event = if found.is_some() { "hit" } else { "miss" };
    telemetry.counter_add(
        metrics::PLAN_CACHE_EVENTS_TOTAL,
        &[("event", event), ("stage", name)],
        1,
    );
    found
}

/// Counting store, the driver's second half: insert the artifact and count
/// every victim the insert evicted, in `CacheStats` (inside
/// [`PlanCache::insert`]) and in telemetry.
pub(crate) fn store<T: Any + Send + Sync>(
    cache: &mut PlanCache,
    telemetry: &Telemetry,
    name: &'static str,
    key: Fingerprint,
    value: Arc<T>,
) {
    for victim in cache.insert(name, key, value) {
        telemetry.counter_add(
            metrics::PLAN_CACHE_EVENTS_TOTAL,
            &[("event", "evict"), ("stage", victim)],
            1,
        );
    }
}

/// The get-or-compute driver: [`lookup`], and on a miss `compute` then
/// [`store`], all under the caller's one cache guard. `compute` receives
/// the cache for *auxiliary* artifacts (the append-prefix sketch, the
/// nested `measure` sub-artifact). Returns the artifact and whether it was
/// a hit.
fn cached<T: Any + Send + Sync>(
    cache: &mut PlanCache,
    telemetry: &Telemetry,
    name: &'static str,
    key: Fingerprint,
    compute: impl FnOnce(&mut PlanCache) -> Result<T, PlanError>,
) -> Result<(Arc<T>, bool), PlanError> {
    if let Some(found) = lookup(cache, telemetry, name, key) {
        return Ok((found, true));
    }
    let computed = Arc::new(compute(cache)?);
    store(cache, telemetry, name, key, computed.clone());
    Ok((computed, false))
}

/// What the driver saw of one stage: served from the cache or computed,
/// and the wall time either took.
#[derive(Debug, Clone, Copy)]
struct StageRecord {
    name: &'static str,
    hit: bool,
    seconds: f64,
}

/// One plan's pass through the five stages: polls the deadline *before*
/// each stage (an expired token leaves every stage that already ran
/// cached for the next attempt), then holds one cache guard across that
/// stage's lookup + compute + insert. The lock is per stage, not per plan,
/// so on a shared cache concurrent tenants pipeline — while one computes
/// `optimize` another can compute `sketch` — and two tenants missing the
/// same key compute it once.
struct StageRunner<'a> {
    cache: &'a SharedPlanCache,
    telemetry: &'a Telemetry,
    deadline: &'a mut Deadline,
}

impl StageRunner<'_> {
    fn stage<T: Any + Send + Sync>(
        &mut self,
        name: &'static str,
        key: Fingerprint,
        compute: impl FnOnce(&mut PlanCache) -> Result<T, PlanError>,
    ) -> Result<(Arc<T>, StageRecord), PlanError> {
        self.deadline.poll(name)?;
        let mut cache = self.cache.lock();
        let started = Instant::now();
        let (artifact, hit) = cached(&mut cache, self.telemetry, name, key, compute)?;
        let seconds = started.elapsed().as_secs_f64();
        Ok((artifact, StageRecord { name, hit, seconds }))
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
        Self::over(ClusterRef::Borrowed(cluster), cfg)
    }

    /// Like [`new`](Self::new) over a shared cluster handle, yielding a
    /// `'static` engine that can move across threads (the plan server
    /// keeps one per tenant).
    pub fn new_shared(cluster: Arc<SimCluster>, cfg: FrameworkConfig) -> PlanEngine<'static> {
        PlanEngine::over(ClusterRef::Shared(cluster), cfg)
    }

    fn over(cluster: ClusterRef<'a>, cfg: FrameworkConfig) -> Self {
        PlanEngine {
            roster: (0..cluster.get().num_nodes()).collect(),
            cluster,
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

    /// The cache handle (shared or private), for same-crate composite
    /// artifacts (the session stores a whole frontier under one key) and
    /// for plugging the handle into sibling engines.
    pub fn cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    /// The attached telemetry recorder.
    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The [`KeyInputs`] of a plan of a dataset with digest `dataset_fp`
    /// and `records` records under the current configuration and roster.
    pub(crate) fn key_inputs(
        &self,
        workload: WorkloadKind,
        dataset_fp: Fingerprint,
        records: usize,
    ) -> KeyInputs<'_> {
        KeyInputs {
            cfg: &self.cfg,
            workload,
            dataset_fp,
            records,
            roster_fp: Fingerprint(self.cluster.get().roster_fingerprint(&self.roster)),
            nodes: self.roster.len(),
        }
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
        let wall_start = self.telemetry.wall_now();
        let keys = self.key_inputs(workload, dataset_fp, dataset.len()).plan_keys();

        let cluster = self.cluster.get();
        let cfg = &self.cfg;
        let roster = self.roster.as_slice();
        let telemetry: &Telemetry = &self.telemetry;
        let (n, p) = (dataset.len(), roster.len());
        let stratifier = Stratifier::new(StratifierConfig {
            threads: cfg.threads,
            ..cfg.stratifier.clone()
        });
        let mut run = StageRunner {
            cache: &self.cache,
            telemetry,
            deadline: &mut self.deadline,
        };

        let (signatures, sketched) = run.stage("sketch", keys.sketch, |cache| {
            // After an append the full-dataset key misses, but the previous
            // generation's sketch is a bit-identical prefix (MinHash is a
            // pure per-record function): sketch only the appended records.
            // A speculative lookup, so absence is not counted as a miss.
            let prefix = prev_dataset
                .filter(|&(_, prev_len)| prev_len < n)
                .and_then(|(prev_fp, _)| {
                    let prev_key = sketch_key(prev_fp, &cfg.stratifier);
                    cache.get_if_cached::<SignatureMatrix>("sketch", prev_key)
                });
            Ok(match prefix {
                Some(prefix) => stratifier.sketch_append(dataset, &prefix),
                None => stratifier.sketch(dataset),
            })
        })?;

        let (stratification, stratified) = run.stage("stratify", keys.stratify, |_| {
            Ok(stratifier.stratify_signatures(&signatures))
        })?;

        let (profile, profiled) = run.stage("profile", keys.profile, |cache| {
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
            let (measured, _) = cached(cache, telemetry, "measure", keys.measure, |_| {
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
        // exactly when the profile stage fitted time models.
        let optimized = match &profile.models {
            None => None,
            Some(models) => Some(run.stage("optimize", keys.optimize, |_| {
                let fits: Vec<LinearFit> = models.iter().map(|m| m.fit).collect();
                let modeler = ParetoModeler::new(fits, profile.profiles.clone())?;
                // Advisory warm seed: the previous optimal basis mapped
                // onto the current roster. Never keyed — by the solver's
                // bit-identity contract the artifact is independent of it.
                let warm = if cfg.lp_warm {
                    self.lp_warm
                        .as_ref()
                        .and_then(|(prev, basis)| map_partition_basis(prev, roster, basis))
                } else {
                    None
                };
                let solved = match cfg.strategy {
                    Strategy::HetEnergyAware { alpha } => {
                        Some(modeler.solve(n, alpha, warm.as_ref())?)
                    }
                    Strategy::HetEnergyAwareNormalized { alpha } => {
                        Some(modeler.solve_normalized(n, alpha, warm.as_ref())?)
                    }
                    // Het-Aware, the one model-driven strategy left.
                    _ => None,
                };
                Ok(match solved {
                    Some(solved) => {
                        solved.stats.record(telemetry);
                        OptimizeArtifact {
                            point: solved.point,
                            basis: solved.basis,
                        }
                    }
                    None => OptimizeArtifact {
                        point: modeler.solve_het_aware(n),
                        basis: None,
                    },
                })
            })?),
        };

        let (placed, partitioned) = run.stage("partition", keys.partition, |_| {
            let sizes = match &optimized {
                Some((solved, _)) => solved.point.sizes.clone(),
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

        let (solved, optimize_record) = optimized.unzip();
        let lp_basis = solved.as_ref().and_then(|art| art.basis.clone());
        let plan = Plan {
            stratification: stratification.as_ref().clone(),
            time_models: profile.models.clone(),
            energy_profiles: profile.profiles.clone(),
            pareto: solved.map(|art| art.point.clone()),
            sizes: placed.sizes.clone(),
            partitions: placed.partitions.clone(),
            lp_basis: lp_basis.clone(),
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
            [sketched, stratified, profiled, optimize_record.unwrap_or(skipped), partitioned],
        );
        // A cache-hit optimize still yields a basis: warm seeds survive
        // artifact reuse as well as fresh solves.
        self.lp_warm = lp_basis.map(|b| (self.roster.clone(), b));
        self.last_reuse = StageReuse {
            sketch: sketched.hit,
            stratify: stratified.hit,
            profile: profiled.hit,
            optimize: optimize_record.is_some_and(|r| r.hit),
            partition: partitioned.hit,
        };
        Ok(plan)
    }
}

/// Record the planning span tree (§9 taxonomy: `plan` → `sketch` /
/// `stratify` / `profile` / `optimize` / `partition` on the planner track,
/// wall clock) plus the plan-shape metrics. Called from serial code only,
/// after the plan is fully decided — nothing here can feed back. Each
/// stage span carries a `cache` attribute (`hit`/`miss`) describing
/// artifact reuse.
fn record_plan_telemetry(
    tel: &Telemetry,
    cfg: &FrameworkConfig,
    plan: &Plan,
    n: usize,
    wall_start: f64,
    stages: [StageRecord; 5],
) {
    if !tel.is_enabled() {
        return;
    }
    let root = tel.span(
        Track::Planner,
        "plan",
        ClockDomain::Wall,
        wall_start,
        wall_start + plan.timings.total_s,
        SpanId::NONE,
        vec![
            ("records".into(), n.to_string()),
            ("nodes".into(), plan.sizes.len().to_string()),
            ("strategy".into(), cfg.strategy.label().into()),
            ("threads".into(), cfg.threads.to_string()),
        ],
    );
    let mut cursor = wall_start;
    for StageRecord { name, hit, seconds } in stages {
        tel.span(
            Track::Planner,
            name,
            ClockDomain::Wall,
            cursor,
            cursor + seconds,
            root,
            vec![("cache".into(), if hit { "hit".into() } else { "miss".into() })],
        );
        cursor += seconds;
        tel.observe(
            "pareto_plan_stage_s",
            &[("stage", name)],
            seconds,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::SamplingPlan;
    use crate::frontier::ObjectiveSet;
    use crate::partitioner::PartitionLayout;
    use pareto_cluster::Durability;

    /// Every key, in chain order, the frontier key last.
    const CHAIN: [&str; 7] = [
        "sketch",
        "stratify",
        "measure",
        "profile",
        "optimize",
        "partition",
        "frontier",
    ];

    #[derive(Clone)]
    struct Inputs {
        cfg: FrameworkConfig,
        workload: WorkloadKind,
        dataset_fp: Fingerprint,
        records: usize,
        roster_fp: Fingerprint,
        nodes: usize,
        explorer: FrontierConfig,
    }

    fn base() -> Inputs {
        Inputs {
            cfg: FrameworkConfig {
                strategy: Strategy::HetEnergyAware { alpha: 0.9 },
                ..FrameworkConfig::default()
            },
            workload: WorkloadKind::FrequentPatterns { support: 0.1 },
            dataset_fp: Fingerprint(11),
            records: 500,
            roster_fp: Fingerprint(22),
            nodes: 4,
            explorer: FrontierConfig::default(),
        }
    }

    fn chain(i: &Inputs) -> [Fingerprint; 7] {
        let inputs = KeyInputs {
            cfg: &i.cfg,
            workload: i.workload,
            dataset_fp: i.dataset_fp,
            records: i.records,
            roster_fp: i.roster_fp,
            nodes: i.nodes,
        };
        let k = inputs.plan_keys();
        let frontier = inputs.frontier_key(&i.explorer);
        [k.sketch, k.stratify, k.measure, k.profile, k.optimize, k.partition, frontier]
    }

    /// The names of the keys that differ between `base()` and `flipped`.
    fn changed(flipped: &Inputs) -> Vec<&'static str> {
        let (before, after) = (chain(&base()), chain(flipped));
        CHAIN
            .iter()
            .zip(before.iter().zip(&after))
            .filter(|(_, (b, a))| b != a)
            .map(|(name, _)| *name)
            .collect()
    }

    /// `stage` and every key downstream of it. Under a model-driven
    /// strategy the dependencies form one chain, so that is a suffix.
    fn from(stage: &str) -> Vec<&'static str> {
        let at = CHAIN.iter().position(|s| *s == stage).expect("a chain stage");
        CHAIN[at..].to_vec()
    }

    #[test]
    fn a_flipped_input_changes_its_first_reader_and_everything_downstream() {
        // Exhaustiveness: adding a field to any of these structs stops
        // this compiling until it is listed here — give it a row below.
        let FrameworkConfig {
            stratifier:
                StratifierConfig {
                    sketch_size: _,
                    num_strata: _,
                    l: _,
                    max_iters: _,
                    seed: _,
                    threads: _,
                },
            sampling:
                SamplingPlan {
                    lo_frac: _,
                    hi_frac: _,
                    steps: _,
                    min_records: _,
                },
            strategy: _,
            layout: _,
            planning_horizon_s: _,
            seed: _,
            durability: _,
            lp_warm: _,
            threads: _,
        } = FrameworkConfig::default();
        let FrontierConfig {
            objectives: _,
            coarse: _,
            tol: _,
            max_points: _,
        } = FrontierConfig::default();

        type Row = (&'static str, fn(&mut Inputs), Vec<&'static str>);
        let rows: Vec<Row> = vec![
            ("dataset digest", |i| i.dataset_fp = Fingerprint(12), from("sketch")),
            ("stratifier.sketch_size", |i| i.cfg.stratifier.sketch_size += 1, from("sketch")),
            ("stratifier.seed", |i| i.cfg.stratifier.seed += 1, from("sketch")),
            ("stratifier.num_strata", |i| i.cfg.stratifier.num_strata += 1, from("stratify")),
            ("stratifier.l", |i| i.cfg.stratifier.l += 1, from("stratify")),
            ("stratifier.max_iters", |i| i.cfg.stratifier.max_iters += 1, from("stratify")),
            ("stratifier.threads", |i| i.cfg.stratifier.threads += 1, vec![]),
            ("sampling.lo_frac", |i| i.cfg.sampling.lo_frac *= 2.0, from("measure")),
            ("sampling.hi_frac", |i| i.cfg.sampling.hi_frac *= 2.0, from("measure")),
            ("sampling.steps", |i| i.cfg.sampling.steps += 1, from("measure")),
            ("sampling.min_records", |i| i.cfg.sampling.min_records += 1, from("measure")),
            ("seed", |i| i.cfg.seed += 1, from("measure")),
            (
                "workload",
                |i| i.workload = WorkloadKind::FrequentPatterns { support: 0.2 },
                from("measure"),
            ),
            ("workload kind", |i| i.workload = WorkloadKind::Lz77, from("measure")),
            ("roster digest", |i| i.roster_fp = Fingerprint(23), from("profile")),
            ("planning_horizon_s", |i| i.cfg.planning_horizon_s += 1.0, from("profile")),
            ("dataset length", |i| i.records += 1, from("optimize")),
            // The explorer owns α and forces its own strategy, so the
            // session's strategy stops short of the frontier key.
            (
                "strategy α",
                |i| i.cfg.strategy = Strategy::HetEnergyAware { alpha: 0.5 },
                vec!["optimize", "partition"],
            ),
            (
                "strategy, same class",
                |i| i.cfg.strategy = Strategy::HetAware,
                vec!["optimize", "partition"],
            ),
            (
                "strategy class",
                |i| i.cfg.strategy = Strategy::Stratified,
                vec!["profile", "optimize", "partition"],
            ),
            (
                "layout",
                |i| i.cfg.layout = PartitionLayout::SimilarTogether,
                from("partition"),
            ),
            ("roster length", |i| i.nodes += 1, from("partition")),
            ("explorer.tol", |i| i.explorer.tol *= 2.0, from("frontier")),
            ("explorer.max_points", |i| i.explorer.max_points += 1, from("frontier")),
            (
                "explorer.objectives",
                |i| i.explorer.objectives = ObjectiveSet::full(),
                from("frontier"),
            ),
            ("explorer.coarse", |i| i.explorer.coarse.push(1.0), from("frontier")),
            // Never keyed: outputs are bit-identical whatever these say.
            ("threads", |i| i.cfg.threads += 1, vec![]),
            ("lp_warm", |i| i.cfg.lp_warm = !i.cfg.lp_warm, vec![]),
            ("durability", |i| i.cfg.durability = Durability::Wal, vec![]),
        ];
        for (label, flip, want) in rows {
            let mut flipped = base();
            flip(&mut flipped);
            assert_eq!(changed(&flipped), want, "flipping {label}");
        }
    }

    /// Strategies that fit no models never read the measurements: the
    /// sampling schedule and workload stop at the `measure` key.
    #[test]
    fn model_free_strategies_do_not_key_on_measurements() {
        let stratified = |i: &Inputs| Inputs {
            cfg: FrameworkConfig {
                strategy: Strategy::Stratified,
                ..i.cfg.clone()
            },
            ..i.clone()
        };
        let before = chain(&stratified(&base()));
        let mut flipped = base();
        flipped.cfg.sampling.steps += 1;
        flipped.workload = WorkloadKind::Lz77;
        let after = chain(&stratified(&flipped));
        for (at, name) in CHAIN.iter().enumerate() {
            let moved = before[at] != after[at];
            // The frontier explores under a model-driven strategy whatever
            // the session's own is, so it does read the measurements.
            assert_eq!(moved, matches!(*name, "measure" | "frontier"), "{name}");
        }
    }
}
