//! The staged planning pipeline: five cache-keyed stages — **sketch**,
//! **stratify**, **profile**, **optimize**, **partition** — written as
//! straight-line code in [`PlanSession::plan`](crate::PlanSession::plan).
//!
//! Two pieces carry the design:
//!
//! * the **key chain** (`KeyInputs::plan_keys`): every stage's
//!   [`Fingerprint`] is a pure function of upstream *keys*, the
//!   configuration, the workload, and digests + sizes of the dataset and
//!   roster — never of an artifact — so the whole chain is derived before
//!   the first stage runs;
//! * the **driver** (`cached`): the one place an artifact is looked up,
//!   computed on a miss, inserted, and counted in
//!   [`crate::cache::CacheStats`] and telemetry. The cache is locked for
//!   the lookup and the insert only, never across a compute. Each stage
//!   is one call to it with a closure over the upstream artifacts.
//!
//! A cold run computes every stage and is bit-identical to the historical
//! monolithic pipeline; a warm run (a long-lived [`crate::PlanSession`])
//! recomputes only the stages whose keys changed. The invalidation matrix
//! lives in DESIGN.md §10; the short version:
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
//!   prefix sketch, and the sketch stage retires the prefix (the previous
//!   generation) whether the extended sketch hit or was stored.
//!   ² measurements are node-independent and
//!   survive roster changes — only the cheap per-node fits re-run. ³ only
//!   when the change toggles whether time models are needed. `threads`
//!   never invalidates anything because every stage is bit-identical at
//!   any thread count.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use pareto_datagen::{DataItem, Dataset};
use pareto_stratify::StratifierConfig;
use pareto_telemetry::{metrics, ClockDomain, SpanId, Telemetry, Track};
use pareto_workloads::WorkloadKind;

use crate::cache::{Fingerprint, FingerprintBuilder, SharedPlanCache};
use crate::estimator::SamplingPlan;
use crate::framework::{FrameworkConfig, Plan, Strategy};
use crate::frontier::FrontierConfig;
use crate::pareto::PartitionPlanError;

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
    /// A [`SamplingPlan`] the measure stage cannot draw samples from:
    /// zero steps, fractions that are not finite with
    /// `0 < lo_frac ≤ hi_frac`, or a smallest sample of no records.
    InvalidSampling {
        /// The offending `FrameworkConfig.sampling` field.
        field: &'static str,
        /// What is wrong with its value.
        reason: &'static str,
    },
    /// A [`WorkloadKind`] the measure stage cannot run: a mining support
    /// outside `(0, 1]` (NaN included).
    InvalidWorkload {
        /// What is wrong with it.
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
            PlanError::InvalidSampling { field, reason } => {
                write!(f, "invalid sampling plan: {field} {reason}")
            }
            PlanError::InvalidWorkload { reason } => write!(f, "invalid workload: {reason}"),
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
/// [`PlanSession::plan`](crate::PlanSession::plan). The pipeline checks it
/// *before* each stage, so when it trips the stages already computed are
/// cached and the caller gets [`PlanError::DeadlineExceeded`] naming the
/// first stage that did not run.
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
pub(crate) fn strategy_needs_models(strategy: &Strategy) -> bool {
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
    records_fingerprint(&dataset.items)
}

/// [`dataset_fingerprint`] of a dataset holding `items`.
pub(crate) fn records_fingerprint(items: &[DataItem]) -> Fingerprint {
    extend_dataset_fingerprint(FingerprintBuilder::new("dataset").finish(), items)
}

/// The stand-in for a dataset digest in the keys of a session whose cache
/// no other session reads: it names the generation of `records` records.
pub(crate) fn generation_key(records: usize) -> Fingerprint {
    FingerprintBuilder::new("generation")
        .mix_usize(records)
        .finish()
}

/// Seed of the progressive-sampling estimator (keyed by `measure`).
pub(crate) fn sampling_seed(cfg: &FrameworkConfig) -> u64 {
    cfg.seed ^ 0x5A17
}

/// Seed of the partitioner's record placement (keyed by `partition`).
pub(crate) fn placement_seed(cfg: &FrameworkConfig) -> u64 {
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
    /// [`dataset_fingerprint`]), or [`generation_key`] in a session whose
    /// cache no other session reads.
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
/// everything downstream. `threads` appears nowhere: stage outputs are
/// bit-identical at any thread count, so changing it must hit.
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

pub(crate) fn sketch_key(dataset_fp: Fingerprint, cfg: &StratifierConfig) -> Fingerprint {
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
            .mix_fp(if needs_models {
                optimize
            } else {
                Fingerprint(0)
            })
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
            .mix_usize(explorer.max_points);
        for o in explorer.objectives.objectives() {
            b = b.mix_u64(*o as u64);
        }
        b.finish()
    }
}

/// Reject the stratifier settings that would panic inside the stratify
/// stage, mid-plan, for a dataset of `records` records.
pub(crate) fn validate_stratifier(cfg: &StratifierConfig, records: usize) -> Result<(), PlanError> {
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

/// Reject the sampling plans that would panic inside the measure stage,
/// mid-plan, for a dataset of `records` records.
pub(crate) fn validate_sampling(plan: &SamplingPlan, records: usize) -> Result<(), PlanError> {
    let invalid = |field, reason| Err(PlanError::InvalidSampling { field, reason });
    if plan.steps == 0 {
        return invalid("steps", "must be at least 1");
    }
    if !(plan.lo_frac.is_finite() && plan.lo_frac > 0.0) {
        return invalid("lo_frac", "must be finite and above 0");
    }
    if !(plan.hi_frac.is_finite() && plan.hi_frac >= plan.lo_frac) {
        return invalid("hi_frac", "must be finite and at least lo_frac");
    }
    if plan.smallest(records) == 0 {
        return invalid(
            "min_records",
            "must make the smallest sample at least 1 record",
        );
    }
    Ok(())
}

/// Count one plan-cache event in telemetry; the cache counts the same
/// event in its `CacheStats`. Every event the driver sees passes through
/// here, so the two cannot disagree.
fn count(telemetry: &Telemetry, stage: &str, event: &str) {
    telemetry.counter_add(
        metrics::PLAN_CACHE_EVENTS_TOTAL,
        &[("event", event), ("stage", stage)],
        1,
    );
}

/// Look up an artifact that may well be absent (the sketch stage's append
/// prefix): a hit is counted, absence is not, so a speculative lookup
/// doesn't inflate miss counts.
pub(crate) fn get_if_cached<T: Any + Send + Sync>(
    cache: &SharedPlanCache,
    telemetry: &Telemetry,
    name: &'static str,
    key: Fingerprint,
) -> Option<Arc<T>> {
    let found = cache.get_if_cached(name, key);
    if found.is_some() {
        count(telemetry, name, "hit");
    }
    found
}

/// The get-or-compute driver, the one way an artifact enters the cache:
/// look `key` up, and on a miss run `compute` and insert its result. The
/// cache is locked for the lookup and for the insert, never across
/// `compute`. `retires` names an older entry of the same stage that the
/// artifact replaces (the previous dataset generation's sketch): it leaves
/// as an eviction on a hit, and on a miss the insert evicts it before any
/// LRU victim. Every hit, miss and eviction is counted in `CacheStats` and
/// telemetry. Returns the artifact and whether it was a hit.
pub(crate) fn cached<T: Any + Send + Sync>(
    cache: &SharedPlanCache,
    telemetry: &Telemetry,
    name: &'static str,
    key: Fingerprint,
    retires: Option<Fingerprint>,
    compute: impl FnOnce() -> Result<T, PlanError>,
) -> Result<(Arc<T>, bool), PlanError> {
    if let Some(found) = cache.get(name, key) {
        count(telemetry, name, "hit");
        if let Some(old) = retires.filter(|&old| old != key) {
            if cache.retire(name, old) {
                count(telemetry, name, "evict");
            }
        }
        return Ok((found, true));
    }
    count(telemetry, name, "miss");
    let computed = Arc::new(compute()?);
    for victim in cache.insert(name, key, computed.clone(), retires) {
        count(telemetry, victim, "evict");
    }
    Ok((computed, false))
}

/// What the driver saw of one stage: served from the cache or computed,
/// and the wall time either took.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageRecord {
    pub name: &'static str,
    pub hit: bool,
    pub seconds: f64,
}

/// One plan's pass through the five stages: polls the deadline *before*
/// each stage (an expired token leaves every stage that already ran
/// cached for the next attempt), then times that stage's trip through
/// [`cached`].
pub(crate) struct StageRunner<'a> {
    pub cache: &'a SharedPlanCache,
    pub telemetry: &'a Telemetry,
    pub deadline: &'a mut Deadline,
}

impl StageRunner<'_> {
    pub(crate) fn stage<T: Any + Send + Sync>(
        &mut self,
        name: &'static str,
        key: Fingerprint,
        retires: Option<Fingerprint>,
        compute: impl FnOnce() -> Result<T, PlanError>,
    ) -> Result<(Arc<T>, StageRecord), PlanError> {
        self.deadline.poll(name)?;
        let started = Instant::now();
        let (artifact, hit) = cached(self.cache, self.telemetry, name, key, retires, compute)?;
        let seconds = started.elapsed().as_secs_f64();
        Ok((artifact, StageRecord { name, hit, seconds }))
    }
}

/// Record the planning span tree (§9 taxonomy: `plan` → `sketch` /
/// `stratify` / `profile` / `optimize` / `partition` on the planner track,
/// wall clock) plus the plan-shape metrics. Called from serial code only,
/// after the plan is fully decided — nothing here can feed back. Each
/// stage span carries a `cache` attribute (`hit`/`miss`) describing
/// artifact reuse.
pub(crate) fn record_plan_telemetry(
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
            vec![(
                "cache".into(),
                if hit { "hit".into() } else { "miss".into() },
            )],
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
            tel.gauge_set(
                "pareto_fit_slope_s_per_item",
                &[("node", &node)],
                m.fit.slope,
            );
            tel.gauge_set(
                "pareto_fit_intercept_s",
                &[("node", &node)],
                m.fit.intercept,
            );
        }
    }
    for (i, prof) in plan.energy_profiles.iter().enumerate() {
        let node = i.to_string();
        tel.gauge_set(
            "pareto_node_draw_watts",
            &[("node", &node)],
            prof.draw_watts,
        );
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
        [
            k.sketch,
            k.stratify,
            k.measure,
            k.profile,
            k.optimize,
            k.partition,
            frontier,
        ]
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
        let at = CHAIN
            .iter()
            .position(|s| *s == stage)
            .expect("a chain stage");
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
            max_points: _,
        } = FrontierConfig::default();

        type Row = (&'static str, fn(&mut Inputs), Vec<&'static str>);
        let rows: Vec<Row> = vec![
            (
                "dataset digest",
                |i| i.dataset_fp = Fingerprint(12),
                from("sketch"),
            ),
            (
                "stratifier.sketch_size",
                |i| i.cfg.stratifier.sketch_size += 1,
                from("sketch"),
            ),
            (
                "stratifier.seed",
                |i| i.cfg.stratifier.seed += 1,
                from("sketch"),
            ),
            (
                "stratifier.num_strata",
                |i| i.cfg.stratifier.num_strata += 1,
                from("stratify"),
            ),
            (
                "stratifier.l",
                |i| i.cfg.stratifier.l += 1,
                from("stratify"),
            ),
            (
                "stratifier.max_iters",
                |i| i.cfg.stratifier.max_iters += 1,
                from("stratify"),
            ),
            (
                "sampling.lo_frac",
                |i| i.cfg.sampling.lo_frac *= 2.0,
                from("measure"),
            ),
            (
                "sampling.hi_frac",
                |i| i.cfg.sampling.hi_frac *= 2.0,
                from("measure"),
            ),
            (
                "sampling.steps",
                |i| i.cfg.sampling.steps += 1,
                from("measure"),
            ),
            (
                "sampling.min_records",
                |i| i.cfg.sampling.min_records += 1,
                from("measure"),
            ),
            ("seed", |i| i.cfg.seed += 1, from("measure")),
            (
                "workload",
                |i| i.workload = WorkloadKind::FrequentPatterns { support: 0.2 },
                from("measure"),
            ),
            (
                "workload kind",
                |i| i.workload = WorkloadKind::Lz77,
                from("measure"),
            ),
            (
                "roster digest",
                |i| i.roster_fp = Fingerprint(23),
                from("profile"),
            ),
            (
                "planning_horizon_s",
                |i| i.cfg.planning_horizon_s += 1.0,
                from("profile"),
            ),
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
            (
                "explorer.max_points",
                |i| i.explorer.max_points += 1,
                from("frontier"),
            ),
            (
                "explorer.objectives",
                |i| i.explorer.objectives = ObjectiveSet::full(),
                from("frontier"),
            ),
            // Never keyed: outputs are bit-identical whatever these say
            // (`lp_warm` is accepted and ignored).
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
