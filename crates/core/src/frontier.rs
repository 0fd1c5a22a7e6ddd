//! Dominance-based frontier exploration with adaptive α refinement.
//!
//! [`crate::pareto::ParetoModeler::frontier`] maps `solve` over a
//! caller-supplied α grid, so the "frontier" it reports can contain
//! dominated points and misses every bend between grid steps. This module
//! is the true enumeration the ROADMAP calls for:
//!
//! 1. [`dominates`] defines a **strict partial order** over a configurable
//!    [`ObjectiveSet`] — completion time, dirty energy, transfer bytes,
//!    all lower-is-better (the `ParetoAnalyzer` exemplar's
//!    no-worse-in-all / strictly-better-in-one rule);
//! 2. [`pareto_frontier`] filters any point set to its non-dominated
//!    subset with deterministic tie-breaking (canonical lexicographic
//!    order, exact duplicates all kept — neither dominates the other);
//! 3. [`explore`] runs **adaptive α refinement**: start from a coarse
//!    grid, then recursively bisect only the intervals whose endpoints'
//!    plans differ (distinct integer partition vectors, i.e. distinct LP
//!    vertices) *and* whose midpoint deviates from the endpoints' chord by
//!    more than a tolerance, until a point budget or convergence.
//!
//! The same refinement runs either against a bare
//! [`crate::pareto::ParetoModeler`] ([`ModelerSolver`]: one LP per α, used
//! by the claims gate and the oracle tests) or through a
//! [`crate::session::PlanSession`]
//! ([`crate::session::PlanSession::explore_frontier`]): there the whole
//! frontier is a fingerprinted cache artifact (stage name `frontier`), and
//! every per-α solve reuses the session's cached
//! sketch/stratify/profile artifacts, which is what makes bisection cheap.
//!
//! The dominance laws (irreflexivity, asymmetry, transitivity), the
//! frontier invariants (order-invariance, no internally dominated pair,
//! idempotence), and the refinement oracles (superset of the coarse grid's
//! non-dominated points, never dominated by a dense reference sweep) are
//! property-tested in `tests/tests/frontier.rs`.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use pareto_telemetry::{metrics, ClockDomain, SpanId, Telemetry, Track};

use crate::pareto::{ParetoModeler, PartitionPlanError};
use crate::stages::PlanError;

/// One optimization axis; every axis is minimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Objective {
    /// Predicted completion time (makespan), seconds.
    Time,
    /// Predicted dirty (brown) energy, joules — linear form, can be
    /// negative under green surplus.
    DirtyEnergy,
    /// Bytes that must move relative to the content-hash home placement.
    TransferBytes,
}

impl Objective {
    /// Stable label used by the CLI, JSON output, and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Objective::Time => "time",
            Objective::DirtyEnergy => "dirty_energy",
            Objective::TransferBytes => "transfer_bytes",
        }
    }
}

/// An ordered, deduplicated, non-empty set of objectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveSet(Vec<Objective>);

impl ObjectiveSet {
    /// The paper's Fig.-5 axes: completion time + dirty energy.
    pub fn time_energy() -> Self {
        ObjectiveSet(vec![Objective::Time, Objective::DirtyEnergy])
    }

    /// All three axes.
    pub fn full() -> Self {
        ObjectiveSet(vec![
            Objective::Time,
            Objective::DirtyEnergy,
            Objective::TransferBytes,
        ])
    }

    /// Build from an explicit list; ordered and deduplicated, must be
    /// non-empty.
    pub fn new(objectives: &[Objective]) -> Result<Self, String> {
        let mut list: Vec<Objective> = Vec::new();
        for &o in objectives {
            if !list.contains(&o) {
                list.push(o);
            }
        }
        if list.is_empty() {
            return Err("objective set must not be empty".into());
        }
        Ok(ObjectiveSet(list))
    }

    /// Parse a comma-separated spec, e.g. `time,energy` or
    /// `time,energy,transfer`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut list = Vec::new();
        for part in spec.split(',') {
            let o = match part.trim() {
                "time" => Objective::Time,
                "energy" | "dirty_energy" => Objective::DirtyEnergy,
                "transfer" | "transfer_bytes" => Objective::TransferBytes,
                other => {
                    return Err(format!(
                        "unknown objective {other:?} (expected time, energy, or transfer)"
                    ))
                }
            };
            if !list.contains(&o) {
                list.push(o);
            }
        }
        if list.is_empty() {
            return Err("objective set must not be empty".into());
        }
        Ok(ObjectiveSet(list))
    }

    /// The objectives in order.
    pub fn objectives(&self) -> &[Objective] {
        &self.0
    }

    /// Number of axes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Never true — the constructors refuse empty sets.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Extract this set's objective vector from a point.
    pub fn values(&self, p: &FrontierPoint) -> Vec<f64> {
        self.0
            .iter()
            .map(|o| match o {
                Objective::Time => p.makespan_s,
                Objective::DirtyEnergy => p.dirty_joules,
                Objective::TransferBytes => p.transfer_bytes,
            })
            .collect()
    }
}

impl fmt::Display for ObjectiveSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", o.label())?;
        }
        Ok(())
    }
}

/// `a` dominates `b`: no worse in every axis, strictly better in at least
/// one (all axes lower-is-better). Over finite values this is a strict
/// partial order — irreflexive, asymmetric, transitive (property-tested).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Indices of the non-dominated points, in canonical order: sorted by
/// objective vector (lexicographic, `total_cmp`) with the original index
/// as the deterministic tie-break. Exact duplicates are all kept (neither
/// dominates the other), so the *set of kept values* is invariant under
/// any permutation of the input.
pub fn pareto_frontier(points: &[Vec<f64>]) -> Vec<usize> {
    let mut keep: Vec<usize> = (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && dominates(q, &points[i]))
        })
        .collect();
    keep.sort_by(|&i, &j| lex_cmp(&points[i], &points[j]).then(i.cmp(&j)));
    keep
}

fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Hypervolume (area dominated w.r.t. a reference worst point) of a
/// `(time, dirty)` point set — the standard scalar quality measure for a
/// bi-objective frontier; larger is better.
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let vectors: Vec<Vec<f64>> = points.iter().map(|&(t, e)| vec![t, e]).collect();
    // The frontier comes back sorted by time ascending; sweep rectangles
    // against the reference.
    let mut volume = 0.0;
    let mut prev_e = reference.1;
    for i in pareto_frontier(&vectors) {
        let (t, e) = points[i];
        if t <= reference.0 && e <= reference.1 {
            volume += (reference.0 - t) * (prev_e - e).max(0.0);
            prev_e = prev_e.min(e);
        }
    }
    volume
}

/// One solved point: the α that produced it, its objective values, and the
/// integer partition vector that identifies the LP vertex (the refinement
/// criterion compares these to decide whether an interval has a bend).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Scalarization weight.
    pub alpha: f64,
    /// Predicted makespan, seconds.
    pub makespan_s: f64,
    /// Predicted dirty energy, joules (linear form).
    pub dirty_joules: f64,
    /// Bytes moved relative to the hash-home placement (0 when the solver
    /// has no placement, e.g. the bare-modeler solver).
    pub transfer_bytes: f64,
    /// Integer partition sizes — the plan identity used for bend
    /// detection.
    pub sizes: Vec<usize>,
}

/// Configuration for [`explore`].
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// Axes the dominance filter ranks on.
    pub objectives: ObjectiveSet,
    /// Starting α grid (ascending, within `[0, 1]`, ≥ 2 points).
    pub coarse: Vec<f64>,
    /// Convergence tolerance: a bisected interval stops refining once its
    /// midpoint lies within `tol` of the endpoints' chord in normalized
    /// objective space.
    pub tol: f64,
    /// Hard budget on solved α points (coarse grid included).
    pub max_points: usize,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            objectives: ObjectiveSet::time_energy(),
            coarse: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            tol: 1e-3,
            max_points: 48,
        }
    }
}

impl FrontierConfig {
    /// Intervals narrower than this never refine further — below one part
    /// per billion of α the LP is numerically indistinguishable.
    pub const MIN_GAP: f64 = 1e-9;

    /// Validate the configuration (the CLI maps failures to exit codes).
    pub fn validate(&self) -> Result<(), String> {
        if self.objectives.is_empty() {
            return Err("objective set must not be empty".into());
        }
        if !self.tol.is_finite() || self.tol <= 0.0 {
            return Err(format!("--tol must be finite and > 0, got {}", self.tol));
        }
        if self.coarse.len() < 2 {
            return Err("coarse grid needs at least 2 alphas".into());
        }
        for w in self.coarse.windows(2) {
            // partial_cmp: NaN endpoints must fail this check too.
            if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
                return Err(format!(
                    "coarse grid must be strictly ascending, got {} then {}",
                    w[0], w[1]
                ));
            }
        }
        if self
            .coarse
            .iter()
            .any(|a| !a.is_finite() || !(0.0..=1.0).contains(a))
        {
            return Err("coarse grid alphas must lie in [0, 1]".into());
        }
        if self.max_points < self.coarse.len() {
            return Err(format!(
                "--max-points {} is below the coarse grid size {}",
                self.max_points,
                self.coarse.len()
            ));
        }
        Ok(())
    }
}

/// What [`explore`] needs from a planning backend: solve one α, and
/// predict the static homogeneous (equal-split) baseline used as the
/// hypervolume reference.
pub trait AlphaSolver {
    /// Solve the scalarized problem at `alpha`.
    fn solve_alpha(&mut self, alpha: f64) -> Result<FrontierPoint, PlanError>;

    /// The equal-split `(time_s, dirty_joules)` baseline point.
    fn baseline(&mut self) -> Result<(f64, f64), PlanError>;
}

/// The bare-modeler backend: one LP per α, no placement (transfer bytes
/// are 0). Used by the claims gate and the dense reference sweeps in the
/// oracle tests.
pub struct ModelerSolver<'m> {
    modeler: &'m ParetoModeler,
    n: usize,
}

impl<'m> ModelerSolver<'m> {
    /// Solve for `n` records against `modeler`.
    pub fn new(modeler: &'m ParetoModeler, n: usize) -> Self {
        ModelerSolver { modeler, n }
    }
}

impl AlphaSolver for ModelerSolver<'_> {
    fn solve_alpha(&mut self, alpha: f64) -> Result<FrontierPoint, PlanError> {
        let point = self.modeler.solve(self.n, alpha)?;
        Ok(FrontierPoint {
            alpha,
            makespan_s: point.predicted_makespan,
            dirty_joules: point.predicted_dirty_joules,
            transfer_bytes: 0.0,
            sizes: point.sizes,
        })
    }

    fn baseline(&mut self) -> Result<(f64, f64), PlanError> {
        let p = self.modeler.num_nodes();
        if p == 0 {
            return Err(PlanError::Lp(PartitionPlanError::Degenerate(
                "no nodes to baseline",
            )));
        }
        let equal = vec![self.n as f64 / p as f64; p];
        let t = self
            .modeler
            .predicted_times(&equal)
            .iter()
            .copied()
            .fold(0.0, f64::max);
        Ok((t, self.modeler.predicted_dirty(&equal)))
    }
}

/// The explorer's output: the non-dominated frontier in canonical order
/// plus the accounting the claims gate and telemetry report on.
#[derive(Debug, Clone)]
pub struct FrontierResult {
    /// Axes the dominance filter ranked on.
    pub objectives: ObjectiveSet,
    /// Non-dominated points, sorted by objective vector (lexicographic)
    /// with α ascending as the tie-break; exact-duplicate objective
    /// vectors are merged keeping the smallest α.
    pub points: Vec<FrontierPoint>,
    /// Total α points solved (coarse + bisections).
    pub candidates: usize,
    /// Candidates dropped by the dominance filter (or merged as exact
    /// duplicates).
    pub dominated: usize,
    /// Scalarized solves spent (= candidates; each α is solved once).
    pub lp_solves: usize,
    /// Bisection midpoints solved beyond the coarse grid.
    pub bisections: usize,
    /// Smallest gap between adjacent solved α values — the resolution an
    /// equal-coverage uniform grid would need everywhere.
    pub finest_gap: f64,
    /// Equal-split `(time_s, dirty_joules)` baseline.
    pub baseline: (f64, f64),
}

impl FrontierResult {
    /// The knee: the frontier point closest (Euclidean, objectives
    /// normalized to `[0, 1]` over the frontier's own ranges) to the ideal
    /// corner. Ties break toward the smallest α. `None` on an empty
    /// frontier (cannot happen for a successful explore).
    pub fn knee(&self) -> Option<&FrontierPoint> {
        if self.points.is_empty() {
            return None;
        }
        let vecs: Vec<Vec<f64>> = self
            .points
            .iter()
            .map(|p| self.objectives.values(p))
            .collect();
        let dims = self.objectives.len();
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for v in &vecs {
            for d in 0..dims {
                lo[d] = lo[d].min(v[d]);
                hi[d] = hi[d].max(v[d]);
            }
        }
        let mut best: Option<(f64, f64, usize)> = None; // (dist, alpha, idx)
        for (i, v) in vecs.iter().enumerate() {
            let mut dist = 0.0;
            for d in 0..dims {
                let range = hi[d] - lo[d];
                if range > 0.0 {
                    let q = (v[d] - lo[d]) / range;
                    dist += q * q;
                }
            }
            let alpha = self.points[i].alpha;
            let better = match best {
                None => true,
                Some((bd, ba, _)) => {
                    dist < bd - 1e-15 || ((dist - bd).abs() <= 1e-15 && alpha < ba)
                }
            };
            if better {
                best = Some((dist, alpha, i));
            }
        }
        best.map(|(_, _, i)| &self.points[i])
    }

    /// Hypervolume of the `(time, dirty)` projection with the equal-split
    /// baseline as the reference point — the area of the
    /// dominated-relative-to-the-baseline region this frontier covers.
    pub fn hypervolume_vs_baseline(&self) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.makespan_s, p.dirty_joules))
            .collect();
        hypervolume(&pts, self.baseline)
    }

    /// Condense into the report the claims gate consumes.
    pub fn report(&self) -> FrontierReport {
        let knee = self.knee();
        FrontierReport {
            points_kept: self.points.len(),
            dominated_candidates: self.dominated,
            lp_solves: self.lp_solves,
            bisections: self.bisections,
            finest_gap: self.finest_gap,
            knee_alpha: knee.map(|k| k.alpha).unwrap_or(f64::NAN),
            knee_time_s: knee.map(|k| k.makespan_s).unwrap_or(f64::NAN),
            knee_dirty_joules: knee.map(|k| k.dirty_joules).unwrap_or(f64::NAN),
            hypervolume_vs_baseline: self.hypervolume_vs_baseline(),
        }
    }
}

/// Headline numbers of one exploration.
#[derive(Debug, Clone)]
pub struct FrontierReport {
    /// Frontier size after dominance filtering.
    pub points_kept: usize,
    /// Candidates the filter dropped.
    pub dominated_candidates: usize,
    /// Scalarized solves spent.
    pub lp_solves: usize,
    /// Midpoints solved beyond the coarse grid.
    pub bisections: usize,
    /// Smallest adjacent-α gap reached.
    pub finest_gap: f64,
    /// α of the knee point.
    pub knee_alpha: f64,
    /// Knee completion time, seconds.
    pub knee_time_s: f64,
    /// Knee dirty energy, joules.
    pub knee_dirty_joules: f64,
    /// Area dominated relative to the equal-split baseline.
    pub hypervolume_vs_baseline: f64,
}

/// Run adaptive α refinement against `solver`.
///
/// The worklist starts as the coarse grid's adjacent intervals, in order.
/// An interval refines only when its endpoints' integer partition vectors
/// differ — identical vectors mean the same LP vertex, so the frontier
/// segment between them is a single point with no bend. On a refine, the
/// midpoint α is solved and the interval converges when the midpoint lies
/// within `tol` of the endpoints' chord in normalized objective space;
/// otherwise both halves whose endpoints still differ are enqueued. The
/// loop stops at `max_points` solves, at intervals narrower than
/// [`FrontierConfig::MIN_GAP`], or when every interval has converged.
///
/// Deterministic by construction: the worklist is FIFO, each α is solved
/// at most once, and no wall-clock or randomness feeds the refinement.
/// Telemetry is observational only (counters + per-bisection spans).
pub fn explore<S: AlphaSolver>(
    solver: &mut S,
    cfg: &FrontierConfig,
    telemetry: &Telemetry,
) -> Result<FrontierResult, PlanError> {
    cfg.validate().map_err(PlanError::Frontier)?;

    let mut solved: Vec<FrontierPoint> = Vec::with_capacity(cfg.max_points);
    let mut seen: BTreeSet<u64> = BTreeSet::new();

    let mut solve_at = |alpha: f64,
                        solved: &mut Vec<FrontierPoint>,
                        seen: &mut BTreeSet<u64>|
     -> Result<usize, PlanError> {
        let fresh = seen.insert(alpha.to_bits());
        debug_assert!(fresh, "alpha solved twice");
        solved.push(solver.solve_alpha(alpha)?);
        telemetry.counter_add(metrics::FRONTIER_LP_SOLVES_TOTAL, &[], 1);
        Ok(solved.len() - 1)
    };

    // Coarse grid, ascending.
    let mut interval_queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut prev: Option<usize> = None;
    for &alpha in &cfg.coarse {
        let idx = solve_at(alpha, &mut solved, &mut seen)?;
        if let Some(lo) = prev {
            interval_queue.push_back((lo, idx));
        }
        prev = Some(idx);
    }

    // Normalization ranges for the chord-error metric, fixed from the
    // coarse extremes so later refinement cannot change the metric.
    let dims = cfg.objectives.len();
    let mut norm_lo = vec![f64::INFINITY; dims];
    let mut norm_hi = vec![f64::NEG_INFINITY; dims];
    for p in &solved {
        let v = cfg.objectives.values(p);
        for d in 0..dims {
            norm_lo[d] = norm_lo[d].min(v[d]);
            norm_hi[d] = norm_hi[d].max(v[d]);
        }
    }
    let normalize = |p: &FrontierPoint| -> Vec<f64> {
        cfg.objectives
            .values(p)
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                let range = norm_hi[d] - norm_lo[d];
                if range > 0.0 {
                    (v - norm_lo[d]) / range
                } else {
                    0.0
                }
            })
            .collect()
    };

    let dist = |a: &FrontierPoint, b: &FrontierPoint| -> f64 {
        normalize(a)
            .iter()
            .zip(normalize(b))
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };

    let mut bisections = 0usize;
    while let Some((lo, hi)) = interval_queue.pop_front() {
        if solved.len() >= cfg.max_points {
            break;
        }
        let (alpha_lo, alpha_hi) = (solved[lo].alpha, solved[hi].alpha);
        if alpha_hi - alpha_lo <= FrontierConfig::MIN_GAP {
            continue;
        }
        // Same integer partition vector => same LP vertex => no bend.
        if solved[lo].sizes == solved[hi].sizes {
            continue;
        }
        // Endpoints are distinct vertices but (normalized) within
        // tolerance of each other: by convexity of the parametric
        // frontier, anything between them improves on the chord by at
        // most their distance — converged.
        if dist(&solved[lo], &solved[hi]) <= cfg.tol {
            continue;
        }
        let mid_alpha = 0.5 * (alpha_lo + alpha_hi);
        if seen.contains(&mid_alpha.to_bits()) {
            continue;
        }
        let span_start = telemetry.wall_now();
        let mid = solve_at(mid_alpha, &mut solved, &mut seen)?;
        bisections += 1;
        let err = chord_error(
            &normalize(&solved[lo]),
            &normalize(&solved[mid]),
            &normalize(&solved[hi]),
        );
        telemetry.span(
            Track::Planner,
            "frontier_bisect",
            ClockDomain::Wall,
            span_start,
            telemetry.wall_now(),
            SpanId::NONE,
            vec![
                ("alpha_lo".into(), format!("{alpha_lo}")),
                ("alpha_hi".into(), format!("{alpha_hi}")),
                ("chord_error".into(), format!("{err:.3e}")),
            ],
        );
        let same_lo = solved[lo].sizes == solved[mid].sizes;
        let same_hi = solved[mid].sizes == solved[hi].sizes;
        if same_lo && same_hi {
            // A plan that reappears on both sides: nothing between.
            continue;
        }
        if same_lo || same_hi {
            // The midpoint landed on one endpoint's vertex: the bend is
            // entirely inside the other half — keep localizing it (the
            // pop-time guards bound this by MIN_GAP / tol / budget).
            interval_queue.push_back(if same_lo { (mid, hi) } else { (lo, mid) });
            continue;
        }
        // The midpoint is a genuinely new vertex. If it sits on the
        // endpoints' chord within tolerance the segment is linear within
        // tol (convexity again) — converged; otherwise both halves may
        // still hide vertices.
        if err > cfg.tol {
            interval_queue.push_back((lo, mid));
            interval_queue.push_back((mid, hi));
        }
    }

    // Dominance filter + deterministic dedup (smallest α represents an
    // exactly-repeated objective vector).
    let vectors: Vec<Vec<f64>> = solved.iter().map(|p| cfg.objectives.values(p)).collect();
    let keep = pareto_frontier(&vectors);
    let mut points: Vec<FrontierPoint> = Vec::with_capacity(keep.len());
    for &i in &keep {
        if let Some(last) = points.last() {
            if cfg.objectives.values(last) == vectors[i] {
                // Same objective vector: keep the smaller α.
                if solved[i].alpha < last.alpha {
                    let slot = points.last_mut().expect("non-empty");
                    *slot = solved[i].clone();
                }
                continue;
            }
        }
        points.push(solved[i].clone());
    }

    let candidates = solved.len();
    let dominated = candidates - points.len();
    telemetry.counter_add(
        metrics::FRONTIER_POINTS_TOTAL,
        &[("outcome", "kept")],
        points.len() as u64,
    );
    telemetry.counter_add(
        metrics::FRONTIER_POINTS_TOTAL,
        &[("outcome", "dominated")],
        dominated as u64,
    );

    let mut alphas: Vec<f64> = solved.iter().map(|p| p.alpha).collect();
    alphas.sort_by(f64::total_cmp);
    let finest_gap = alphas
        .windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min);

    Ok(FrontierResult {
        objectives: cfg.objectives.clone(),
        points,
        candidates,
        dominated,
        lp_solves: candidates,
        bisections,
        finest_gap,
        baseline: solver.baseline()?,
    })
}

/// Euclidean distance from `mid` to the segment `[lo, hi]` in the
/// (already normalized) objective space.
fn chord_error(lo: &[f64], mid: &[f64], hi: &[f64]) -> f64 {
    let dims = lo.len();
    let mut seg_sq = 0.0;
    let mut dot = 0.0;
    for d in 0..dims {
        let seg = hi[d] - lo[d];
        seg_sq += seg * seg;
        dot += seg * (mid[d] - lo[d]);
    }
    let t = if seg_sq > 0.0 {
        (dot / seg_sq).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mut dist_sq = 0.0;
    for d in 0..dims {
        let proj = lo[d] + t * (hi[d] - lo[d]);
        let delta = mid[d] - proj;
        dist_sq += delta * delta;
    }
    dist_sq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_energy::NodeEnergyProfile;
    use pareto_stats::LinearFit;

    fn fit(slope: f64) -> LinearFit {
        LinearFit {
            slope,
            intercept: 0.0,
            r_squared: 1.0,
            n: 6,
        }
    }

    fn modeler(greens: [f64; 4]) -> ParetoModeler {
        let time = vec![fit(1e-3), fit(2e-3), fit(3e-3), fit(4e-3)];
        let energy = vec![
            NodeEnergyProfile {
                draw_watts: 440.0,
                mean_green_watts: greens[0],
            },
            NodeEnergyProfile {
                draw_watts: 345.0,
                mean_green_watts: greens[1],
            },
            NodeEnergyProfile {
                draw_watts: 250.0,
                mean_green_watts: greens[2],
            },
            NodeEnergyProfile {
                draw_watts: 155.0,
                mean_green_watts: greens[3],
            },
        ];
        ParetoModeler::new(time, energy).unwrap()
    }

    #[test]
    fn dominates_is_strict() {
        let a = vec![1.0, 2.0];
        let b = vec![2.0, 3.0];
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a), "irreflexive");
        // Weak tie on one axis still dominates when strictly better on
        // another.
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        // Incomparable points dominate in neither direction.
        assert!(!dominates(&[1.0, 3.0], &[2.0, 1.0]));
        assert!(!dominates(&[2.0, 1.0], &[1.0, 3.0]));
    }

    #[test]
    fn frontier_filter_keeps_duplicates_and_orders_canonically() {
        let points = vec![
            vec![4.0, 1.0],
            vec![1.0, 10.0],
            vec![2.0, 5.0],
            vec![2.0, 5.0], // duplicate: kept, tie-broken by index
            vec![3.0, 6.0], // dominated by (2, 5)
        ];
        let keep = pareto_frontier(&points);
        assert_eq!(keep, vec![1, 2, 3, 0]);
    }

    #[test]
    fn hypervolume_known_value() {
        // Two points against reference (10, 10):
        // (2,6): (10-2)*(10-6)=32; (5,3): (10-5)*(6-3)=15 -> 47.
        let points = vec![(2.0, 6.0), (5.0, 3.0)];
        let hv = hypervolume(&points, (10.0, 10.0));
        assert!((hv - 47.0).abs() < 1e-9);
        // Adding a dominated point changes nothing.
        let with_dom = vec![(2.0, 6.0), (5.0, 3.0), (6.0, 7.0)];
        assert!((hypervolume(&with_dom, (10.0, 10.0)) - 47.0).abs() < 1e-9);
        // Points beyond the reference contribute nothing.
        let outside = vec![(11.0, 1.0)];
        assert_eq!(hypervolume(&outside, (10.0, 10.0)), 0.0);
    }

    #[test]
    fn explore_finds_the_knee_region() {
        let m = modeler([20.0, 80.0, 120.0, 150.0]);
        let mut solver = ModelerSolver::new(&m, 20_000);
        let cfg = FrontierConfig {
            max_points: 40,
            tol: 1e-3,
            ..FrontierConfig::default()
        };
        let tel = Telemetry::disabled();
        let result = explore(&mut solver, &cfg, &tel).unwrap();
        assert!(result.points.len() >= 3, "found {}", result.points.len());
        assert!(result.bisections > 0, "raw α scale demands refinement");
        assert!(result.lp_solves <= cfg.max_points);
        // The frontier itself is clean.
        let vecs: Vec<Vec<f64>> = result
            .points
            .iter()
            .map(|p| result.objectives.values(p))
            .collect();
        assert_eq!(pareto_frontier(&vecs).len(), vecs.len());
        // The refinement concentrated points where the raw scalarization
        // bends — near α = 1 (energy dwarfs time).
        assert!(
            result.finest_gap < 0.25 / 4.0,
            "no interval was ever refined: finest gap {}",
            result.finest_gap
        );
        let report = result.report();
        assert!(report.hypervolume_vs_baseline >= 0.0);
        assert!(report.knee_alpha.is_finite());
    }

    #[test]
    fn explore_respects_the_budget() {
        let m = modeler([20.0, 80.0, 120.0, 150.0]);
        let mut solver = ModelerSolver::new(&m, 20_000);
        let cfg = FrontierConfig {
            max_points: 7,
            tol: 1e-9, // never converge: only the budget can stop it
            ..FrontierConfig::default()
        };
        let tel = Telemetry::disabled();
        let result = explore(&mut solver, &cfg, &tel).unwrap();
        assert!(result.lp_solves <= 7, "spent {}", result.lp_solves);
    }

    #[test]
    fn degenerate_frontier_converges_immediately() {
        // k = 0 everywhere: every α yields the same time-optimal plan.
        let time = vec![fit(1e-3); 3];
        let energy = vec![
            NodeEnergyProfile {
                draw_watts: 250.0,
                mean_green_watts: 250.0,
            };
            3
        ];
        let m = ParetoModeler::new(time, energy).unwrap();
        let mut solver = ModelerSolver::new(&m, 999);
        let tel = Telemetry::disabled();
        let result = explore(&mut solver, &FrontierConfig::default(), &tel).unwrap();
        assert_eq!(result.bisections, 0, "identical plans must not refine");
        assert_eq!(result.points.len(), 1, "one distinct objective vector");
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let mut cfg = FrontierConfig {
            tol: 0.0,
            ..FrontierConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.tol = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg = FrontierConfig::default();
        cfg.coarse = vec![0.5];
        assert!(cfg.validate().is_err());
        cfg.coarse = vec![0.5, 0.2];
        assert!(cfg.validate().is_err());
        cfg.coarse = vec![0.0, 1.5];
        assert!(cfg.validate().is_err());
        cfg = FrontierConfig::default();
        cfg.max_points = 2;
        assert!(cfg.validate().is_err());
        assert!(FrontierConfig::default().validate().is_ok());
        assert!(ObjectiveSet::parse("time,energy,transfer").is_ok());
        assert!(ObjectiveSet::parse("time,frobnicate").is_err());
        assert!(ObjectiveSet::parse("").is_err());
    }
}
