//! The Pareto frontier as a finite list, plus the dominance order that
//! filters it.
//!
//! [`crate::pareto::ParetoModeler::frontier`] maps `solve` over a
//! caller-supplied α grid, so the "frontier" it reports can contain
//! dominated points and misses every bend between grid steps. This module
//! lists the frontier instead:
//!
//! 1. [`dominates`] defines a **strict partial order** over a configurable
//!    [`ObjectiveSet`] — completion time, dirty energy, transfer bytes,
//!    all lower-is-better (the `ParetoAnalyzer` exemplar's
//!    no-worse-in-all / strictly-better-in-one rule);
//! 2. [`pareto_frontier`] filters any point set to its non-dominated
//!    subset with deterministic tie-breaking (canonical lexicographic
//!    order, exact duplicates all kept — neither dominates the other);
//! 3. [`explore`] plans once per vertex of
//!    [`crate::pareto::ParetoModeler::vertices`] — the breakpoint walk's
//!    candidates on the convex hull, at most `p + 1` of them — at the
//!    vertex's representative α, and filters the plans by dominance.
//!
//! The same listing runs either against a bare
//! [`crate::pareto::ParetoModeler`] ([`ModelerSolver`]: one LP per α, used
//! by the claims gate and the oracle tests) or through a
//! [`crate::session::PlanSession`]
//! ([`crate::session::PlanSession::explore_frontier`]): there the whole
//! frontier is a fingerprinted cache artifact (stage name `frontier`), and
//! every per-vertex plan reuses the session's cached
//! sketch/stratify/profile artifacts.
//!
//! The dominance laws (irreflexivity, asymmetry, transitivity), the
//! frontier invariants (order-invariance, no internally dominated pair,
//! idempotence), and the explorer's oracles (exactly the vertex list's
//! distinct plans, a superset of a coarse α grid's non-dominated points,
//! never dominated by a dense reference sweep) are property-tested in
//! `tests/tests/frontier.rs`.

use std::fmt;

use pareto_telemetry::{metrics, Telemetry};

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
        let list = spec
            .split(',')
            .map(|part| match part.trim() {
                "time" => Ok(Objective::Time),
                "energy" | "dirty_energy" => Ok(Objective::DirtyEnergy),
                "transfer" | "transfer_bytes" => Ok(Objective::TransferBytes),
                other => Err(format!(
                    "unknown objective {other:?} (expected time, energy, or transfer)"
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(&list)
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

/// One planned point: the α that produced it, its objective values, and the
/// integer partition vector that identifies the plan.
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
    /// Integer partition sizes — the plan identity.
    pub sizes: Vec<usize>,
}

/// Configuration for [`explore`].
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// Axes the dominance filter ranks on.
    pub objectives: ObjectiveSet,
    /// Cap on planned vertices; the fastest are kept first.
    pub max_points: usize,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            objectives: ObjectiveSet::time_energy(),
            max_points: 48,
        }
    }
}

impl FrontierConfig {
    /// Validate the configuration (the CLI maps failures to exit codes).
    pub fn validate(&self) -> Result<(), String> {
        if self.objectives.is_empty() {
            return Err("objective set must not be empty".into());
        }
        if self.max_points == 0 {
            return Err("--max-points must be at least 1".into());
        }
        Ok(())
    }
}

/// What [`explore`] needs from a planning backend: plan one α, and the
/// modeler and record count the plans are solved against.
pub trait AlphaSolver {
    /// Plan the scalarized problem at `alpha`.
    fn solve_alpha(&mut self, alpha: f64) -> Result<FrontierPoint, PlanError>;

    /// The modeler behind the plans and the record count; `None` until a
    /// backend that builds its modeler from a plan has planned once.
    fn modeler(&self) -> Option<(&ParetoModeler, usize)>;
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

    fn modeler(&self) -> Option<(&ParetoModeler, usize)> {
        Some((self.modeler, self.n))
    }
}

/// The explorer's output: the non-dominated frontier in canonical order
/// plus the accounting the claims gate and telemetry report on.
#[derive(Debug, Clone)]
pub struct FrontierResult {
    /// Axes the dominance filter ranked on.
    pub objectives: ObjectiveSet,
    /// Non-dominated points, sorted by objective vector (lexicographic)
    /// with planning order as the tie-break.
    pub points: Vec<FrontierPoint>,
    /// Vertices planned (one per distinct integer plan, up to
    /// `max_points`).
    pub candidates: usize,
    /// Candidates dropped by the dominance filter.
    pub dominated: usize,
    /// Scalarized solves spent (= candidates; each vertex is planned once).
    pub lp_solves: usize,
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
    /// α of the knee point.
    pub knee_alpha: f64,
    /// Knee completion time, seconds.
    pub knee_time_s: f64,
    /// Knee dirty energy, joules.
    pub knee_dirty_joules: f64,
    /// Area dominated relative to the equal-split baseline.
    pub hypervolume_vs_baseline: f64,
}

/// List the frontier through `solver`: plan once per vertex of
/// [`ParetoModeler::vertices`], fastest first, at its representative α,
/// then keep the non-dominated plans.
///
/// The fastest vertex's representative α is 1, so it is planned first,
/// which also gives a session backend its modeler. A vertex whose integer
/// sizes equal the previous planned one's is skipped unplanned, and
/// planning stops at `max_points`. The equal-split baseline comes from the
/// same modeler.
///
/// Deterministic by construction: the vertex list is a pure function of
/// the models and `n`. Telemetry is observational only (counters).
pub fn explore<S: AlphaSolver>(
    solver: &mut S,
    cfg: &FrontierConfig,
    telemetry: &Telemetry,
) -> Result<FrontierResult, PlanError> {
    cfg.validate().map_err(PlanError::Frontier)?;
    let mut solved = vec![solver.solve_alpha(1.0)?];
    let (modeler, n) = solver
        .modeler()
        .ok_or(PlanError::Lp(PartitionPlanError::Degenerate(
            "frontier backend has no modeler",
        )))?;
    let vertices = modeler.vertices(n)?;
    let baseline = equal_split(modeler, n);
    for vertex in vertices.iter().skip(1) {
        if solved.len() >= cfg.max_points {
            break;
        }
        if solved.last().is_some_and(|p| p.sizes == vertex.point.sizes) {
            continue;
        }
        solved.push(solver.solve_alpha(vertex.point.alpha)?);
    }
    telemetry.counter_add(metrics::FRONTIER_LP_SOLVES_TOTAL, &[], solved.len() as u64);

    let vectors: Vec<Vec<f64>> = solved.iter().map(|p| cfg.objectives.values(p)).collect();
    let points: Vec<FrontierPoint> = pareto_frontier(&vectors)
        .into_iter()
        .map(|i| solved[i].clone())
        .collect();
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
    Ok(FrontierResult {
        objectives: cfg.objectives.clone(),
        points,
        candidates,
        dominated,
        lp_solves: candidates,
        baseline,
    })
}

/// The equal-split `(time_s, dirty_joules)` point of `n` records.
fn equal_split(modeler: &ParetoModeler, n: usize) -> (f64, f64) {
    let p = modeler.num_nodes();
    let equal = vec![n as f64 / p as f64; p];
    let t = modeler
        .predicted_times(&equal)
        .iter()
        .copied()
        .fold(0.0, f64::max);
    (t, modeler.predicted_dirty(&equal))
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
        let n = 20_000;
        let mut solver = ModelerSolver::new(&m, n);
        let tel = Telemetry::disabled();
        let result = explore(&mut solver, &FrontierConfig::default(), &tel).unwrap();
        assert!(result.points.len() >= 3, "found {}", result.points.len());
        assert!(result.lp_solves <= m.num_nodes() + 1);
        // The frontier is clean, and every point is a vertex's plan.
        let vecs: Vec<Vec<f64>> = result
            .points
            .iter()
            .map(|p| result.objectives.values(p))
            .collect();
        assert_eq!(pareto_frontier(&vecs).len(), vecs.len());
        let vertices = m.vertices(n).unwrap();
        for p in &result.points {
            assert!(vertices.iter().any(|v| v.point.sizes == p.sizes
                && v.point.alpha == p.alpha
                && v.point.predicted_makespan == p.makespan_s));
        }
        let report = result.report();
        assert!(report.hypervolume_vs_baseline >= 0.0);
        assert!(report.knee_alpha.is_finite());
    }

    #[test]
    fn explore_respects_the_budget() {
        let m = modeler([20.0, 80.0, 120.0, 150.0]);
        let tel = Telemetry::disabled();
        let full = explore(
            &mut ModelerSolver::new(&m, 20_000),
            &FrontierConfig::default(),
            &tel,
        )
        .unwrap();
        let cfg = FrontierConfig {
            max_points: 2,
            ..FrontierConfig::default()
        };
        let capped = explore(&mut ModelerSolver::new(&m, 20_000), &cfg, &tel).unwrap();
        assert_eq!(capped.lp_solves, 2);
        assert_eq!(capped.points[..], full.points[..2]);
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
        assert_eq!(result.lp_solves, 1, "one vertex, one plan");
        assert_eq!(result.points.len(), 1);
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let cfg = FrontierConfig {
            max_points: 0,
            ..FrontierConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(FrontierConfig::default().validate().is_ok());
        assert!(ObjectiveSet::parse("time,energy,transfer").is_ok());
        assert!(ObjectiveSet::parse("time,frobnicate").is_err());
        assert!(ObjectiveSet::parse("").is_err());
    }
}
