//! Component IV: the Pareto-optimal modeler (paper §III-D).
//!
//! Given per-node time models `f_i(x) = m_i·x + c_i` and energy profiles
//! `k_i = E_i − ḠE_i`, choose partition sizes `x_i ≥ 0`, `Σ x_i = N`
//! minimizing the scalarized objective
//!
//! ```text
//! α·v + (1−α)·Σ_i k_i·f_i(x_i)     with  v ≥ f_i(x_i) ∀i
//! ```
//!
//! Scalarization turns the bi-objective (makespan, dirty energy) problem
//! into a family of linear programs, one per `α ∈ [0, 1]`; each optimum is
//! a Pareto-efficient point, and sweeping `α` traces the frontier (the
//! paper's Fig. 5). `α = 1` is the **Het-Aware** scheme; the paper's
//! **Het-Energy-Aware** runs use `α = 0.999` (mining) and `α = 0.995`
//! (compression) because the energy objective's scale dwarfs the time
//! objective's.
//!
//! Two solvers are provided and cross-validated in tests: the general LP
//! (two-phase simplex from `pareto-lp`) and, for `α = 1`, an exact
//! waterfilling solution of `min max_i f_i(x_i)`.

use pareto_energy::NodeEnergyProfile;
use pareto_lp::{LpError, Problem, Relation, SolveStatus};
use pareto_stats::{largest_remainder_apportion, LinearFit};

use crate::frontier::pareto_frontier;

pub use pareto_lp::{Basis as LpBasis, StartKind};

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionPlanError {
    /// Time models and energy profiles disagree on the node count.
    MismatchedInputs { models: usize, profiles: usize },
    /// `alpha` outside `[0, 1]`.
    BadAlpha(f64),
    /// The LP solver failed structurally.
    Lp(LpError),
    /// The LP reported infeasible/unbounded (should not happen for this
    /// formulation; indicates corrupt inputs such as negative slopes).
    Degenerate(&'static str),
}

impl std::fmt::Display for PartitionPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionPlanError::MismatchedInputs { models, profiles } => {
                write!(f, "{models} time models vs {profiles} energy profiles")
            }
            PartitionPlanError::BadAlpha(a) => write!(f, "alpha {a} outside [0, 1]"),
            PartitionPlanError::Lp(e) => write!(f, "LP solver failure: {e}"),
            PartitionPlanError::Degenerate(m) => write!(f, "degenerate plan: {m}"),
        }
    }
}

impl std::error::Error for PartitionPlanError {}

impl From<LpError> for PartitionPlanError {
    fn from(e: LpError) -> Self {
        PartitionPlanError::Lp(e)
    }
}

/// One point on the Pareto frontier: a complete partition-size plan.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The scalarization weight that produced this point.
    pub alpha: f64,
    /// Optimal fractional sizes from the LP.
    pub fractional_sizes: Vec<f64>,
    /// Integer sizes (largest-remainder rounding; sums exactly to `N`).
    pub sizes: Vec<usize>,
    /// Predicted makespan `max_i f_i(x_i)` in seconds.
    pub predicted_makespan: f64,
    /// Predicted total dirty energy `Σ_i k_i·f_i(x_i)` in joules
    /// (paper-linear form; can be negative under green surplus).
    pub predicted_dirty_joules: f64,
}

/// Tally of LP-solver work behind a planning call, for telemetry and the
/// warm-vs-cold pivot accounting. Merging is additive, so multi-solve
/// paths (`solve_normalized`, frontier sweeps) report totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Solves answered by the cold two-phase path with no warm attempt.
    pub cold: usize,
    /// Solves answered by an accepted warm start.
    pub warm: usize,
    /// Warm attempts abandoned to the deterministic cold fallback (these
    /// are also cold-answered, but not double-counted in `cold`).
    pub fallbacks: usize,
    /// Simplex pivots spent by cold-answered solves (including pivots
    /// wasted inside abandoned warm attempts).
    pub pivots_cold: usize,
    /// Simplex pivots spent by accepted warm solves.
    pub pivots_warm: usize,
}

impl LpStats {
    fn absorb(&mut self, solved: &pareto_lp::Solved) {
        match solved.start {
            StartKind::Cold => {
                self.cold += 1;
                self.pivots_cold += solved.solution.iterations;
            }
            StartKind::Warm => {
                self.warm += 1;
                self.pivots_warm += solved.solution.iterations;
            }
            StartKind::WarmFallback => {
                self.fallbacks += 1;
                self.pivots_cold += solved.solution.iterations;
            }
        }
    }

    /// Total pivots across all counted solves.
    pub fn pivots(&self) -> usize {
        self.pivots_cold + self.pivots_warm
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &LpStats) {
        self.cold += other.cold;
        self.warm += other.warm;
        self.fallbacks += other.fallbacks;
        self.pivots_cold += other.pivots_cold;
        self.pivots_warm += other.pivots_warm;
    }

    /// Emit the tally on the inert LP counters (`pareto_lp_solves_total`,
    /// `pareto_lp_warm_fallbacks_total`, `pareto_lp_pivots_total`).
    pub fn record(&self, telemetry: &pareto_telemetry::Telemetry) {
        use pareto_telemetry::metrics;
        let cold_solves = (self.cold + self.fallbacks) as u64;
        if cold_solves > 0 {
            telemetry.counter_add(metrics::LP_SOLVES_TOTAL, &[("start", "cold")], cold_solves);
        }
        if self.warm > 0 {
            telemetry.counter_add(
                metrics::LP_SOLVES_TOTAL,
                &[("start", "warm")],
                self.warm as u64,
            );
        }
        if self.fallbacks > 0 {
            telemetry.counter_add(
                metrics::LP_WARM_FALLBACKS_TOTAL,
                &[],
                self.fallbacks as u64,
            );
        }
        if self.pivots_cold > 0 {
            telemetry.counter_add(
                metrics::LP_PIVOTS_TOTAL,
                &[("start", "cold")],
                self.pivots_cold as u64,
            );
        }
        if self.pivots_warm > 0 {
            telemetry.counter_add(
                metrics::LP_PIVOTS_TOTAL,
                &[("start", "warm")],
                self.pivots_warm as u64,
            );
        }
    }
}

/// A [`ParetoPoint`] together with the optimal LP basis that produced it
/// and the solver-work tally, returned by the LP solve paths.
#[derive(Debug, Clone)]
pub struct SolvedPoint {
    /// The plan point — bit-identical whether warm- or cold-started.
    pub point: ParetoPoint,
    /// Reusable optimal basis (absent for non-LP paths, e.g. waterfilling).
    pub basis: Option<LpBasis>,
    /// Solver work spent producing the point.
    pub stats: LpStats,
}

/// Map an optimal partition-LP basis across a roster change so it can seed
/// the restricted (or extended) problem's solve.
///
/// The partition LP's standardized column layout is a pure function of the
/// node count `p`: columns `0..p` are the `x_i`, `p` is the makespan `v`,
/// `p+1+i` is row `i`'s slack/surplus, and artificials start at `2p+1`.
/// Columns belonging to departed nodes are dropped; each newly joined node
/// seeds its own slack column (idle at the warm vertex — the repair pivots
/// work onto it). Returns `None` when the basis cannot be mapped exactly
/// (wrong shape, artificial columns, or a degenerate drop that removes
/// more than one column per departed node) — callers then solve cold.
pub fn map_partition_basis(
    prev_nodes: &[usize],
    next_nodes: &[usize],
    basis: &LpBasis,
) -> Option<LpBasis> {
    let p_old = prev_nodes.len();
    let p_new = next_nodes.len();
    if p_new == 0 || basis.num_rows() != p_old + 1 || basis.num_structural() != p_old + 1 {
        return None;
    }
    let pos_in_next = |id: usize| next_nodes.iter().position(|&n| n == id);
    let mut cols: Vec<u32> = Vec::with_capacity(p_new + 1);
    for &c in basis.columns() {
        let c = c as usize;
        if c < p_old {
            if let Some(pos) = pos_in_next(prev_nodes[c]) {
                cols.push(pos as u32); // x_i survives
            }
        } else if c == p_old {
            cols.push(p_new as u32); // v
        } else if c < 2 * p_old + 1 {
            if let Some(pos) = pos_in_next(prev_nodes[c - p_old - 1]) {
                cols.push((p_new + 1 + pos) as u32); // row slack survives
            }
        } else {
            return None; // artificial basic: redundant rows never warm-start
        }
    }
    for (pos, id) in next_nodes.iter().enumerate() {
        if !prev_nodes.contains(id) {
            cols.push((p_new + 1 + pos) as u32);
        }
    }
    LpBasis::from_columns(p_new + 1, p_new + 1, cols)
}

/// The modeler: owns the per-node models and answers planning queries.
///
/// ```
/// use pareto_core::pareto::ParetoModeler;
/// use pareto_energy::NodeEnergyProfile;
/// use pareto_stats::LinearFit;
///
/// // Two nodes: the second is twice as slow but fully solar-covered.
/// let time = vec![
///     LinearFit { slope: 1e-3, intercept: 0.0, r_squared: 1.0, n: 6 },
///     LinearFit { slope: 2e-3, intercept: 0.0, r_squared: 1.0, n: 6 },
/// ];
/// let energy = vec![
///     NodeEnergyProfile { draw_watts: 440.0, mean_green_watts: 50.0 },
///     NodeEnergyProfile { draw_watts: 155.0, mean_green_watts: 155.0 },
/// ];
/// let modeler = ParetoModeler::new(time, energy).unwrap();
/// // Pure makespan: sizes proportional to speed (2:1).
/// let fast = modeler.solve_het_aware(900);
/// assert_eq!(fast.sizes, vec![600, 300]);
/// // Pure energy: everything on the solar-covered node.
/// let green = modeler.solve(900, 0.0, None).unwrap().point;
/// assert_eq!(green.sizes, vec![0, 900]);
/// ```
#[derive(Debug, Clone)]
pub struct ParetoModeler {
    /// `f_i` per node.
    time: Vec<LinearFit>,
    /// `k_i` per node.
    energy: Vec<NodeEnergyProfile>,
}

impl ParetoModeler {
    /// Create a modeler; the two vectors must be node-aligned.
    pub fn new(
        time: Vec<LinearFit>,
        energy: Vec<NodeEnergyProfile>,
    ) -> Result<Self, PartitionPlanError> {
        if time.len() != energy.len() || time.is_empty() {
            return Err(PartitionPlanError::MismatchedInputs {
                models: time.len(),
                profiles: energy.len(),
            });
        }
        Ok(ParetoModeler { time, energy })
    }

    /// Number of nodes/partitions planned for.
    pub fn num_nodes(&self) -> usize {
        self.time.len()
    }

    /// A sub-modeler over `nodes` (indices into this modeler), with each
    /// survivor's time intercept shifted forward by its entry in
    /// `offset_seconds`. This is the runtime replanning view after a node
    /// failure: an offset carries a survivor's current clock plus the
    /// predicted time for its remaining backlog, so solving the restricted
    /// LP for just the orphaned items optimizes *wall-clock* finish times
    /// with already-completed fractions subtracted. The constant part the
    /// offsets add to the energy objective does not move the argmin.
    pub fn restrict_with_offsets(
        &self,
        nodes: &[usize],
        offset_seconds: &[f64],
    ) -> Result<ParetoModeler, PartitionPlanError> {
        if nodes.len() != offset_seconds.len() {
            return Err(PartitionPlanError::MismatchedInputs {
                models: nodes.len(),
                profiles: offset_seconds.len(),
            });
        }
        if nodes.iter().any(|&i| i >= self.num_nodes()) {
            return Err(PartitionPlanError::Degenerate("survivor index out of range"));
        }
        let time = nodes
            .iter()
            .zip(offset_seconds)
            .map(|(&i, &off)| {
                let mut f = self.time[i];
                f.intercept += off.max(0.0);
                f
            })
            .collect();
        let energy = nodes.iter().map(|&i| self.energy[i]).collect();
        ParetoModeler::new(time, energy)
    }

    /// A sub-modeler over `nodes` with intercepts unchanged.
    pub fn restrict(&self, nodes: &[usize]) -> Result<ParetoModeler, PartitionPlanError> {
        self.restrict_with_offsets(nodes, &vec![0.0; nodes.len()])
    }

    /// Per-node predicted seconds for a fractional size vector.
    pub fn predicted_times(&self, x: &[f64]) -> Vec<f64> {
        self.time
            .iter()
            .zip(x)
            .map(|(f, &xi)| f.predict(xi).max(0.0))
            .collect()
    }

    /// Predicted dirty energy `Σ k_i f_i(x_i)` for a size vector.
    pub fn predicted_dirty(&self, x: &[f64]) -> f64 {
        self.time
            .iter()
            .zip(&self.energy)
            .zip(x)
            .map(|((f, e), &xi)| e.k() * f.predict(xi).max(0.0))
            .sum()
    }

    /// Build the scalarized partition LP for weight `alpha` over `n`
    /// records: variables `x_0 … x_{p-1}, v`, rows `m_i x_i − v ≤ −c_i`
    /// per node plus `Σ x_i = n`.
    fn build_lp(&self, n: usize, alpha: f64) -> Problem {
        let p = self.num_nodes();
        let mut costs = vec![0.0; p + 1];
        for ((c, e), t) in costs.iter_mut().zip(&self.energy).zip(&self.time) {
            *c = (1.0 - alpha) * e.k() * t.slope;
        }
        costs[p] = alpha;
        let mut lp = Problem::minimize(costs);
        for i in 0..p {
            // m_i x_i − v ≤ −c_i.
            let mut row = vec![0.0; p + 1];
            row[i] = self.time[i].slope;
            row[p] = -1.0;
            lp.constrain(row, Relation::Le, -self.time[i].intercept);
        }
        let mut sum_row = vec![1.0; p + 1];
        sum_row[p] = 0.0;
        lp.constrain(sum_row, Relation::Eq, n as f64);
        lp
    }

    /// Solve the scalarized LP for weight `alpha`, planning `n` records,
    /// optionally re-seeding a previous optimal basis `warm` (same roster,
    /// or mapped across rosters via [`map_partition_basis`]). The returned
    /// point is bit-identical to the cold (`None`) solve — an unusable warm
    /// basis deterministically falls back — and the new basis rides along
    /// for the next solve in a sweep.
    pub fn solve(
        &self,
        n: usize,
        alpha: f64,
        warm: Option<&LpBasis>,
    ) -> Result<SolvedPoint, PartitionPlanError> {
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            return Err(PartitionPlanError::BadAlpha(alpha));
        }
        let p = self.num_nodes();
        let solved = self.build_lp(n, alpha).solve_warm(warm)?;
        let mut stats = LpStats::default();
        stats.absorb(&solved);
        match solved.solution.status {
            SolveStatus::Optimal => {}
            SolveStatus::Infeasible => {
                return Err(PartitionPlanError::Degenerate("LP infeasible"))
            }
            SolveStatus::Unbounded => {
                return Err(PartitionPlanError::Degenerate("LP unbounded"))
            }
        }
        let fractional: Vec<f64> = solved.solution.x[..p].to_vec();
        Ok(SolvedPoint {
            point: self.point_from_fractional(alpha, n, fractional),
            basis: solved.basis,
            stats,
        })
    }

    /// Exact `α = 1` solution (pure makespan minimization) by
    /// waterfilling: find the level `v` with `Σ_i max(0, (v−c_i)/m_i) = N`.
    pub fn solve_het_aware(&self, n: usize) -> ParetoPoint {
        let p = self.num_nodes();
        let slopes: Vec<f64> = self
            .time
            .iter()
            .map(|f| f.slope.max(f64::MIN_POSITIVE))
            .collect();
        let demand = |v: f64| -> f64 {
            (0..p)
                .map(|i| ((v - self.time[i].intercept) / slopes[i]).max(0.0))
                .sum()
        };
        let mut lo = self
            .time
            .iter()
            .map(|f| f.intercept)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        let mut hi = lo + 1.0;
        while demand(hi) < n as f64 {
            hi = lo + (hi - lo) * 2.0;
            assert!(hi.is_finite(), "waterfilling bound escaped");
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if demand(mid) < n as f64 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let v = 0.5 * (lo + hi);
        let mut fractional: Vec<f64> = (0..p)
            .map(|i| ((v - self.time[i].intercept) / slopes[i]).max(0.0))
            .collect();
        // Normalize the tiny bisection residue so Σx = N exactly.
        let total: f64 = fractional.iter().sum();
        if total > 0.0 {
            for x in &mut fractional {
                *x *= n as f64 / total;
            }
        }
        self.point_from_fractional(1.0, n, fractional)
    }

    /// Sweep `α` values to trace the Pareto frontier (the paper's Fig. 5).
    ///
    /// A fixed grid is *not* guaranteed to produce a clean frontier: two
    /// grid points can map to plans where one dominates the other. The
    /// sweep still returns every point (callers may want the raw curve),
    /// but each dominated point now emits a structured warning event
    /// (target `pareto`) instead of passing silently; use
    /// [`crate::frontier::explore`] when a dominated-free frontier is
    /// required.
    ///
    /// Each solve re-seeds the previous alpha's optimal basis
    /// (bit-identical by contract); the aggregate solver-work tally is
    /// returned beside the points for telemetry.
    pub fn frontier(
        &self,
        n: usize,
        alphas: &[f64],
    ) -> Result<(Vec<ParetoPoint>, LpStats), PartitionPlanError> {
        let mut stats = LpStats::default();
        let mut basis: Option<LpBasis> = None;
        let mut points: Vec<ParetoPoint> = Vec::with_capacity(alphas.len());
        for &a in alphas {
            let solved = self.solve(n, a, basis.as_ref())?;
            stats.merge(&solved.stats);
            basis = solved.basis;
            points.push(solved.point);
        }
        let objectives: Vec<Vec<f64>> = points
            .iter()
            .map(|p| vec![p.predicted_makespan, p.predicted_dirty_joules])
            .collect();
        let keep = pareto_frontier(&objectives);
        for (i, p) in points.iter().enumerate() {
            if !keep.contains(&i) {
                pareto_telemetry::event::warn(
                    "pareto",
                    format!(
                        "swept point alpha={} is dominated within its own sweep \
                         (time {:.6} s, dirty {:.3} J); the fixed grid is not a \
                         frontier — use the adaptive explorer (`frontier` command)",
                        p.alpha, p.predicted_makespan, p.predicted_dirty_joules
                    ),
                );
            }
        }
        Ok((points, stats))
    }

    /// Scale-free scalarization — the normalization the paper proposes as
    /// future work ("this problem can be avoided by normalizing both the
    /// objective functions to 0-1 scale", §III-D).
    ///
    /// The raw objectives live on wildly different scales (seconds vs.
    /// joules), which is why the paper must use α = 0.999/0.995. Here both
    /// objectives are affinely mapped to `[0, 1]` using their ranges over
    /// the frontier's two extremes (`α = 1` and `α = 0`), so `alpha = 0.5`
    /// genuinely weighs time and energy equally. Internally this reduces
    /// to the raw solve with
    /// `α' = α·Δe / (α·Δe + (1−α)·Δt)` where `Δt`, `Δe` are the extreme
    /// ranges — the normalization only reweights the two linear terms.
    ///
    /// The seed basis `warm` warm-starts the `α = 1` extreme, and each
    /// internal solve chains its basis into the next, so a sweep of
    /// normalized alphas re-solves the extremes near-freely. The returned
    /// basis belongs to the final (re-weighted) solve — the right seed for
    /// the next sweep point.
    pub fn solve_normalized(
        &self,
        n: usize,
        alpha: f64,
        warm: Option<&LpBasis>,
    ) -> Result<SolvedPoint, PartitionPlanError> {
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            return Err(PartitionPlanError::BadAlpha(alpha));
        }
        let mut stats = LpStats::default();
        let fast = self.solve(n, 1.0, warm)?;
        stats.merge(&fast.stats);
        let green = self.solve(n, 0.0, fast.basis.as_ref().or(warm))?;
        stats.merge(&green.stats);
        let dt = (green.point.predicted_makespan - fast.point.predicted_makespan).abs();
        let de =
            (fast.point.predicted_dirty_joules - green.point.predicted_dirty_joules).abs();
        if dt <= f64::EPSILON || de <= f64::EPSILON {
            // Degenerate frontier (a single point): any α gives the same
            // optimum; return the time-optimal plan relabeled.
            let mut point = fast.point;
            point.alpha = alpha;
            return Ok(SolvedPoint {
                point,
                basis: fast.basis,
                stats,
            });
        }
        let raw_alpha = alpha * de / (alpha * de + (1.0 - alpha) * dt);
        let solved = self.solve(n, raw_alpha, green.basis.as_ref().or(warm))?;
        stats.merge(&solved.stats);
        let mut point = solved.point;
        point.alpha = alpha;
        Ok(SolvedPoint {
            point,
            basis: solved.basis,
            stats,
        })
    }

    fn point_from_fractional(&self, alpha: f64, n: usize, fractional: Vec<f64>) -> ParetoPoint {
        let sizes = largest_remainder_apportion(&fractional, n);
        let times = self.predicted_times(&fractional);
        ParetoPoint {
            alpha,
            predicted_makespan: times.iter().copied().fold(0.0, f64::max),
            predicted_dirty_joules: self.predicted_dirty(&fractional),
            fractional_sizes: fractional,
            sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::hypervolume;

    fn fit(slope: f64, intercept: f64) -> LinearFit {
        LinearFit {
            slope,
            intercept,
            r_squared: 1.0,
            n: 6,
        }
    }

    fn profile(draw: f64, green: f64) -> NodeEnergyProfile {
        NodeEnergyProfile {
            draw_watts: draw,
            mean_green_watts: green,
        }
    }

    /// Paper §V-A node mix: slopes ∝ 1/speed, powers 440/345/250/155 W.
    fn paper_modeler(green: [f64; 4]) -> ParetoModeler {
        let time = vec![
            fit(1e-3, 0.0),
            fit(2e-3, 0.0),
            fit(3e-3, 0.0),
            fit(4e-3, 0.0),
        ];
        let energy = vec![
            profile(440.0, green[0]),
            profile(345.0, green[1]),
            profile(250.0, green[2]),
            profile(155.0, green[3]),
        ];
        ParetoModeler::new(time, energy).unwrap()
    }

    #[test]
    fn restrict_drops_failed_nodes() {
        let m = paper_modeler([0.0; 4]);
        // Node 1 died: replan across {0, 2, 3}.
        let sub = m.restrict(&[0, 2, 3]).unwrap();
        assert_eq!(sub.num_nodes(), 3);
        let point = sub.solve_het_aware(1900);
        // x_i ∝ 1/m_i = (1, 1/3, 1/4) normalized: 12/19, 4/19, 3/19.
        assert_eq!(point.sizes, vec![1200, 400, 300]);
        assert!(m.restrict(&[0, 9]).is_err(), "out-of-range survivor");
        assert!(m.restrict(&[]).is_err(), "no survivors");
    }

    #[test]
    fn restrict_offsets_shift_work_away_from_busy_nodes() {
        let m = paper_modeler([0.0; 4]);
        // Equal-speed pair, but node 0 already has a large backlog: the
        // waterfill must give the orphans mostly to node 2 until clocks
        // level out.
        let sub = m.restrict_with_offsets(&[0, 2], &[10.0, 0.0]).unwrap();
        let point = sub.solve_het_aware(6000);
        assert!(
            point.sizes[1] > point.sizes[0],
            "idle node should absorb more orphans: {:?}",
            point.sizes
        );
        let even = m.restrict_with_offsets(&[0, 2], &[0.0, 0.0]).unwrap();
        let base = even.solve_het_aware(6000);
        assert!(point.sizes[0] < base.sizes[0]);
        assert!(m.restrict_with_offsets(&[0], &[0.0, 0.0]).is_err());
    }

    #[test]
    fn het_aware_sizes_proportional_to_speed() {
        let m = paper_modeler([0.0; 4]);
        let point = m.solve_het_aware(12_500);
        // x_i ∝ 1/m_i = (1, 1/2, 1/3, 1/4) normalized: 12/25, 6/25, 4/25, 3/25.
        assert_eq!(point.sizes.iter().sum::<usize>(), 12_500);
        assert_eq!(point.sizes, vec![6000, 3000, 2000, 1500]);
        // Perfectly balanced times.
        let times = m.predicted_times(&point.fractional_sizes);
        let spread = times.iter().copied().fold(0.0, f64::max)
            - times.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-6, "times {times:?}");
    }

    #[test]
    fn lp_at_alpha_one_matches_waterfilling() {
        let m = paper_modeler([120.0, 90.0, 200.0, 30.0]);
        let wf = m.solve_het_aware(10_000);
        let lp = m.solve(10_000, 1.0, None).unwrap().point;
        assert!(
            (wf.predicted_makespan - lp.predicted_makespan).abs()
                < 1e-6 * wf.predicted_makespan.max(1.0),
            "wf {} vs lp {}",
            wf.predicted_makespan,
            lp.predicted_makespan
        );
        for (a, b) in wf.fractional_sizes.iter().zip(&lp.fractional_sizes) {
            assert!((a - b).abs() < 1.0, "wf {a} vs lp {b}");
        }
    }

    #[test]
    fn lp_with_intercepts_matches_waterfilling() {
        let time = vec![fit(1e-3, 5.0), fit(2e-3, 1.0), fit(4e-3, 0.5)];
        let energy = vec![profile(440.0, 0.0), profile(250.0, 0.0), profile(155.0, 0.0)];
        let m = ParetoModeler::new(time, energy).unwrap();
        let wf = m.solve_het_aware(50_000);
        let lp = m.solve(50_000, 1.0, None).unwrap().point;
        assert!((wf.predicted_makespan - lp.predicted_makespan).abs() < 1e-3);
    }

    #[test]
    fn low_alpha_concentrates_on_greenest_node() {
        // Node 3 has draw 155 and green 150 => k ≈ 5, far below others.
        let m = paper_modeler([0.0, 0.0, 0.0, 150.0]);
        let point = m.solve(10_000, 0.0, None).unwrap().point;
        assert!(
            point.fractional_sizes[3] > 9_999.0,
            "all load should go to the green node: {:?}",
            point.fractional_sizes
        );
        // And the makespan is terrible — the §V-D observation.
        let het = m.solve_het_aware(10_000);
        assert!(point.predicted_makespan > 2.0 * het.predicted_makespan);
    }

    #[test]
    fn frontier_trades_time_for_energy() {
        let m = paper_modeler([20.0, 80.0, 120.0, 150.0]);
        let alphas = [1.0, 0.9999, 0.999, 0.99, 0.9, 0.5, 0.0];
        let frontier = m.frontier(20_000, &alphas).unwrap().0;
        // Monotone trends along the sweep (within tiny tolerance).
        for w in frontier.windows(2) {
            assert!(
                w[1].predicted_makespan >= w[0].predicted_makespan - 1e-9,
                "makespan must not improve as alpha decreases"
            );
            assert!(
                w[1].predicted_dirty_joules <= w[0].predicted_dirty_joules + 1e-9,
                "dirty energy must not worsen as alpha decreases"
            );
        }
        // The ends differ meaningfully.
        let first = &frontier[0];
        let last = frontier.last().unwrap();
        assert!(last.predicted_dirty_joules < first.predicted_dirty_joules);
        assert!(last.predicted_makespan > first.predicted_makespan);
    }

    #[test]
    fn equal_nodes_get_equal_shares() {
        let time = vec![fit(1e-3, 0.0); 4];
        let energy = vec![profile(250.0, 50.0); 4];
        let m = ParetoModeler::new(time, energy).unwrap();
        let point = m.solve_het_aware(1000);
        assert_eq!(point.sizes, vec![250; 4]);
    }

    #[test]
    fn sizes_always_sum_to_n() {
        let m = paper_modeler([10.0, 20.0, 30.0, 40.0]);
        for n in [1usize, 7, 100, 99_999] {
            for alpha in [1.0, 0.999, 0.5] {
                let point = m.solve(n, alpha, None).unwrap().point;
                assert_eq!(point.sizes.iter().sum::<usize>(), n, "n={n} alpha={alpha}");
                assert!(point.sizes.iter().all(|&s| s <= n));
            }
        }
    }

    #[test]
    fn pareto_optimality_no_dominating_perturbation() {
        // Perturbing mass between node pairs must not improve both
        // objectives — the Pareto-efficiency definition of §III-D.
        let m = paper_modeler([20.0, 60.0, 100.0, 140.0]);
        let point = m.solve(10_000, 0.999, None).unwrap().point;
        let base_t = point.predicted_makespan;
        let base_e = point.predicted_dirty_joules;
        let p = m.num_nodes();
        for from in 0..p {
            for to in 0..p {
                if from == to || point.fractional_sizes[from] < 50.0 {
                    continue;
                }
                let mut x = point.fractional_sizes.clone();
                x[from] -= 50.0;
                x[to] += 50.0;
                let t = m.predicted_times(&x).iter().copied().fold(0.0, f64::max);
                let e = m.predicted_dirty(&x);
                assert!(
                    t >= base_t - 1e-6 || e >= base_e - 1e-6,
                    "move {from}->{to} dominated the LP point"
                );
            }
        }
    }

    #[test]
    fn normalized_alpha_is_scale_free() {
        let m = paper_modeler([20.0, 80.0, 120.0, 150.0]);
        let n = 20_000;
        // The raw objectives differ by orders of magnitude, so raw
        // alpha=0.5 collapses to the energy extreme…
        let raw_half = m.solve(n, 0.5, None).unwrap().point;
        let green = m.solve(n, 0.0, None).unwrap().point;
        assert!((raw_half.predicted_dirty_joules - green.predicted_dirty_joules).abs() < 1e-6);
        // …whereas normalized alpha spans the frontier meaningfully.
        let fast = m.solve_normalized(n, 1.0, None).unwrap().point;
        let mid = m.solve_normalized(n, 0.5, None).unwrap().point;
        let slow = m.solve_normalized(n, 0.0, None).unwrap().point;
        assert!(fast.predicted_makespan <= mid.predicted_makespan + 1e-9);
        assert!(mid.predicted_makespan <= slow.predicted_makespan + 1e-9);
        assert!(fast.predicted_dirty_joules >= mid.predicted_dirty_joules - 1e-9);
        assert!(mid.predicted_dirty_joules >= slow.predicted_dirty_joules - 1e-9);
        // The midpoint is strictly interior on at least one objective.
        assert!(
            mid.predicted_makespan < slow.predicted_makespan
                || mid.predicted_dirty_joules < fast.predicted_dirty_joules
        );
    }

    #[test]
    fn normalized_endpoints_match_raw_extremes() {
        let m = paper_modeler([30.0, 60.0, 90.0, 140.0]);
        let n = 10_000;
        let n1 = m.solve_normalized(n, 1.0, None).unwrap().point;
        let r1 = m.solve(n, 1.0, None).unwrap().point;
        assert!((n1.predicted_makespan - r1.predicted_makespan).abs() < 1e-9);
        let n0 = m.solve_normalized(n, 0.0, None).unwrap().point;
        let r0 = m.solve(n, 0.0, None).unwrap().point;
        assert!((n0.predicted_dirty_joules - r0.predicted_dirty_joules).abs() < 1e-6);
    }

    #[test]
    fn normalized_degenerate_frontier() {
        // All nodes identical in k: time and energy optima coincide.
        let time = vec![fit(1e-3, 0.0); 3];
        let energy = vec![profile(250.0, 250.0); 3]; // k = 0 everywhere
        let m = ParetoModeler::new(time, energy).unwrap();
        let p = m.solve_normalized(999, 0.5, None).unwrap().point;
        assert_eq!(p.sizes.iter().sum::<usize>(), 999);
    }

    #[test]
    fn swept_frontier_is_nondominated_and_beats_baseline_hv() {
        let m = paper_modeler([20.0, 60.0, 100.0, 140.0]);
        let n = 50_000;
        let alphas = [1.0, 0.999, 0.995, 0.99, 0.9, 0.0];
        let frontier = m.frontier(n, &alphas).unwrap().0;
        let points: Vec<(f64, f64)> = frontier
            .iter()
            .map(|p| (p.predicted_makespan, p.predicted_dirty_joules))
            .collect();
        let vectors: Vec<Vec<f64>> = points.iter().map(|&(t, e)| vec![t, e]).collect();
        // Every swept point is on the frontier of the swept set, except
        // possibly the alpha = 1 endpoint: pure-makespan LPs can have many
        // time-optimal vertices, and the solver's pick may be weakly
        // dominated (equal time, higher energy) by the alpha -> 1 limit.
        let kept = pareto_frontier(&vectors).len();
        assert!(
            kept >= points.len() - 1,
            "kept {kept} of {} swept points",
            points.len()
        );
        // The equal-sizes baseline is dominated: adding it must not
        // increase the hypervolume.
        let equal = vec![n as f64 / 4.0; 4];
        let baseline = (
            m.predicted_times(&equal).iter().copied().fold(0.0, f64::max),
            m.predicted_dirty(&equal),
        );
        let reference = (baseline.0 * 2.0, baseline.1.abs() * 2.0 + 1.0);
        let hv_frontier = hypervolume(&points, reference);
        let mut with_base = points.clone();
        with_base.push(baseline);
        let hv_with = hypervolume(&with_base, reference);
        assert!((hv_with - hv_frontier).abs() < 1e-6 * hv_frontier.max(1.0));
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = paper_modeler([0.0; 4]);
        assert!(matches!(
            m.solve(100, 1.5, None),
            Err(PartitionPlanError::BadAlpha(_))
        ));
        assert!(matches!(
            ParetoModeler::new(vec![fit(1.0, 0.0)], vec![]),
            Err(PartitionPlanError::MismatchedInputs { .. })
        ));
    }

    #[test]
    fn negative_k_nodes_attract_load_at_low_alpha() {
        // A green-surplus node (k < 0): dumping work there *reduces* dirty
        // energy, so alpha=0 sends everything to it.
        let time = vec![fit(1e-3, 0.0), fit(1e-3, 0.0)];
        let energy = vec![profile(250.0, 50.0), profile(155.0, 300.0)];
        let m = ParetoModeler::new(time, energy).unwrap();
        let point = m.solve(1000, 0.0, None).unwrap().point;
        assert!(point.fractional_sizes[1] > 999.0);
        assert!(point.predicted_dirty_joules < 0.0);
    }
}
