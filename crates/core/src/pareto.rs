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
//! The LP has only `p + 1` variables, and [`ParetoModeler::solve`] answers
//! it exactly for every `α` and either sign of `k_i` by a walk over
//! makespan breakpoints (DESIGN.md §15). [`ParetoModeler::solve_het_aware`]
//! is the `α = 1` waterfilling of `min max_i f_i(x_i)` in which idle nodes
//! do not bind the makespan; the Het-Aware strategy and recovery at
//! `α ≥ 1` use it. `crates/core/tests/lp_oracle.rs` checks the walk
//! against the `pareto-lp` simplex and against vertex enumeration.

use pareto_energy::NodeEnergyProfile;
use pareto_stats::{largest_remainder_apportion, LinearFit};

use crate::frontier::pareto_frontier;

/// Errors from planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionPlanError {
    /// Time models and energy profiles disagree on the node count.
    MismatchedInputs { models: usize, profiles: usize },
    /// `alpha` outside `[0, 1]`.
    BadAlpha(f64),
    /// Inputs no plan can be made from: a non-finite model or profile, a
    /// negative slope, or a survivor index out of range.
    Degenerate(&'static str),
}

impl std::fmt::Display for PartitionPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionPlanError::MismatchedInputs { models, profiles } => {
                write!(f, "{models} time models vs {profiles} energy profiles")
            }
            PartitionPlanError::BadAlpha(a) => write!(f, "alpha {a} outside [0, 1]"),
            PartitionPlanError::Degenerate(m) => write!(f, "degenerate plan: {m}"),
        }
    }
}

impl std::error::Error for PartitionPlanError {}

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
/// let green = modeler.solve(900, 0.0).unwrap();
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
    /// Create a modeler; the two vectors must be node-aligned, every slope,
    /// intercept, draw and green figure finite, and every slope `≥ 0`.
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
        let finite = |v: f64| v.is_finite();
        if !time.iter().all(|f| finite(f.slope) && finite(f.intercept))
            || !energy
                .iter()
                .all(|e| finite(e.draw_watts) && finite(e.mean_green_watts))
        {
            return Err(PartitionPlanError::Degenerate(
                "non-finite time model or energy profile",
            ));
        }
        if time.iter().any(|f| f.slope < 0.0) {
            return Err(PartitionPlanError::Degenerate("negative time-model slope"));
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

    /// Solve the scalarized LP for weight `alpha`, planning `n` records,
    /// exactly, by a walk over makespan breakpoints.
    ///
    /// The LP's rows `m_i x_i − v ≤ −c_i` make every intercept bind the
    /// makespan `v`, even at `x_i = 0`, so `v ≥ c_max = max(0, max_i c_i)`.
    /// For a fixed `v` the energy term is a fractional knapsack: fill nodes
    /// in ascending `w_i = k_i·m_i` (index breaks ties), each up to its
    /// capacity `(v − c_i)/m_i` (unbounded when `m_i = 0`), until `n` is
    /// placed. That minimum `g(v)` is convex and piecewise linear in `v`,
    /// so the scalarized objective `α·v + (1−α)·g(v)` is minimized at the
    /// lowest feasible makespan or at a breakpoint `v_j`, where the `j`
    /// cheapest nodes hold exactly `n`. Each candidate is scored at its own
    /// `α·max_i f_i(x_i) + (1−α)·Σ w_i x_i`.
    ///
    /// Ties: candidates are visited in ascending makespan and the incumbent
    /// is replaced only on strict improvement. So `α = 1` returns the
    /// energy-cheapest of the time-optimal splits, and `α = 0` the fastest
    /// of the energy-optimal ones.
    pub fn solve(&self, n: usize, alpha: f64) -> Result<ParetoPoint, PartitionPlanError> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(PartitionPlanError::BadAlpha(alpha));
        }
        let fractional = self
            .walk(n as f64, alpha)
            .ok_or(PartitionPlanError::Degenerate(
                "no finite candidate makespan",
            ))?;
        Ok(self.point_from_fractional(alpha, n, fractional))
    }

    /// The breakpoint walk behind [`solve`](Self::solve): the fractional
    /// sizes of the best candidate, or `None` if no candidate scores finite.
    fn walk(&self, total: f64, alpha: f64) -> Option<Vec<f64>> {
        let p = self.num_nodes();
        let slope = |i: usize| self.time[i].slope;
        let intercept = |i: usize| self.time[i].intercept;
        let cost: Vec<f64> = (0..p).map(|i| self.energy[i].k() * slope(i)).collect();
        let mut order: Vec<usize> = (0..p).collect();
        // `partial_cmp`, not `total_cmp`: a -0.0 cost ties with 0.0. `new`
        // admits no NaN.
        order.sort_by(|&a, &b| {
            let by_cost = cost[a].partial_cmp(&cost[b]);
            by_cost.unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let c_max = (0..p).map(intercept).fold(0.0, f64::max);

        // `breakpoints[j]` is the makespan at which the `j + 1` cheapest
        // nodes hold exactly `total`. A zero-slope node holds any amount,
        // so no prefix containing it has a breakpoint.
        let mut breakpoints = Vec::with_capacity(p);
        let (mut inv, mut off) = (0.0, 0.0);
        for &i in order.iter().take_while(|&&i| slope(i) > 0.0) {
            inv += 1.0 / slope(i);
            off += intercept(i) / slope(i);
            breakpoints.push((total + off) / inv);
        }
        // The lowest feasible makespan is the all-tight breakpoint when it
        // clears `c_max`; otherwise it is `c_max`, filled cheapest-first.
        let all_tight = breakpoints.len() == p && breakpoints.last().is_some_and(|&v| v >= c_max);
        let lowest = (!all_tight).then(|| {
            let mut x = vec![0.0; p];
            let mut left = total;
            for &i in &order {
                let cap = if slope(i) > 0.0 {
                    (c_max - intercept(i)) / slope(i)
                } else {
                    f64::INFINITY
                };
                x[i] = cap.min(left);
                left -= x[i];
            }
            x
        });
        // Then every breakpoint at or above `c_max`, in ascending makespan.
        // None is compared with the lowest makespan: a steep node's
        // breakpoint can round to it and still be the optimum (see
        // `lp_oracle.rs`). Each prefix node is tight at `v`; the float residue of
        // `Σx = total` goes to the prefix node with the smallest slope,
        // where it moves the makespan least.
        let tight = |prefix: &[usize], v: f64| {
            let mut x = vec![0.0; p];
            for &i in prefix {
                x[i] = (v - intercept(i)) / slope(i);
            }
            let residue = total - prefix.iter().map(|&i| x[i]).sum::<f64>();
            let flattest = prefix
                .iter()
                .copied()
                .min_by(|&a, &b| slope(a).total_cmp(&slope(b)));
            if let Some(k) = flattest {
                x[k] = (x[k] + residue).max(0.0);
            }
            x
        };
        let walk = breakpoints
            .iter()
            .enumerate()
            .rev()
            .filter(|&(_, &v)| v >= c_max)
            .map(|(j, &v)| tight(&order[..=j], v));

        let score = |x: &[f64]| {
            let makespan = (0..p)
                .map(|i| slope(i) * x[i] + intercept(i))
                .fold(0.0, f64::max);
            let energy: f64 = (0..p).map(|i| cost[i] * x[i]).sum();
            alpha * makespan + (1.0 - alpha) * energy
        };
        let mut best: Option<(f64, Vec<f64>)> = None;
        for x in lowest.into_iter().chain(walk) {
            let s = score(&x);
            let improves = match &best {
                None => true,
                Some((b, _)) => s < *b,
            };
            if s.is_finite() && improves {
                best = Some((s, x));
            }
        }
        best.map(|(_, x)| x)
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
    pub fn frontier(
        &self,
        n: usize,
        alphas: &[f64],
    ) -> Result<Vec<ParetoPoint>, PartitionPlanError> {
        let points = alphas
            .iter()
            .map(|&a| self.solve(n, a))
            .collect::<Result<Vec<_>, _>>()?;
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
        Ok(points)
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
    pub fn solve_normalized(
        &self,
        n: usize,
        alpha: f64,
    ) -> Result<ParetoPoint, PartitionPlanError> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(PartitionPlanError::BadAlpha(alpha));
        }
        let fast = self.solve(n, 1.0)?;
        let green = self.solve(n, 0.0)?;
        let dt = (green.predicted_makespan - fast.predicted_makespan).abs();
        let de = (fast.predicted_dirty_joules - green.predicted_dirty_joules).abs();
        let mut point = if dt <= f64::EPSILON || de <= f64::EPSILON {
            // Degenerate frontier (a single point): any α gives the same
            // optimum; return the time-optimal plan relabeled.
            fast
        } else {
            self.solve(n, alpha * de / (alpha * de + (1.0 - alpha) * dt))?
        };
        point.alpha = alpha;
        Ok(point)
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
        let lp = m.solve(10_000, 1.0).unwrap();
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
        let lp = m.solve(50_000, 1.0).unwrap();
        assert!((wf.predicted_makespan - lp.predicted_makespan).abs() < 1e-3);
    }

    #[test]
    fn low_alpha_concentrates_on_greenest_node() {
        // Node 3 has draw 155 and green 150 => k ≈ 5, far below others.
        let m = paper_modeler([0.0, 0.0, 0.0, 150.0]);
        let point = m.solve(10_000, 0.0).unwrap();
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
        let frontier = m.frontier(20_000, &alphas).unwrap();
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
                let point = m.solve(n, alpha).unwrap();
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
        let point = m.solve(10_000, 0.999).unwrap();
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
        let raw_half = m.solve(n, 0.5).unwrap();
        let green = m.solve(n, 0.0).unwrap();
        assert!((raw_half.predicted_dirty_joules - green.predicted_dirty_joules).abs() < 1e-6);
        // …whereas normalized alpha spans the frontier meaningfully.
        let fast = m.solve_normalized(n, 1.0).unwrap();
        let mid = m.solve_normalized(n, 0.5).unwrap();
        let slow = m.solve_normalized(n, 0.0).unwrap();
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
        let n1 = m.solve_normalized(n, 1.0).unwrap();
        let r1 = m.solve(n, 1.0).unwrap();
        assert!((n1.predicted_makespan - r1.predicted_makespan).abs() < 1e-9);
        let n0 = m.solve_normalized(n, 0.0).unwrap();
        let r0 = m.solve(n, 0.0).unwrap();
        assert!((n0.predicted_dirty_joules - r0.predicted_dirty_joules).abs() < 1e-6);
    }

    #[test]
    fn normalized_degenerate_frontier() {
        // All nodes identical in k: time and energy optima coincide.
        let time = vec![fit(1e-3, 0.0); 3];
        let energy = vec![profile(250.0, 250.0); 3]; // k = 0 everywhere
        let m = ParetoModeler::new(time, energy).unwrap();
        let p = m.solve_normalized(999, 0.5).unwrap();
        assert_eq!(p.sizes.iter().sum::<usize>(), 999);
    }

    #[test]
    fn swept_frontier_is_nondominated_and_beats_baseline_hv() {
        let m = paper_modeler([20.0, 60.0, 100.0, 140.0]);
        let n = 50_000;
        let alphas = [1.0, 0.999, 0.995, 0.99, 0.9, 0.0];
        let frontier = m.frontier(n, &alphas).unwrap();
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
            m.solve(100, 1.5),
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
        let point = m.solve(1000, 0.0).unwrap();
        assert!(point.fractional_sizes[1] > 999.0);
        assert!(point.predicted_dirty_joules < 0.0);
    }
}
