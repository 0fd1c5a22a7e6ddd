//! Independent oracles for the partition LP's breakpoint walk
//! ([`ParetoModeler::solve`]).
//!
//! The walk is checked against two solvers that share no code with it:
//! the `pareto-lp` dense-LU simplex on the same LP, and brute-force vertex
//! enumeration for rosters of at most five nodes. Both are scored the way
//! the walk scores itself, at their own `max_i f_i(x_i)`, and neither may
//! beat the walk by more than 1e-9 relative. Instances are drawn twice:
//! well-conditioned (the estimator's range) and hostile (slopes 1e-9…1e9,
//! `N` up to 1e9, zero slopes, negative and all-zero `k`, zero green
//! power, duplicate nodes). The corners with known answers and the typed
//! errors for malformed inputs are pinned as plain tests.

use proptest::prelude::*;

use pareto_core::pareto::{ParetoModeler, PartitionPlanError};
use pareto_energy::NodeEnergyProfile;
use pareto_lp::{Problem, Relation, SolveStatus};
use pareto_stats::LinearFit;

/// How far an oracle may beat the walk, relative to the objective's
/// magnitude.
const TOL: f64 = 1e-9;

/// One LP instance in raw form, node-aligned: `f_i(x) = m_i·x + c_i` and
/// `k_i = draw_i − green_i`.
#[derive(Debug, Clone)]
struct Instance {
    slopes: Vec<f64>,
    intercepts: Vec<f64>,
    draws: Vec<f64>,
    greens: Vec<f64>,
}

impl Instance {
    fn p(&self) -> usize {
        self.slopes.len()
    }

    /// Energy cost per record, `w_i = k_i·m_i`.
    fn cost(&self, i: usize) -> f64 {
        (self.draws[i] - self.greens[i]) * self.slopes[i]
    }

    fn modeler(&self) -> ParetoModeler {
        let time = (0..self.p())
            .map(|i| LinearFit {
                slope: self.slopes[i],
                intercept: self.intercepts[i],
                r_squared: 1.0,
                n: 6,
            })
            .collect();
        let energy = (0..self.p())
            .map(|i| NodeEnergyProfile {
                draw_watts: self.draws[i],
                mean_green_watts: self.greens[i],
            })
            .collect();
        ParetoModeler::new(time, energy).expect("well-formed instance")
    }

    fn makespan(&self, x: &[f64]) -> f64 {
        (0..self.p())
            .map(|i| self.slopes[i] * x[i] + self.intercepts[i])
            .fold(0.0, f64::max)
    }

    /// `α·max_i f_i(x_i) + (1−α)·Σ w_i x_i`: the LP's objective at the
    /// smallest makespan `x` admits.
    fn objective(&self, x: &[f64], alpha: f64) -> f64 {
        let energy: f64 = (0..self.p()).map(|i| self.cost(i) * x[i]).sum();
        alpha * self.makespan(x) + (1.0 - alpha) * energy
    }

    /// The objective with every energy term counted positive: the scale a
    /// relative comparison is taken against.
    fn magnitude(&self, x: &[f64], alpha: f64) -> f64 {
        let energy: f64 = (0..self.p()).map(|i| (self.cost(i) * x[i]).abs()).sum();
        alpha * self.makespan(x).abs() + (1.0 - alpha) * energy
    }

    /// The scalarized partition LP over `x_0 … x_{p-1}, v`: rows
    /// `m_i x_i − v ≤ −c_i` per node plus `Σ x_i = n`; cost
    /// `(1−α)·w_i` on `x_i` and `α` on `v`.
    fn build_lp(&self, n: usize, alpha: f64) -> Problem {
        let p = self.p();
        let mut costs: Vec<f64> = (0..p).map(|i| (1.0 - alpha) * self.cost(i)).collect();
        costs.push(alpha);
        let mut lp = Problem::minimize(costs);
        for i in 0..p {
            let mut row = vec![0.0; p + 1];
            row[i] = self.slopes[i];
            row[p] = -1.0;
            lp.constrain(row, Relation::Le, -self.intercepts[i]);
        }
        let mut sum_row = vec![1.0; p + 1];
        sum_row[p] = 0.0;
        lp.constrain(sum_row, Relation::Eq, n as f64);
        lp
    }

    /// `x` clamped to `x ≥ 0` if it is a partition of `n` up to float
    /// error, `None` otherwise.
    fn feasible(&self, x: &[f64], n: usize) -> Option<Vec<f64>> {
        let total = n as f64;
        let slack = 1e-9 * total.max(1.0);
        if x.iter().any(|&xi| !xi.is_finite() || xi < -slack) {
            return None;
        }
        let x: Vec<f64> = x.iter().map(|&xi| xi.max(0.0)).collect();
        ((x.iter().sum::<f64>() - total).abs() <= slack).then_some(x)
    }
}

/// The walk's fractional sizes, checked to be a partition of `n`.
fn walk(inst: &Instance, n: usize, alpha: f64) -> Vec<f64> {
    let point = inst
        .modeler()
        .solve(n, alpha)
        .expect("the walk always answers");
    assert_eq!(
        point.sizes.iter().sum::<usize>(),
        n,
        "integer sizes cover n"
    );
    inst.feasible(&point.fractional_sizes, n)
        .unwrap_or_else(|| {
            panic!(
                "walk left the simplex Σx = {n}: {:?}",
                point.fractional_sizes
            )
        })
}

/// The simplex's answer scored at its own makespan, or `None` when it
/// fails or returns something that is not a partition of `n` (the hostile
/// corners can do either).
fn simplex(inst: &Instance, n: usize, alpha: f64) -> Option<Vec<f64>> {
    let solution = inst.build_lp(n, alpha).solve().ok()?;
    if solution.status != SolveStatus::Optimal {
        return None;
    }
    inst.feasible(&solution.x[..inst.p()], n)
}

/// Every vertex of the LP's feasible region, by brute force: `Σx = n` plus
/// each choice of `p` more tight constraints among the `p` rows, the `p`
/// bounds `x_i ≥ 0` and `v ≥ 0`. A vertex counts only if its rows hold
/// relative to their own terms — an absolute tolerance admits infeasible
/// vertices once slopes span 1e-9…1e9 — and `x, v ≥ 0` after clamping.
fn vertices(inst: &Instance, n: usize) -> Vec<Vec<f64>> {
    let p = inst.p();
    let d = p + 1;
    // Constraint `c` as an equation over (x, v): rows 0..p, x_i = 0 for
    // p..2p, v = 0 at 2p.
    let equation = |c: usize| -> (Vec<f64>, f64) {
        let mut a = vec![0.0; d];
        if c < p {
            a[c] = inst.slopes[c];
            a[p] = -1.0;
            (a, -inst.intercepts[c])
        } else if c < 2 * p {
            a[c - p] = 1.0;
            (a, 0.0)
        } else {
            a[p] = 1.0;
            (a, 0.0)
        }
    };
    let mut out = Vec::new();
    for mask in 0u32..(1 << (2 * p + 1)) {
        if mask.count_ones() as usize != p {
            continue;
        }
        let mut rows: Vec<(Vec<f64>, f64)> = (0..2 * p + 1)
            .filter(|c| mask & (1 << c) != 0)
            .map(equation)
            .collect();
        let mut sum = vec![1.0; d];
        sum[p] = 0.0;
        rows.push((sum, n as f64));
        let Some(z) = gauss(rows) else { continue };
        let (x, v) = (&z[..p], z[p]);
        let Some(x) = inst.feasible(x, n) else {
            continue;
        };
        if v < -1e-9 * v.abs().max(1.0) {
            continue;
        }
        let v = v.max(0.0);
        let rows_hold = (0..p).all(|i| {
            let lhs = inst.slopes[i] * x[i] + inst.intercepts[i];
            lhs - v <= 1e-9 * (lhs.abs() + inst.intercepts[i].abs() + v)
        });
        if rows_hold {
            out.push(x);
        }
    }
    out
}

/// Solve a square system by Gaussian elimination with partial pivoting;
/// `None` when it is singular or the answer is not finite.
fn gauss(mut rows: Vec<(Vec<f64>, f64)>) -> Option<Vec<f64>> {
    let d = rows.len();
    for col in 0..d {
        let pivot =
            (col..d).max_by(|&a, &b| rows[a].0[col].abs().total_cmp(&rows[b].0[col].abs()))?;
        if rows[pivot].0[col] == 0.0 {
            return None;
        }
        rows.swap(col, pivot);
        for r in col + 1..d {
            let factor = rows[r].0[col] / rows[col].0[col];
            if factor != 0.0 {
                for c in col..d {
                    rows[r].0[c] -= factor * rows[col].0[c];
                }
                rows[r].1 -= factor * rows[col].1;
            }
        }
    }
    let mut z = vec![0.0; d];
    for r in (0..d).rev() {
        let tail: f64 = (r + 1..d).map(|c| rows[r].0[c] * z[c]).sum();
        z[r] = (rows[r].1 - tail) / rows[r].0[r];
    }
    z.iter().all(|v| v.is_finite()).then_some(z)
}

/// Assert `oracle` does not beat `walked` by more than [`TOL`] relative.
fn assert_not_beaten(
    inst: &Instance,
    n: usize,
    alpha: f64,
    walked: &[f64],
    oracle: &[f64],
    who: &str,
) {
    let (w, o) = (inst.objective(walked, alpha), inst.objective(oracle, alpha));
    let scale = inst
        .magnitude(walked, alpha)
        .max(inst.magnitude(oracle, alpha));
    assert!(
        w - o <= TOL * scale,
        "{who} beats the walk by {:.3e} relative (walk {w}, {who} {o}) at n={n} alpha={alpha}\n\
         {inst:?}\nwalk {walked:?}\n{who} {oracle:?}",
        (w - o) / scale
    );
}

fn check(inst: &Instance, n: usize, alpha: f64) {
    let walked = walk(inst, n, alpha);
    if let Some(x) = simplex(inst, n, alpha) {
        assert_not_beaten(inst, n, alpha, &walked, &x, "simplex");
    }
    if inst.p() <= 5 {
        let best = vertices(inst, n).into_iter().min_by(|a, b| {
            inst.objective(a, alpha)
                .total_cmp(&inst.objective(b, alpha))
        });
        if let Some(x) = best {
            assert_not_beaten(inst, n, alpha, &walked, &x, "vertex enumeration");
        }
    }
}

/// Instances in the estimator's range.
fn well_conditioned(max_nodes: usize) -> impl Strategy<Value = Instance> {
    (1usize..=max_nodes).prop_flat_map(|p| {
        (
            proptest::collection::vec(1e-5f64..1e-2, p),
            proptest::collection::vec(0.0f64..10.0, p),
            proptest::collection::vec(100.0f64..500.0, p),
            proptest::collection::vec(0.0f64..400.0, p),
        )
            .prop_map(|(slopes, intercepts, draws, greens)| Instance {
                slopes,
                intercepts,
                draws,
                greens,
            })
    })
}

/// Numerically hostile instances. Per node: slope `10^e`, `e ∈ [-9, 9]`,
/// or exactly 0 (1 in 8); intercept 0 (1 in 2) or `10^e`, `e ∈ [-3, 3]`;
/// green 0 (1 in 4), equal to the draw (1 in 4), or anywhere up to
/// twice the draw, so `k` takes either sign. Then per instance: node 1
/// duplicates node 0 (1 in 4), or every `k` is zeroed (1 in 8).
fn hostile(max_nodes: usize) -> impl Strategy<Value = Instance> {
    (1usize..=max_nodes, 0u32..8).prop_flat_map(|(p, shape)| {
        proptest::collection::vec(hostile_node(), p).prop_map(move |mut nodes| {
            if shape < 2 && nodes.len() > 1 {
                nodes[1] = nodes[0];
            } else if shape == 2 {
                for n in &mut nodes {
                    n.3 = n.2;
                }
            }
            Instance {
                slopes: nodes.iter().map(|n| n.0).collect(),
                intercepts: nodes.iter().map(|n| n.1).collect(),
                draws: nodes.iter().map(|n| n.2).collect(),
                greens: nodes.iter().map(|n| n.3).collect(),
            }
        })
    })
}

/// One hostile node as `(slope, intercept, draw, green)`.
fn hostile_node() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    let slope = (0u32..8, -9.0f64..9.0);
    let intercept = (0u32..2, -3.0f64..3.0);
    let power = (1.0f64..500.0, 0u32..4, 0.0f64..2.0);
    (slope, intercept, power).prop_map(|((zero, e), (flat, ce), (draw, green_kind, g))| {
        let slope = if zero == 0 { 0.0 } else { 10f64.powf(e) };
        let intercept = if flat == 0 { 0.0 } else { 10f64.powf(ce) };
        let green = match green_kind {
            0 => 0.0,
            1 => draw,
            _ => g * draw,
        };
        (slope, intercept, draw, green)
    })
}

/// `α` drawn densely near 1, where the paper's runs live, plus both ends.
fn alpha() -> impl Strategy<Value = f64> {
    (0u32..4, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
        0 => 1.0,
        1 => 0.0,
        2 => 1.0 - 10f64.powf(-6.0 * u),
        _ => u,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_oracle_beats_the_walk_on_well_conditioned_instances(
        inst in well_conditioned(8),
        n in 0usize..1_000_000,
        alpha in alpha(),
    ) {
        check(&inst, n, alpha);
    }

    #[test]
    fn no_oracle_beats_the_walk_on_hostile_instances(
        inst in hostile(5),
        n_exp in 0.0f64..9.0,
        alpha in alpha(),
    ) {
        check(&inst, 10f64.powf(n_exp) as usize, alpha);
    }
}

fn instance(nodes: &[(f64, f64, f64, f64)]) -> Instance {
    Instance {
        slopes: nodes.iter().map(|n| n.0).collect(),
        intercepts: nodes.iter().map(|n| n.1).collect(),
        draws: nodes.iter().map(|n| n.2).collect(),
        greens: nodes.iter().map(|n| n.3).collect(),
    }
}

#[test]
fn pure_makespan_without_intercepts_is_proportional_to_speed() {
    let inst = instance(&[
        (1e-3, 0.0, 440.0, 0.0),
        (3e-3, 0.0, 345.0, 300.0),
        (7e-4, 0.0, 250.0, 50.0),
        (2e-2, 0.0, 155.0, 155.0),
    ]);
    for n in [1usize, 997, 1_000_000, 1_000_000_000] {
        let x = walk(&inst, n, 1.0);
        let level = x[0] * inst.slopes[0];
        for (xi, m) in x.iter().zip(&inst.slopes) {
            assert!(
                (xi * m - level).abs() <= 1e-12 * level,
                "x_i·m_i not level: {x:?}"
            );
        }
        check(&inst, n, 1.0);
    }
}

#[test]
fn pure_energy_puts_everything_on_the_strictly_cheapest_node() {
    // w = k·m: 440e-3, -50·2e-3 = -0.1 (cheapest), 0, 2e-4.
    let inst = instance(&[
        (1e-3, 0.5, 440.0, 0.0),
        (2e-3, 2.0, 100.0, 150.0),
        (5e-3, 0.0, 155.0, 155.0),
        (1e-6, 1.0, 200.0, 0.0),
    ]);
    let point = inst.modeler().solve(50_000, 0.0).unwrap();
    assert_eq!(point.sizes, vec![0, 50_000, 0, 0]);
    check(&inst, 50_000, 0.0);
}

#[test]
fn an_intercept_tie_at_pure_makespan_goes_to_the_cheapest_fill() {
    // Node 0's intercept alone sets the makespan (10 s): nodes 1 and 2
    // can each take all 100 records inside it. Every such split is
    // time-optimal; the walk returns the energy-cheapest, all on node 2.
    let inst = instance(&[
        (1.0, 10.0, 400.0, 0.0),
        (1e-2, 0.0, 300.0, 0.0),
        (1e-2, 0.0, 100.0, 0.0),
    ]);
    let point = inst.modeler().solve(100, 1.0).unwrap();
    assert_eq!(point.sizes, vec![0, 0, 100]);
    assert_eq!(point.predicted_makespan, 10.0);
    check(&inst, 100, 1.0);
}

#[test]
fn zero_slopes_zero_k_zero_green_and_duplicates_are_solved() {
    let cases = [
        // A zero-slope node absorbs any amount inside its intercept.
        instance(&[
            (0.0, 3.0, 200.0, 0.0),
            (1e-3, 0.0, 300.0, 0.0),
            (2e-3, 1.0, 100.0, 50.0),
        ]),
        // All-zero k: energy is flat, only time matters.
        instance(&[(1e-3, 0.0, 200.0, 200.0), (4e-3, 0.5, 100.0, 100.0)]),
        // Zero green power everywhere.
        instance(&[
            (1e-3, 0.0, 440.0, 0.0),
            (2e-3, 0.0, 155.0, 0.0),
            (5e-4, 2.0, 345.0, 0.0),
        ]),
        // Duplicate nodes, negative k.
        instance(&[
            (1e-3, 0.0, 100.0, 300.0),
            (1e-3, 0.0, 100.0, 300.0),
            (2e-3, 0.0, 440.0, 0.0),
        ]),
    ];
    for inst in &cases {
        for alpha in [0.0, 0.5, 0.995, 0.999, 1.0] {
            for n in [0usize, 1, 12_345, 1_000_000_000] {
                check(inst, n, alpha);
            }
        }
    }
}

#[test]
fn slopes_across_eighteen_decades_and_a_billion_records() {
    let inst = instance(&[
        (1e-9, 0.0, 440.0, 10.0),
        (1e9, 0.0, 155.0, 0.0),
        (1.0, 5.0, 250.0, 300.0),
        (1e-3, 1e-3, 345.0, 100.0),
    ]);
    for alpha in [0.0, 1e-3, 0.5, 0.999, 1.0 - 1e-9, 1.0] {
        for n in [1usize, 1_000, 1_000_000_000] {
            check(&inst, n, alpha);
        }
    }
}

#[test]
fn a_breakpoint_within_float_resolution_of_the_lowest_makespan_is_still_a_candidate() {
    // The steep node adds 1e-9 to Σ1/m = 1e9, below its resolution, so the
    // cheap node's own breakpoint equals the all-tight one in floats. Yet
    // the steep node is so expensive (w = 5e11 J per record) that its
    // 1e-15-record share at the all-tight level more than doubles the
    // energy: that breakpoint must not be skipped as "not above" the
    // lowest makespan.
    let inst = instance(&[(1e-9, 0.0, 440.0, 0.0), (1e9, 0.0, 500.0, 0.0)]);
    for alpha in [0.0, 0.5, 0.999] {
        check(&inst, 1_000, alpha);
        let x = walk(&inst, 1_000, alpha);
        assert_eq!(
            x[1], 0.0,
            "alpha {alpha}: the steep node must stay idle: {x:?}"
        );
    }
}

#[test]
fn malformed_inputs_are_typed_errors() {
    let fit = |slope: f64, intercept: f64| LinearFit {
        slope,
        intercept,
        r_squared: 1.0,
        n: 6,
    };
    let profile = |draw_watts: f64, mean_green_watts: f64| NodeEnergyProfile {
        draw_watts,
        mean_green_watts,
    };
    let degenerate = |time: Vec<LinearFit>, energy: Vec<NodeEnergyProfile>| {
        matches!(
            ParetoModeler::new(time, energy),
            Err(PartitionPlanError::Degenerate(_))
        )
    };
    assert!(degenerate(
        vec![fit(f64::NAN, 0.0)],
        vec![profile(100.0, 0.0)]
    ));
    assert!(degenerate(
        vec![fit(1e-3, f64::NAN)],
        vec![profile(100.0, 0.0)]
    ));
    assert!(degenerate(
        vec![fit(1e-3, 0.0)],
        vec![profile(f64::NAN, 0.0)]
    ));
    assert!(degenerate(
        vec![fit(1e-3, 0.0)],
        vec![profile(100.0, f64::INFINITY)]
    ));
    assert!(degenerate(vec![fit(-1e-3, 0.0)], vec![profile(100.0, 0.0)]));
    let m = ParetoModeler::new(vec![fit(1e-3, 0.0)], vec![profile(100.0, 0.0)]).unwrap();
    for alpha in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
        assert!(matches!(
            m.solve(10, alpha),
            Err(PartitionPlanError::BadAlpha(_))
        ));
        assert!(matches!(
            m.solve_normalized(10, alpha),
            Err(PartitionPlanError::BadAlpha(_))
        ));
    }
}
