//! Property-based tests for the simplex solver.
//!
//! Strategy: generate random LPs with a known feasible point, then check
//! the solver's fundamental guarantees — returned points are feasible, and
//! no randomly sampled feasible point beats the reported optimum.

use proptest::prelude::*;

use pareto_lp::{Problem, Relation, SolveStatus, StartKind};

/// Costs, ≤-rows, and a box bound describing a random LP.
type LpSpec = (Vec<f64>, Vec<(Vec<f64>, f64)>, f64);

/// A random ≤-constrained LP that is always feasible (x = 0 works) and
/// bounded (we add a box constraint on every variable).
fn bounded_lp() -> impl Strategy<Value = LpSpec> {
    (2usize..6).prop_flat_map(|nvars| {
        let costs = proptest::collection::vec(-10.0f64..10.0, nvars);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(-5.0f64..5.0, nvars), 0.5f64..50.0),
            1..6,
        );
        let box_bound = 1.0f64..100.0;
        (costs, rows, box_bound)
    })
}

fn build(costs: &[f64], rows: &[(Vec<f64>, f64)], bound: f64) -> Problem {
    let mut p = Problem::minimize(costs.to_vec());
    for (coeffs, rhs) in rows {
        p.constrain(coeffs.clone(), Relation::Le, *rhs);
    }
    for i in 0..costs.len() {
        let mut row = vec![0.0; costs.len()];
        row[i] = 1.0;
        p.constrain(row, Relation::Le, bound);
    }
    p
}

fn feasible(x: &[f64], rows: &[(Vec<f64>, f64)], bound: f64) -> bool {
    if x.iter().any(|&v| v < -1e-7 || v > bound + 1e-7) {
        return false;
    }
    rows.iter()
        .all(|(coeffs, rhs)| coeffs.iter().zip(x).map(|(c, v)| c * v).sum::<f64>() <= rhs + 1e-7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver always reports Optimal on these (feasible, bounded) LPs,
    /// and its solution satisfies every constraint.
    #[test]
    fn solution_is_feasible((costs, rows, bound) in bounded_lp()) {
        let sol = build(&costs, &rows, bound).solve().unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(feasible(&sol.x, &rows, bound), "infeasible point {:?}", sol.x);
        // Objective matches c.x.
        let cx: f64 = costs.iter().zip(&sol.x).map(|(c, v)| c * v).sum();
        prop_assert!((cx - sol.objective).abs() < 1e-6 * (1.0 + cx.abs()));
    }

    /// No sampled feasible point improves on the reported optimum.
    #[test]
    fn no_sampled_point_dominates(
        (costs, rows, bound) in bounded_lp(),
        samples in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 2..6), 32),
    ) {
        let sol = build(&costs, &rows, bound).solve().unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        for s in samples {
            if s.len() != costs.len() {
                continue;
            }
            let x: Vec<f64> = s.iter().map(|v| v * bound).collect();
            if feasible(&x, &rows, bound) {
                let obj: f64 = costs.iter().zip(&x).map(|(c, v)| c * v).sum();
                prop_assert!(
                    obj >= sol.objective - 1e-6 * (1.0 + obj.abs()),
                    "sampled {} beats reported optimum {}", obj, sol.objective
                );
            }
        }
    }

    /// Scaling the objective scales the optimum; the argmin is unchanged
    /// (up to degenerate ties, which we detect via objective equality).
    #[test]
    fn objective_scaling((costs, rows, bound) in bounded_lp(), k in 0.1f64..10.0) {
        let base = build(&costs, &rows, bound).solve().unwrap();
        let scaled_costs: Vec<f64> = costs.iter().map(|c| c * k).collect();
        let scaled = build(&scaled_costs, &rows, bound).solve().unwrap();
        prop_assert!(
            (scaled.objective - k * base.objective).abs()
                < 1e-5 * (1.0 + scaled.objective.abs()),
            "scaled {} vs k*base {}", scaled.objective, k * base.objective
        );
    }

    /// Adding a redundant constraint (implied by an existing one) never
    /// changes the optimum.
    #[test]
    fn redundant_constraint_no_effect((costs, rows, bound) in bounded_lp()) {
        let base = build(&costs, &rows, bound).solve().unwrap();
        let mut p = build(&costs, &rows, bound);
        // x_0 <= 2*bound is implied by the box constraint.
        let mut row = vec![0.0; costs.len()];
        row[0] = 1.0;
        p.constrain(row, Relation::Le, bound * 2.0);
        let with_redundant = p.solve().unwrap();
        prop_assert!(
            (base.objective - with_redundant.objective).abs()
                < 1e-6 * (1.0 + base.objective.abs())
        );
    }

    /// The partitioning LP shape (the one the framework solves) always has
    /// an optimum whose sizes sum to N, for random slopes/intercepts/k.
    #[test]
    fn partitioning_lp_always_solvable(
        slopes in proptest::collection::vec(1e-6f64..1e-2, 2..10),
        intercepts in proptest::collection::vec(0.0f64..5.0, 2..10),
        ks in proptest::collection::vec(-200.0f64..400.0, 2..10),
        alpha in 0.0f64..1.0,
        n in 1usize..100_000,
    ) {
        let p = slopes.len().min(intercepts.len()).min(ks.len());
        let mut costs = vec![0.0; p + 1];
        for i in 0..p {
            costs[i] = (1.0 - alpha) * ks[i] * slopes[i];
        }
        costs[p] = alpha;
        let mut lp = Problem::minimize(costs);
        for i in 0..p {
            let mut row = vec![0.0; p + 1];
            row[i] = slopes[i];
            row[p] = -1.0;
            lp.constrain(row, Relation::Le, -intercepts[i]);
        }
        let mut sum_row = vec![1.0; p + 1];
        sum_row[p] = 0.0;
        lp.constrain(sum_row, Relation::Eq, n as f64);
        let sol = lp.solve().unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        let total: f64 = sol.x[..p].iter().sum();
        prop_assert!((total - n as f64).abs() < 1e-4 * n as f64 + 1e-6,
            "sizes sum {} != {}", total, n);
        prop_assert!(sol.x[..p].iter().all(|&x| x >= -1e-7));
        // v >= f_i(x_i) for all i.
        for i in 0..p {
            let f = slopes[i] * sol.x[i] + intercepts[i];
            prop_assert!(sol.x[p] >= f - 1e-5 * (1.0 + f.abs()));
        }
    }

    /// Warm-started solves are bit-identical to cold solves: seeding any
    /// random feasible LP with its own optimal basis, or with the basis of
    /// an objective-perturbed neighbour, returns exactly the same
    /// `(status, x, objective)` as solving from scratch.
    #[test]
    fn warm_start_is_bit_identical_to_cold(
        (costs, rows, bound) in bounded_lp(),
        perturb in proptest::collection::vec(-1.0f64..1.0, 6),
    ) {
        let cold = build(&costs, &rows, bound).solve_cold().unwrap();
        prop_assert_eq!(cold.solution.status, SolveStatus::Optimal);
        let basis = cold.basis.clone().expect("optimal cold solve has a basis");

        // Re-solving the identical problem from its own basis.
        let warm = build(&costs, &rows, bound).solve_from(&basis).unwrap();
        prop_assert_eq!(warm.solution.status, cold.solution.status);
        prop_assert_eq!(warm.solution.x.clone(), cold.solution.x.clone());
        prop_assert!(warm.solution.objective.to_bits() == cold.solution.objective.to_bits(),
            "objective bits differ: warm {} vs cold {}",
            warm.solution.objective, cold.solution.objective);

        // Perturb the objective and seed with the unperturbed basis: still
        // bit-identical to that perturbed problem's cold solve.
        let shifted: Vec<f64> = costs
            .iter()
            .enumerate()
            .map(|(i, c)| c + perturb.get(i).copied().unwrap_or(0.0))
            .collect();
        let cold2 = build(&shifted, &rows, bound).solve_cold().unwrap();
        let warm2 = build(&shifted, &rows, bound).solve_from(&basis).unwrap();
        prop_assert_eq!(warm2.solution.status, cold2.solution.status);
        prop_assert_eq!(warm2.solution.x.clone(), cold2.solution.x.clone());
        prop_assert!(warm2.solution.objective.to_bits() == cold2.solution.objective.to_bits(),
            "perturbed objective bits differ: warm {} vs cold {}",
            warm2.solution.objective, cold2.solution.objective);
        prop_assert!(matches!(warm2.start, StartKind::Warm | StartKind::WarmFallback));
    }

    /// The partition LP's α sweep — the framework's hot path — stays
    /// bit-identical under basis chaining across the whole sweep.
    #[test]
    fn partition_sweep_warm_chain_matches_cold(
        slopes in proptest::collection::vec(1e-6f64..1e-2, 2..8),
        intercepts in proptest::collection::vec(0.0f64..5.0, 2..8),
        ks in proptest::collection::vec(-200.0f64..400.0, 2..8),
        n in 1usize..50_000,
    ) {
        let p = slopes.len().min(intercepts.len()).min(ks.len());
        let build_partition = |alpha: f64| {
            let mut costs = vec![0.0; p + 1];
            for i in 0..p {
                costs[i] = (1.0 - alpha) * ks[i] * slopes[i];
            }
            costs[p] = alpha;
            let mut lp = Problem::minimize(costs);
            for i in 0..p {
                let mut row = vec![0.0; p + 1];
                row[i] = slopes[i];
                row[p] = -1.0;
                lp.constrain(row, Relation::Le, -intercepts[i]);
            }
            let mut sum_row = vec![1.0; p + 1];
            sum_row[p] = 0.0;
            lp.constrain(sum_row, Relation::Eq, n as f64);
            lp
        };
        let mut basis = None;
        for step in 0..=4 {
            let alpha = step as f64 / 4.0;
            let cold = build_partition(alpha).solve_cold().unwrap();
            let warm = build_partition(alpha).solve_warm(basis.as_ref()).unwrap();
            prop_assert_eq!(warm.solution.status, cold.solution.status);
            prop_assert_eq!(warm.solution.x.clone(), cold.solution.x.clone());
            prop_assert!(
                warm.solution.objective.to_bits() == cold.solution.objective.to_bits()
            );
            basis = warm.basis;
        }
    }
}
