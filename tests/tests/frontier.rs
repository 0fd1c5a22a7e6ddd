//! Frontier explorer: dominance-law proptests, frontier invariants, and
//! the refinement oracle (adaptive vs. coarse grid vs. dense reference
//! sweep) across seeds and thread counts.

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy as PlanStrategy};
use pareto_core::frontier::{
    dominates, explore, pareto_frontier, FrontierConfig, FrontierResult, ModelerSolver,
};
use pareto_core::pareto::ParetoModeler;
use pareto_core::partitioner::PartitionLayout;
use pareto_integration_tests::thread_counts;
use pareto_telemetry::Telemetry;
use pareto_workloads::WorkloadKind;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// S1a: dominance is a strict partial order.
// ---------------------------------------------------------------------------

/// Three same-length objective vectors of dimension 1..=4.
fn vec_triple() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..=4).prop_flat_map(|dim| {
        let v = || proptest::collection::vec(-1.0e3..1.0e3f64, dim);
        (v(), v(), v())
    })
}

proptest! {
    #[test]
    fn dominance_is_irreflexive((a, _, _) in vec_triple()) {
        prop_assert!(!dominates(&a, &a));
    }

    #[test]
    fn dominance_is_asymmetric((a, b, _) in vec_triple()) {
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    #[test]
    fn dominance_is_transitive((a, b, c) in vec_triple()) {
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }
}

// ---------------------------------------------------------------------------
// S1b: frontier-filter invariants.
// ---------------------------------------------------------------------------

/// A point cloud of fixed dimension 3, plus a permutation of its indices
/// (Fisher–Yates driven by a generated seed — deterministic per case).
fn cloud_and_permutation() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>)> {
    (
        proptest::collection::vec(proptest::collection::vec(-100.0..100.0f64, 3), 1..24),
        any::<u64>(),
    )
        .prop_map(|(pts, seed)| {
            let mut perm: Vec<usize> = (0..pts.len()).collect();
            let mut state = seed | 1;
            for i in (1..perm.len()).rev() {
                // xorshift64* — plenty for test-case shuffling.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                perm.swap(i, (state as usize) % (i + 1));
            }
            (pts, perm)
        })
}

/// The multiset of kept objective vectors, in canonical order (the filter
/// already sorts; map indices back to values for permutation comparisons).
fn kept_values(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    pareto_frontier(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

proptest! {
    #[test]
    fn frontier_has_no_internally_dominated_pair((pts, _) in cloud_and_permutation()) {
        let kept = kept_values(&pts);
        for (i, a) in kept.iter().enumerate() {
            for (j, b) in kept.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !dominates(a, b),
                        "kept point {a:?} dominates kept point {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_is_order_invariant((pts, perm) in cloud_and_permutation()) {
        let original = kept_values(&pts);
        let shuffled: Vec<Vec<f64>> = perm.iter().map(|&i| pts[i].clone()).collect();
        // Canonical ordering makes the kept-value lists directly comparable.
        prop_assert_eq!(original, kept_values(&shuffled));
    }

    #[test]
    fn frontier_is_idempotent((pts, _) in cloud_and_permutation()) {
        let once = kept_values(&pts);
        let twice = kept_values(&once);
        prop_assert_eq!(once, twice);
    }
}

// ---------------------------------------------------------------------------
// S2: the refinement oracle.
// ---------------------------------------------------------------------------

/// Fit the per-node models via the real pipeline, then hand them to the
/// bare-modeler solver (one LP per α, no placement).
fn modeler_for(seed: u64, threads: usize) -> (ParetoModeler, usize) {
    let ds = pareto_datagen::rcv1_syn(seed, 0.05);
    let cl = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    let plan = Framework::new(
        &cl,
        FrameworkConfig {
            strategy: PlanStrategy::HetAware,
            layout: PartitionLayout::Representative,
            seed,
            threads,
            ..FrameworkConfig::default()
        },
    )
    .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.1 })
    .expect("non-empty dataset");
    let fits: Vec<_> = plan
        .time_models
        .as_ref()
        .expect("het-aware plan fits time models")
        .iter()
        .map(|m| m.fit)
        .collect();
    let n = ds.len();
    (
        ParetoModeler::new(fits, plan.energy_profiles).expect("aligned models"),
        n,
    )
}

fn explore_for(modeler: &ParetoModeler, n: usize, cfg: &FrontierConfig) -> FrontierResult {
    let mut solver = ModelerSolver::new(modeler, n);
    explore(&mut solver, cfg, &Telemetry::disabled()).expect("frontier exploration")
}

#[test]
fn adaptive_refinement_beats_its_oracles() {
    let cfg = FrontierConfig::default();
    for &seed in &[11u64, 31, 2017] {
        // The plan — and therefore the fitted modeler — is deterministic
        // across thread counts (see the determinism suite), so a single
        // reference sweep per seed serves every thread count.
        let (ref_modeler, ref_n) = modeler_for(seed, 1);

        // Coarse-grid oracle: solve exactly the explorer's starting grid.
        let coarse: Vec<(f64, Vec<f64>)> = cfg
            .coarse
            .iter()
            .map(|&a| {
                let p = ref_modeler.solve(ref_n, a, None).expect("coarse solve").point;
                (a, vec![p.predicted_makespan, p.predicted_dirty_joules])
            })
            .collect();
        let coarse_vecs: Vec<Vec<f64>> = coarse.iter().map(|(_, v)| v.clone()).collect();
        let coarse_kept = pareto_frontier(&coarse_vecs);

        // Dense reference: a uniform 1000-α sweep the adaptive run must
        // never be dominated by.
        let dense: Vec<Vec<f64>> = (0..1000)
            .map(|i| {
                let a = i as f64 / 999.0;
                let p = ref_modeler.solve(ref_n, a, None).expect("dense solve").point;
                vec![p.predicted_makespan, p.predicted_dirty_joules]
            })
            .collect();

        let mut per_thread: Vec<FrontierResult> = Vec::new();
        for &threads in &thread_counts() {
            let (modeler, n) = modeler_for(seed, threads);
            let result = explore_for(&modeler, n, &cfg);

            // (a) Superset of the non-dominated coarse-grid points: every
            // coarse frontier point is matched exactly or strictly improved
            // upon by the adaptive frontier.
            for &ci in &coarse_kept {
                let c = &coarse_vecs[ci];
                let covered = result.points.iter().any(|p| {
                    let v = result.objectives.values(p);
                    v == *c || dominates(&v, c)
                });
                assert!(
                    covered,
                    "seed {seed} threads {threads}: coarse point α={} {c:?} \
                     not covered by the adaptive frontier",
                    coarse[ci].0
                );
            }

            // (b) Never dominated by the dense reference sweep.
            for p in &result.points {
                let v = result.objectives.values(p);
                let beaten = dense.iter().find(|d| dominates(d, &v));
                assert!(
                    beaten.is_none(),
                    "seed {seed} threads {threads}: adaptive point α={} {v:?} \
                     dominated by dense-sweep point {:?}",
                    p.alpha,
                    beaten
                );
            }

            // The output frontier itself is dominated-free.
            let vecs: Vec<Vec<f64>> = result
                .points
                .iter()
                .map(|p| result.objectives.values(p))
                .collect();
            assert_eq!(
                pareto_frontier(&vecs).len(),
                vecs.len(),
                "seed {seed} threads {threads}: adaptive frontier has an \
                 internally dominated point"
            );

            assert!(result.lp_solves <= cfg.max_points);
            per_thread.push(result);
        }

        // Bit-identical across thread counts.
        for pair in per_thread.windows(2) {
            assert_eq!(
                pair[0].points, pair[1].points,
                "seed {seed}: frontier diverged across thread counts"
            );
            assert_eq!(pair[0].lp_solves, pair[1].lp_solves);
            assert_eq!(pair[0].finest_gap, pair[1].finest_gap);
        }
    }
}

#[test]
fn budget_truncated_run_is_covered_by_the_full_run() {
    // FIFO refinement means a smaller budget solves a prefix of the full
    // run's α sequence, so the full frontier must match or strictly
    // improve on every truncated frontier point.
    let (modeler, n) = modeler_for(31, 1);
    let full = explore_for(&modeler, n, &FrontierConfig::default());
    let cfg = FrontierConfig {
        max_points: FrontierConfig::default().max_points / 2,
        ..FrontierConfig::default()
    };
    let truncated = explore_for(&modeler, n, &cfg);
    assert!(truncated.lp_solves <= cfg.max_points);
    assert!(truncated.lp_solves <= full.lp_solves);
    for p in &truncated.points {
        let v = truncated.objectives.values(p);
        let covered = full.points.iter().any(|q| {
            let w = full.objectives.values(q);
            w == v || dominates(&w, &v)
        });
        assert!(
            covered,
            "full run lost truncated frontier point α={} {v:?}",
            p.alpha
        );
    }
}
