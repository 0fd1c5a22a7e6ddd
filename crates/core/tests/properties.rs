//! Property-based tests for the Pareto modeler and partitioner: the LP and
//! the closed-form waterfilling cross-validate each other on random
//! instances, plans always cover the data, and scalarization points are
//! never dominated.

use proptest::prelude::*;

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy as PartitionStrategy};
use pareto_core::frontier::{dominates, hypervolume, pareto_frontier};
use pareto_core::pareto::ParetoModeler;
use pareto_core::partitioner::{DataPartitioner, PartitionLayout};
use pareto_core::{Stratifier, StratifierConfig};
use pareto_datagen::generators::{gen_text, TextGenConfig};
use pareto_energy::NodeEnergyProfile;
use pareto_stats::LinearFit;
use pareto_workloads::WorkloadKind;

fn modeler_inputs() -> impl Strategy<Value = (Vec<LinearFit>, Vec<NodeEnergyProfile>)> {
    (2usize..10).prop_flat_map(|p| {
        let slopes = proptest::collection::vec(1e-5f64..1e-2, p);
        let intercepts = proptest::collection::vec(0.0f64..10.0, p);
        let draws = proptest::collection::vec(100.0f64..500.0, p);
        let greens = proptest::collection::vec(0.0f64..400.0, p);
        (slopes, intercepts, draws, greens).prop_map(|(s, i, d, g)| {
            let fits = s
                .iter()
                .zip(&i)
                .map(|(&slope, &intercept)| LinearFit {
                    slope,
                    intercept,
                    r_squared: 1.0,
                    n: 6,
                })
                .collect();
            let profiles = d
                .iter()
                .zip(&g)
                .map(|(&draw_watts, &mean_green_watts)| NodeEnergyProfile {
                    draw_watts,
                    mean_green_watts,
                })
                .collect();
            (fits, profiles)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Waterfilling (closed form) and the LP agree at α = 1 on arbitrary
    /// instances — two independent solvers cross-validating each other.
    #[test]
    fn waterfilling_matches_lp((fits, profiles) in modeler_inputs(), n in 100usize..1_000_000) {
        let m = ParetoModeler::new(fits, profiles).unwrap();
        let wf = m.solve_het_aware(n);
        let lp = m.solve(n, 1.0).unwrap();
        let tol = 1e-5 * wf.predicted_makespan.max(1.0);
        prop_assert!(
            (wf.predicted_makespan - lp.predicted_makespan).abs() < tol,
            "wf {} vs lp {}", wf.predicted_makespan, lp.predicted_makespan
        );
    }

    /// Integer sizes always sum to N and respect non-negativity for any α.
    #[test]
    fn sizes_partition_n(
        (fits, profiles) in modeler_inputs(),
        n in 1usize..500_000,
        alpha_pct in 0u32..=1000,
    ) {
        let alpha = alpha_pct as f64 / 1000.0;
        let m = ParetoModeler::new(fits, profiles).unwrap();
        let point = m.solve(n, alpha).unwrap();
        prop_assert_eq!(point.sizes.iter().sum::<usize>(), n);
        prop_assert!(point.fractional_sizes.iter().all(|&x| x >= -1e-7));
    }

    /// Scalarization optima are Pareto-efficient: no bulk reassignment of
    /// mass between two nodes improves both objectives.
    #[test]
    fn scalarized_point_not_dominated(
        (fits, profiles) in modeler_inputs(),
        alpha_pct in 1u32..1000,
    ) {
        let alpha = alpha_pct as f64 / 1000.0;
        let n = 100_000usize;
        let m = ParetoModeler::new(fits, profiles).unwrap();
        let point = m.solve(n, alpha).unwrap();
        let t0 = point.predicted_makespan;
        let e0 = point.predicted_dirty_joules;
        let p = m.num_nodes();
        let delta = n as f64 / 100.0;
        for from in 0..p {
            if point.fractional_sizes[from] < delta {
                continue;
            }
            for to in 0..p {
                if to == from {
                    continue;
                }
                let mut x = point.fractional_sizes.clone();
                x[from] -= delta;
                x[to] += delta;
                let t = m.predicted_times(&x).iter().copied().fold(0.0, f64::max);
                let e = m.predicted_dirty(&x);
                let eps_t = 1e-7 * (1.0 + t0.abs());
                let eps_e = 1e-7 * (1.0 + e0.abs());
                prop_assert!(
                    t >= t0 - eps_t || e >= e0 - eps_e,
                    "perturbation {}->{} dominates: t {} < {}, e {} < {}",
                    from, to, t, t0, e, e0
                );
            }
        }
    }

    /// Pareto filtering is sound (kept points are mutually non-dominated)
    /// and idempotent; hypervolume is monotone under adding points.
    #[test]
    fn frontier_utilities_axioms(
        raw in proptest::collection::vec((0.1f64..100.0, 0.1f64..100.0), 1..40),
    ) {
        let vectors: Vec<Vec<f64>> = raw.iter().map(|&(t, e)| vec![t, e]).collect();
        let keep = pareto_frontier(&vectors);
        prop_assert!(!keep.is_empty());
        // Soundness: no kept point strictly dominated by another kept one.
        for &i in &keep {
            for &j in &keep {
                prop_assert!(
                    !dominates(&vectors[j], &vectors[i]),
                    "kept point {} dominated by {}", i, j
                );
            }
        }
        // Idempotence on the filtered set.
        let filtered: Vec<Vec<f64>> = keep.iter().map(|&i| vectors[i].clone()).collect();
        prop_assert_eq!(pareto_frontier(&filtered).len(), filtered.len());
        // Hypervolume monotonicity: adding points never shrinks it.
        let reference = (200.0, 200.0);
        let hv_all = hypervolume(&raw, reference);
        let hv_first = hypervolume(&raw[..1], reference);
        prop_assert!(hv_all >= hv_first - 1e-9);
        // Bounded by the reference box.
        prop_assert!(hv_all <= 200.0 * 200.0 + 1e-9);
    }

    /// Decreasing α never improves the predicted makespan and never
    /// worsens the predicted dirty energy (frontier monotonicity).
    #[test]
    fn frontier_monotone((fits, profiles) in modeler_inputs()) {
        let m = ParetoModeler::new(fits, profiles).unwrap();
        let alphas = [1.0, 0.999, 0.99, 0.9, 0.5, 0.1, 0.0];
        let points: Vec<_> = alphas.iter().map(|&a| m.solve(50_000, a).unwrap()).collect();
        for w in points.windows(2) {
            prop_assert!(w[1].predicted_makespan >= w[0].predicted_makespan - 1e-6);
            prop_assert!(
                w[1].predicted_dirty_joules <= w[0].predicted_dirty_joules + 1e-6
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full planning pipeline is thread-count invariant: for arbitrary
    /// corpora, seeds, and strategies, `Framework::try_plan` at `threads > 1`
    /// reproduces the serial plan bit-for-bit (stratum assignments,
    /// fitted model coefficients, partition sizes, record placement).
    #[test]
    fn plan_thread_count_invariant(
        seed in any::<u64>(),
        num_docs in 60usize..160,
        threads in 2usize..9,
        strategy_pick in 0u32..3,
    ) {
        let ds = gen_text(
            &TextGenConfig {
                num_docs,
                num_topics: 5,
                vocab_size: 2000,
                min_len: 10,
                max_len: 30,
                topic_purity: 0.9,
                topic_skew: 0.7,
                word_skew: 0.9,
            },
            seed,
        );
        let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
        let strategy = match strategy_pick {
            0 => PartitionStrategy::Stratified,
            1 => PartitionStrategy::HetAware,
            _ => PartitionStrategy::HetEnergyAware { alpha: 0.995 },
        };
        let plan_at = |t: usize| {
            Framework::new(
                &cluster,
                FrameworkConfig {
                    strategy,
                    seed,
                    threads: t,
                    stratifier: StratifierConfig {
                        num_strata: 6,
                        sketch_size: 32,
                        ..StratifierConfig::default()
                    },
                    ..FrameworkConfig::default()
                },
            )
            .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.1 })
            .expect("non-empty dataset")
        };
        let serial = plan_at(1);
        let par = plan_at(threads);
        prop_assert_eq!(
            &serial.stratification.assignments,
            &par.stratification.assignments
        );
        prop_assert_eq!(&serial.sizes, &par.sizes);
        prop_assert_eq!(&serial.partitions, &par.partitions);
        match (&serial.time_models, &par.time_models) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.len(), b.len());
                for (ma, mb) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(ma.fit.slope.to_bits(), mb.fit.slope.to_bits());
                    prop_assert_eq!(
                        ma.fit.intercept.to_bits(),
                        mb.fit.intercept.to_bits()
                    );
                    prop_assert_eq!(ma.observations, mb.observations);
                }
            }
            _ => prop_assert!(false, "model presence differs across thread counts"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both partition layouts produce exact covers for arbitrary strata
    /// shapes and size vectors.
    #[test]
    fn partitions_always_cover(
        seed in any::<u64>(),
        num_docs in 40usize..200,
        num_parts in 2usize..8,
        skew in 0u32..3,
    ) {
        let ds = gen_text(
            &TextGenConfig {
                num_docs,
                num_topics: 6,
                vocab_size: 2000,
                min_len: 10,
                max_len: 30,
                topic_purity: 0.9,
                topic_skew: 0.7,
                word_skew: 0.9,
            },
            seed,
        );
        let strat = Stratifier::new(StratifierConfig {
            num_strata: 6,
            sketch_size: 32,
            ..StratifierConfig::default()
        })
        .stratify(&ds);
        // Size vectors: equal, strongly skewed, or with zeros.
        let sizes: Vec<usize> = match skew {
            0 => DataPartitioner::equal_sizes(num_docs, num_parts),
            1 => {
                let mut v = vec![0usize; num_parts];
                v[0] = num_docs - (num_parts - 1);
                for s in v.iter_mut().skip(1) {
                    *s = 1;
                }
                v
            }
            _ => {
                let mut v = DataPartitioner::equal_sizes(num_docs, num_parts);
                let moved = v[num_parts - 1];
                v[0] += moved;
                v[num_parts - 1] = 0;
                v
            }
        };
        for layout in [PartitionLayout::Representative, PartitionLayout::SimilarTogether] {
            let parts = DataPartitioner::new(seed).partition(&strat, &sizes, layout);
            let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..num_docs).collect::<Vec<_>>());
            let got: Vec<usize> = parts.iter().map(Vec::len).collect();
            prop_assert_eq!(&got, &sizes);
        }
    }
}
