//! Property-based tests for stratification.

use proptest::prelude::*;

use pareto_datagen::generators::{gen_text, TextGenConfig};
use pareto_stratify::{
    cluster_purity, normalized_mutual_information, CompositeKModes, KModesConfig, Stratifier,
    StratifierConfig,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stratification always yields a valid assignment: one stratum per
    /// record, strata jointly cover the dataset, ids in range.
    #[test]
    fn assignment_is_total(
        seed in any::<u64>(),
        num_docs in 30usize..200,
        num_strata in 1usize..12,
        l in 1usize..6,
    ) {
        let ds = gen_text(
            &TextGenConfig {
                num_docs,
                num_topics: 4,
                vocab_size: 2000,
                min_len: 8,
                max_len: 30,
                topic_purity: 0.85,
                topic_skew: 0.6,
                word_skew: 0.9,
            },
            seed,
        );
        let st = Stratifier::new(StratifierConfig {
            num_strata,
            l,
            sketch_size: 32,
            max_iters: 8,
            seed,
        })
        .stratify(&ds);
        prop_assert_eq!(st.assignments.len(), num_docs);
        prop_assert!(st.assignments.iter().all(|&c| (c as usize) < st.num_strata()));
        prop_assert_eq!(st.sizes().iter().sum::<usize>(), num_docs);
        prop_assert!((0.0..=1.0).contains(&st.zero_match_rate));
        // stratum_order is a permutation.
        let mut order = st.stratum_order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..num_docs).collect::<Vec<_>>());
        // Membership lists agree with assignments.
        for (stratum, members) in st.strata.iter().enumerate() {
            for &m in members {
                prop_assert_eq!(st.assignments[m] as usize, stratum);
            }
        }
    }

    /// kModes iterations never exceed the cap, and the objective is
    /// deterministic per seed — including across thread counts (the
    /// parallel assignment/update shards must not change the result).
    #[test]
    fn kmodes_bounded_and_deterministic(
        seed in any::<u64>(),
        num_docs in 20usize..80,
        k in 1usize..6,
        threads in 1usize..6,
    ) {
        let ds = gen_text(
            &TextGenConfig {
                num_docs,
                num_topics: 3,
                vocab_size: 1000,
                min_len: 8,
                max_len: 20,
                topic_purity: 0.9,
                topic_skew: 0.5,
                word_skew: 0.8,
            },
            seed,
        );
        let sets: Vec<_> = ds.items.iter().map(|i| &i.items).collect();
        let sigs = pareto_sketch::MinHasher::new(24, seed).sketch_matrix(&sets, 1);
        let cfg = KModesConfig {
            num_clusters: k,
            l: 2,
            max_iters: 7,
            seed,
            threads: 1,
        };
        let a = CompositeKModes::new(cfg.clone()).run(&sigs);
        let b = CompositeKModes::new(KModesConfig { threads, ..cfg }).run(&sigs);
        prop_assert!(a.iterations <= 7);
        prop_assert_eq!(a.assignments, b.assignments);
        prop_assert_eq!(a.total_score, b.total_score);
    }
}

proptest! {
    /// Purity and NMI are within [0, 1] and equal 1 for identical
    /// labelings, for arbitrary label vectors.
    #[test]
    fn quality_metrics_bounds(labels in proptest::collection::vec(0u32..6, 1..100),
                              other in proptest::collection::vec(0u32..6, 1..100)) {
        let n = labels.len().min(other.len());
        let a = &labels[..n];
        let b = &other[..n];
        let p = cluster_purity(a, b);
        let nmi = normalized_mutual_information(a, b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&nmi));
        prop_assert_eq!(cluster_purity(a, a), 1.0);
        prop_assert!((normalized_mutual_information(a, a) - 1.0).abs() < 1e-9
            || a.iter().all(|&x| x == a[0]));
    }
}
