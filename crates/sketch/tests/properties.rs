//! Property-based tests for MinHash sketching.

use proptest::prelude::*;

use pareto_datagen::ItemSet;
use pareto_sketch::{LinearPermutation, MinHasher};

/// `p = 2^61 − 1`.
const P: u64 = (1 << 61) - 1;

proptest! {
    /// The folded kernel agrees with `(a·(x mod p) + b) mod p` in plain
    /// `u128` arithmetic, for arbitrary coefficients and inputs and at the
    /// edges of the field and of `u64`.
    #[test]
    fn apply_matches_u128_reference(
        a in 1u64..P,
        b in 0u64..P,
        xs in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let perm = LinearPermutation::new(a, b);
        for x in xs.into_iter().chain([0, 1, P - 1, P, P + 1, 1 << 61, u64::MAX]) {
            let expected = (a as u128 * (x as u128 % P as u128) + b as u128) % P as u128;
            prop_assert_eq!(perm.apply(x) as u128, expected, "x = {}", x);
        }
    }

    /// Batch sketching writes the same rows as sketching set by set, at
    /// any thread count.
    #[test]
    fn matrix_rows_equal_single_sketches(
        sets in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..48), 0..24),
        k in 0usize..40,
        seed in any::<u64>(),
        threads in 1usize..9,
    ) {
        let h = MinHasher::new(k, seed);
        let sets: Vec<ItemSet> = sets.into_iter().map(ItemSet::from_items).collect();
        let refs: Vec<&ItemSet> = sets.iter().collect();
        let matrix = h.sketch_matrix(&refs, threads);
        prop_assert_eq!((matrix.num_rows(), matrix.width()), (sets.len(), k));
        for (i, set) in sets.iter().enumerate() {
            prop_assert_eq!(matrix.row(i), h.sketch(set).values());
        }
    }

    /// Permutations are injective on any sample of distinct inputs below
    /// the prime modulus.
    #[test]
    fn permutation_injective(seed in any::<u64>(), xs in proptest::collection::hash_set(0u64..(1u64<<61) - 1, 2..256)) {
        let p = LinearPermutation::from_seed(seed);
        let mut outs: Vec<u64> = xs.iter().map(|&x| p.apply(x)).collect();
        outs.sort_unstable();
        let len = outs.len();
        outs.dedup();
        prop_assert_eq!(outs.len(), len);
    }

    /// Sketching is deterministic and permutation-order independent of the
    /// input item order.
    #[test]
    fn sketch_order_independent(
        mut items in proptest::collection::vec(any::<u64>(), 1..128),
        seed in any::<u64>(),
    ) {
        let h = MinHasher::new(32, seed);
        let s1 = h.sketch(&ItemSet::from_items(items.clone()));
        items.reverse();
        items.push(items[0]); // duplicate — sets dedupe
        let s2 = h.sketch(&ItemSet::from_items(items));
        prop_assert_eq!(s1, s2);
    }

    /// Identical sets always estimate similarity 1; the estimate is always
    /// within [0, 1].
    #[test]
    fn estimate_bounds(
        a in proptest::collection::vec(0u64..10_000, 1..64),
        b in proptest::collection::vec(0u64..10_000, 1..64),
        seed in any::<u64>(),
    ) {
        let h = MinHasher::new(64, seed);
        let sa = h.sketch(&ItemSet::from_items(a));
        let sb = h.sketch(&ItemSet::from_items(b));
        let e = sa.estimate_jaccard(&sb);
        prop_assert!((0.0..=1.0).contains(&e));
        prop_assert_eq!(sa.estimate_jaccard(&sa), 1.0);
        // Symmetry.
        prop_assert_eq!(e, sb.estimate_jaccard(&sa));
    }

    /// A subset's sketch coordinates are pointwise >= the superset's
    /// (adding elements can only lower minima).
    #[test]
    fn superset_lowers_minima(
        base in proptest::collection::vec(0u64..10_000, 1..64),
        extra in proptest::collection::vec(0u64..10_000, 1..64),
        seed in any::<u64>(),
    ) {
        let h = MinHasher::new(48, seed);
        let small = ItemSet::from_items(base.clone());
        let mut all = base;
        all.extend(extra);
        let big = ItemSet::from_items(all);
        let ss = h.sketch(&small);
        let sb = h.sketch(&big);
        for (b, s) in sb.values().iter().zip(ss.values()) {
            prop_assert!(b <= s, "superset must have <= minima");
        }
    }

    /// The estimator concentrates: for sets with known 50% overlap, a
    /// 512-hash estimate is within 0.2 of truth (Chernoff gives ~3e-6
    /// failure odds per case; the seed is fixed to keep CI deterministic).
    #[test]
    fn estimate_concentrates(offset in 1u64..1000) {
        let h = MinHasher::new(512, 12345);
        let a = ItemSet::from_items((0..100).map(|i| i * 7919).collect());
        let b = ItemSet::from_items((50..150).map(|i| (i % 100) * 7919 + (i / 100) * offset * 13).collect());
        let exact = a.jaccard(&b);
        let est = h.sketch(&a).estimate_jaccard(&h.sketch(&b));
        prop_assert!((est - exact).abs() < 0.2, "exact {} est {}", exact, est);
    }
}
