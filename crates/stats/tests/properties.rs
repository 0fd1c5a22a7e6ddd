//! Property-based tests for the statistics substrate.

use proptest::prelude::*;

use pareto_stats::{
    entropy_bits, largest_remainder_apportion, progressive_schedule, proportional_allocation,
    seeded_rng, simple_random_sample, stratified_sample, total_variation_distance, LinearFit,
};

proptest! {
    /// Largest-remainder apportionment always sums exactly to the total
    /// and never exceeds it per share.
    #[test]
    fn apportion_sums_to_total(
        weights in proptest::collection::vec(0.0f64..1e6, 1..40),
        total in 0usize..10_000,
    ) {
        let shares = largest_remainder_apportion(&weights, total);
        prop_assert_eq!(shares.len(), weights.len());
        if weights.iter().any(|&w| w > 0.0) {
            prop_assert_eq!(shares.iter().sum::<usize>(), total);
        } else {
            prop_assert!(shares.iter().all(|&s| s == 0));
        }
        // Zero-weight entries never receive anything.
        for (s, w) in shares.iter().zip(&weights) {
            if *w <= 0.0 {
                prop_assert_eq!(*s, 0);
            }
        }
    }

    /// Apportionment is within one unit of the exact proportional share
    /// (the defining property of largest-remainder methods).
    #[test]
    fn apportion_near_proportional(
        weights in proptest::collection::vec(0.01f64..1e3, 2..20),
        total in 1usize..5_000,
    ) {
        let shares = largest_remainder_apportion(&weights, total);
        let wsum: f64 = weights.iter().sum();
        for (s, w) in shares.iter().zip(&weights) {
            let exact = w / wsum * total as f64;
            prop_assert!(
                (*s as f64 - exact).abs() <= 1.0 + 1e-9,
                "share {} vs exact {}", s, exact
            );
        }
    }

    /// Proportional allocation respects stratum capacities and the total.
    #[test]
    fn allocation_respects_capacity(
        sizes in proptest::collection::vec(0usize..500, 1..20),
        frac in 0.0f64..1.0,
    ) {
        let n: usize = sizes.iter().sum();
        let k = (n as f64 * frac) as usize;
        let alloc = proportional_allocation(&sizes, k).unwrap();
        prop_assert_eq!(alloc.iter().sum::<usize>(), k);
        for (a, s) in alloc.iter().zip(&sizes) {
            prop_assert!(a <= s);
        }
    }

    /// Simple random samples are duplicate-free, in-range, right-sized.
    #[test]
    fn srs_valid(n in 1usize..2000, frac in 0.0f64..1.0, seed in any::<u64>()) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = seeded_rng(seed);
        let mut s = simple_random_sample(n, k, &mut rng).unwrap();
        prop_assert_eq!(s.len(), k);
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Stratified samples cover exactly k distinct indices drawn from the
    /// declared strata.
    #[test]
    fn stratified_valid(
        sizes in proptest::collection::vec(1usize..100, 1..10),
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut strata = Vec::new();
        let mut next = 0usize;
        for &s in &sizes {
            strata.push((next..next + s).collect::<Vec<_>>());
            next += s;
        }
        let n = next;
        let k = (n as f64 * frac) as usize;
        let mut rng = seeded_rng(seed);
        let mut sample = stratified_sample(&strata, k, &mut rng).unwrap();
        prop_assert_eq!(sample.len(), k);
        sample.sort_unstable();
        sample.dedup();
        prop_assert_eq!(sample.len(), k);
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    /// The progressive schedule is non-empty, strictly increasing, and
    /// bounded by the population.
    #[test]
    fn schedule_wellformed(
        n in 1usize..10_000_000,
        steps in 1usize..12,
    ) {
        let sched = progressive_schedule(n, 0.0005, 0.02, steps);
        prop_assert!(!sched.is_empty());
        prop_assert!(sched.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(sched.iter().all(|&s| s >= 1 && s <= n));
    }

    /// OLS on exact lines recovers slope/intercept for any line.
    #[test]
    fn linear_fit_recovers_any_line(
        slope in -100.0f64..100.0,
        intercept in -1000.0f64..1000.0,
    ) {
        let pts: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                let x = i as f64 * 3.5 + 1.0;
                (x, slope * x + intercept)
            })
            .collect();
        let fit = LinearFit::fit(&pts).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
    }

    /// Distribution distances satisfy their axioms on random histograms.
    #[test]
    fn distances_axioms(
        p in proptest::collection::vec(0.0f64..10.0, 2..20),
    ) {
        // Self-distance is 0; TVD is symmetric and bounded.
        if p.iter().sum::<f64>() > 0.0 {
            prop_assert!(total_variation_distance(&p, &p) < 1e-12);
            let q: Vec<f64> = p.iter().rev().copied().collect();
            let tvd_pq = total_variation_distance(&p, &q);
            let tvd_qp = total_variation_distance(&q, &p);
            prop_assert!((tvd_pq - tvd_qp).abs() < 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&tvd_pq));
            // Entropy bounded by log2(k).
            let h = entropy_bits(&p);
            prop_assert!(h >= -1e-12 && h <= (p.len() as f64).log2() + 1e-9);
        }
    }
}
