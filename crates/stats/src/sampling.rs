//! Sampling primitives: simple random, stratified, and progressive.
//!
//! The framework's stratifier feeds *stratified* samples (proportional
//! allocation across strata, Cochran 1977) to the heterogeneity estimator so
//! that the progressive-sampling runs see data representative of the final
//! partitions (paper §III-A/§III-E).

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

/// Errors from the sampling routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplingError {
    /// Requested more elements than the population holds.
    SampleTooLarge { requested: usize, population: usize },
    /// Strata definitions do not cover/partition the population.
    InvalidStrata(String),
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::SampleTooLarge {
                requested,
                population,
            } => write!(
                f,
                "requested sample of {requested} from population of {population}"
            ),
            SamplingError::InvalidStrata(msg) => write!(f, "invalid strata: {msg}"),
        }
    }
}

impl std::error::Error for SamplingError {}

/// Draw `k` distinct indices uniformly from `0..n` without replacement.
///
/// Uses a partial Fisher–Yates shuffle: `O(n)` memory, `O(k)` swaps.
pub fn simple_random_sample<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Result<Vec<usize>, SamplingError> {
    if k > n {
        return Err(SamplingError::SampleTooLarge {
            requested: k,
            population: n,
        });
    }
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    Ok(idx)
}

/// Apportion `total` units across weights by the largest-remainder method.
///
/// Guarantees the result sums exactly to `total`, every share is ≥ 0, and a
/// zero weight receives zero. Used for proportional allocation of a sample
/// (or a partition) across strata, and by the partitioner when rounding the
/// LP's fractional partition sizes to integers.
pub fn largest_remainder_apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let wsum: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
    if wsum <= 0.0 || total == 0 {
        return vec![0; weights.len()];
    }
    let mut shares = vec![0usize; weights.len()];
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            remainders.push((i, -1.0)); // never receives remainder units
            continue;
        }
        let exact = w / wsum * total as f64;
        let floor = exact.floor() as usize;
        shares[i] = floor;
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    let mut leftover = total - assigned.min(total);
    // Stable order: largest remainder first, index breaks ties for determinism.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for (i, r) in remainders {
        if leftover == 0 {
            break;
        }
        if r < 0.0 {
            break; // only zero-weight entries remain
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

/// Proportional allocation of a sample of size `k` across strata of the
/// given sizes (Cochran's proportional allocation). The result sums to `k`
/// and never exceeds any stratum's size.
pub fn proportional_allocation(
    strata_sizes: &[usize],
    k: usize,
) -> Result<Vec<usize>, SamplingError> {
    let n: usize = strata_sizes.iter().sum();
    if k > n {
        return Err(SamplingError::SampleTooLarge {
            requested: k,
            population: n,
        });
    }
    let weights: Vec<f64> = strata_sizes.iter().map(|&s| s as f64).collect();
    let mut alloc = largest_remainder_apportion(&weights, k);
    // Largest-remainder can overshoot a tiny stratum by one unit; push the
    // excess to strata with spare capacity (largest spare first).
    let mut excess = 0usize;
    for (a, &s) in alloc.iter_mut().zip(strata_sizes) {
        if *a > s {
            excess += *a - s;
            *a = s;
        }
    }
    while excess > 0 {
        let (best, _) = alloc
            .iter()
            .zip(strata_sizes)
            .enumerate()
            .map(|(i, (&a, &s))| (i, s - a))
            .max_by_key(|&(_, spare)| spare)
            .expect("non-empty strata");
        debug_assert!(strata_sizes[best] > alloc[best]);
        alloc[best] += 1;
        excess -= 1;
    }
    Ok(alloc)
}

/// Draw a stratified sample without replacement.
///
/// `strata` maps each stratum to the indices of its members (must be
/// disjoint). The sample of total size `k` is allocated proportionally and
/// drawn uniformly within each stratum. Returns the sampled indices,
/// grouped by stratum in stratum order.
pub fn stratified_sample<R: Rng + ?Sized>(
    strata: &[Vec<usize>],
    k: usize,
    rng: &mut R,
) -> Result<Vec<usize>, SamplingError> {
    let sizes: Vec<usize> = strata.iter().map(Vec::len).collect();
    let alloc = proportional_allocation(&sizes, k)?;
    let mut out = Vec::with_capacity(k);
    for (members, &take) in strata.iter().zip(&alloc) {
        if take == 0 {
            continue;
        }
        let mut local = members.clone();
        local.shuffle(rng);
        out.extend_from_slice(&local[..take]);
    }
    debug_assert_eq!(out.len(), k);
    Ok(out)
}

/// The progressive-sampling schedule of the paper (§III-A): geometric
/// fractions from `lo` to `hi` (inclusive) with `steps` entries, converted
/// to sizes of a population of `n`, deduplicated, each at least 1.
///
/// Paper values: `lo = 0.0005` (0.05%), `hi = 0.02` (2%).
pub fn progressive_schedule(n: usize, lo: f64, hi: f64, steps: usize) -> Vec<usize> {
    assert!(lo > 0.0 && hi >= lo && steps >= 1, "invalid schedule");
    let mut sizes = Vec::with_capacity(steps);
    for i in 0..steps {
        let t = if steps == 1 {
            0.0
        } else {
            i as f64 / (steps - 1) as f64
        };
        let frac = lo * (hi / lo).powf(t);
        let sz = ((n as f64 * frac).round() as usize).clamp(1, n);
        sizes.push(sz);
    }
    sizes.dedup();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn srs_draws_distinct_in_range() {
        let mut rng = seeded_rng(1);
        let s = simple_random_sample(100, 30, &mut rng).unwrap();
        assert_eq!(s.len(), 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(sorted.iter().all(|&i| i < 100));
    }

    #[test]
    fn srs_full_population_is_permutation() {
        let mut rng = seeded_rng(2);
        let mut s = simple_random_sample(10, 10, &mut rng).unwrap();
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn srs_rejects_oversample() {
        let mut rng = seeded_rng(3);
        assert!(simple_random_sample(5, 6, &mut rng).is_err());
    }

    #[test]
    fn srs_is_roughly_uniform() {
        // Each index should appear in ~k/n of the samples.
        let mut rng = seeded_rng(4);
        let mut counts = [0usize; 20];
        let trials = 4000;
        for _ in 0..trials {
            for i in simple_random_sample(20, 5, &mut rng).unwrap() {
                counts[i] += 1;
            }
        }
        let expected = trials as f64 * 5.0 / 20.0;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.15,
                "count {c} deviates from expected {expected}"
            );
        }
    }

    #[test]
    fn apportion_sums_exactly() {
        let shares = largest_remainder_apportion(&[1.0, 1.0, 1.0], 10);
        assert_eq!(shares.iter().sum::<usize>(), 10);
        let shares = largest_remainder_apportion(&[0.3, 0.3, 0.4], 7);
        assert_eq!(shares.iter().sum::<usize>(), 7);
    }

    #[test]
    fn apportion_zero_weight_gets_zero() {
        let shares = largest_remainder_apportion(&[0.0, 2.0, 3.0], 100);
        assert_eq!(shares[0], 0);
        assert_eq!(shares.iter().sum::<usize>(), 100);
    }

    #[test]
    fn apportion_is_proportional() {
        let shares = largest_remainder_apportion(&[1.0, 2.0, 3.0], 600);
        assert_eq!(shares, vec![100, 200, 300]);
    }

    #[test]
    fn apportion_empty_and_zero_total() {
        assert_eq!(largest_remainder_apportion(&[], 5), Vec::<usize>::new());
        assert_eq!(largest_remainder_apportion(&[1.0, 2.0], 0), vec![0, 0]);
        assert_eq!(largest_remainder_apportion(&[0.0, 0.0], 5), vec![0, 0]);
    }

    #[test]
    fn proportional_allocation_respects_capacity() {
        // Tiny stratum must not be over-allocated.
        let alloc = proportional_allocation(&[1, 1000, 1000], 1500).unwrap();
        assert_eq!(alloc.iter().sum::<usize>(), 1500);
        assert!(alloc[0] <= 1);
        assert!(alloc[1] <= 1000 && alloc[2] <= 1000);
    }

    #[test]
    fn proportional_allocation_exact_population() {
        let sizes = [3usize, 5, 2];
        let alloc = proportional_allocation(&sizes, 10).unwrap();
        assert_eq!(alloc, vec![3, 5, 2]);
    }

    #[test]
    fn stratified_sample_covers_strata_proportionally() {
        let strata: Vec<Vec<usize>> = vec![
            (0..100).collect(),
            (100..300).collect(),
            (300..400).collect(),
        ];
        let mut rng = seeded_rng(7);
        let s = stratified_sample(&strata, 40, &mut rng).unwrap();
        assert_eq!(s.len(), 40);
        let c0 = s.iter().filter(|&&i| i < 100).count();
        let c1 = s.iter().filter(|&&i| (100..300).contains(&i)).count();
        let c2 = s.iter().filter(|&&i| i >= 300).count();
        assert_eq!((c0, c1, c2), (10, 20, 10));
    }

    #[test]
    fn stratified_sample_no_duplicates() {
        let strata: Vec<Vec<usize>> = vec![(0..50).collect(), (50..80).collect()];
        let mut rng = seeded_rng(8);
        let mut s = stratified_sample(&strata, 60, &mut rng).unwrap();
        s.sort_unstable();
        let len = s.len();
        s.dedup();
        assert_eq!(s.len(), len);
    }

    #[test]
    fn progressive_schedule_shape() {
        let sched = progressive_schedule(1_000_000, 0.0005, 0.02, 6);
        assert_eq!(sched.first().copied(), Some(500));
        assert_eq!(sched.last().copied(), Some(20_000));
        assert!(sched.windows(2).all(|w| w[0] < w[1]), "must be increasing");
    }

    #[test]
    fn progressive_schedule_small_population_dedups() {
        let sched = progressive_schedule(100, 0.0005, 0.02, 6);
        assert!(!sched.is_empty());
        assert!(sched.windows(2).all(|w| w[0] < w[1]));
        assert!(sched.iter().all(|&s| (1..=100).contains(&s)));
    }

    #[test]
    fn progressive_schedule_single_step() {
        assert_eq!(progressive_schedule(1000, 0.01, 0.02, 1), vec![10]);
    }
}
