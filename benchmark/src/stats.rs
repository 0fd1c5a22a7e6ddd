//! Sample statistics the benchmark reports: nearest-rank percentiles, the
//! "ten samples beyond" rule for the tail percentile, medians, and the
//! bound comparison `--check` applies between two sets of runs.

use crate::spec::{Better, EndToEnd};

/// The 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// sorted samples: the smallest rank covering `p` % of them.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 90 % of 100 at rank 90 when the product rounds up.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    rank.min(n)
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the condition under which a tail percentile is worth reporting.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n >= 10 + nearest_rank(n, p)
}

/// Median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when `new` is better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// `--check`'s verdict on one metric: `new` may be worse than `base` by
/// the metric's relative bound, or by its absolute floor when that is
/// larger (so a 3 ms set-up does not flap on a 1 ms wobble).
pub fn within_bound(metric: &EndToEnd, base: f64, new: f64) -> bool {
    let worse_abs = match metric.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse_abs <= (metric.bound * base.abs()).max(metric.floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        // Order of the input does not matter; ranks round up.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 67.0), 9.0);
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(99, 90.0));
        assert!(!tail_supported(100, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(tail_supported(20, 50.0));
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn bounds_respect_direction_and_floor() {
        let lower = EndToEnd {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
            floor: 0.020,
        };
        assert!(within_bound(&lower, 1.0, 1.09));
        assert!(!within_bound(&lower, 1.0, 1.11));
        assert!(within_bound(&lower, 1.0, 0.5));
        // 3 ms -> 20 ms is +567 % but inside the 20 ms floor.
        assert!(within_bound(&lower, 0.003, 0.020));
        assert!(!within_bound(&lower, 0.003, 0.030));
        let higher = EndToEnd {
            name: "r",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
            floor: 0.0,
        };
        assert!(within_bound(&higher, 100.0, 91.0));
        assert!(!within_bound(&higher, 100.0, 89.0));
        assert!(within_bound(&higher, 100.0, 150.0));
        assert!((worsening(100.0, 89.0, Better::Higher) - 0.11).abs() < 1e-12);
        assert!((worsening(1.0, 1.25, Better::Lower) - 0.25).abs() < 1e-12);
    }
}
