//! Summary statistics and distribution distances.
//!
//! Used to quantify partition skew (entropy of a partition's stratum
//! histogram), sample representativeness (distance between a sample's
//! stratum distribution and the global one — the Cochran argument of
//! §III-E), and compression-oriented "similar-together" partition quality.

/// Running summary of a sequence of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Population variance (0 if fewer than 2 observations).
    pub variance: f64,
    /// Minimum (+inf if empty).
    pub min: f64,
    /// Maximum (-inf if empty).
    pub max: f64,
}

impl Summary {
    /// Summarize a slice in one pass (Welford's algorithm).
    pub fn of(values: &[f64]) -> Self {
        let mut n = 0usize;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            n += 1;
            let delta = v - mean;
            mean += delta / n as f64;
            m2 += delta * (v - mean);
            min = min.min(v);
            max = max.max(v);
        }
        let variance = if n >= 2 { m2 / n as f64 } else { 0.0 };
        Summary {
            n,
            mean: if n == 0 { 0.0 } else { mean },
            variance,
            min,
            max,
        }
    }

    /// Max/mean imbalance ratio — the load-balance figure of merit: 1.0 is a
    /// perfectly balanced set of per-partition times.
    pub fn imbalance(&self) -> f64 {
        if self.mean.abs() <= f64::EPSILON {
            1.0
        } else {
            self.max / self.mean
        }
    }
}

/// Normalize non-negative counts/weights into a probability vector.
/// All-zero input yields all-zero output.
pub fn normalize(weights: &[f64]) -> Vec<f64> {
    let s: f64 = weights.iter().sum();
    if s <= 0.0 {
        return vec![0.0; weights.len()];
    }
    weights.iter().map(|w| w / s).collect()
}

/// Shannon entropy (bits) of a histogram of non-negative counts.
///
/// Low entropy of a partition's content histogram ⇒ the partition holds
/// similar items ⇒ it compresses well (paper §V-C2).
pub fn entropy_bits(counts: &[f64]) -> f64 {
    let p = normalize(counts);
    -p.iter()
        .filter(|&&x| x > 0.0)
        .map(|&x| x * x.log2())
        .sum::<f64>()
}

/// Total variation distance `½ Σ |p_i − q_i|` between two histograms
/// (normalized internally). Ranges over `[0, 1]`.
pub fn total_variation_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must have equal support");
    let p = normalize(p);
    let q = normalize(q);
    0.5 * p.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b}");
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_close(s.mean, 2.5, 1e-12);
        assert_close(s.variance, 1.25, 1e-12);
        assert_close(s.min, 1.0, 0.0);
        assert_close(s.max, 4.0, 0.0);
        assert_close(s.imbalance(), 1.6, 1e-12);
    }

    #[test]
    fn summary_empty_and_single() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.mean, 0.0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.n, 1);
        assert_close(s.mean, 7.0, 0.0);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn entropy_of_uniform_is_log2_k() {
        assert_close(entropy_bits(&[1.0; 8]), 3.0, 1e-12);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_close(entropy_bits(&[0.0, 5.0, 0.0]), 0.0, 1e-12);
    }

    #[test]
    fn entropy_monotone_in_spread() {
        let skewed = entropy_bits(&[97.0, 1.0, 1.0, 1.0]);
        let uniform = entropy_bits(&[25.0, 25.0, 25.0, 25.0]);
        assert!(skewed < uniform);
    }

    #[test]
    fn tvd_identical_zero_disjoint_one() {
        assert_close(total_variation_distance(&[1.0, 2.0], &[2.0, 4.0]), 0.0, 1e-12);
        assert_close(total_variation_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0, 1e-12);
    }
}
