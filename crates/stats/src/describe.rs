//! Entropy and distribution distances.
//!
//! Used to quantify partition skew (entropy of a partition's stratum
//! histogram), sample representativeness (distance between a sample's
//! stratum distribution and the global one — the Cochran argument of
//! §III-E), and compression-oriented "similar-together" partition quality.

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
        assert_close(
            total_variation_distance(&[1.0, 2.0], &[2.0, 4.0]),
            0.0,
            1e-12,
        );
        assert_close(
            total_variation_distance(&[1.0, 0.0], &[0.0, 1.0]),
            1.0,
            1e-12,
        );
    }
}
