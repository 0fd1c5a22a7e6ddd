//! Deterministic random-number-generation helpers.
//!
//! Every randomized component in the workspace (data generators, MinHash
//! permutations, kModes initialization, cloud-cover processes, …) is seeded
//! through this module so a single `u64` reproduces an entire experiment.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG used throughout the workspace.
///
/// ChaCha8 is deterministic across platforms (unlike `SmallRng`) and fast
/// enough that it never shows up in profiles of the workloads here.
pub type WorkspaceRng = ChaCha8Rng;

/// Create the workspace RNG from a bare seed.
pub fn seeded_rng(seed: u64) -> WorkspaceRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// SplitMix64's golden-ratio increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 step: add the increment, then one bijective avalanche round.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent child seed from `(seed, stream)`.
///
/// This is SplitMix64 applied to the combined value; it decorrelates streams
/// produced from small consecutive seeds, so `split_seed(7, 0)` and
/// `split_seed(7, 1)` behave as unrelated seeds.
#[inline]
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    mix64(seed.wrapping_mul(GAMMA).wrapping_add(stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_seed_decorrelates_streams() {
        // Consecutive streams of the same base must not be consecutive values.
        let s0 = split_seed(7, 0);
        let s1 = split_seed(7, 1);
        assert_ne!(s0, s1);
        assert!(s0.abs_diff(s1) > 1_000_000, "streams look correlated");
    }

    #[test]
    fn split_seed_differs_across_bases() {
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }
}
