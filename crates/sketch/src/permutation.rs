//! Min-wise independent *linear* permutations (Bohman–Cooper–Frieze 2000).
//!
//! `π(x) = (a·x + b) mod p` with `p` prime and `a ∈ [1, p)`, `b ∈ [0, p)`
//! is a bijection of `Z_p`. A family of such maps is approximately min-wise
//! independent — the cheap stand-in for truly random permutations the paper
//! adopts because "the cardinality of the universal set can be extremely
//! large" (§III-C).
//!
//! We use the Mersenne prime `p = 2^61 − 1`, which admits a fast reduction
//! and leaves `u64::MAX` free as the empty-set sentinel.

/// The Mersenne prime `2^61 − 1`.
pub const PRIME: u64 = (1u64 << 61) - 1;

/// One linear permutation `x ↦ (a·x + b) mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearPermutation {
    a: u64,
    b: u64,
}

impl LinearPermutation {
    /// Construct with explicit coefficients.
    ///
    /// # Panics
    /// Panics unless `1 ≤ a < p` and `b < p` (otherwise the map would not
    /// be a bijection of `Z_p`).
    pub fn new(a: u64, b: u64) -> Self {
        assert!((1..PRIME).contains(&a), "a must be in [1, p)");
        assert!(b < PRIME, "b must be in [0, p)");
        LinearPermutation { a, b }
    }

    /// Derive coefficients from a seed (SplitMix64 expansion).
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let a = next() % (PRIME - 1) + 1;
        let b = next() % PRIME;
        LinearPermutation { a, b }
    }

    /// Apply the permutation. Inputs ≥ `p` are first reduced mod `p`
    /// (a 64-bit universe folds onto `Z_p`; the fold is 2-to-1 for a
    /// negligible fraction of inputs and does not affect sketch quality).
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        affine(self.a, reduce(x), self.b)
    }

    /// The multiplier coefficient.
    pub fn a(&self) -> u64 {
        self.a
    }

    /// The offset coefficient.
    pub fn b(&self) -> u64 {
        self.b
    }
}

/// `x mod p` by Mersenne folding: `2^61 ≡ 1`, so the low 61 bits plus the
/// top 3 are congruent to `x` and at most `p + 7` — one conditional
/// subtract away from canonical.
#[inline]
pub(crate) fn reduce(x: u64) -> u64 {
    let r = (x & PRIME) + (x >> 61);
    if r >= PRIME {
        r - PRIME
    } else {
        r
    }
}

/// `(a·x + b) mod p` for `a, x, b < p`, via one 128-bit multiply and two
/// conditional subtracts.
///
/// `2^61 ≡ 1`, so the product's low 61 bits `lo ≤ p` plus its high half
/// `hi` are congruent to it; `hi ≤ p − 3` because `a·x ≤ (p − 1)²`, so
/// `lo + hi < 2p` and one subtract makes it canonical. Adding `b < p`
/// then stays below `2p` and needs one more.
#[inline]
pub(crate) fn affine(a: u64, x: u64, b: u64) -> u64 {
    let prod = a as u128 * x as u128;
    let mut r = (prod as u64 & PRIME) + (prod >> 61) as u64;
    if r >= PRIME {
        r -= PRIME;
    }
    r += b;
    if r >= PRIME {
        r -= PRIME;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The independent oracle: `(a·(x mod p) + b) mod p` in plain `u128`
    /// arithmetic, no folding.
    fn apply_reference(a: u64, b: u64, x: u64) -> u64 {
        let p = PRIME as u128;
        ((a as u128 * (x as u128 % p) + b as u128) % p) as u64
    }

    #[test]
    fn apply_matches_u128_reference_at_the_edges() {
        let xs = [0, 1, PRIME - 1, PRIME, PRIME + 1, 1u64 << 61, u64::MAX];
        let coeffs = [1, 2, 123_456_789, 1u64 << 60, PRIME - 2, PRIME - 1];
        for a in coeffs {
            for b in [0, 1, 987_654_321, PRIME - 1] {
                for x in xs {
                    assert_eq!(
                        LinearPermutation::new(a, b).apply(x),
                        apply_reference(a, b, x),
                        "a={a} b={b} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn high_half_of_the_product_never_reaches_p() {
        // The retired kernel reduced the product's high half with
        // `hi % p`. For operands below p that half tops out at p − 3
        // ((p − 1)² = 2^122 − 2^63 + 4), so the `%` never fired and
        // `lo + hi` needs exactly one conditional subtract.
        let top = (PRIME - 1) as u128 * (PRIME - 1) as u128;
        assert_eq!((top >> 61) as u64, PRIME - 3);
        for (a, x) in [
            (PRIME - 1, PRIME - 1),
            (PRIME - 1, PRIME - 2),
            (1 << 60, PRIME - 1),
        ] {
            for b in [0, 1, PRIME - 1] {
                assert_eq!(
                    affine(a, x, b),
                    apply_reference(a, b, x),
                    "a={a} x={x} b={b}"
                );
            }
        }
    }

    #[test]
    fn reduce_is_mod_p() {
        let edges = [
            0,
            1,
            PRIME - 1,
            PRIME,
            PRIME + 1,
            2 * PRIME,
            1 << 61,
            u64::MAX - 1,
            u64::MAX,
        ];
        for x in edges {
            assert_eq!(reduce(x), x % PRIME, "x={x}");
        }
    }

    #[test]
    fn apply_is_injective_on_sample() {
        let p = LinearPermutation::from_seed(7);
        let mut outs: Vec<u64> = (0..10_000u64).map(|x| p.apply(x)).collect();
        outs.sort_unstable();
        let len = outs.len();
        outs.dedup();
        assert_eq!(outs.len(), len, "collision found — not a permutation");
    }

    #[test]
    fn outputs_in_field_range() {
        let p = LinearPermutation::from_seed(99);
        for x in [0u64, 1, PRIME - 1, PRIME, u64::MAX] {
            assert!(p.apply(x) < PRIME);
        }
    }

    #[test]
    fn from_seed_deterministic() {
        assert_eq!(
            LinearPermutation::from_seed(5),
            LinearPermutation::from_seed(5)
        );
        assert_ne!(
            LinearPermutation::from_seed(5),
            LinearPermutation::from_seed(6)
        );
    }

    #[test]
    #[should_panic(expected = "a must be")]
    fn new_rejects_zero_multiplier() {
        let _ = LinearPermutation::new(0, 0);
    }

    #[test]
    fn identity_like_permutation() {
        // a=1, b=0 is the identity on Z_p.
        let p = LinearPermutation::new(1, 0);
        for x in [0u64, 5, 1000, PRIME - 1] {
            assert_eq!(p.apply(x), x);
        }
    }

    #[test]
    fn min_distribution_is_roughly_uniform() {
        // The argmin of a min-wise independent family over a fixed set
        // should be near-uniform across the set's elements.
        let set: Vec<u64> = (0..16).map(|i| i * 7919 + 3).collect();
        let mut argmin_counts = vec![0usize; set.len()];
        for seed in 0..4000u64 {
            let p = LinearPermutation::from_seed(seed);
            let (mut best_i, mut best_v) = (0usize, u64::MAX);
            for (i, &x) in set.iter().enumerate() {
                let v = p.apply(x);
                if v < best_v {
                    best_v = v;
                    best_i = i;
                }
            }
            argmin_counts[best_i] += 1;
        }
        // Linear permutations are only *approximately* min-wise independent
        // (Bohman–Cooper–Frieze bound the bias, they don't eliminate it), so
        // the tolerance here is deliberately loose: every element must get a
        // non-trivial share of argmins, within 2.5x of uniform.
        let expected = 4000.0 / set.len() as f64;
        for &c in &argmin_counts {
            assert!(
                (c as f64) > expected * 0.4 && (c as f64) < expected * 2.5,
                "argmin counts far from uniform: {argmin_counts:?}"
            );
        }
    }
}
