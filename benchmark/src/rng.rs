//! The benchmark's own seeded streams. Kept here (not the `rand` shim) so
//! that an op schedule is a function of `--seed` and this file alone.

/// SplitMix64 finalizer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `stream`, element `index`, under run seed `seed`.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    mix64(mix64(seed ^ mix64(stream)) ^ index)
}

/// A SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `n` items in which item `k` appears in proportion `shares[k].1` (the
/// shares sum to 100; leftovers of rounding go to the first item), in a
/// seeded order. Exact counts keep a round's work from swinging with the
/// luck of the draw: at 150 requests, "15 % replans" drawn one by one is
/// 22 +- 4 of the requests that cost a thousand times the others.
pub fn shuffled_mix<T: Copy>(rng: &mut Rng, n: usize, shares: &[(T, usize)]) -> Vec<T> {
    assert_eq!(shares.iter().map(|s| s.1).sum::<usize>(), 100);
    let mut items: Vec<T> = shares
        .iter()
        .flat_map(|&(item, share)| std::iter::repeat_n(item, n * share / 100))
        .collect();
    items.resize(n, shares[0].0);
    // Fisher-Yates.
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_has_exact_counts_in_a_seeded_order() {
        let shares = [('a', 70), ('b', 15), ('c', 15)];
        let mix = shuffled_mix(&mut Rng::new(1), 150, &shares);
        let count = |c| mix.iter().filter(|&&x| x == c).count();
        assert_eq!((count('a'), count('b'), count('c')), (106, 22, 22));
        assert_eq!(mix, shuffled_mix(&mut Rng::new(1), 150, &shares));
        assert_ne!(mix, shuffled_mix(&mut Rng::new(2), 150, &shares));
        assert!(
            mix.windows(2).any(|w| w[0] != w[1]),
            "shuffled, not grouped"
        );
    }
}
