//! MinHash sketching (paper §III-C step 2).
//!
//! High-dimensional item sets are projected to short **sketches** whose
//! coordinate-wise collision probability equals the sets' Jaccard
//! similarity (Broder et al., STOC 1998). Because a true random permutation
//! of a `u64` universe is unaffordable, the paper — citing Bohman, Cooper &
//! Frieze (2000) — uses **min-wise independent linear permutations**
//! `π(x) = (a·x + b) mod p` over a prime field, which approximate min-wise
//! independence well in practice. That is exactly what this crate
//! implements.
//!
//! A dataset's sketches live in one [`SignatureMatrix`] — row `i` is
//! record `i`'s signature — which is also the input of the compositeKModes
//! stratifier: each of the `k` hash coordinates is one categorical
//! attribute.
//!
//! ```
//! use pareto_datagen::ItemSet;
//! use pareto_sketch::MinHasher;
//!
//! let hasher = MinHasher::new(128, 42);
//! let a = ItemSet::from_items((0..100).collect());
//! let b = ItemSet::from_items((50..150).collect());
//! let (sa, sb) = (hasher.sketch(&a), hasher.sketch(&b));
//! let est = sa.estimate_jaccard(&sb);
//! let exact = a.jaccard(&b); // 50 / 150
//! assert!((est - exact).abs() < 0.15);
//! ```

mod kernel;
mod permutation;

pub use permutation::LinearPermutation;

use kernel::Kernel;
use pareto_datagen::ItemSet;

/// A MinHash signature: the per-permutation minima of one item set.
///
/// Signatures produced by the same [`MinHasher`] are comparable; mixing
/// hashers yields garbage (no type-level guard — the stratifier owns one
/// hasher for a whole dataset).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    values: Vec<u64>,
}

impl Signature {
    /// Number of hash functions (sketch dimensionality `k`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the signature has zero coordinates.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Coordinate values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Estimate Jaccard similarity as the fraction of matching coordinates.
    ///
    /// # Panics
    /// Panics if the signatures have different lengths.
    pub fn estimate_jaccard(&self, other: &Signature) -> f64 {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "signatures from different hashers"
        );
        if self.values.is_empty() {
            return 1.0;
        }
        let matches = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.values.len() as f64
    }
}

/// The signatures of a whole batch of item sets: a dense row-major
/// `rows × width` matrix in one allocation. Rows cannot be ragged, a
/// prefix is a slice, and appending records is one `extend_from_slice`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    width: usize,
    rows: usize,
    values: Vec<u64>,
}

impl SignatureMatrix {
    /// Wrap row-major `values`.
    ///
    /// # Panics
    /// Panics unless `values.len() == rows * width`.
    pub fn new(width: usize, rows: usize, values: Vec<u64>) -> Self {
        assert_eq!(values.len(), rows * width, "values must fill rows x width");
        SignatureMatrix {
            width,
            rows,
            values,
        }
    }

    /// Number of signatures.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Coordinates per signature (the sketch dimensionality `k`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Signature of record `i`.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.values[i * self.width..(i + 1) * self.width]
    }
}

/// Hash evaluations (item × permutation) below which a sketching shard is
/// not worth a thread of its own. A spawn costs tens of microseconds; this
/// much hashing costs about 85 µs on the AVX-512 kernel (0.65 ns a hash),
/// 150 µs on AVX2 (1.15 ns) and 220 µs on the `u128` loop (1.7 ns) — on
/// a 2-vCPU AVX-512 host, by the `kernel_ns_per_hash` diagnostic — so
/// several spawns' worth on every path.
const MIN_SHARD_HASHES: usize = 1 << 17;

/// A family of `k` independent linear permutations, stored as two
/// coefficient arrays so the per-item loop streams over them.
#[derive(Debug, Clone)]
pub struct MinHasher {
    a: Vec<u64>,
    b: Vec<u64>,
}

impl MinHasher {
    /// Create `k` permutations seeded deterministically from `seed`.
    pub fn new(k: usize, seed: u64) -> Self {
        let mut seq = SeedSeq::new(seed);
        let (a, b) = (0..k)
            .map(|_| LinearPermutation::from_seed(seq.next()))
            .map(|perm| (perm.a(), perm.b()))
            .unzip();
        MinHasher { a, b }
    }

    /// Sketch dimensionality `k`.
    pub fn num_hashes(&self) -> usize {
        self.a.len()
    }

    /// Sketch one item set: coordinate `j` is `min_{x∈S} π_j(x)`, each
    /// item folded onto `Z_p` once, then pushed through all `k`
    /// permutations.
    ///
    /// The empty set sketches to all-`u64::MAX` (a reserved value no
    /// permutation output attains, since outputs are `< p < u64::MAX`).
    pub fn sketch(&self, set: &ItemSet) -> Signature {
        let mut values = vec![0; self.num_hashes()];
        Kernel::detect().sketch(&self.a, &self.b, set, &mut values);
        Signature { values }
    }

    /// Sketch a batch of sets into a matrix, sharding the rows across up
    /// to `threads` scoped worker threads.
    ///
    /// Sketching consumes no RNG state at sketch time (the permutations
    /// are fixed at construction) and every shard writes its own
    /// contiguous block of rows in place, so the result is bit-identical
    /// at any thread count.
    pub fn sketch_matrix(&self, sets: &[&ItemSet], threads: usize) -> SignatureMatrix {
        self.sketch_extend(
            &SignatureMatrix::new(self.num_hashes(), 0, Vec::new()),
            sets,
            threads,
        )
    }

    /// Extend an existing matrix with sketches of appended sets. Sketching
    /// is a pure per-set function (no cross-record state), so
    /// `prefix ++ sketch(new_sets)` is bit-identical to sketching the
    /// whole concatenated batch from scratch — the property the
    /// incremental planner's append path relies on.
    ///
    /// # Panics
    /// Panics if `prefix` was sketched with a different `k`.
    pub fn sketch_extend(
        &self,
        prefix: &SignatureMatrix,
        new_sets: &[&ItemSet],
        threads: usize,
    ) -> SignatureMatrix {
        let width = self.num_hashes();
        assert_eq!(prefix.width, width, "prefix from a different hasher");
        let rows = prefix.rows + new_sets.len();
        let mut values = Vec::with_capacity(rows * width);
        values.extend_from_slice(&prefix.values);
        values.resize(rows * width, u64::MAX);
        let fresh = &mut values[prefix.values.len()..];
        let hashes = new_sets.iter().map(|s| s.len()).sum::<usize>() * width;
        let shards = threads.min(hashes / MIN_SHARD_HASHES).max(1);
        // With `width == 0` the block is empty and no row has a slot to
        // fill (and `hashes` is 0, so that case never shards).
        let kernel = Kernel::detect();
        let fill = |sets: &[&ItemSet], block: &mut [u64]| {
            for (set, out) in sets.iter().zip(block.chunks_exact_mut(width.max(1))) {
                kernel.sketch(&self.a, &self.b, set, out);
            }
        };
        if shards == 1 {
            fill(new_sets, fresh);
        } else {
            let chunk = new_sets.len().div_ceil(shards);
            crossbeam::thread::scope(|scope| {
                for (sets, block) in new_sets.chunks(chunk).zip(fresh.chunks_mut(chunk * width)) {
                    scope.spawn(move |_| fill(sets, block));
                }
            })
            .expect("sketch worker panicked");
        }
        SignatureMatrix {
            width,
            rows,
            values,
        }
    }
}

/// Minimal internal seed splitter (kept local to avoid a dependency cycle
/// with `pareto-stats`; same SplitMix64 construction).
struct SeedSeq {
    base: u64,
    ctr: u64,
}

impl SeedSeq {
    fn new(base: u64) -> Self {
        SeedSeq { base, ctr: 0 }
    }
    fn next(&mut self) -> u64 {
        let mut z = self
            .base
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.ctr)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.ctr += 1;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_identical_signatures() {
        let h = MinHasher::new(64, 1);
        let s = ItemSet::from_items(vec![3, 9, 27, 81]);
        assert_eq!(h.sketch(&s), h.sketch(&s));
        assert_eq!(h.sketch(&s).estimate_jaccard(&h.sketch(&s)), 1.0);
    }

    #[test]
    fn disjoint_sets_low_estimate() {
        let h = MinHasher::new(128, 2);
        let a = ItemSet::from_items((0..200).collect());
        let b = ItemSet::from_items((10_000..10_200).collect());
        assert!(h.sketch(&a).estimate_jaccard(&h.sketch(&b)) < 0.1);
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        let h = MinHasher::new(256, 3);
        for (lo, hi) in [(0u64, 100u64), (25, 125), (50, 150), (90, 190)] {
            let a = ItemSet::from_items((0..100).collect());
            let b = ItemSet::from_items((lo..hi).collect());
            let exact = a.jaccard(&b);
            let est = h.sketch(&a).estimate_jaccard(&h.sketch(&b));
            assert!(
                (est - exact).abs() < 0.12,
                "exact {exact}, est {est} for range {lo}..{hi}"
            );
        }
    }

    #[test]
    fn empty_set_sketch_is_sentinel() {
        let h = MinHasher::new(8, 4);
        let sig = h.sketch(&ItemSet::empty());
        assert!(sig.values().iter().all(|&v| v == u64::MAX));
        // Two empty sets are identical.
        assert_eq!(sig.estimate_jaccard(&h.sketch(&ItemSet::empty())), 1.0);
    }

    #[test]
    fn different_seeds_differ() {
        let s = ItemSet::from_items(vec![1, 2, 3]);
        let a = MinHasher::new(16, 1).sketch(&s);
        let b = MinHasher::new(16, 2).sketch(&s);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "different hashers")]
    fn mismatched_lengths_panic() {
        let s = ItemSet::from_items(vec![1]);
        let a = MinHasher::new(4, 1).sketch(&s);
        let b = MinHasher::new(8, 1).sketch(&s);
        let _ = a.estimate_jaccard(&b);
    }

    #[test]
    fn parallel_matrix_matches_serial_and_single_sketches() {
        // Big enough (300 sets x 200 items x 32 hashes) that the shard
        // gate admits every thread count below.
        let h = MinHasher::new(32, 13);
        let sets: Vec<ItemSet> = (0..300)
            .map(|i| ItemSet::from_items((i..i + 200).collect()))
            .collect();
        let refs: Vec<&ItemSet> = sets.iter().collect();
        let serial = h.sketch_matrix(&refs, 1);
        assert_eq!((serial.num_rows(), serial.width()), (300, 32));
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(serial.row(i), h.sketch(set).values());
        }
        for threads in [2, 3, 8, 64] {
            assert_eq!(serial, h.sketch_matrix(&refs, threads));
        }
    }

    #[test]
    fn degenerate_batches_are_defined() {
        let h = MinHasher::new(32, 13);
        let set = ItemSet::from_items(vec![1, 2, 3]);
        assert_eq!(h.sketch_matrix(&[], 4).num_rows(), 0);
        assert_eq!(h.sketch_matrix(&[&set], 4).row(0), h.sketch(&set).values());
        // Zero hash functions: rows exist but have no coordinates.
        let none = MinHasher::new(0, 13);
        let m = none.sketch_matrix(&[&set, &set], 4);
        assert_eq!((m.num_rows(), m.width()), (2, 0));
        assert!(m.row(0).is_empty() && m.row(1).is_empty());
        assert_eq!(none.sketch(&set).estimate_jaccard(&none.sketch(&set)), 1.0);
        // All-empty sets: every coordinate is the sentinel.
        let empty = ItemSet::empty();
        let m = h.sketch_matrix(&[&empty, &empty], 1);
        assert!((0..2).all(|i| m.row(i).iter().all(|&v| v == u64::MAX)));
    }

    #[test]
    fn extend_equals_sketching_the_whole_batch() {
        let h = MinHasher::new(16, 9);
        let sets: Vec<ItemSet> = (0..40u64)
            .map(|i| ItemSet::from_items((i * 3..i * 3 + 25).collect()))
            .collect();
        let refs: Vec<&ItemSet> = sets.iter().collect();
        let whole = h.sketch_matrix(&refs, 1);
        for split in [0, 1, 17, 40] {
            let prefix = h.sketch_matrix(&refs[..split], 1);
            assert_eq!(
                h.sketch_extend(&prefix, &refs[split..], 2),
                whole,
                "split {split}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different hasher")]
    fn extend_rejects_a_prefix_of_another_width() {
        let prefix = MinHasher::new(4, 1).sketch_matrix(&[], 1);
        MinHasher::new(8, 1).sketch_extend(&prefix, &[], 1);
    }

    #[test]
    fn subset_similarity_ordering_preserved() {
        // est(a, a-with-1-change) > est(a, a-with-many-changes).
        let h = MinHasher::new(256, 5);
        let base: Vec<u64> = (0..64).collect();
        let a = ItemSet::from_items(base.clone());
        let mut one = base.clone();
        one[0] = 1000;
        let mut many = base.clone();
        for (i, v) in many.iter_mut().enumerate().take(32) {
            *v = 2000 + i as u64;
        }
        let sa = h.sketch(&a);
        let e1 = sa.estimate_jaccard(&h.sketch(&ItemSet::from_items(one)));
        let e2 = sa.estimate_jaccard(&h.sketch(&ItemSet::from_items(many)));
        assert!(e1 > e2);
    }
}
