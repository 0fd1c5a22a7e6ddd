//! The sketching inner loop, `out[j] = min_{x∈S} (a_j·x + b_j) mod p`,
//! in one portable and two vector versions that agree bit for bit.
//!
//! The portable version is the `u128` [`affine`] loop. x86 has no vector
//! 64×64→128 multiply, so that loop does not vectorize. The vector
//! versions compute the same residue from 32-bit limbs, whose products
//! `vpmuludq` forms eight (AVX-512) or four (AVX2) lanes at a time:
//!
//! ```text
//! a = a1·2^32 + a0,  x = x1·2^32 + x0       (a1, x1 < 2^29; a0, x0 < 2^32)
//! a·x = a1x1·2^64 + (a1x0 + a0x1)·2^32 + a0x0
//!     ≡ 8·a1x1 + (mid mod 2^29)·2^32 + mid/2^29 + a0x0  (mod p, 2^61 ≡ 1)
//! ```
//!
//! where `mid = a1x0 + a0x1 < 2^62`, and `a0x0 < 2^64` is folded to
//! `(lo & p) + (lo >> 61) ≤ p + 7` first. The five terms sum below
//! `3·2^61 + 2^34 < 2^63`; one more fold leaves at most `p + 3`, and from
//! there the two conditional subtracts of [`affine`] finish the job. As
//! every value that is compared stays below 2^63, the compares and the
//! running minimum are signed, which AVX2 has (`vpcmpgtq`) and its
//! unsigned forms lack. For the same reason the running minimum starts at
//! `p` rather than at `u64::MAX`: no output reaches `p`, so a coordinate
//! still at `p` after the last item belongs to an empty set and is
//! rewritten to the `u64::MAX` sentinel at the end.
//!
//! Without vector lanes the limb form is about twice as slow as the
//! `u128` loop, so the `u128` loop stays the path on every other CPU.

use pareto_datagen::ItemSet;

use crate::permutation::{affine, reduce, PRIME};

/// A compiled version of the sketching loop that this CPU runs. Its
/// field is private to this module, so only [`Kernel::detect`] (and the
/// tests' `available`) build one — each after the feature check that the
/// `unsafe` call in [`Kernel::sketch`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Kernel(Version);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    /// The `u128` [`affine`] loop, for every CPU.
    Portable,
    /// The limb loop compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The limb loop compiled for AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The fastest version this CPU runs.
    pub(crate) fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Kernel(Version::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                return Kernel(Version::Avx2);
            }
        }
        Kernel(Version::Portable)
    }

    /// Every version this CPU runs, the portable one first.
    #[cfg(test)]
    fn available() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![Kernel(Version::Portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                kernels.push(Kernel(Version::Avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                kernels.push(Kernel(Version::Avx512));
            }
        }
        kernels
    }

    /// Write `set`'s signature under the permutations `(a[j], b[j])` into
    /// `out`; every `a[j]` must lie in `[1, p)` and every `b[j]` in
    /// `[0, p)`. The empty set sketches to all-`u64::MAX`.
    #[allow(unsafe_code)]
    pub(crate) fn sketch(self, a: &[u64], b: &[u64], set: &ItemSet, out: &mut [u64]) {
        match self.0 {
            Version::Portable => sketch_u128(a, b, set, out),
            #[cfg(target_arch = "x86_64")]
            Version::Avx2 => {
                // SAFETY: a `Kernel(Version::Avx2)` is only built after
                // `is_x86_feature_detected!("avx2")` returned true, so
                // this CPU runs the AVX2 instructions the callee uses.
                unsafe { sketch_avx2(a, b, set, out) }
            }
            #[cfg(target_arch = "x86_64")]
            Version::Avx512 => {
                // SAFETY: a `Kernel(Version::Avx512)` is only built after
                // `is_x86_feature_detected!("avx512f")` returned true, so
                // this CPU runs the AVX-512F instructions the callee uses.
                unsafe { sketch_avx512(a, b, set, out) }
            }
        }
    }
}

/// The portable loop: one 128-bit multiply per hash.
fn sketch_u128(a: &[u64], b: &[u64], set: &ItemSet, out: &mut [u64]) {
    out.fill(u64::MAX);
    for x in set.iter() {
        let x = reduce(x);
        for ((v, &a), &b) in out.iter_mut().zip(a).zip(b) {
            *v = (*v).min(affine(a, x, b));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sketch_avx2(a: &[u64], b: &[u64], set: &ItemSet, out: &mut [u64]) {
    sketch_limbs(a, b, set, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sketch_avx512(a: &[u64], b: &[u64], set: &ItemSet, out: &mut [u64]) {
    sketch_limbs(a, b, set, out);
}

/// The limb loop (see the module docs), inlined into each vector version
/// so that the compiler vectorizes it for that version's lanes.
#[inline(always)]
fn sketch_limbs(a: &[u64], b: &[u64], set: &ItemSet, out: &mut [u64]) {
    const LO32: u64 = (1 << 32) - 1;
    const LO29: u64 = (1 << 29) - 1;
    const P: i64 = PRIME as i64;
    out.fill(PRIME);
    for x in set.iter() {
        let x = reduce(x);
        let (x0, x1) = (x & LO32, x >> 32);
        // `8·x1 < 2^32`. Formed in a `u32`, the compiler sees that too,
        // and `8·a1x1` stays one 32-bit multiply.
        let x1_8 = u64::from((x1 as u32) << 3);
        for ((v, &a), &b) in out.iter_mut().zip(a).zip(b) {
            let (a0, a1) = (a & LO32, a >> 32);
            let lo = a0 * x0;
            let mid = a1 * x0 + a0 * x1;
            let s = a1 * x1_8 + ((mid & LO29) << 32) + (mid >> 29) + (lo & PRIME) + (lo >> 61);
            let mut r = ((s & PRIME) + (s >> 61)) as i64;
            if r >= P {
                r -= P;
            }
            r += b as i64;
            if r >= P {
                r -= P;
            }
            *v = (*v as i64).min(r) as u64;
        }
    }
    for v in out.iter_mut() {
        if *v == PRIME {
            *v = u64::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearPermutation;
    use proptest::prelude::*;

    /// Items at the edges of the fold and of the limb split.
    const ITEM_EDGES: [u64; 8] = [
        0,
        1,
        PRIME - 1,
        PRIME,
        PRIME + 1,
        1 << 32,
        1 << 61,
        u64::MAX,
    ];
    const A_EDGES: [u64; 7] = [1, 2, (1 << 32) - 1, 1 << 32, 1 << 60, PRIME - 2, PRIME - 1];
    const B_EDGES: [u64; 5] = [0, 1, PRIME - 3, PRIME - 2, PRIME - 1];
    const WIDTHS: [usize; 5] = [0, 1, 63, 64, 65];

    fn mul_mod(a: u64, b: u64) -> u64 {
        (a as u128 * b as u128 % PRIME as u128) as u64
    }

    /// `a⁻¹ mod p`, as `a^(p−2)`.
    fn inverse(a: u64) -> u64 {
        let (mut base, mut exp, mut acc) = (a, PRIME - 2, 1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul_mod(acc, base);
            }
            base = mul_mod(base, base);
            exp >>= 1;
        }
        acc
    }

    /// The signature of `items`, one [`LinearPermutation::apply`] per
    /// coordinate and item.
    fn oracle(a: &[u64], b: &[u64], items: &[u64]) -> Vec<u64> {
        a.iter()
            .zip(b)
            .map(|(&a, &b)| {
                let perm = LinearPermutation::new(a, b);
                items
                    .iter()
                    .map(|&x| perm.apply(x))
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect()
    }

    #[test]
    fn every_compiled_kernel_this_cpu_runs_is_tested() {
        let kernels = Kernel::available();
        println!("sketch kernels run by this CPU: {kernels:?}");
        assert_eq!(kernels.first(), Some(&Kernel(Version::Portable)));
        assert_eq!(
            kernels.last(),
            Some(&Kernel::detect()),
            "detect picks the fastest"
        );
    }

    /// Timing diagnostic, not a check: ns per hash of every version this
    /// CPU runs, over `rcv1`-like sets (120 items below 2^32, `k = 64`).
    /// Run with `cargo test --release -p pareto-sketch --lib
    /// kernel_ns_per_hash -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn kernel_ns_per_hash() {
        let hasher = crate::MinHasher::new(64, 7);
        let sets: Vec<ItemSet> = (0..2_000u64)
            .map(|i| {
                ItemSet::from_items(
                    (0..120)
                        .map(|j| (i * 7_919 + j * 104_729) % 47_000)
                        .collect(),
                )
            })
            .collect();
        let hashes = sets.iter().map(ItemSet::len).sum::<usize>() * 64;
        let mut out = vec![0; 64];
        for kernel in Kernel::available() {
            let best = (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    for set in &sets {
                        kernel.sketch(&hasher.a, &hasher.b, set, &mut out);
                        std::hint::black_box(&out);
                    }
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            println!("{kernel:?}: {:.2} ns/hash", best * 1e9 / hashes as f64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every version this CPU runs against the `u128` oracle,
        /// coordinate by coordinate, on the whole set and on each item
        /// alone (where no smaller item can hide a wrong residue). Besides
        /// random items and the edges, items `c·a_j⁻¹ mod p` make
        /// `a_j·x ≡ c` small, the case in which the limb sum folds to a
        /// non-canonical `p + c` and, with `b_j` near `p`, both
        /// conditional subtracts are needed.
        #[test]
        fn kernels_equal_the_u128_oracle(
            width in 0usize..WIDTHS.len(),
            coeffs in collection::vec((0u8..3, any::<u64>(), 0u8..3, any::<u64>()), 65),
            raw_items in collection::vec((0u8..3, any::<u64>(), 1u64..4), 0..12),
        ) {
            let k = WIDTHS[width];
            let (a, b): (Vec<u64>, Vec<u64>) = coeffs[..k]
                .iter()
                .map(|&(a_kind, a, b_kind, b)| {
                    let a = match a_kind {
                        0 => A_EDGES[(a % A_EDGES.len() as u64) as usize],
                        _ => a % (PRIME - 1) + 1,
                    };
                    let b = match b_kind {
                        0 => B_EDGES[(b % B_EDGES.len() as u64) as usize],
                        _ => b % PRIME,
                    };
                    (a, b)
                })
                .unzip();
            let items: Vec<u64> = raw_items
                .iter()
                .map(|&(kind, x, c)| match kind {
                    0 => x,
                    1 => ITEM_EDGES[(x % ITEM_EDGES.len() as u64) as usize],
                    _ if k == 0 => x,
                    _ => mul_mod(c, inverse(a[(x % k as u64) as usize])),
                })
                .collect();
            let sets: Vec<Vec<u64>> = std::iter::once(items.clone())
                .chain(items.iter().map(|&x| vec![x]))
                .chain(std::iter::once(Vec::new()))
                .collect();
            for kernel in Kernel::available() {
                for set in &sets {
                    let mut out = vec![0; k];
                    kernel.sketch(&a, &b, &ItemSet::from_items(set.clone()), &mut out);
                    prop_assert_eq!(&out, &oracle(&a, &b, set), "{:?} on {:?}", kernel, set);
                }
            }
        }
    }
}
