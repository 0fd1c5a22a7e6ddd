//! Component V: the data partitioner (paper §III-E).
//!
//! Given the optimizer's partition sizes and the stratification, lay the
//! records out across partitions in one of two stratification-driven ways:
//!
//! * [`PartitionLayout::Representative`] — every partition is a stratified
//!   sample of the whole dataset (Cochran: a stratified sample tracks the
//!   underlying distribution far better than a simple random one). Used
//!   for frequent pattern mining, where skew inflates the SON candidate
//!   set.
//! * [`PartitionLayout::SimilarTogether`] — records are ordered by stratum
//!   and chunked to the optimizer's sizes, producing low-entropy
//!   partitions. Used for compression, where similarity inside a
//!   partition is compression ratio.
//!
//! Naive baselines (random, round-robin) are included for the evaluation's
//! comparisons.

use pareto_stats::largest_remainder_apportion;
use pareto_stratify::Stratification;
use rand::seq::SliceRandom;

/// How records are laid out across partitions (both driven by strata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionLayout {
    /// Each partition approximates the global distribution.
    Representative,
    /// Similar records are grouped; partitions are stratum-ordered chunks.
    SimilarTogether,
}

/// The partitioner.
#[derive(Debug, Clone)]
pub struct DataPartitioner {
    seed: u64,
}

impl DataPartitioner {
    /// Create a partitioner (the seed drives the random baseline and
    /// within-stratum shuffling).
    pub fn new(seed: u64) -> Self {
        DataPartitioner { seed }
    }

    /// Stratification-driven partitioning to the given sizes.
    ///
    /// `sizes` must sum to the number of records covered by
    /// `stratification`. Returns record indices per partition.
    pub fn partition(
        &self,
        stratification: &Stratification,
        sizes: &[usize],
        layout: PartitionLayout,
    ) -> Vec<Vec<usize>> {
        let n: usize = stratification.assignments.len();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            n,
            "partition sizes must cover every record exactly once"
        );
        match layout {
            PartitionLayout::Representative => self.representative(stratification, sizes),
            PartitionLayout::SimilarTogether => Self::similar_together(stratification, sizes),
        }
    }

    /// Each stratum is split across partitions proportionally to the
    /// partition sizes, so every partition mirrors the global stratum mix.
    fn representative(&self, strat: &Stratification, sizes: &[usize]) -> Vec<Vec<usize>> {
        let p = sizes.len();
        let mut rng = pareto_stats::seeded_rng(self.seed);
        let mut parts: Vec<Vec<usize>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
        let weights: Vec<f64> = sizes.iter().map(|&s| s as f64).collect();
        // Remaining capacity per partition keeps the final counts exact.
        let mut remaining: Vec<usize> = sizes.to_vec();
        for members in &strat.strata {
            if members.is_empty() {
                continue;
            }
            let mut members = members.clone();
            members.shuffle(&mut rng);
            let mut alloc = largest_remainder_apportion(&weights, members.len());
            // Clamp to remaining capacity; spill overflow to partitions
            // with spare room (largest spare first, deterministic).
            let mut spill = 0usize;
            for i in 0..p {
                if alloc[i] > remaining[i] {
                    spill += alloc[i] - remaining[i];
                    alloc[i] = remaining[i];
                }
            }
            while spill > 0 {
                let (best, spare) = remaining
                    .iter()
                    .zip(&alloc)
                    .map(|(&r, &a)| r - a)
                    .enumerate()
                    .max_by_key(|&(i, spare)| (spare, std::cmp::Reverse(i)))
                    .expect("at least one partition");
                assert!(spare > 0, "capacity accounting broke");
                alloc[best] += 1;
                spill -= 1;
            }
            let mut cursor = 0usize;
            for (i, &take) in alloc.iter().enumerate() {
                parts[i].extend_from_slice(&members[cursor..cursor + take]);
                remaining[i] -= take;
                cursor += take;
            }
        }
        debug_assert!(remaining.iter().all(|&r| r == 0));
        parts
    }

    /// Order records by stratum, then cut chunks of the requested sizes
    /// ("we first order the elements … according to the strata id … then
    /// create the partitions by taking chunks of respective partition
    /// sizes", §III-E).
    fn similar_together(strat: &Stratification, sizes: &[usize]) -> Vec<Vec<usize>> {
        let order = strat.stratum_order();
        let mut parts = Vec::with_capacity(sizes.len());
        let mut cursor = 0usize;
        for &s in sizes {
            parts.push(order[cursor..cursor + s].to_vec());
            cursor += s;
        }
        parts
    }

    /// Baseline: uniform random assignment to the given sizes.
    pub fn random(&self, n: usize, sizes: &[usize]) -> Vec<Vec<usize>> {
        assert_eq!(sizes.iter().sum::<usize>(), n);
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = pareto_stats::seeded_rng(self.seed ^ 0xABCD);
        idx.shuffle(&mut rng);
        let mut parts = Vec::with_capacity(sizes.len());
        let mut cursor = 0usize;
        for &s in sizes {
            parts.push(idx[cursor..cursor + s].to_vec());
            cursor += s;
        }
        parts
    }

    /// Baseline: round-robin in record order (sizes implied: as equal as
    /// possible across `p` partitions).
    pub fn round_robin(n: usize, p: usize) -> Vec<Vec<usize>> {
        assert!(p >= 1);
        let mut parts = vec![Vec::with_capacity(n / p + 1); p];
        for i in 0..n {
            parts[i % p].push(i);
        }
        parts
    }

    /// Equal partition sizes for `n` records over `p` partitions (the
    /// stratified baseline's size vector: heterogeneity-oblivious).
    pub fn equal_sizes(n: usize, p: usize) -> Vec<usize> {
        assert!(p >= 1);
        largest_remainder_apportion(&vec![1.0; p], n)
    }

    /// Baseline: Redis-cluster-style hash-slot placement.
    ///
    /// The paper explicitly avoids Redis cluster mode because "we do not
    /// have control over which key goes to which partition" (§IV). This
    /// reproduces that loss of control: record `id` hashes to one of
    /// 16384 slots (CRC16, as Redis does), and contiguous slot ranges map
    /// to nodes. Neither the sizes nor the content of partitions can be
    /// steered — the contrast the middleware exists to fix.
    pub fn hash_slots(record_ids: &[u64], p: usize) -> Vec<Vec<usize>> {
        assert!(p >= 1);
        const SLOTS: u32 = 16384;
        let mut parts = vec![Vec::new(); p];
        for (idx, id) in record_ids.iter().enumerate() {
            let key = format!("record:{id}");
            let slot = crc16_ccitt(key.as_bytes()) as u32 % SLOTS;
            let node = (slot as usize * p) / SLOTS as usize;
            parts[node].push(idx);
        }
        parts
    }
}

/// CRC16-CCITT (XModem) — the polynomial Redis cluster uses for key slots.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_datagen::generators::{gen_text, TextGenConfig};
    use pareto_stratify::{Stratifier, StratifierConfig};

    fn stratification(n_docs: usize, topics: usize, seed: u64) -> Stratification {
        let ds = gen_text(
            &TextGenConfig {
                num_docs: n_docs,
                num_topics: topics,
                vocab_size: 4000,
                min_len: 15,
                max_len: 40,
                topic_purity: 0.9,
                topic_skew: 0.6,
                word_skew: 0.9,
            },
            seed,
        );
        Stratifier::new(StratifierConfig {
            num_strata: topics,
            ..StratifierConfig::default()
        })
        .stratify(&ds)
    }

    fn assert_exact_cover(parts: &[Vec<usize>], n: usize) {
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "not a partition of 0..{n}");
    }

    #[test]
    fn representative_covers_exactly_with_requested_sizes() {
        let strat = stratification(400, 6, 1);
        let sizes = vec![200, 100, 60, 40];
        let parts =
            DataPartitioner::new(7).partition(&strat, &sizes, PartitionLayout::Representative);
        assert_exact_cover(&parts, 400);
        let got: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(got, sizes);
    }

    #[test]
    fn representative_mirrors_global_stratum_mix() {
        let strat = stratification(600, 5, 2);
        let sizes = vec![300, 150, 150];
        let parts =
            DataPartitioner::new(3).partition(&strat, &sizes, PartitionLayout::Representative);
        // For each partition, its stratum histogram should be close to the
        // global mix (total-variation distance small).
        let k = strat.num_strata();
        let global: Vec<f64> = strat.sizes().iter().map(|&s| s as f64).collect();
        for part in &parts {
            let mut hist = vec![0.0; k];
            for &i in part {
                hist[strat.assignments[i] as usize] += 1.0;
            }
            let tvd = pareto_stats::total_variation_distance(&hist, &global);
            assert!(tvd < 0.08, "partition deviates from global mix: tvd={tvd}");
        }
    }

    #[test]
    fn similar_together_groups_strata() {
        let strat = stratification(400, 4, 4);
        let sizes = vec![100; 4];
        let parts =
            DataPartitioner::new(5).partition(&strat, &sizes, PartitionLayout::SimilarTogether);
        assert_exact_cover(&parts, 400);
        // Entropy of stratum mix per partition must be lower than under
        // the representative layout.
        let k = strat.num_strata();
        let entropy_of = |parts: &[Vec<usize>]| -> f64 {
            parts
                .iter()
                .map(|part| {
                    let mut hist = vec![0.0; k];
                    for &i in part {
                        hist[strat.assignments[i] as usize] += 1.0;
                    }
                    pareto_stats::entropy_bits(&hist)
                })
                .sum::<f64>()
                / parts.len() as f64
        };
        let rep =
            DataPartitioner::new(5).partition(&strat, &sizes, PartitionLayout::Representative);
        assert!(
            entropy_of(&parts) < entropy_of(&rep),
            "similar-together must have lower per-partition entropy"
        );
    }

    #[test]
    fn similar_together_respects_sizes_exactly() {
        let strat = stratification(123, 5, 6);
        let sizes = vec![61, 31, 31];
        let parts =
            DataPartitioner::new(1).partition(&strat, &sizes, PartitionLayout::SimilarTogether);
        assert_exact_cover(&parts, 123);
        assert_eq!(parts.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
    }

    #[test]
    fn extreme_size_skew_handled() {
        // The optimizer may park nearly everything on one node.
        let strat = stratification(200, 4, 8);
        let sizes = vec![197, 1, 1, 1];
        for layout in [
            PartitionLayout::Representative,
            PartitionLayout::SimilarTogether,
        ] {
            let parts = DataPartitioner::new(2).partition(&strat, &sizes, layout);
            assert_exact_cover(&parts, 200);
            assert_eq!(parts[0].len(), 197);
        }
    }

    #[test]
    fn zero_size_partitions_allowed() {
        let strat = stratification(50, 3, 9);
        let sizes = vec![50, 0, 0];
        let parts =
            DataPartitioner::new(2).partition(&strat, &sizes, PartitionLayout::Representative);
        assert_exact_cover(&parts, 50);
        assert!(parts[1].is_empty() && parts[2].is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let strat = stratification(300, 4, 10);
        let sizes = vec![100, 100, 100];
        let a = DataPartitioner::new(11).partition(&strat, &sizes, PartitionLayout::Representative);
        let b = DataPartitioner::new(11).partition(&strat, &sizes, PartitionLayout::Representative);
        assert_eq!(a, b);
        let c = DataPartitioner::new(12).partition(&strat, &sizes, PartitionLayout::Representative);
        assert_ne!(a, c, "different seeds should shuffle differently");
    }

    #[test]
    fn random_baseline_covers() {
        let parts = DataPartitioner::new(3).random(100, &[40, 30, 30]);
        assert_exact_cover(&parts, 100);
        assert_eq!(parts[0].len(), 40);
    }

    #[test]
    fn round_robin_baseline() {
        let parts = DataPartitioner::round_robin(10, 3);
        assert_exact_cover(&parts, 10);
        assert_eq!(parts[0], vec![0, 3, 6, 9]);
        assert_eq!(parts[2].len(), 3);
    }

    #[test]
    fn equal_sizes_sum() {
        assert_eq!(DataPartitioner::equal_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(DataPartitioner::equal_sizes(8, 4), vec![2, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "cover every record")]
    fn size_mismatch_panics() {
        let strat = stratification(50, 3, 13);
        DataPartitioner::new(1).partition(&strat, &[10, 10], PartitionLayout::Representative);
    }

    #[test]
    fn crc16_matches_redis_reference() {
        // Reference value from the Redis cluster spec: "123456789" -> 0x31C3.
        assert_eq!(crc16_ccitt(b"123456789"), 0x31C3);
        assert_eq!(crc16_ccitt(b""), 0x0000);
    }

    #[test]
    fn hash_slots_cover_and_roughly_balance() {
        let ids: Vec<u64> = (0..4000).collect();
        let parts = DataPartitioner::hash_slots(&ids, 4);
        assert_exact_cover(&parts, 4000);
        // Hash placement lands near-equal in expectation but cannot be
        // *steered* — there is no size parameter at all (the §IV
        // complaint). We can only check it stays in a sane band.
        for part in &parts {
            let dev = (part.len() as f64 - 1000.0).abs() / 1000.0;
            assert!(dev < 0.15, "slot imbalance too extreme: {}", part.len());
        }
    }

    #[test]
    fn hash_slots_ignore_content() {
        // Same ids, different data ordering — placement follows ids only,
        // so there is no way to steer similar records together.
        let ids: Vec<u64> = (0..100).collect();
        let a = DataPartitioner::hash_slots(&ids, 3);
        let b = DataPartitioner::hash_slots(&ids, 3);
        assert_eq!(a, b, "pure function of ids");
    }
}
