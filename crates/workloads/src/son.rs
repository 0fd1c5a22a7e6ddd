//! The Savasere–Omiecinski–Navathe (SON) partition algorithm for
//! distributed frequent-pattern mining (§V-C1).
//!
//! Phase 1: mine each partition locally at the support fraction (any
//! globally frequent itemset is locally frequent in at least one
//! partition, so the union of local results is a complete candidate set).
//! Phase 2: rescan every partition to count the global support of each
//! candidate and prune the **false positives** — candidates that were only
//! locally frequent. Skewed partitions inflate the candidate union and the
//! phase-2 scan cost, which is exactly the degradation stratified
//! partitioning prevents.
//!
//! The per-phase, per-partition functions are exposed separately so the
//! framework can place each on its simulated node; `son_distributed_mine`
//! is the single-process reference composition used by tests.

use std::collections::HashMap;

use pareto_datagen::ItemSet;

use crate::apriori::{count_candidates, Apriori, AprioriConfig, FrequentItemset, MiningOutput};
use crate::eclat::{Eclat, EclatConfig};

/// Which local miner SON runs in phase 1. Both are exact, so the global
/// result is identical; their *cost profiles* differ (level-wise scans vs
/// depth-first tidset intersections), which exercises the framework's
/// payload-aware estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalMiner {
    /// Agrawal–Srikant level-wise mining (the paper's workload).
    #[default]
    Apriori,
    /// Zaki et al. vertical mining (the paper's reference [21]).
    Eclat,
}

/// Phase-1 result for one partition.
#[derive(Debug, Clone)]
pub struct SonLocal {
    /// Locally frequent itemsets (at the local scaled threshold).
    pub local: MiningOutput,
    /// Ops spent mining this partition.
    pub ops: u64,
}

/// Phase 1: mine one partition locally with `miner`. The Eclat path
/// reuses the Apriori config's support/length bounds.
pub fn son_local_mine_with(
    miner: LocalMiner,
    partition: &[&ItemSet],
    cfg: &AprioriConfig,
) -> SonLocal {
    let (local, ops) = match miner {
        LocalMiner::Apriori => Apriori::new(*cfg).mine(partition),
        LocalMiner::Eclat => Eclat::new(EclatConfig {
            min_support: cfg.min_support,
            max_len: cfg.max_len,
        })
        .mine(partition),
    };
    SonLocal { local, ops }
}

/// Union the locally frequent itemsets into the global candidate set
/// (sorted, deduplicated).
pub fn son_candidate_union(locals: &[&MiningOutput]) -> Vec<Vec<u64>> {
    let mut candidates: Vec<Vec<u64>> = locals
        .iter()
        .flat_map(|m| m.itemsets.iter().map(|f| f.items.clone()))
        .collect();
    candidates.sort();
    candidates.dedup();
    candidates
}

/// Phase 2: count every candidate's support within one partition.
/// Returns per-candidate counts and the scan ops.
pub fn son_global_count(candidates: &[Vec<u64>], partition: &[&ItemSet]) -> (Vec<u32>, u64) {
    count_candidates(candidates, partition)
}

/// Final result of a distributed mine.
#[derive(Debug, Clone)]
pub struct SonOutput {
    /// The globally frequent itemsets with exact global counts.
    pub global_frequent: Vec<FrequentItemset>,
    /// Size of the phase-2 candidate set (the search space; paper §I).
    pub candidate_count: usize,
    /// Candidates that failed the global threshold — the false positives
    /// the second scan exists to prune.
    pub false_positives: usize,
    /// Per-partition `(phase1_ops, phase2_ops)`.
    pub per_partition_ops: Vec<(u64, u64)>,
}

/// Merge per-partition candidate counts and apply the global threshold.
pub fn son_merge(
    candidates: Vec<Vec<u64>>,
    per_partition_counts: &[Vec<u32>],
    total_transactions: usize,
    min_support: f64,
) -> (Vec<FrequentItemset>, usize) {
    let minsup = ((min_support * total_transactions as f64).ceil() as u32).max(1);
    let mut totals: HashMap<&[u64], u32> = HashMap::new();
    for counts in per_partition_counts {
        assert_eq!(
            counts.len(),
            candidates.len(),
            "count vector shape mismatch"
        );
        for (cand, &c) in candidates.iter().zip(counts) {
            *totals.entry(cand.as_slice()).or_insert(0) += c;
        }
    }
    let mut frequent: Vec<FrequentItemset> = candidates
        .iter()
        .filter_map(|cand| {
            let count = totals.get(cand.as_slice()).copied().unwrap_or(0);
            (count >= minsup).then(|| FrequentItemset {
                items: cand.clone(),
                count,
            })
        })
        .collect();
    let false_positives = candidates.len() - frequent.len();
    frequent.sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    (frequent, false_positives)
}

/// Reference single-process composition of both phases.
pub fn son_distributed_mine(partitions: &[Vec<&ItemSet>], cfg: &AprioriConfig) -> SonOutput {
    let locals: Vec<SonLocal> = partitions
        .iter()
        .map(|p| son_local_mine_with(LocalMiner::Apriori, p, cfg))
        .collect();
    let local_refs: Vec<&MiningOutput> = locals.iter().map(|l| &l.local).collect();
    let candidates = son_candidate_union(&local_refs);
    let mut per_partition_counts = Vec::with_capacity(partitions.len());
    let mut per_partition_ops = Vec::with_capacity(partitions.len());
    for (partition, local) in partitions.iter().zip(&locals) {
        let (counts, ops2) = son_global_count(&candidates, partition);
        per_partition_counts.push(counts);
        per_partition_ops.push((local.ops, ops2));
    }
    let total: usize = partitions.iter().map(Vec::len).sum();
    let (global_frequent, false_positives) = son_merge(
        candidates.clone(),
        &per_partition_counts,
        total,
        cfg.min_support,
    );
    SonOutput {
        global_frequent,
        candidate_count: candidates.len(),
        false_positives,
        per_partition_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(raw: &[&[u64]]) -> Vec<ItemSet> {
        raw.iter()
            .map(|r| ItemSet::from_items(r.to_vec()))
            .collect()
    }

    fn cfg(support: f64) -> AprioriConfig {
        AprioriConfig {
            min_support: support,
            ..AprioriConfig::default()
        }
    }

    /// SON must return exactly what a direct Apriori over the full data
    /// returns — it is an exact algorithm, not an approximation.
    #[test]
    fn son_equals_direct_mining() {
        let data = db(&[
            &[1, 2, 3],
            &[1, 2],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 4],
            &[3, 4],
            &[1, 2, 3, 4],
        ]);
        let refs: Vec<&ItemSet> = data.iter().collect();
        let (direct, _) = Apriori::new(cfg(0.4)).mine(&refs);

        // Any split, including a skewed one.
        for split in [4usize, 2, 6] {
            let partitions = vec![refs[..split].to_vec(), refs[split..].to_vec()];
            let son = son_distributed_mine(&partitions, &cfg(0.4));
            assert_eq!(
                son.global_frequent, direct.itemsets,
                "SON must match direct mining for split {split}"
            );
        }
    }

    #[test]
    fn false_positives_counted() {
        // Partition 1 is all {1,2}; partition 2 is all {8,9}. Locally both
        // are frequent; globally (support 0.8) neither pair survives if it
        // only appears in half the data.
        let p1 = db(&[&[1, 2], &[1, 2], &[1, 2]]);
        let p2 = db(&[&[8, 9], &[8, 9], &[8, 9]]);
        let partitions = vec![p1.iter().collect::<Vec<_>>(), p2.iter().collect::<Vec<_>>()];
        let son = son_distributed_mine(&partitions, &cfg(0.8));
        assert!(son.global_frequent.is_empty());
        assert_eq!(son.false_positives, son.candidate_count);
        assert!(son.candidate_count >= 6, "both sides' sets are candidates");
    }

    #[test]
    fn skewed_partitions_inflate_candidates() {
        // Same data, stratified vs skewed split: the skewed split must
        // produce at least as many (here strictly more) candidates.
        // Item 0 is universal (globally frequent); topic cores {1,2,3} and
        // {7,8,9} each cover half the data, below the global threshold.
        let mut data = Vec::new();
        for i in 0..24u64 {
            if i % 2 == 0 {
                data.push(ItemSet::from_items(vec![0, 1, 2, 3]));
            } else {
                data.push(ItemSet::from_items(vec![0, 7, 8, 9]));
            }
        }
        let refs: Vec<&ItemSet> = data.iter().collect();
        // Stratified: contiguous halves of the interleaved stream, so both
        // partitions see both topics at the global 50% rate, below the 60%
        // threshold — no spurious locals.
        let strat = vec![refs[..12].to_vec(), refs[12..].to_vec()];
        // Skewed: each partition holds one topic, so every subset of that
        // topic's core is locally 100% frequent — candidate explosion.
        let by_topic = vec![
            refs.iter()
                .filter(|s| s.contains(1))
                .copied()
                .collect::<Vec<_>>(),
            refs.iter()
                .filter(|s| s.contains(7))
                .copied()
                .collect::<Vec<_>>(),
        ];
        let c = cfg(0.6);
        let son_strat = son_distributed_mine(&strat, &c);
        let son_skew = son_distributed_mine(&by_topic, &c);
        assert!(
            son_skew.candidate_count > son_strat.candidate_count,
            "skewed {} should exceed stratified {}",
            son_skew.candidate_count,
            son_strat.candidate_count
        );
        // Both must still be exact.
        let (direct, _) = Apriori::new(c).mine(&refs);
        assert_eq!(son_strat.global_frequent, direct.itemsets);
        assert_eq!(son_skew.global_frequent, direct.itemsets);
    }

    #[test]
    fn per_partition_ops_reported() {
        let data = db(&[&[1, 2], &[1, 2], &[3, 4], &[3, 4]]);
        let refs: Vec<&ItemSet> = data.iter().collect();
        let partitions = vec![refs[..2].to_vec(), refs[2..].to_vec()];
        let son = son_distributed_mine(&partitions, &cfg(0.5));
        assert_eq!(son.per_partition_ops.len(), 2);
        assert!(son.per_partition_ops.iter().all(|&(a, b)| a > 0 && b > 0));
    }

    #[test]
    fn empty_partition_tolerated() {
        let data = db(&[&[1, 2], &[1, 2]]);
        let refs: Vec<&ItemSet> = data.iter().collect();
        let partitions = vec![refs.clone(), Vec::new()];
        let son = son_distributed_mine(&partitions, &cfg(0.5));
        assert!(son
            .global_frequent
            .iter()
            .any(|f| f.items == vec![1, 2] && f.count == 2));
    }

    #[test]
    fn son_with_eclat_matches_son_with_apriori() {
        let data = db(&[
            &[1, 2, 3],
            &[1, 2],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 4],
        ]);
        let refs: Vec<&ItemSet> = data.iter().collect();
        let partitions = [refs[..3].to_vec(), refs[3..].to_vec()];
        let c = cfg(0.4);
        for partition in &partitions {
            let a = son_local_mine_with(LocalMiner::Apriori, partition, &c);
            let e = son_local_mine_with(LocalMiner::Eclat, partition, &c);
            assert_eq!(a.local.itemsets, e.local.itemsets);
        }
    }

    #[test]
    fn candidate_union_dedups() {
        let a = MiningOutput {
            itemsets: vec![FrequentItemset {
                items: vec![1, 2],
                count: 3,
            }],
            candidates_generated: 1,
            num_transactions: 3,
        };
        let b = MiningOutput {
            itemsets: vec![
                FrequentItemset {
                    items: vec![1, 2],
                    count: 5,
                },
                FrequentItemset {
                    items: vec![9],
                    count: 2,
                },
            ],
            candidates_generated: 2,
            num_transactions: 5,
        };
        let union = son_candidate_union(&[&a, &b]);
        assert_eq!(union, vec![vec![1, 2], vec![9]]);
    }
}
