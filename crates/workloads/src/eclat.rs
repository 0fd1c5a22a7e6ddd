//! Eclat frequent-itemset mining (Zaki, Parthasarathy, Ogihara & Li — the
//! paper's reference [21]).
//!
//! Where Apriori is horizontal (scan transactions per level), Eclat is
//! **vertical**: each item carries its *tidset* (the sorted ids of the
//! transactions containing it), and the support of an itemset is the size
//! of its items' tidset intersection. The search is depth-first over a
//! prefix tree, intersecting tidsets as it descends — usually far fewer
//! ops than Apriori when patterns are long, and the same answer.
//!
//! Included both as a second real workload for the framework (its cost
//! profile differs from Apriori's, exercising the payload-awareness of the
//! estimator) and as an independent oracle for Apriori in tests.

use std::collections::HashMap;

use pareto_datagen::ItemSet;

use crate::apriori::{FrequentItemset, MiningOutput};

/// Eclat parameters.
#[derive(Debug, Clone, Copy)]
pub struct EclatConfig {
    /// Minimum support as a fraction of the transaction count (0, 1].
    pub min_support: f64,
    /// Upper bound on itemset length (match Apriori's bound when
    /// cross-validating).
    pub max_len: usize,
}

impl Default for EclatConfig {
    fn default() -> Self {
        EclatConfig {
            min_support: 0.1,
            max_len: 4,
        }
    }
}

/// The vertical miner.
///
/// ```
/// use pareto_datagen::ItemSet;
/// use pareto_workloads::{Eclat, EclatConfig};
///
/// let db: Vec<ItemSet> = [vec![1u64, 2], vec![1, 2], vec![2, 9]]
///     .into_iter()
///     .map(ItemSet::from_items)
///     .collect();
/// let refs: Vec<&ItemSet> = db.iter().collect();
/// let (out, _) = Eclat::new(EclatConfig {
///     min_support: 0.6,
///     ..EclatConfig::default()
/// })
/// .mine(&refs);
/// // {2} in all three, {1} and {1,2} in two.
/// assert_eq!(out.itemsets.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Eclat {
    cfg: EclatConfig,
}

impl Eclat {
    /// Create a miner.
    pub fn new(cfg: EclatConfig) -> Self {
        assert!(
            crate::valid_support(cfg.min_support),
            "support must be in (0, 1]"
        );
        assert!(cfg.max_len >= 1);
        Eclat { cfg }
    }

    /// Mine the transactions; returns the same [`MiningOutput`] shape as
    /// Apriori (sorted by `(len, items)`) and an exact op count (one op
    /// per tidset element touched during intersections).
    pub fn mine(&self, transactions: &[&ItemSet]) -> (MiningOutput, u64) {
        let n = transactions.len();
        let mut ops = 0u64;
        let mut out = MiningOutput {
            num_transactions: n,
            ..MiningOutput::default()
        };
        if n == 0 {
            return (out, ops);
        }
        let minsup = ((self.cfg.min_support * n as f64).ceil() as u32).max(1);

        // Build the vertical layout: item -> sorted tidset.
        let mut tidsets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (tid, t) in transactions.iter().enumerate() {
            ops += t.len() as u64;
            for item in t.iter() {
                tidsets.entry(item).or_default().push(tid as u32);
            }
        }
        // Frequent 1-itemsets, sorted by item for deterministic order.
        let mut roots: Vec<(u64, Vec<u32>)> = tidsets
            .into_iter()
            .filter(|(_, tids)| tids.len() as u32 >= minsup)
            .collect();
        roots.sort_by_key(|(item, _)| *item);

        for (item, tids) in &roots {
            out.itemsets.push(FrequentItemset {
                items: vec![*item],
                count: tids.len() as u32,
            });
        }
        out.candidates_generated += roots.len() as u64;

        // DFS over the prefix tree.
        let mut prefix: Vec<u64> = Vec::new();
        for i in 0..roots.len() {
            prefix.push(roots[i].0);
            let siblings: Vec<&(u64, Vec<u32>)> = roots[i + 1..].iter().collect();
            self.extend(
                &mut prefix,
                &roots[i].1,
                &siblings,
                minsup,
                &mut out,
                &mut ops,
            );
            prefix.pop();
        }
        out.itemsets
            .sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        (out, ops)
    }

    /// Recursive prefix extension: intersect the prefix tidset with each
    /// sibling's, keep frequent results, descend.
    fn extend(
        &self,
        prefix: &mut Vec<u64>,
        prefix_tids: &[u32],
        siblings: &[&(u64, Vec<u32>)],
        minsup: u32,
        out: &mut MiningOutput,
        ops: &mut u64,
    ) {
        if prefix.len() >= self.cfg.max_len {
            return;
        }
        // Intersect with every right-sibling; collect the frequent ones.
        let mut children: Vec<(u64, Vec<u32>)> = Vec::new();
        for (item, tids) in siblings {
            *ops += (prefix_tids.len() + tids.len()) as u64;
            let inter = intersect_sorted(prefix_tids, tids);
            out.candidates_generated += 1;
            if inter.len() as u32 >= minsup {
                let mut items = prefix.clone();
                items.push(*item);
                out.itemsets.push(FrequentItemset {
                    items,
                    count: inter.len() as u32,
                });
                children.push((*item, inter));
            }
        }
        for i in 0..children.len() {
            prefix.push(children[i].0);
            let next_siblings: Vec<&(u64, Vec<u32>)> = children[i + 1..].iter().collect();
            self.extend(prefix, &children[i].1, &next_siblings, minsup, out, ops);
            prefix.pop();
        }
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{Apriori, AprioriConfig};

    fn db(raw: &[&[u64]]) -> Vec<ItemSet> {
        raw.iter()
            .map(|r| ItemSet::from_items(r.to_vec()))
            .collect()
    }

    fn refs(sets: &[ItemSet]) -> Vec<&ItemSet> {
        sets.iter().collect()
    }

    #[test]
    fn classic_example_matches_apriori() {
        let data = db(&[&[1, 3, 4], &[2, 3, 5], &[1, 2, 3, 5], &[2, 5]]);
        let (eclat, _) = Eclat::new(EclatConfig {
            min_support: 0.5,
            max_len: 4,
        })
        .mine(&refs(&data));
        let (apriori, _) = Apriori::new(AprioriConfig {
            min_support: 0.5,
            max_len: 4,
            max_candidates: 0,
        })
        .mine(&refs(&data));
        assert_eq!(eclat.itemsets, apriori.itemsets);
    }

    #[test]
    fn agrees_with_apriori_across_supports() {
        // Structured data with overlapping topics.
        let data: Vec<ItemSet> = (0..40u64)
            .map(|i| {
                ItemSet::from_items(vec![
                    1,
                    2 + (i % 3),
                    10 + (i % 5),
                    20 + (i % 2),
                    30 + (i % 7),
                ])
            })
            .collect();
        for support in [0.9, 0.5, 0.25, 0.1] {
            let (e, _) = Eclat::new(EclatConfig {
                min_support: support,
                max_len: 4,
            })
            .mine(&refs(&data));
            let (a, _) = Apriori::new(AprioriConfig {
                min_support: support,
                max_len: 4,
                max_candidates: 0,
            })
            .mine(&refs(&data));
            assert_eq!(e.itemsets, a.itemsets, "divergence at support {support}");
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let miner = Eclat::new(EclatConfig::default());
        let (out, ops) = miner.mine(&[]);
        assert!(out.itemsets.is_empty());
        assert_eq!(ops, 0);
        let data = db(&[&[]]);
        let (out, _) = miner.mine(&refs(&data));
        assert!(out.itemsets.is_empty());
    }

    #[test]
    fn max_len_respected() {
        let row: &[u64] = &[1, 2, 3, 4, 5, 6];
        let data = db(&[row, row, row]);
        let (out, _) = Eclat::new(EclatConfig {
            min_support: 1.0,
            max_len: 2,
        })
        .mine(&refs(&data));
        assert!(out.itemsets.iter().all(|f| f.items.len() <= 2));
        assert_eq!(out.itemsets.len(), 6 + 15);
    }

    #[test]
    fn counts_are_exact_tidset_sizes() {
        let data = db(&[&[1, 2], &[1, 2], &[2, 3], &[1]]);
        let (out, _) = Eclat::new(EclatConfig {
            min_support: 0.25,
            max_len: 3,
        })
        .mine(&refs(&data));
        let find = |items: &[u64]| out.itemsets.iter().find(|f| f.items == items).unwrap();
        assert_eq!(find(&[1]).count, 3);
        assert_eq!(find(&[2]).count, 3);
        assert_eq!(find(&[1, 2]).count, 2);
        assert_eq!(find(&[2, 3]).count, 1);
    }

    #[test]
    fn vertical_ops_cheaper_on_long_patterns() {
        // Dense co-occurrence: depth-first tidset intersection touches far
        // fewer elements than Apriori's per-level full scans.
        let row: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8];
        let data: Vec<ItemSet> = (0..60).map(|_| ItemSet::from_items(row.to_vec())).collect();
        let (_, eclat_ops) = Eclat::new(EclatConfig {
            min_support: 0.9,
            max_len: 6,
        })
        .mine(&refs(&data));
        let (_, apriori_ops) = Apriori::new(AprioriConfig {
            min_support: 0.9,
            max_len: 6,
            max_candidates: 0,
        })
        .mine(&refs(&data));
        assert!(
            eclat_ops < apriori_ops,
            "eclat {eclat_ops} should beat apriori {apriori_ops} here"
        );
    }
}
