//! Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994).
//!
//! The classic level-wise algorithm: count 1-itemsets, then repeatedly
//! join the frequent `(k−1)`-itemsets into `k`-candidates, prune candidates
//! with an infrequent subset, and count the survivors against the
//! transactions. The returned `ops` tally counts every transaction-item
//! touch and every candidate containment probe of that textbook
//! formulation — the quantity that actually drives runtime ("the total
//! number of candidate patterns represents the search space", paper §I).
//!
//! `ops` is the **cost model** the simulated cluster turns into node time
//! and the LP's time models are fitted on; it is deliberately independent
//! of how fast this process arrives at the answer. Internally itemsets are
//! flat rows of dense item ranks and support is counted vertically — one
//! transaction bitset per item, a candidate's support being the popcount
//! of its items' AND — while every tally keeps the closed form of the
//! horizontal scan it replaces (`n · Σ|candidate|` for a counting pass).

use pareto_datagen::ItemSet;

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct AprioriConfig {
    /// Minimum support as a fraction of the transaction count (0, 1].
    pub min_support: f64,
    /// Upper bound on itemset length (defense against candidate
    /// explosions on pathological inputs; the paper's experiments vary
    /// support rather than length).
    pub max_len: usize,
    /// Hard cap on live candidates per level (0 = unlimited). A bound
    /// explosion guard only: when it binds, mining (and SON exactness) is
    /// truncated — size workloads so it never binds in experiments.
    pub max_candidates: usize,
}

impl Default for AprioriConfig {
    fn default() -> Self {
        AprioriConfig {
            min_support: 0.1,
            max_len: 4,
            max_candidates: 200_000,
        }
    }
}

/// One frequent itemset with its absolute support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The items, sorted ascending.
    pub items: Vec<u64>,
    /// Number of transactions containing all the items.
    pub count: u32,
}

/// Result of one mining run.
#[derive(Debug, Clone, Default)]
pub struct MiningOutput {
    /// All frequent itemsets, every length, sorted by (len, items).
    pub itemsets: Vec<FrequentItemset>,
    /// Total candidates generated across levels (the search-space size).
    pub candidates_generated: u64,
    /// Number of transactions mined.
    pub num_transactions: usize,
}

impl MiningOutput {
    /// The **closed** frequent itemsets: those with no frequent superset
    /// of identical support (the lossless condensed representation the
    /// CloseGraph line of work — the paper's reference [23] — mines
    /// directly; here derived by post-processing).
    pub fn closed_itemsets(&self) -> Vec<&FrequentItemset> {
        self.itemsets
            .iter()
            .filter(|f| {
                !self.itemsets.iter().any(|g| {
                    g.count == f.count
                        && g.items.len() > f.items.len()
                        && is_subset(&f.items, &g.items)
                })
            })
            .collect()
    }
}

/// `a ⊆ b` for sorted item slices.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    let mut j = 0usize;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// The miner.
///
/// ```
/// use pareto_datagen::ItemSet;
/// use pareto_workloads::{Apriori, AprioriConfig};
///
/// let db: Vec<ItemSet> = [vec![1u64, 2, 3], vec![1, 2], vec![2, 3]]
///     .into_iter()
///     .map(ItemSet::from_items)
///     .collect();
/// let refs: Vec<&ItemSet> = db.iter().collect();
/// let (out, ops) = Apriori::new(AprioriConfig {
///     min_support: 0.6, // at least 2 of 3 transactions
///     ..AprioriConfig::default()
/// })
/// .mine(&refs);
/// assert!(out.itemsets.iter().any(|f| f.items == vec![1, 2] && f.count == 2));
/// assert!(ops > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Apriori {
    cfg: AprioriConfig,
}

impl Apriori {
    /// Create a miner.
    pub fn new(cfg: AprioriConfig) -> Self {
        assert!(
            cfg.min_support > 0.0 && cfg.min_support <= 1.0,
            "support must be in (0, 1]"
        );
        assert!(cfg.max_len >= 1);
        Apriori { cfg }
    }

    /// Absolute support threshold for `n` transactions.
    pub fn abs_support(&self, n: usize) -> u32 {
        ((self.cfg.min_support * n as f64).ceil() as u32).max(1)
    }

    /// Mine the transactions. Returns the output and the exact op count.
    pub fn mine(&self, transactions: &[&ItemSet]) -> (MiningOutput, u64) {
        let n = transactions.len();
        let mut ops: u64 = 0;
        let mut out = MiningOutput {
            num_transactions: n,
            ..MiningOutput::default()
        };
        if n == 0 {
            return (out, ops);
        }
        let minsup = self.abs_support(n);

        // --- L1: singleton counts, as runs of the sorted item stream
        // (a stable sort merges the already-sorted transactions) ---
        let mut stream: Vec<u64> = Vec::new();
        for t in transactions {
            ops += t.len() as u64;
            stream.extend_from_slice(t.as_slice());
        }
        stream.sort();
        let mut items = Vec::new();
        let mut start = 0;
        while start < stream.len() {
            let item = stream[start];
            let count = stream[start..].partition_point(|&x| x == item);
            if count as u32 >= minsup {
                items.push(item);
                out.itemsets.push(FrequentItemset {
                    items: vec![item],
                    count: count as u32,
                });
            }
            start += count;
        }
        out.candidates_generated += items.len() as u64;

        // --- Level-wise loop over rows of item ranks (rank order is item
        // order, so rows sort exactly as the itemsets they stand for) ---
        let index = ItemBitsets::build(items, transactions);
        let mut level: Vec<u32> = (0..index.items.len() as u32).collect();
        let mut k = 2;
        while !level.is_empty() && k <= self.cfg.max_len {
            let (candidates, gen_ops) = self.generate_candidates(&level, k - 1);
            ops += gen_ops;
            out.candidates_generated += (candidates.len() / k) as u64;
            if candidates.is_empty() {
                break;
            }
            ops += (n * candidates.len()) as u64;
            level.clear();
            for cand in candidates.chunks_exact(k) {
                let count = index.support(cand);
                if count >= minsup {
                    level.extend_from_slice(cand);
                    out.itemsets.push(FrequentItemset {
                        items: cand.iter().map(|&r| index.items[r as usize]).collect(),
                        count,
                    });
                }
            }
            k += 1;
        }
        out.itemsets
            .sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        (out, ops)
    }

    /// Join step + prune step over the sorted `(k−1)`-level, whose rows
    /// are `width` ranks each. Returns the candidate rows (`width + 1`
    /// ranks each, sorted) and the op tally.
    fn generate_candidates(&self, level: &[u32], width: usize) -> (Vec<u32>, u64) {
        let mut ops = 0u64;
        let mut candidates = Vec::new();
        let rows: Vec<&[u32]> = level.chunks_exact(width).collect();
        let k = width + 1;
        // One subset probe: a binary search of `k`-item compares.
        let probe_ops = k as u64 * (rows.len() as f64).log2().ceil() as u64;
        let mut cand = vec![0u32; k];
        let mut subset = vec![0u32; width - 1];
        let mut siblings = vec![0..0; k - 2];
        // Join: pairs sharing the first k-2 items (the level is sorted, so
        // joinable sets are adjacent runs).
        let mut start = 0;
        while start < rows.len() {
            let prefix = &rows[start][..width - 1];
            let run_len = rows[start..].partition_point(|r| r[..width - 1] == *prefix);
            let run = &rows[start..start + run_len];
            start += run.len();
            for (i, first) in run.iter().enumerate() {
                cand[..width].copy_from_slice(first);
                // Prune: all (k−1)-subsets must be frequent. The two the
                // join came from are by construction; check the rest
                // (drop positions 0..k-2). Such a subset is `first` minus
                // the dropped position, then `second`'s last item — so for
                // one `first` and position, every probe lands in the same
                // run of the level. Find the run once; `second`s ascend,
                // so a cursor walks it.
                for (drop, sibling) in siblings.iter_mut().enumerate() {
                    subset[..drop].copy_from_slice(&first[..drop]);
                    subset[drop..].copy_from_slice(&first[drop + 1..]);
                    let lo = rows.partition_point(|r| r[..width - 1] < subset[..]);
                    let len = rows[lo..].partition_point(|r| r[..width - 1] == subset[..]);
                    *sibling = lo..lo + len;
                }
                for second in &run[i + 1..] {
                    ops += width as u64;
                    let last = second[width - 1];
                    cand[width] = last;
                    let frequent = siblings.iter_mut().all(|sibling| {
                        ops += probe_ops;
                        while sibling.start < sibling.end && rows[sibling.start][width - 1] < last {
                            sibling.start += 1;
                        }
                        sibling.start < sibling.end && rows[sibling.start][width - 1] == last
                    });
                    if frequent {
                        candidates.extend_from_slice(&cand);
                        if self.cfg.max_candidates > 0
                            && candidates.len() >= self.cfg.max_candidates * k
                        {
                            return (candidates, ops);
                        }
                    }
                }
            }
        }
        (candidates, ops)
    }
}

/// The vertical view of a transaction list: for each tracked item, the
/// set of transactions holding it as a bitset over transaction indices.
struct ItemBitsets {
    /// The tracked items, strictly increasing; an item's position is its
    /// rank.
    items: Vec<u64>,
    /// `u64` words per bitset.
    words: usize,
    bits: Vec<u64>,
}

impl ItemBitsets {
    fn build(items: Vec<u64>, transactions: &[&ItemSet]) -> ItemBitsets {
        let words = transactions.len().div_ceil(64);
        let mut bits = vec![0u64; items.len() * words];
        for (tid, t) in transactions.iter().enumerate() {
            // Both lists are sorted: search onward from the last hit.
            let mut rank = 0;
            for item in t.iter() {
                rank += items[rank..].partition_point(|&tracked| tracked < item);
                if items.get(rank) == Some(&item) {
                    bits[rank * words + tid / 64] |= 1 << (tid % 64);
                }
            }
        }
        ItemBitsets { items, words, bits }
    }

    /// Number of transactions holding every item of `ranks` (which must
    /// not be empty).
    fn support(&self, ranks: &[u32]) -> u32 {
        let row = |rank: u32| &self.bits[rank as usize * self.words..][..self.words];
        let (first, rest) = ranks.split_first().expect("a candidate has items");
        let mut count = 0;
        for (w, &word) in row(*first).iter().enumerate() {
            count += rest.iter().fold(word, |acc, &rank| acc & row(rank)[w]).count_ones();
        }
        count
    }
}

/// Count how many transactions contain each candidate. Returns per-
/// candidate counts and the op tally (one op per item comparison of a
/// transaction-by-candidate scan: `transactions · Σ|candidate|`).
///
/// A candidate naming an item no transaction holds counts 0; the empty
/// candidate is contained in every transaction.
pub fn count_candidates(candidates: &[Vec<u64>], transactions: &[&ItemSet]) -> (Vec<u32>, u64) {
    let mut items: Vec<u64> = candidates.iter().flatten().copied().collect();
    items.sort_unstable();
    items.dedup();
    let index = ItemBitsets::build(items, transactions);
    let mut ranks = Vec::new();
    let counts = candidates
        .iter()
        .map(|cand| {
            if cand.is_empty() {
                return transactions.len() as u32;
            }
            ranks.clear();
            ranks.extend(cand.iter().map(|item| {
                index.items.binary_search(item).expect("every candidate item is tracked") as u32
            }));
            index.support(&ranks)
        })
        .collect();
    let cand_items: usize = candidates.iter().map(Vec::len).sum();
    (counts, (transactions.len() * cand_items) as u64)
}

#[cfg(test)]
mod reference {
    //! The retired horizontal implementation — a `HashMap` singleton
    //! count, one heap `Vec` per candidate, and a transaction × candidate
    //! containment scan — kept as the independent oracle for both the
    //! mined itemsets and the `ops` tally, which it defines.

    use std::collections::HashMap;

    use super::*;

    pub fn mine(cfg: &AprioriConfig, transactions: &[&ItemSet]) -> (MiningOutput, u64) {
        let n = transactions.len();
        let mut ops: u64 = 0;
        let mut out = MiningOutput {
            num_transactions: n,
            ..MiningOutput::default()
        };
        if n == 0 {
            return (out, ops);
        }
        let minsup = Apriori::new(*cfg).abs_support(n);

        let mut counts: HashMap<u64, u32> = HashMap::new();
        for t in transactions {
            ops += t.len() as u64;
            for item in t.iter() {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        let mut frequent: Vec<FrequentItemset> = counts
            .into_iter()
            .filter(|&(_, c)| c >= minsup)
            .map(|(item, count)| FrequentItemset {
                items: vec![item],
                count,
            })
            .collect();
        frequent.sort_by(|a, b| a.items.cmp(&b.items));
        out.candidates_generated += frequent.len() as u64;

        let mut level: Vec<Vec<u64>> = frequent.iter().map(|f| f.items.clone()).collect();
        out.itemsets.append(&mut frequent);

        let mut k = 2;
        while !level.is_empty() && k <= cfg.max_len {
            let (candidates, gen_ops) = generate_candidates(cfg, &level);
            ops += gen_ops;
            out.candidates_generated += candidates.len() as u64;
            if candidates.is_empty() {
                break;
            }
            let (counted, count_ops) = count_candidates(&candidates, transactions);
            ops += count_ops;
            level = Vec::new();
            for (cand, count) in candidates.into_iter().zip(counted) {
                if count >= minsup {
                    level.push(cand.clone());
                    out.itemsets.push(FrequentItemset { items: cand, count });
                }
            }
            k += 1;
        }
        out.itemsets
            .sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        (out, ops)
    }

    fn generate_candidates(cfg: &AprioriConfig, level: &[Vec<u64>]) -> (Vec<Vec<u64>>, u64) {
        let mut ops = 0u64;
        let mut candidates = Vec::new();
        let k_minus_1 = match level.first() {
            Some(first) => first.len(),
            None => return (candidates, ops),
        };
        let mut start = 0;
        while start < level.len() {
            let mut end = start + 1;
            while end < level.len()
                && level[end][..k_minus_1 - 1] == level[start][..k_minus_1 - 1]
            {
                end += 1;
            }
            for i in start..end {
                for j in (i + 1)..end {
                    ops += k_minus_1 as u64;
                    let mut cand = level[i].clone();
                    cand.push(level[j][k_minus_1 - 1]);
                    if all_subsets_frequent(&cand, level, &mut ops) {
                        candidates.push(cand);
                        if cfg.max_candidates > 0 && candidates.len() >= cfg.max_candidates {
                            return (candidates, ops);
                        }
                    }
                }
            }
            start = end;
        }
        (candidates, ops)
    }

    fn all_subsets_frequent(cand: &[u64], level: &[Vec<u64>], ops: &mut u64) -> bool {
        let k = cand.len();
        let mut subset = Vec::with_capacity(k - 1);
        for drop in 0..k - 2 {
            subset.clear();
            subset.extend(
                cand.iter()
                    .enumerate()
                    .filter_map(|(i, &v)| if i == drop { None } else { Some(v) }),
            );
            *ops += (k as u64) * (level.len() as f64).log2().ceil() as u64;
            if level.binary_search_by(|probe| probe.as_slice().cmp(&subset)).is_err() {
                return false;
            }
        }
        true
    }

    pub fn count_candidates(
        candidates: &[Vec<u64>],
        transactions: &[&ItemSet],
    ) -> (Vec<u32>, u64) {
        let mut counts = vec![0u32; candidates.len()];
        let mut ops = 0u64;
        for t in transactions {
            for (ci, cand) in candidates.iter().enumerate() {
                ops += cand.len() as u64;
                if cand.iter().all(|&item| t.contains(item)) {
                    counts[ci] += 1;
                }
            }
        }
        (counts, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn itemsets(raw: &[&[u64]]) -> Vec<ItemSet> {
        raw.iter().map(|r| ItemSet::from_items(r.to_vec())).collect()
    }

    fn refs(sets: &[ItemSet]) -> Vec<&ItemSet> {
        sets.iter().collect()
    }

    /// The canonical Agrawal–Srikant toy database.
    fn classic_db() -> Vec<ItemSet> {
        itemsets(&[
            &[1, 3, 4],
            &[2, 3, 5],
            &[1, 2, 3, 5],
            &[2, 5],
        ])
    }

    #[test]
    fn classic_example_frequent_sets() {
        let db = classic_db();
        let (out, ops) = Apriori::new(AprioriConfig {
            min_support: 0.5, // absolute 2 of 4
            ..AprioriConfig::default()
        })
        .mine(&refs(&db));
        assert!(ops > 0);
        let find = |items: &[u64]| out.itemsets.iter().find(|f| f.items == items);
        // Known answer: {1}:2 {2}:3 {3}:3 {5}:3 {1,3}:2 {2,3}:2 {2,5}:3
        // {3,5}:2 {2,3,5}:2.
        assert_eq!(find(&[1]).unwrap().count, 2);
        assert_eq!(find(&[2]).unwrap().count, 3);
        assert_eq!(find(&[2, 5]).unwrap().count, 3);
        assert_eq!(find(&[2, 3, 5]).unwrap().count, 2);
        assert!(find(&[4]).is_none(), "{{4}} has support 1 < 2");
        assert!(find(&[1, 2]).is_none(), "{{1,2}} has support 1 < 2");
        assert_eq!(out.itemsets.len(), 9);
    }

    #[test]
    fn support_one_returns_universal_sets_only() {
        let db = itemsets(&[&[1, 2], &[1, 2], &[1, 2, 3]]);
        let (out, _) = Apriori::new(AprioriConfig {
            min_support: 1.0,
            ..AprioriConfig::default()
        })
        .mine(&refs(&db));
        let sets: Vec<&[u64]> = out.itemsets.iter().map(|f| f.items.as_slice()).collect();
        assert_eq!(sets, vec![&[1][..], &[2][..], &[1, 2][..]]);
    }

    #[test]
    fn empty_inputs() {
        let miner = Apriori::new(AprioriConfig::default());
        let (out, ops) = miner.mine(&[]);
        assert!(out.itemsets.is_empty());
        assert_eq!(ops, 0);
        let db = itemsets(&[&[]]);
        let (out, _) = miner.mine(&refs(&db));
        assert!(out.itemsets.is_empty());
    }

    #[test]
    fn max_len_caps_depth() {
        let row: &[u64] = &[1, 2, 3, 4, 5];
        let db = itemsets(&[row, row, row, row]);
        let (out, _) = Apriori::new(AprioriConfig {
            min_support: 0.5,
            max_len: 2,
            ..AprioriConfig::default()
        })
        .mine(&refs(&db));
        assert!(out.itemsets.iter().all(|f| f.items.len() <= 2));
        // All 5 singles + all 10 pairs.
        assert_eq!(out.itemsets.len(), 15);
    }

    #[test]
    fn lower_support_means_more_work() {
        // The paper's Fig. 6 premise: support is the workload's key knob.
        let db: Vec<ItemSet> = (0..60)
            .map(|i| {
                ItemSet::from_items(vec![1, 2, 3, 4 + (i % 6), 20 + (i % 9), 40 + (i % 4)])
            })
            .collect();
        let run = |s: f64| {
            Apriori::new(AprioriConfig {
                min_support: s,
                ..AprioriConfig::default()
            })
            .mine(&refs(&db))
        };
        let (out_hi, ops_hi) = run(0.6);
        let (out_lo, ops_lo) = run(0.05);
        assert!(ops_lo > ops_hi, "lower support must cost more");
        assert!(out_lo.candidates_generated > out_hi.candidates_generated);
        assert!(out_lo.itemsets.len() > out_hi.itemsets.len());
    }

    #[test]
    fn counts_are_exact() {
        let db = itemsets(&[&[1, 2], &[1, 2], &[2, 3], &[1, 3]]);
        let cands = vec![vec![1], vec![1, 2], vec![3]];
        let (counts, ops) = count_candidates(&cands, &refs(&db));
        assert_eq!(counts, vec![3, 2, 2]);
        // 4 transactions x (1 + 2 + 1) candidate items.
        assert_eq!(ops, 16);
    }

    #[test]
    fn ops_deterministic() {
        let db = classic_db();
        let miner = Apriori::new(AprioriConfig {
            min_support: 0.5,
            ..AprioriConfig::default()
        });
        let (_, ops1) = miner.mine(&refs(&db));
        let (_, ops2) = miner.mine(&refs(&db));
        assert_eq!(ops1, ops2);
    }

    #[test]
    #[should_panic(expected = "support must be")]
    fn rejects_zero_support() {
        Apriori::new(AprioriConfig {
            min_support: 0.0,
            ..AprioriConfig::default()
        });
    }

    #[test]
    fn closed_itemsets_are_lossless_and_minimal() {
        // {1,2} in 3 transactions, {1} alone in a 4th: {1} is closed
        // (support 4 != any superset's), {2} is NOT closed ({1,2} has the
        // same support 3), {1,2} is closed.
        let db = itemsets(&[&[1, 2], &[1, 2], &[1, 2], &[1]]);
        let (out, _) = Apriori::new(AprioriConfig {
            min_support: 0.25,
            ..AprioriConfig::default()
        })
        .mine(&refs(&db));
        let closed = out.closed_itemsets();
        let closed_sets: Vec<&[u64]> = closed.iter().map(|f| f.items.as_slice()).collect();
        assert!(closed_sets.contains(&&[1u64][..]));
        assert!(closed_sets.contains(&&[1u64, 2][..]));
        assert!(!closed_sets.contains(&&[2u64][..]), "{{2}} is absorbed by {{1,2}}");
        // Losslessness: every frequent itemset has a closed superset with
        // equal support.
        for f in &out.itemsets {
            assert!(
                closed.iter().any(|c| c.count == f.count
                    && super::is_subset(&f.items, &c.items)),
                "itemset {:?} lost by closure",
                f.items
            );
        }
    }

    #[test]
    fn is_subset_cases() {
        assert!(super::is_subset(&[], &[1, 2]));
        assert!(super::is_subset(&[2], &[1, 2, 3]));
        assert!(super::is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!super::is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!super::is_subset(&[1], &[]));
    }

    #[test]
    fn skewed_partition_generates_more_candidates() {
        // Core paper premise (§V-C1): a partition whose transactions are
        // *similar* (co-occurring items) generates more candidates than a
        // mixed partition of the same size and support.
        let similar: Vec<ItemSet> = (0..40)
            .map(|_| ItemSet::from_items(vec![1, 2, 3, 4, 5, 6]))
            .collect();
        let mixed: Vec<ItemSet> = (0..40)
            .map(|i| {
                let base = ((i % 8) * 10) as u64;
                ItemSet::from_items(vec![base, base + 1, base + 2, base + 3, base + 4, base + 5])
            })
            .collect();
        let miner = Apriori::new(AprioriConfig {
            min_support: 0.3,
            max_len: 5,
            ..AprioriConfig::default()
        });
        let (out_sim, ops_sim) = miner.mine(&refs(&similar));
        let (out_mix, ops_mix) = miner.mine(&refs(&mixed));
        assert!(out_sim.candidates_generated > out_mix.candidates_generated);
        assert!(ops_sim > ops_mix);
    }

    /// A database of `n` transactions where item `i` sits in the
    /// transactions whose index has bit `i % 8` set, plus a rare item.
    fn striped_db(n: usize) -> Vec<ItemSet> {
        (0..n)
            .map(|t| {
                let mut items: Vec<u64> = (0..8).filter(|b| t >> b & 1 == 1).collect();
                if t % 7 == 0 {
                    items.push(100);
                }
                ItemSet::from_items(items)
            })
            .collect()
    }

    #[test]
    fn bitset_counter_matches_the_scan_across_word_boundaries() {
        let cands = vec![
            vec![0],
            vec![0, 1],
            vec![1, 2, 5],
            vec![100],
            vec![7, 100],
            // An item no transaction holds, alone and in company.
            vec![55],
            vec![0, 55],
            // The empty candidate is contained in everything.
            vec![],
            // Unsorted and repeated items are still a conjunction.
            vec![3, 1, 3],
        ];
        for n in [0, 1, 63, 64, 65, 200] {
            let db = striped_db(n);
            let got = count_candidates(&cands, &refs(&db));
            assert_eq!(got, reference::count_candidates(&cands, &refs(&db)), "n = {n}");
            assert_eq!(got.1, n as u64 * 15, "n = {n}: ops is n x total candidate items");
        }
        // No candidates at all.
        assert_eq!(count_candidates(&[], &refs(&striped_db(5))), (vec![], 0));
    }

    #[test]
    fn mine_matches_reference_itemsets_and_ops_on_fixed_databases() {
        let dense: Vec<ItemSet> = (0..60u64)
            .map(|i| ItemSet::from_items(vec![1, 2, 3, 4 + (i % 6), 20 + (i % 9), 40 + (i % 4)]))
            .collect();
        for db in [classic_db(), striped_db(65), striped_db(200), dense] {
            for (min_support, max_len, max_candidates) in
                [(0.5, 4, 200_000), (0.05, 6, 0), (0.2, 3, 0), (0.1, 5, 7), (1.0, 2, 1)]
            {
                let cfg = AprioriConfig {
                    min_support,
                    max_len,
                    max_candidates,
                };
                let (got, got_ops) = Apriori::new(cfg).mine(&refs(&db));
                let (want, want_ops) = reference::mine(&cfg, &refs(&db));
                assert_eq!(got.itemsets, want.itemsets, "{cfg:?}");
                assert_eq!(got.candidates_generated, want.candidates_generated, "{cfg:?}");
                assert_eq!(got_ops, want_ops, "{cfg:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The bitset counter against the transaction-by-candidate scan on
        /// random databases and candidate lists, counts and ops.
        #[test]
        fn counter_equals_scan(
            raw in proptest::collection::vec(proptest::collection::vec(0u64..12, 0..8), 0..140),
            cands in proptest::collection::vec(proptest::collection::vec(0u64..14, 0..5), 0..24),
        ) {
            let db: Vec<ItemSet> = raw.into_iter().map(ItemSet::from_items).collect();
            proptest::prop_assert_eq!(
                count_candidates(&cands, &refs(&db)),
                reference::count_candidates(&cands, &refs(&db))
            );
        }

        /// The flat miner against the retired one: same itemsets, same
        /// candidate count, and the same `ops` to the unit — with the
        /// candidate cap binding on some cases — and against Eclat, which
        /// shares no code with either.
        #[test]
        fn mine_equals_reference_and_eclat(
            raw in proptest::collection::vec(proptest::collection::vec(0u64..10, 0..7), 1..80),
            support_pct in 1u32..=100,
            max_len in 1usize..7,
            max_candidates in 0usize..40,
        ) {
            let db: Vec<ItemSet> = raw.into_iter().map(ItemSet::from_items).collect();
            let cfg = AprioriConfig {
                min_support: support_pct as f64 / 100.0,
                max_len,
                max_candidates,
            };
            let (got, got_ops) = Apriori::new(cfg).mine(&refs(&db));
            let (want, want_ops) = reference::mine(&cfg, &refs(&db));
            proptest::prop_assert_eq!(&got.itemsets, &want.itemsets);
            proptest::prop_assert_eq!(got.candidates_generated, want.candidates_generated);
            proptest::prop_assert_eq!(got_ops, want_ops);
            if max_candidates == 0 {
                let (eclat, _) = crate::eclat::Eclat::new(crate::eclat::EclatConfig {
                    min_support: cfg.min_support,
                    max_len,
                })
                .mine(&refs(&db));
                proptest::prop_assert_eq!(&got.itemsets, &eclat.itemsets);
            }
        }
    }
}
