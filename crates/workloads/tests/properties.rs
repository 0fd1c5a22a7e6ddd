//! Property-based tests for the workloads: codec roundtrips on arbitrary
//! inputs, Apriori correctness against a brute-force reference, and SON
//! exactness over arbitrary partitionings.

use proptest::prelude::*;

use pareto_datagen::ItemSet;
use pareto_workloads::{
    lz77_compress, lz77_decompress, son_distributed_mine, webgraph_compress, webgraph_decompress,
    Apriori, AprioriConfig, Lz77Config, WebGraphConfig,
};

proptest! {
    /// LZ77 roundtrips on arbitrary byte strings.
    #[test]
    fn lz77_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let (c, _) = lz77_compress(&data, &Lz77Config::default());
        prop_assert_eq!(lz77_decompress(&c).unwrap(), data);
    }

    /// LZ77 roundtrips on highly repetitive strings (match-heavy paths).
    #[test]
    fn lz77_roundtrip_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..16),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let (c, _) = lz77_compress(&data, &Lz77Config::default());
        prop_assert_eq!(lz77_decompress(&c).unwrap(), data);
    }

    /// LZ77 with varied window/chain settings still roundtrips.
    #[test]
    fn lz77_roundtrip_configs(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        window_exp in 6u32..16,
        chain in 1usize..64,
    ) {
        let cfg = Lz77Config {
            window: 1usize << window_exp,
            max_chain: chain,
        };
        let (c, _) = lz77_compress(&data, &cfg);
        prop_assert_eq!(lz77_decompress(&c).unwrap(), data);
    }

    /// WebGraph codec roundtrips on arbitrary sorted adjacency lists.
    #[test]
    fn webgraph_roundtrip(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 0..64), 0..64),
        window in 1usize..10,
    ) {
        let lists: Vec<Vec<u32>> = raw
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
        let (stream, _) = webgraph_compress(&refs, &WebGraphConfig { window });
        prop_assert_eq!(webgraph_decompress(&stream).unwrap(), lists);
    }

    /// Apriori agrees with brute-force enumeration on small databases.
    #[test]
    fn apriori_matches_bruteforce(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..8, 0..6), 1..12),
        support_pct in 1u32..=100,
    ) {
        let db: Vec<ItemSet> = raw.iter().map(|t| ItemSet::from_items(t.clone())).collect();
        let refs: Vec<&ItemSet> = db.iter().collect();
        let support = support_pct as f64 / 100.0;
        let cfg = AprioriConfig { min_support: support, max_len: 8, max_candidates: 0 };
        let (out, _) = Apriori::new(cfg).mine(&refs);
        let minsup = ((support * db.len() as f64).ceil() as u32).max(1);

        // Brute force: enumerate all subsets of the 8-item universe.
        let mut expected = Vec::new();
        for mask in 1u32..256 {
            let items: Vec<u64> = (0..8).filter(|b| mask & (1 << b) != 0).map(|b| b as u64).collect();
            let count = refs
                .iter()
                .filter(|t| items.iter().all(|&i| t.contains(i)))
                .count() as u32;
            if count >= minsup {
                expected.push((items, count));
            }
        }
        expected.sort_by(|a, b| (a.0.len(), &a.0).cmp(&(b.0.len(), &b.0)));
        let got: Vec<(Vec<u64>, u32)> = out
            .itemsets
            .iter()
            .map(|f| (f.items.clone(), f.count))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// SON over an arbitrary contiguous partitioning equals direct mining.
    #[test]
    fn son_exact_for_any_split(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..10, 1..6), 4..24),
        cuts in proptest::collection::vec(0.0f64..1.0, 1..4),
        support_pct in 20u32..=90,
    ) {
        let db: Vec<ItemSet> = raw.iter().map(|t| ItemSet::from_items(t.clone())).collect();
        let refs: Vec<&ItemSet> = db.iter().collect();
        let support = support_pct as f64 / 100.0;
        let cfg = AprioriConfig { min_support: support, max_len: 6, max_candidates: 0 };

        // Build partition boundaries from the cut fractions.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| (c * refs.len() as f64) as usize).collect();
        bounds.push(0);
        bounds.push(refs.len());
        bounds.sort_unstable();
        bounds.dedup();
        let partitions: Vec<Vec<&ItemSet>> = bounds
            .windows(2)
            .map(|w| refs[w[0]..w[1]].to_vec())
            .collect();

        let son = son_distributed_mine(&partitions, &cfg);
        let (direct, _) = Apriori::new(cfg).mine(&refs);
        prop_assert_eq!(son.global_frequent, direct.itemsets);
    }

    /// Every itemset Apriori reports really has the support it claims.
    #[test]
    fn apriori_counts_are_true(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..20, 0..8), 1..20),
        support_pct in 10u32..=100,
    ) {
        let db: Vec<ItemSet> = raw.iter().map(|t| ItemSet::from_items(t.clone())).collect();
        let refs: Vec<&ItemSet> = db.iter().collect();
        let cfg = AprioriConfig {
            min_support: support_pct as f64 / 100.0,
            max_len: 5,
            max_candidates: 0,
        };
        let (out, _) = Apriori::new(cfg).mine(&refs);
        let minsup = Apriori::new(cfg).abs_support(db.len());
        for f in &out.itemsets {
            let true_count = refs
                .iter()
                .filter(|t| f.items.iter().all(|&i| t.contains(i)))
                .count() as u32;
            prop_assert_eq!(f.count, true_count);
            prop_assert!(f.count >= minsup);
        }
    }
}
