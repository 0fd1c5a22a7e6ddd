//! Data stratification via compositeKModes sketch clustering (§III-C).
//!
//! The stratifier groups a dataset's records into **strata** of similar
//! items by clustering their MinHash signatures (one [`SignatureMatrix`]
//! per dataset). Plain kModes fails here: a sketch has few coordinates
//! drawn from an enormous universe, so a point's chance of matching a
//! single-value-per-attribute center is tiny (the *zero-match* problem,
//! paper §III-C step 3). The compositeKModes variant of Wang et al. (ICDE
//! 2013) keeps the **`L` most frequent values per attribute** in each
//! center, shrinking the zero-match probability while retaining kModes'
//! convergence guarantee.
//!
//! The resulting [`Stratification`] drives both partitioning layouts
//! (representative and similar-together, §III-E) and the representative
//! samples handed to the progressive-sampling heterogeneity estimator.

pub mod kmodes;
pub mod quality;

pub use kmodes::{CompositeKModes, KModesConfig, KModesResult};
pub use quality::{cluster_purity, normalized_mutual_information};

use pareto_datagen::Dataset;
use pareto_sketch::{MinHasher, SignatureMatrix};

/// End-to-end stratifier configuration.
#[derive(Debug, Clone)]
pub struct StratifierConfig {
    /// Sketch dimensionality `k` (number of MinHash functions).
    pub sketch_size: usize,
    /// Number of strata to produce.
    pub num_strata: usize,
    /// Center list length `L` (values kept per attribute; `L > 1` is the
    /// "composite" part).
    pub l: usize,
    /// Iteration cap for the clustering loop.
    pub max_iters: usize,
    /// Seed for sketching and center initialization.
    pub seed: u64,
}

impl Default for StratifierConfig {
    fn default() -> Self {
        StratifierConfig {
            sketch_size: 64,
            num_strata: 16,
            l: 4,
            max_iters: 20,
            seed: 0xDA7A,
        }
    }
}

/// The output of stratification.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// `assignments[i]` is the stratum of record `i`.
    pub assignments: Vec<u32>,
    /// Member indices per stratum (some strata may be empty).
    pub strata: Vec<Vec<usize>>,
    /// Fraction of records whose best center match was zero attributes
    /// (they were assigned arbitrarily) — the §III-C failure mode `L`
    /// exists to suppress.
    pub zero_match_rate: f64,
    /// Iterations until convergence (or the cap).
    pub iterations: usize,
}

impl Stratification {
    /// Number of strata (including empty ones).
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Stratum sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.strata.iter().map(Vec::len).collect()
    }

    /// Indices ordered by stratum id (stratum 0's members, then stratum
    /// 1's, …) — the "similar elements together" ordering the partitioner
    /// chunks (§III-E).
    pub fn stratum_order(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.assignments.len());
        for members in &self.strata {
            out.extend_from_slice(members);
        }
        out
    }
}

/// Sketch a dataset and cluster the sketches into strata.
pub struct Stratifier {
    cfg: StratifierConfig,
    threads: usize,
}

impl Stratifier {
    /// Create a stratifier with the given configuration (serial; see
    /// [`Stratifier::with_threads`]).
    pub fn new(cfg: StratifierConfig) -> Self {
        Stratifier { cfg, threads: 1 }
    }

    /// Sketch and cluster on up to `threads` workers. The output is
    /// bit-identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Configuration accessor.
    pub fn config(&self) -> &StratifierConfig {
        &self.cfg
    }

    /// Run sketching + compositeKModes over a dataset.
    pub fn stratify(&self, dataset: &Dataset) -> Stratification {
        let signatures = self.sketch(dataset);
        self.stratify_signatures(&signatures)
    }

    /// Sketch a dataset's item sets (the first pipeline stage), sharded
    /// across the stratifier's workers. Exposed separately so callers can
    /// time sketching and clustering independently.
    pub fn sketch(&self, dataset: &Dataset) -> SignatureMatrix {
        let empty = SignatureMatrix::new(self.cfg.sketch_size, 0, Vec::new());
        self.sketch_append(dataset, &empty)
    }

    /// Sketch only the records of `dataset` beyond `prefix` and return the
    /// full signature matrix. Bit-identical to [`Stratifier::sketch`] on
    /// the whole dataset whenever `prefix` equals the sketch of the
    /// dataset's first `prefix.num_rows()` records under the same config
    /// (MinHash is a pure per-record function), which is what lets the
    /// incremental planner reuse a cached sketch after a dataset append.
    ///
    /// # Panics
    /// Panics if `prefix` is longer than the dataset.
    pub fn sketch_append(&self, dataset: &Dataset, prefix: &SignatureMatrix) -> SignatureMatrix {
        // Invariant: the sketch stage passes a prefix only when the cached
        // generation is shorter than the dataset (`prev_len < dataset.len()`).
        assert!(
            prefix.num_rows() <= dataset.len(),
            "prefix longer than the dataset"
        );
        let hasher = MinHasher::new(self.cfg.sketch_size, self.cfg.seed);
        let new_sets: Vec<&pareto_datagen::ItemSet> = dataset.items[prefix.num_rows()..]
            .iter()
            .map(|it| &it.items)
            .collect();
        hasher.sketch_extend(prefix, &new_sets, self.threads)
    }

    /// Cluster pre-computed signatures (useful when the caller also needs
    /// the sketches, e.g. for diagnostics).
    pub fn stratify_signatures(&self, signatures: &SignatureMatrix) -> Stratification {
        let kcfg = KModesConfig {
            num_clusters: self.cfg.num_strata,
            l: self.cfg.l,
            max_iters: self.cfg.max_iters,
            seed: self.cfg.seed ^ 0x005E_EDC1u64,
            threads: self.threads,
        };
        let result = CompositeKModes::new(kcfg).run(signatures);
        let mut strata = vec![Vec::new(); result.num_clusters];
        for (i, &c) in result.assignments.iter().enumerate() {
            strata[c as usize].push(i);
        }
        Stratification {
            assignments: result.assignments,
            strata,
            zero_match_rate: result.zero_match_rate,
            iterations: result.iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_datagen::generators::{gen_text, TextGenConfig};

    fn small_corpus(seed: u64) -> Dataset {
        gen_text(
            &TextGenConfig {
                num_docs: 300,
                num_topics: 5,
                vocab_size: 5_000,
                min_len: 20,
                max_len: 60,
                topic_purity: 0.9,
                topic_skew: 0.5,
                word_skew: 0.8,
            },
            seed,
        )
    }

    #[test]
    fn stratification_covers_all_records() {
        let ds = small_corpus(1);
        let st = Stratifier::new(StratifierConfig {
            num_strata: 5,
            ..StratifierConfig::default()
        })
        .stratify(&ds);
        assert_eq!(st.assignments.len(), ds.len());
        assert_eq!(st.sizes().iter().sum::<usize>(), ds.len());
        let order = st.stratum_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn stratification_is_deterministic() {
        let ds = small_corpus(2);
        let cfg = StratifierConfig {
            num_strata: 6,
            ..StratifierConfig::default()
        };
        let a = Stratifier::new(cfg.clone()).stratify(&ds);
        let b = Stratifier::new(cfg).stratify(&ds);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn strata_align_with_planted_topics() {
        let ds = small_corpus(3);
        let st = Stratifier::new(StratifierConfig {
            num_strata: 5,
            sketch_size: 96,
            ..StratifierConfig::default()
        })
        .stratify(&ds);
        let truth: Vec<u32> = ds.items.iter().map(|i| i.truth_cluster.unwrap()).collect();
        let purity = quality::cluster_purity(&st.assignments, &truth);
        assert!(
            purity > 0.7,
            "stratifier should largely recover planted topics, purity = {purity}"
        );
    }

    #[test]
    fn composite_centers_reduce_zero_match() {
        let ds = small_corpus(4);
        let run = |l: usize| {
            Stratifier::new(StratifierConfig {
                num_strata: 5,
                l,
                ..StratifierConfig::default()
            })
            .stratify(&ds)
            .zero_match_rate
        };
        let z1 = run(1);
        let z8 = run(8);
        assert!(
            z8 <= z1 + 1e-9,
            "larger L must not increase zero-match rate (L=1: {z1}, L=8: {z8})"
        );
    }

    #[test]
    fn degenerate_configs_stratify_without_panicking() {
        let mut ds = small_corpus(5);
        ds.items.truncate(3);
        // No hash functions: nothing can match, everything lands in
        // stratum 0.
        let st = Stratifier::new(StratifierConfig {
            sketch_size: 0,
            num_strata: 4,
            ..StratifierConfig::default()
        })
        .stratify(&ds);
        assert_eq!(st.sizes(), vec![3, 0, 0, 0]);
        assert_eq!(st.zero_match_rate, 1.0);
        // More strata than records, and L beyond any column's values.
        let st = Stratifier::new(StratifierConfig {
            num_strata: 8,
            l: 1000,
            ..StratifierConfig::default()
        })
        .stratify(&ds);
        assert_eq!(st.num_strata(), 8);
        assert_eq!(st.sizes().iter().sum::<usize>(), 3);
    }
}
