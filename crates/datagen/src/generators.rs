//! Seeded synthetic dataset generators.
//!
//! Stand-ins for the paper's corpora (Table I): SwissProt/Treebank trees,
//! UK/Arabic web graphs, and the RCV1 text corpus. Each generator plants an
//! explicit **cluster structure** (families of similar records — the strata
//! the framework should discover) with **Zipf-skewed cluster sizes** (the
//! statistical skew that hurts naive partitioning). Ground-truth cluster
//! ids are recorded on every item so tests can score the stratifier.
//!
//! All generators are deterministic functions of their seed.

use std::sync::OnceLock;

use rand::Rng;

use crate::dataset::{DataItem, DataKind, Dataset, Payload};
use crate::text::Document;
use crate::tree::LabeledTree;

type Rng64 = rand_chacha::ChaCha8Rng;

fn rng_from(seed: u64) -> Rng64 {
    use rand_chacha::rand_core::SeedableRng;
    Rng64::seed_from_u64(seed)
}

/// A sampler for Zipf-distributed ranks `0..n` with exponent `s`.
///
/// Precomputes the CDF once; each draw is a binary search.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf support must be non-empty");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite, >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw a rank in `0..n` (rank 0 is the most likely).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

/// Configuration for the synthetic tree corpus.
#[derive(Debug, Clone)]
pub struct TreeGenConfig {
    /// Number of trees to generate.
    pub num_trees: usize,
    /// Number of ground-truth families (strata).
    pub num_families: usize,
    /// Minimum nodes per tree.
    pub min_nodes: usize,
    /// Maximum nodes per tree.
    pub max_nodes: usize,
    /// Size of the label vocabulary.
    pub label_vocab: u32,
    /// Probability a node's label is re-drawn when deriving a tree from its
    /// family template (0 = identical labels, 1 = unrelated). Applied on
    /// top of group dropout as independent per-label noise.
    pub mutation_rate: f64,
    /// Zipf exponent for family sizes (0 = uniform; ~1 = heavy skew).
    pub family_skew: f64,
    /// Template labels are partitioned into contiguous *motif groups* of
    /// this size; a member tree keeps or redraws each group atomically.
    /// Group-level dropout bounds pattern co-occurrence: pivots within one
    /// group rise and fall together (a small frequent motif), while pivots
    /// across groups co-occur only with probability `group_keep²` — so the
    /// frequent-pattern space stays motif-sized instead of exploding
    /// combinatorially, as with real XML corpora.
    pub group_size: usize,
    /// Probability a member tree keeps a template group's labels.
    pub group_keep: f64,
}

impl Default for TreeGenConfig {
    fn default() -> Self {
        TreeGenConfig {
            num_trees: 2000,
            num_families: 24,
            min_nodes: 20,
            max_nodes: 60,
            label_vocab: 400,
            mutation_rate: 0.12,
            family_skew: 0.9,
            group_size: 6,
            group_keep: 0.7,
        }
    }
}

/// Generate a clustered tree corpus.
///
/// Each family has a template tree (random parent structure + labels);
/// members copy the template and mutate a fraction of the labels plus
/// occasionally re-hang a subtree, so within-family Jaccard similarity of
/// pivot sets is high and across-family similarity is near zero.
pub fn gen_trees(cfg: &TreeGenConfig, seed: u64) -> Dataset {
    assert!(cfg.min_nodes >= 2 && cfg.max_nodes >= cfg.min_nodes);
    assert!(cfg.num_families >= 1);
    let mut rng = rng_from(seed);
    // Family templates.
    let mut templates = Vec::with_capacity(cfg.num_families);
    for f in 0..cfg.num_families {
        let n = rng.gen_range(cfg.min_nodes..=cfg.max_nodes);
        // Random recursive tree: parent(v) uniform in 0..v.
        let parent: Vec<u32> = (0..n)
            .map(|v| {
                if v == 0 {
                    0
                } else {
                    rng.gen_range(0..v) as u32
                }
            })
            .collect();
        // Family label base: disjoint-ish label ranges create separation.
        let base = (f as u32 * 97) % cfg.label_vocab;
        let labels: Vec<u32> = (0..n)
            .map(|_| (base + rng.gen_range(0..cfg.label_vocab / 4)) % cfg.label_vocab)
            .collect();
        templates.push((parent, labels));
    }
    let family_dist = ZipfSampler::new(cfg.num_families, cfg.family_skew);
    let mut items = Vec::with_capacity(cfg.num_trees);
    for id in 0..cfg.num_trees {
        let fam = family_dist.sample(&mut rng);
        let (parent, labels) = &templates[fam];
        let mut labels = labels.clone();
        let mut parent = parent.clone();
        // Motif-group dropout: redraw whole label groups atomically.
        let group_size = cfg.group_size.max(1);
        for group in labels.chunks_mut(group_size) {
            if !rng.gen_bool(cfg.group_keep) {
                for l in group.iter_mut() {
                    *l = rng.gen_range(0..cfg.label_vocab);
                }
            }
        }
        // Independent per-label noise on top.
        for l in labels.iter_mut() {
            if rng.gen_bool(cfg.mutation_rate) {
                *l = rng.gen_range(0..cfg.label_vocab);
            }
        }
        // Occasionally re-hang one node (keeping parent index < node keeps
        // it a tree).
        if parent.len() > 2 && rng.gen_bool(0.3) {
            let v = rng.gen_range(1..parent.len());
            parent[v] = rng.gen_range(0..v) as u32;
        }
        let tree = LabeledTree::new(parent, labels).expect("generated structure is a tree");
        items.push(DataItem {
            id: id as u64,
            items: tree.item_set(),
            payload: Payload::Tree(tree),
            truth_cluster: Some(fam as u32),
        });
    }
    Dataset::new(format!("trees-syn-{seed}"), DataKind::Tree, items)
}

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

/// Configuration for the synthetic web-like graph.
#[derive(Debug, Clone)]
pub struct GraphGenConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of hosts (ground-truth clusters; web pages on one host link
    /// to near-identical target sets).
    pub num_hosts: usize,
    /// Mean out-degree.
    pub mean_degree: usize,
    /// Fraction of a vertex's links drawn from its host's shared hub list
    /// (high ⇒ strong within-host similarity, like real web graphs).
    pub host_affinity: f64,
    /// Zipf exponent for host sizes.
    pub host_skew: f64,
    /// Zipf exponent for global target popularity (power-law in-degree).
    pub popularity_skew: f64,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        GraphGenConfig {
            num_vertices: 8000,
            num_hosts: 32,
            mean_degree: 24,
            host_affinity: 0.8,
            host_skew: 0.8,
            popularity_skew: 1.1,
        }
    }
}

/// Generate a host-clustered, power-law web-like graph dataset (one record
/// per vertex, as in the UK/Arabic LAW corpora).
pub fn gen_graph(cfg: &GraphGenConfig, seed: u64) -> Dataset {
    assert!(cfg.num_hosts >= 1 && cfg.num_vertices >= cfg.num_hosts);
    let mut rng = rng_from(seed);
    let n = cfg.num_vertices;

    // Assign vertices to hosts with Zipf-skewed host sizes.
    let host_dist = ZipfSampler::new(cfg.num_hosts, cfg.host_skew);
    let mut host_of = vec![0u32; n];
    for h in host_of.iter_mut() {
        *h = host_dist.sample(&mut rng) as u32;
    }
    // Each host has a shared hub list: the targets its pages mostly link to.
    let hub_list_len = (cfg.mean_degree * 2).max(8);
    let global_pop = ZipfSampler::new(n, cfg.popularity_skew);
    let mut host_hubs: Vec<Vec<u32>> = Vec::with_capacity(cfg.num_hosts);
    for _ in 0..cfg.num_hosts {
        let hubs: Vec<u32> = (0..hub_list_len)
            .map(|_| global_pop.sample(&mut rng) as u32)
            .collect();
        host_hubs.push(hubs);
    }

    let mut lists: Vec<Vec<u32>> = Vec::with_capacity(n);
    for &host in host_of.iter() {
        let host = host as usize;
        // Degree: geometric-ish spread around the mean.
        let deg = 1 + rng.gen_range(0..cfg.mean_degree * 2);
        let mut list = Vec::with_capacity(deg);
        for _ in 0..deg {
            if rng.gen_bool(cfg.host_affinity) {
                let hub = host_hubs[host][rng.gen_range(0..hub_list_len)];
                list.push(hub);
            } else {
                list.push(global_pop.sample(&mut rng) as u32);
            }
        }
        lists.push(list);
    }
    let graph = crate::graph::AdjacencyGraph::from_adjacency(lists);
    let items = (0..n)
        .map(|v| DataItem {
            id: v as u64,
            items: graph.vertex_item_set(v),
            payload: Payload::Adjacency(graph.neighbors(v).to_vec()),
            truth_cluster: Some(host_of[v]),
        })
        .collect();
    Dataset::new(format!("graph-syn-{seed}"), DataKind::Graph, items)
}

// ---------------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------------

/// Configuration for the synthetic RCV1-like corpus.
#[derive(Debug, Clone)]
pub struct TextGenConfig {
    /// Number of documents.
    pub num_docs: usize,
    /// Number of topics (ground-truth clusters).
    pub num_topics: usize,
    /// Vocabulary size.
    pub vocab_size: u32,
    /// Minimum tokens per document.
    pub min_len: usize,
    /// Maximum tokens per document.
    pub max_len: usize,
    /// Fraction of tokens drawn from the document's topic (vs. global
    /// background vocabulary).
    pub topic_purity: f64,
    /// Zipf exponent for topic sizes.
    pub topic_skew: f64,
    /// Zipf exponent for word frequencies within a topic.
    pub word_skew: f64,
}

impl Default for TextGenConfig {
    fn default() -> Self {
        TextGenConfig {
            num_docs: 4000,
            num_topics: 20,
            vocab_size: 20_000,
            min_len: 30,
            max_len: 120,
            topic_purity: 0.85,
            topic_skew: 0.9,
            word_skew: 1.05,
        }
    }
}

/// A topic-clustered text generator with its Zipf tables built once: a
/// corpus costs its draws only, not the `vocab_size` powers behind the
/// background CDF.
#[derive(Debug, Clone)]
struct TextGenerator {
    cfg: TextGenConfig,
    topic_dist: ZipfSampler,
    /// Each topic owns a contiguous vocab slice of this many words.
    slice: u32,
    word_dist: ZipfSampler,
    background: ZipfSampler,
}

impl TextGenerator {
    /// Build the samplers of `cfg`; each corpus names its own size.
    fn new(cfg: &TextGenConfig) -> Self {
        assert!(cfg.num_topics >= 1 && cfg.vocab_size as usize >= cfg.num_topics * 4);
        assert!(cfg.min_len >= 1 && cfg.max_len >= cfg.min_len);
        let slice = cfg.vocab_size / cfg.num_topics as u32;
        TextGenerator {
            cfg: cfg.clone(),
            topic_dist: ZipfSampler::new(cfg.num_topics, cfg.topic_skew),
            slice,
            word_dist: ZipfSampler::new(slice as usize, cfg.word_skew),
            background: ZipfSampler::new(cfg.vocab_size as usize, cfg.word_skew),
        }
    }

    /// A corpus of `num_docs` documents.
    fn generate(&self, num_docs: usize, seed: u64) -> Dataset {
        let cfg = &self.cfg;
        let mut rng = rng_from(seed);
        let mut items = Vec::with_capacity(num_docs);
        for id in 0..num_docs {
            let topic = self.topic_dist.sample(&mut rng);
            let base = topic as u32 * self.slice;
            let len = rng.gen_range(cfg.min_len..=cfg.max_len);
            let mut tokens = Vec::with_capacity(len);
            for _ in 0..len {
                if rng.gen_bool(cfg.topic_purity) {
                    tokens.push(base + self.word_dist.sample(&mut rng) as u32);
                } else {
                    tokens.push(self.background.sample(&mut rng) as u32);
                }
            }
            let doc = Document::new(tokens);
            items.push(DataItem {
                id: id as u64,
                items: doc.item_set(),
                payload: Payload::Text(doc),
                truth_cluster: Some(topic as u32),
            });
        }
        Dataset::new(format!("text-syn-{seed}"), DataKind::Text, items)
    }
}

/// Generate a topic-clustered corpus with Zipfian word frequencies.
pub fn gen_text(cfg: &TextGenConfig, seed: u64) -> Dataset {
    TextGenerator::new(cfg).generate(cfg.num_docs, seed)
}

// ---------------------------------------------------------------------------
// Table-I presets (scaled-down synthetic equivalents)
// ---------------------------------------------------------------------------

/// Scale factor semantics: `scale = 1.0` gives laptop-friendly sizes
/// (thousands of records, seconds per experiment); the paper's corpora are
/// 1–3 orders of magnitude larger but identically structured.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(16)
}

/// SwissProt-like tree corpus: many medium trees, moderate families.
///
/// The mutation rate is set so family members share *small* frequent
/// fragments rather than a giant identical pivot core — matching real
/// protein-annotation trees, whose frequent subtrees are a few nodes, and
/// keeping the Apriori search space in the paper's operating regime.
pub fn swissprot_syn(seed: u64, scale: f64) -> Dataset {
    let cfg = TreeGenConfig {
        num_trees: scaled(2400, scale),
        num_families: 8,
        min_nodes: 25,
        max_nodes: 75,
        label_vocab: 500,
        mutation_rate: 0.02,
        family_skew: 0.3,
        group_size: 6,
        group_keep: 0.55,
    };
    let mut ds = gen_trees(&cfg, seed);
    ds.name = "swissprot-syn".into();
    ds
}

/// Treebank-like tree corpus: deeper recursion, skewier families (parse
/// trees of natural language are highly repetitive).
pub fn treebank_syn(seed: u64, scale: f64) -> Dataset {
    let cfg = TreeGenConfig {
        num_trees: scaled(2200, scale),
        num_families: 8,
        min_nodes: 15,
        max_nodes: 55,
        label_vocab: 300,
        mutation_rate: 0.02,
        family_skew: 0.3,
        group_size: 5,
        group_keep: 0.55,
    };
    let mut ds = gen_trees(&cfg, seed);
    ds.name = "treebank-syn".into();
    ds
}

/// UK-webgraph-like dataset: strong host locality.
pub fn uk_syn(seed: u64, scale: f64) -> Dataset {
    let num_hosts = 36;
    let cfg = GraphGenConfig {
        // `gen_graph` needs a vertex per host; tiny scales floor there.
        num_vertices: scaled(9000, scale).max(num_hosts),
        num_hosts,
        mean_degree: 26,
        host_affinity: 0.85,
        host_skew: 0.9,
        popularity_skew: 1.15,
    };
    let mut ds = gen_graph(&cfg, seed);
    ds.name = "uk-syn".into();
    ds
}

/// Arabic-webgraph-like dataset: larger and denser than UK.
pub fn arabic_syn(seed: u64, scale: f64) -> Dataset {
    let num_hosts = 44;
    let cfg = GraphGenConfig {
        num_vertices: scaled(13_000, scale).max(num_hosts),
        num_hosts,
        mean_degree: 36,
        host_affinity: 0.82,
        host_skew: 0.85,
        popularity_skew: 1.1,
    };
    let mut ds = gen_graph(&cfg, seed);
    ds.name = "arabic-syn".into();
    ds
}

/// RCV1-like news corpus. Every call draws from one generator, built on
/// the first: callers that generate many small corpora (a plan server's
/// appends, a benchmark's rounds) pay for its Zipf tables once.
pub fn rcv1_syn(seed: u64, scale: f64) -> Dataset {
    static RCV1: OnceLock<TextGenerator> = OnceLock::new();
    let generator = RCV1.get_or_init(|| {
        TextGenerator::new(&TextGenConfig {
            num_docs: 5000,
            num_topics: 24,
            vocab_size: 24_000,
            min_len: 40,
            max_len: 160,
            topic_purity: 0.85,
            topic_skew: 0.95,
            word_skew: 1.05,
        })
    });
    let mut ds = generator.generate(scaled(5000, scale), seed);
    ds.name = "rcv1-syn".into();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank0_most_frequent() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = rng_from(3);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[49] * 5);
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = rng_from(4);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5000.0).abs() < 600.0, "not uniform: {counts:?}");
        }
    }

    #[test]
    fn tree_gen_is_deterministic() {
        let cfg = TreeGenConfig {
            num_trees: 50,
            ..TreeGenConfig::default()
        };
        let a = gen_trees(&cfg, 7);
        let b = gen_trees(&cfg, 7);
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.items, y.items);
            assert_eq!(x.truth_cluster, y.truth_cluster);
        }
    }

    #[test]
    fn tree_gen_seed_changes_output() {
        let cfg = TreeGenConfig {
            num_trees: 30,
            ..TreeGenConfig::default()
        };
        let a = gen_trees(&cfg, 1);
        let b = gen_trees(&cfg, 2);
        assert!(a
            .items
            .iter()
            .zip(&b.items)
            .any(|(x, y)| x.items != y.items));
    }

    #[test]
    fn tree_families_are_separable() {
        // Within-family Jaccard must exceed across-family on average —
        // otherwise the stratifier has nothing to find.
        let cfg = TreeGenConfig {
            num_trees: 120,
            num_families: 4,
            ..TreeGenConfig::default()
        };
        let ds = gen_trees(&cfg, 11);
        let mut within = Vec::new();
        let mut across = Vec::new();
        for i in 0..ds.items.len().min(60) {
            for j in (i + 1)..ds.items.len().min(60) {
                let sim = ds.items[i].items.jaccard(&ds.items[j].items);
                if ds.items[i].truth_cluster == ds.items[j].truth_cluster {
                    within.push(sim);
                } else {
                    across.push(sim);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&within) > mean(&across) + 0.1,
            "within {} vs across {}",
            mean(&within),
            mean(&across)
        );
    }

    #[test]
    fn graph_gen_host_locality() {
        let cfg = GraphGenConfig {
            num_vertices: 400,
            num_hosts: 4,
            ..GraphGenConfig::default()
        };
        let ds = gen_graph(&cfg, 5);
        assert_eq!(ds.len(), 400);
        let mut within = Vec::new();
        let mut across = Vec::new();
        for i in (0..200).step_by(3) {
            for j in ((i + 1)..200).step_by(7) {
                let sim = ds.items[i].items.jaccard(&ds.items[j].items);
                if ds.items[i].truth_cluster == ds.items[j].truth_cluster {
                    within.push(sim);
                } else {
                    across.push(sim);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&within) > mean(&across));
    }

    #[test]
    fn graph_presets_generate_at_tiny_scales() {
        // Below the host count the presets floor at one vertex per host
        // instead of tripping `gen_graph`'s assert; above it nothing moves.
        for scale in [0.0, 1e-9, 0.001, 0.003] {
            assert_eq!(uk_syn(7, scale).len(), 36, "uk at scale {scale}");
            assert_eq!(arabic_syn(7, scale).len(), 44, "arabic at scale {scale}");
        }
        assert_eq!(uk_syn(7, 0.01).len(), scaled(9000, 0.01));
        assert_eq!(arabic_syn(7, 0.01).len(), scaled(13_000, 0.01));
    }

    #[test]
    fn text_gen_topic_structure() {
        let cfg = TextGenConfig {
            num_docs: 200,
            num_topics: 5,
            ..TextGenConfig::default()
        };
        let ds = gen_text(&cfg, 9);
        assert_eq!(ds.len(), 200);
        assert!(ds.items.iter().all(|i| !i.items.is_empty()));
        // Zipf-skewed topics: topic 0 should dominate.
        let t0 = ds
            .items
            .iter()
            .filter(|i| i.truth_cluster == Some(0))
            .count();
        assert!(t0 > 200 / 5, "topic skew missing: {t0}");
    }

    #[test]
    fn one_generator_gives_every_corpus_a_fresh_one_would() {
        // The shared RCV1 generator against one built for the call, over
        // corpora of different sizes drawn in turn.
        for (seed, scale) in [(3, 0.01), (4, 0.002), (3, 0.01), (5, 0.03)] {
            let cfg = TextGenConfig {
                num_docs: scaled(5000, scale),
                num_topics: 24,
                vocab_size: 24_000,
                min_len: 40,
                max_len: 160,
                topic_purity: 0.85,
                topic_skew: 0.95,
                word_skew: 1.05,
            };
            let (shared, fresh) = (rcv1_syn(seed, scale), gen_text(&cfg, seed));
            assert_eq!(shared.items, fresh.items, "seed {seed}, scale {scale}");
        }
    }

    #[test]
    fn presets_have_expected_kinds_and_sizes() {
        let s = swissprot_syn(1, 0.02);
        assert_eq!(s.kind, DataKind::Tree);
        assert!(s.len() >= 16);
        let u = uk_syn(1, 0.01);
        assert_eq!(u.kind, DataKind::Graph);
        let r = rcv1_syn(1, 0.01);
        assert_eq!(r.kind, DataKind::Text);
        assert_eq!(r.name, "rcv1-syn");
    }

    #[test]
    fn skewed_family_sizes() {
        let cfg = TreeGenConfig {
            num_trees: 600,
            num_families: 10,
            family_skew: 1.0,
            ..TreeGenConfig::default()
        };
        let ds = gen_trees(&cfg, 13);
        let mut counts = vec![0usize; 10];
        for it in &ds.items {
            counts[it.truth_cluster.unwrap() as usize] += 1;
        }
        assert!(
            counts[0] > counts[9],
            "family sizes should be skewed: {counts:?}"
        );
    }
}
