//! The analytics workloads of the paper's evaluation (§V-C), implemented
//! for real with exact operation accounting.
//!
//! Two workload families:
//!
//! * **Frequent pattern mining** (compute-intensive): [`apriori`] implements
//!   Agrawal–Srikant Apriori over item sets (trees reach it through the
//!   pivot itemization of `pareto-datagen`, after Tatikonda &
//!   Parthasarathy); [`son`] implements the Savasere/Omiecinski/Navathe
//!   partition algorithm the paper distributes — mine each partition
//!   locally, union the locally-frequent sets into global candidates, then
//!   rescan every partition to prune false positives. Statistical skew
//!   across partitions inflates the candidate union, which is precisely the
//!   effect stratified partitioning suppresses.
//! * **Compression** (data-intensive): [`lz77`] is a real hash-chain LZ77
//!   codec; [`webgraph`] is a Boldi–Vigna-style adjacency codec
//!   (reference + copy-list + gap-coded residuals). Both reward partitions
//!   whose records are similar — the "similar elements together" layout.
//!
//! Every entry point returns an exact `ops: u64` work count alongside its
//! output; the simulated cluster converts ops into node-speed-dependent
//! time. The algorithms run for real, so payload-dependent cost (candidate
//! explosions, match-ability of the byte stream) is measured, not modeled.

pub mod apriori;
pub mod eclat;
pub mod lz77;
pub mod son;
pub mod webgraph;

pub use apriori::{Apriori, AprioriConfig, FrequentItemset, MiningOutput};
pub use eclat::{Eclat, EclatConfig};
pub use lz77::{lz77_compress, lz77_decompress, Lz77Config};
pub use son::{
    son_candidate_union, son_distributed_mine, son_global_count, son_local_mine_with, son_merge,
    LocalMiner, SonLocal, SonOutput,
};
pub use webgraph::{webgraph_compress, webgraph_decompress, WebGraphConfig};

use pareto_datagen::{DataItem, Payload};

/// Which workload to run (the dispatcher used by the framework's
/// progressive-sampling estimator, which must run "the actual algorithm"
/// on its samples, §III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Frequent pattern mining at the given support fraction (Apriori).
    FrequentPatterns {
        /// Minimum support as a fraction of the transaction count.
        support: f64,
    },
    /// Frequent pattern mining via the vertical Eclat miner (ref [21]) —
    /// identical answers, different cost profile.
    FrequentPatternsEclat {
        /// Minimum support as a fraction of the transaction count.
        support: f64,
    },
    /// LZ77 compression of the records' byte serialization.
    Lz77,
    /// WebGraph-style adjacency compression.
    WebGraph,
}

/// Output of a single-partition workload run.
#[derive(Debug, Clone)]
pub enum WorkloadOutput {
    /// Frequent patterns found locally.
    Patterns(MiningOutput),
    /// Compression outcome.
    Compressed {
        /// Bytes in.
        input_bytes: u64,
        /// Bytes out.
        output_bytes: u64,
    },
}

impl WorkloadKind {
    /// Refuse what the miners would panic on: a mining support outside
    /// `(0, 1]`, NaN included.
    pub fn validate(self) -> Result<(), &'static str> {
        match self {
            WorkloadKind::FrequentPatterns { support }
            | WorkloadKind::FrequentPatternsEclat { support }
                if !valid_support(support) =>
            {
                Err("support must be in (0, 1]")
            }
            _ => Ok(()),
        }
    }
}

/// A mining support fraction the miners accept: in `(0, 1]`.
pub(crate) fn valid_support(support: f64) -> bool {
    support > 0.0 && support <= 1.0
}

fn apriori(support: f64) -> Apriori {
    Apriori::new(AprioriConfig {
        min_support: support,
        ..AprioriConfig::default()
    })
}

fn item_sets<'a>(records: &[&'a DataItem]) -> Vec<&'a pareto_datagen::ItemSet> {
    records.iter().map(|r| &r.items).collect()
}

/// Run `kind` over one partition's records; returns output and exact ops.
pub fn run_workload(kind: WorkloadKind, records: &[&DataItem]) -> (WorkloadOutput, u64) {
    match kind {
        WorkloadKind::FrequentPatterns { support } => {
            let (out, ops) = apriori(support).mine(&item_sets(records));
            (WorkloadOutput::Patterns(out), ops)
        }
        WorkloadKind::FrequentPatternsEclat { support } => {
            let sets = item_sets(records);
            let (out, ops) = Eclat::new(EclatConfig {
                min_support: support,
                ..EclatConfig::default()
            })
            .mine(&sets);
            (WorkloadOutput::Patterns(out), ops)
        }
        WorkloadKind::Lz77 => {
            let mut input = Vec::new();
            for r in records {
                input.extend_from_slice(&r.payload.to_bytes());
            }
            let (compressed, ops) = lz77_compress(&input, &Lz77Config::default());
            (
                WorkloadOutput::Compressed {
                    input_bytes: input.len() as u64,
                    output_bytes: compressed.len() as u64,
                },
                ops,
            )
        }
        WorkloadKind::WebGraph => {
            let lists: Vec<&[u32]> = records
                .iter()
                .map(|r| match &r.payload {
                    Payload::Adjacency(ns) => ns.as_slice(),
                    // Non-graph payloads degrade to their item sets'
                    // low-32-bit views; keeps the dispatcher total.
                    _ => &[],
                })
                .collect();
            let (compressed, ops) = webgraph_compress(&lists, &WebGraphConfig::default());
            let input_bytes: u64 = lists.iter().map(|l| 4 + 4 * l.len() as u64).sum();
            (
                WorkloadOutput::Compressed {
                    input_bytes,
                    output_bytes: compressed.len() as u64,
                },
                ops,
            )
        }
    }
}

/// The exact ops of [`run_workload`] alone, for callers that discard its
/// output: Apriori runs count-only ([`Apriori::ops`]), every other kind
/// runs in full.
pub fn workload_ops(kind: WorkloadKind, records: &[&DataItem]) -> u64 {
    match kind {
        WorkloadKind::FrequentPatterns { support } => apriori(support).ops(&item_sets(records)),
        _ => run_workload(kind, records).1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_datagen::{Dataset, Document};

    fn text_items() -> Dataset {
        let docs: Vec<Document> = (0..40)
            .map(|i| Document::new(vec![1, 2, 3, (i % 7) + 10]))
            .collect();
        Dataset::from_documents("t", docs)
    }

    fn ratio(out: &WorkloadOutput) -> f64 {
        match out {
            WorkloadOutput::Compressed {
                input_bytes,
                output_bytes,
            } => *input_bytes as f64 / *output_bytes as f64,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dispatch_mining() {
        let ds = text_items();
        let refs: Vec<&DataItem> = ds.items.iter().collect();
        let kind = WorkloadKind::FrequentPatterns { support: 0.5 };
        let (out, ops) = run_workload(kind, &refs);
        assert!(ops > 0);
        assert_eq!(workload_ops(kind, &refs), ops, "count-only run, same ops");
        match out {
            WorkloadOutput::Patterns(m) => {
                assert!(!m.itemsets.is_empty(), "1,2,3 are in every transaction");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dispatch_lz77() {
        let ds = text_items();
        let refs: Vec<&DataItem> = ds.items.iter().collect();
        let (out, ops) = run_workload(WorkloadKind::Lz77, &refs);
        assert!(ops > 0);
        let r = ratio(&out);
        assert!(r > 1.0, "repetitive docs must compress, ratio {r}");
    }

    #[test]
    fn dispatch_webgraph_on_graph_records() {
        let g = pareto_datagen::AdjacencyGraph::from_adjacency(
            (0..50).map(|i| vec![1, 2, 3, 4, (i % 5) + 10]).collect(),
        );
        let ds = Dataset::from_graph("g", &g);
        let refs: Vec<&DataItem> = ds.items.iter().collect();
        let (out, ops) = run_workload(WorkloadKind::WebGraph, &refs);
        assert!(ops > 0);
        assert!(ratio(&out) > 1.0);
    }

    #[test]
    fn dispatch_eclat_matches_apriori() {
        let ds = text_items();
        let refs: Vec<&DataItem> = ds.items.iter().collect();
        let (a, _) = run_workload(WorkloadKind::FrequentPatterns { support: 0.5 }, &refs);
        let (e, _) = run_workload(WorkloadKind::FrequentPatternsEclat { support: 0.5 }, &refs);
        match (a, e) {
            (WorkloadOutput::Patterns(pa), WorkloadOutput::Patterns(pe)) => {
                assert_eq!(pa.itemsets, pe.itemsets);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_partition_is_fine() {
        let (out, _ops) = run_workload(WorkloadKind::Lz77, &[]);
        match out {
            WorkloadOutput::Compressed { input_bytes, .. } => assert_eq!(input_bytes, 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
