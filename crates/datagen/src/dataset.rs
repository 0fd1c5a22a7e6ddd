//! Datasets: uniform containers of itemized records.
//!
//! A [`Dataset`] is what the framework's pipeline consumes: a named list of
//! [`DataItem`]s, each carrying its typed payload (for the workloads) and
//! its universal [`ItemSet`] (for sketching/stratification). For synthetic
//! datasets each item also records the ground-truth cluster it was generated
//! from, which the stratification tests use as a reference labeling.

use crate::graph::AdjacencyGraph;
use crate::item::ItemSet;
use crate::text::Document;
use crate::tree::LabeledTree;

/// The domain a dataset comes from (paper Table I: Tree / Graph / Text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Labeled trees (SwissProt, Treebank).
    Tree,
    /// Per-vertex adjacency records (UK, Arabic web graphs).
    Graph,
    /// Documents (RCV1).
    Text,
}

impl std::fmt::Display for DataKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataKind::Tree => write!(f, "tree"),
            DataKind::Graph => write!(f, "graph"),
            DataKind::Text => write!(f, "text"),
        }
    }
}

/// The typed payload of a record.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A labeled tree.
    Tree(LabeledTree),
    /// One vertex's sorted adjacency list.
    Adjacency(Vec<u32>),
    /// A document's token stream.
    Text(Document),
}

impl Payload {
    /// Byte serialization of the payload — the unit the KV store holds and
    /// the compression workloads consume.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Payload::Tree(t) => t.to_bytes(),
            Payload::Adjacency(ns) => {
                let mut out = Vec::with_capacity(4 + 4 * ns.len());
                out.extend_from_slice(&(ns.len() as u32).to_le_bytes());
                for &n in ns {
                    out.extend_from_slice(&n.to_le_bytes());
                }
                out
            }
            Payload::Text(d) => d.to_bytes(),
        }
    }

    /// Abstract size of the payload in "elements" (nodes, neighbors,
    /// tokens) — used by size-sensitive cost accounting.
    pub fn element_count(&self) -> usize {
        match self {
            Payload::Tree(t) => t.len(),
            Payload::Adjacency(ns) => ns.len().max(1),
            Payload::Text(d) => d.len().max(1),
        }
    }
}

/// One distributable record.
#[derive(Debug, Clone, PartialEq)]
pub struct DataItem {
    /// Stable id, unique within the dataset.
    pub id: u64,
    /// Universal set representation (hashed pivots / neighbors / words).
    pub items: ItemSet,
    /// The typed original.
    pub payload: Payload,
    /// Ground-truth generator cluster (`None` for loaded real data). Used
    /// only by tests and quality metrics, never by the framework itself.
    pub truth_cluster: Option<u32>,
}

/// A named, homogeneous collection of records.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name (e.g. `"treebank-syn"`).
    pub name: String,
    /// Data domain.
    pub kind: DataKind,
    /// The records.
    pub items: Vec<DataItem>,
}

impl Dataset {
    /// Construct a dataset, assigning ids `0..n` if items carry `id = 0`
    /// placeholders is the caller's concern; this constructor trusts ids.
    pub fn new(name: impl Into<String>, kind: DataKind, items: Vec<DataItem>) -> Self {
        Dataset {
            name: name.into(),
            kind,
            items,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total element count across payloads (paper Table I's "Nodes"/"docs"
    /// scale column).
    pub fn total_elements(&self) -> usize {
        self.items.iter().map(|i| i.payload.element_count()).sum()
    }

    /// Total serialized size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.items.iter().map(|i| i.payload.to_bytes().len()).sum()
    }

    /// Build a graph dataset: one record per vertex.
    pub fn from_graph(name: impl Into<String>, graph: &AdjacencyGraph) -> Self {
        let items = (0..graph.num_nodes())
            .map(|v| DataItem {
                id: v as u64,
                items: graph.vertex_item_set(v),
                payload: Payload::Adjacency(graph.neighbors(v).to_vec()),
                truth_cluster: None,
            })
            .collect();
        Dataset::new(name, DataKind::Graph, items)
    }

    /// Build a text dataset from documents.
    pub fn from_documents(name: impl Into<String>, docs: Vec<Document>) -> Self {
        let items = docs
            .into_iter()
            .enumerate()
            .map(|(i, d)| DataItem {
                id: i as u64,
                items: d.item_set(),
                payload: Payload::Text(d),
                truth_cluster: None,
            })
            .collect();
        Dataset::new(name, DataKind::Text, items)
    }

    /// Build a tree dataset from trees.
    pub fn from_trees(name: impl Into<String>, trees: Vec<LabeledTree>) -> Self {
        let items = trees
            .into_iter()
            .enumerate()
            .map(|(i, t)| DataItem {
                id: i as u64,
                items: t.item_set(),
                payload: Payload::Tree(t),
                truth_cluster: None,
            })
            .collect();
        Dataset::new(name, DataKind::Tree, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_documents_assigns_ids_and_item_sets() {
        let ds = Dataset::from_documents(
            "t",
            vec![Document::new(vec![1, 2]), Document::new(vec![2, 3])],
        );
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.kind, DataKind::Text);
        assert_eq!(ds.items[0].id, 0);
        assert_eq!(ds.items[1].id, 1);
        assert_eq!(ds.items[1].items.as_slice(), &[2, 3]);
        assert_eq!(ds.total_elements(), 4);
    }

    #[test]
    fn from_graph_one_record_per_vertex() {
        let g = AdjacencyGraph::from_adjacency(vec![vec![1], vec![0], vec![0, 1]]);
        let ds = Dataset::from_graph("g", &g);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.kind, DataKind::Graph);
        match &ds.items[2].payload {
            Payload::Adjacency(ns) => assert_eq!(ns, &[0, 1]),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn payload_bytes_nonempty() {
        let p = Payload::Adjacency(vec![1, 2, 3]);
        assert_eq!(p.to_bytes().len(), 16);
        assert_eq!(p.element_count(), 3);
    }

    #[test]
    fn dataset_totals() {
        let ds = Dataset::from_documents("x", vec![Document::new(vec![9; 10])]);
        assert_eq!(ds.total_elements(), 10);
        assert_eq!(ds.total_bytes(), 4 + 40);
    }
}
