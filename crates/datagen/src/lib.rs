//! Data model and dataset generation for the Pareto analytics framework.
//!
//! The framework of Chakrabarti et al. (ICPP 2017) is *payload aware*: every
//! data item — an XML tree, a web-graph adjacency list, or a text document —
//! is first converted to a **set of items** over a common universe (paper
//! §III-C step 1) so that sketching, stratification, and partitioning can
//! operate domain-independently:
//!
//! * **Trees** are encoded as [Prüfer sequences](tree::prufer_encode) and
//!   reduced to *pivot* triples `(a, p, q)` where `a` is the least common
//!   ancestor of nodes `p` and `q`; each tree becomes the set of its hashed
//!   pivots.
//! * **Graphs** contribute one record per vertex whose item set is its
//!   adjacency list.
//! * **Text** documents become their set of word ids.
//!
//! The paper evaluates on SwissProt/Treebank (trees), UK/Arabic web graphs,
//! and the RCV1 corpus. Those corpora are not redistributable here, so
//! [`generators`] provides seeded synthetic equivalents with controlled
//! *cluster structure and skew* — the two properties the framework actually
//! exploits — plus [`loaders`] for the simple on-disk formats if you have
//! real data.

pub mod dataset;
pub mod generators;
pub mod graph;
pub mod item;
pub mod loaders;
pub mod text;
pub mod tree;
pub mod writers;

pub use dataset::{DataItem, DataKind, Dataset, Payload};
pub use generators::{
    arabic_syn, rcv1_syn, swissprot_syn, treebank_syn, uk_syn, GraphGenConfig, TextGenConfig,
    TreeGenConfig,
};
pub use graph::AdjacencyGraph;
pub use item::{Item, ItemSet};
pub use text::Document;
pub use tree::{prufer_decode, prufer_encode, LabeledTree, Pivot, TreeError};
