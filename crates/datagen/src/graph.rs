//! Graph records: per-vertex adjacency lists (§III-C step 1).
//!
//! For graph datasets the paper uses "the adjacency list as the pivot set
//! (set of neighbors)": the distributable unit is a vertex together with its
//! out-neighbors, and two vertices are similar when their neighbor sets
//! overlap — exactly the structure the WebGraph-style compressor (paper
//! §V-C2) exploits when similar vertices land in the same partition.

use crate::item::ItemSet;

/// A directed graph in compressed-sparse-row form.
///
/// Vertices are `0..num_nodes()`; `neighbors(v)` is sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl AdjacencyGraph {
    /// Build from per-vertex neighbor lists (each list is sorted and
    /// deduplicated internally).
    pub fn from_adjacency(mut lists: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        AdjacencyGraph { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted out-neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Itemize vertex `v`: its neighbor set lifted to the universal space.
    /// Isolated vertices map to the singleton `{v}` so their item set is
    /// non-empty (required by the sketching layer).
    pub fn vertex_item_set(&self, v: usize) -> ItemSet {
        let ns = self.neighbors(v);
        if ns.is_empty() {
            return ItemSet::from_items(vec![v as u64]);
        }
        ItemSet::from_sorted_unchecked(ns.iter().map(|&t| t as u64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AdjacencyGraph {
        AdjacencyGraph::from_adjacency(vec![vec![2, 1, 1], vec![], vec![0]])
    }

    #[test]
    fn csr_construction() {
        let g = sample();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!((0..3).map(|v| g.degree(v)).sum::<usize>(), 3); // duplicate (0->1) removed
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn vertex_item_sets() {
        let g = sample();
        assert_eq!(g.vertex_item_set(0).as_slice(), &[1, 2]);
        // Isolated vertex gets a singleton.
        assert_eq!(g.vertex_item_set(1).as_slice(), &[1]);
    }

    #[test]
    fn similar_vertices_high_jaccard() {
        let g = AdjacencyGraph::from_adjacency(vec![
            vec![10, 11, 12, 13],
            vec![10, 11, 12, 14],
            vec![50, 60],
        ]);
        let (a, b, c) = (
            g.vertex_item_set(0),
            g.vertex_item_set(1),
            g.vertex_item_set(2),
        );
        assert!(a.jaccard(&b) > 0.5);
        assert_eq!(a.jaccard(&c), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = AdjacencyGraph::from_adjacency(vec![]);
        assert_eq!(g.num_nodes(), 0);
    }
}
