//! Labeled trees, Prüfer encoding, and LCA-pivot extraction (§III-C step 1).
//!
//! A tree is itemized in two steps, following the paper (after Tatikonda &
//! Parthasarathy, ICDE 2010):
//!
//! 1. The tree is canonically represented through its **Prüfer sequence**.
//! 2. **Pivots** `(a, p, q)` are extracted, where `a` is the *least common
//!    ancestor* (in label space) of node pair `(p, q)`; the set of hashed
//!    pivots is the tree's [`ItemSet`](crate::item::ItemSet).
//!
//! Pivot pairs are drawn from consecutive entries of the Prüfer-order leaf
//! sequence, which keeps extraction linear in tree size while remaining
//! sensitive to both structure and labels.

use crate::item::{hash_triple, ItemSet};
use std::fmt;

/// Errors from tree construction or Prüfer decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The parent array does not describe a single rooted tree.
    NotATree(String),
    /// Prüfer decoding needs a sequence over nodes `0..n` with `n = len+2`.
    InvalidPrufer(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NotATree(m) => write!(f, "not a tree: {m}"),
            TreeError::InvalidPrufer(m) => write!(f, "invalid Prüfer sequence: {m}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A pivot triple `(ancestor_label, label_p, label_q)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pivot {
    /// Label of the least common ancestor of `p` and `q`.
    pub ancestor: u32,
    /// Label of the first descendant.
    pub p: u32,
    /// Label of the second descendant.
    pub q: u32,
}

impl Pivot {
    /// Hash the pivot into the universal item space. The descendant pair is
    /// order-normalized so `(a,p,q)` and `(a,q,p)` are the same item.
    pub fn to_item(self) -> u64 {
        let (lo, hi) = if self.p <= self.q {
            (self.p, self.q)
        } else {
            (self.q, self.p)
        };
        hash_triple(self.ancestor, lo, hi)
    }
}

/// A rooted labeled tree stored as a parent array.
///
/// Node `0` is the root (`parent[0]` is ignored); `parent[v] < v` is *not*
/// required, but the parent pointers must form a tree rooted at 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledTree {
    /// `parent[v]` is the parent of node `v`; `parent[0]` is `0` by
    /// convention.
    parent: Vec<u32>,
    /// `labels[v]` is the label of node `v`.
    labels: Vec<u32>,
    /// `depth[v]` (root = 0), precomputed for LCA walks.
    depth: Vec<u32>,
}

impl LabeledTree {
    /// Build a tree from a parent array and labels.
    pub fn new(parent: Vec<u32>, labels: Vec<u32>) -> Result<Self, TreeError> {
        let n = parent.len();
        if n == 0 {
            return Err(TreeError::NotATree("empty".into()));
        }
        if labels.len() != n {
            return Err(TreeError::NotATree(format!(
                "{} labels for {} nodes",
                labels.len(),
                n
            )));
        }
        if n > u32::MAX as usize {
            return Err(TreeError::NotATree("too many nodes".into()));
        }
        // Compute depths; detect cycles / unreachable nodes with a visited
        // walk that path-compresses into `depth`.
        let mut depth = vec![u32::MAX; n];
        depth[0] = 0;
        for v in 0..n {
            if depth[v] != u32::MAX {
                continue;
            }
            // Walk up to a node with a known depth.
            let mut path = Vec::new();
            let mut cur = v;
            while depth[cur] == u32::MAX {
                path.push(cur);
                let p = parent[cur] as usize;
                if p >= n {
                    return Err(TreeError::NotATree(format!("parent {p} out of range")));
                }
                if p == cur {
                    return Err(TreeError::NotATree(format!(
                        "node {cur} is its own parent but is not the root"
                    )));
                }
                if path.len() > n {
                    return Err(TreeError::NotATree("cycle detected".into()));
                }
                cur = p;
            }
            let mut d = depth[cur];
            for &u in path.iter().rev() {
                d += 1;
                depth[u] = d;
            }
        }
        Ok(LabeledTree {
            parent,
            labels,
            depth,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for the (disallowed) empty tree; always false for constructed
    /// trees, provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Node labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Parent array (entry 0 is the root's self-loop by convention).
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }

    /// Least common ancestor of nodes `u` and `v` (indices), by the
    /// classic depth-equalizing walk. `O(depth)` per query — fine for the
    /// small record trees handled here.
    pub fn lca(&self, mut u: usize, mut v: usize) -> usize {
        while self.depth[u] > self.depth[v] {
            u = self.parent[u] as usize;
        }
        while self.depth[v] > self.depth[u] {
            v = self.parent[v] as usize;
        }
        while u != v {
            u = self.parent[u] as usize;
            v = self.parent[v] as usize;
        }
        u
    }

    /// Extract the pivot set (paper §III-C step 1).
    ///
    /// Pairs are formed from consecutive nodes of the Prüfer *leaf order*
    /// (the order in which leaves are pruned during encoding), plus
    /// consecutive entries of the Prüfer sequence itself. This gives
    /// `O(n)` pivots per tree covering both deep and shallow structure.
    pub fn pivots(&self) -> Vec<Pivot> {
        let n = self.len();
        if n == 1 {
            // Degenerate: a single node has no pairs; emit a self pivot so
            // the item set is non-empty.
            let l = self.labels[0];
            return vec![Pivot {
                ancestor: l,
                p: l,
                q: l,
            }];
        }
        let (seq, prune_order) = prufer_encode_with_order(self);
        let mut pivots = Vec::with_capacity(2 * n);
        // Consecutive pruned leaves.
        for w in prune_order.windows(2) {
            let (u, v) = (w[0], w[1]);
            let a = self.lca(u, v);
            pivots.push(Pivot {
                ancestor: self.labels[a],
                p: self.labels[u],
                q: self.labels[v],
            });
        }
        // Consecutive Prüfer entries (internal structure).
        for w in seq.windows(2) {
            let (u, v) = (w[0] as usize, w[1] as usize);
            let a = self.lca(u, v);
            pivots.push(Pivot {
                ancestor: self.labels[a],
                p: self.labels[u],
                q: self.labels[v],
            });
        }
        if pivots.is_empty() {
            // n = 2: no consecutive pairs exist; fall back to the edge.
            pivots.push(Pivot {
                ancestor: self.labels[0],
                p: self.labels[0],
                q: self.labels[1 % n],
            });
        }
        pivots
    }

    /// The tree's universal-set representation: hashed pivots.
    pub fn item_set(&self) -> ItemSet {
        self.pivots().iter().map(|p| p.to_item()).collect()
    }

    /// Serialize to bytes: `[n, parent…, label…]` little-endian `u32`s.
    /// Used by the byte-oriented KV storage layout and LZ77 workload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.len() as u32;
        let mut out = Vec::with_capacity(4 + 8 * self.len());
        out.extend_from_slice(&n.to_le_bytes());
        for &p in &self.parent {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &l in &self.labels {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out
    }
}

/// Prüfer-encode a tree of `n ≥ 2` nodes into its length `n−2` sequence.
///
/// The tree is treated as unrooted for encoding (standard Prüfer); labels
/// play no role here. Returns the sequence of node indices.
pub fn prufer_encode(tree: &LabeledTree) -> Vec<u32> {
    prufer_encode_with_order(tree).0
}

/// Prüfer encoding that also returns the leaf-pruning order (used for pivot
/// extraction). For `n < 2` both vectors are empty; for `n = 2` the
/// sequence is empty and the order contains one leaf.
fn prufer_encode_with_order(tree: &LabeledTree) -> (Vec<u32>, Vec<usize>) {
    let n = tree.len();
    if n < 2 {
        return (Vec::new(), Vec::new());
    }
    // Build undirected degree counts from the parent array.
    let mut degree = vec![0u32; n];
    for v in 1..n {
        degree[v] += 1;
        degree[tree.parent[v] as usize] += 1;
    }
    // Adjacency via parent pointers: neighbors(v) = parent(v) ∪ children(v).
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in 1..n {
        children[tree.parent[v] as usize].push(v as u32);
    }
    let mut removed = vec![false; n];
    let mut seq = Vec::with_capacity(n.saturating_sub(2));
    let mut order = Vec::with_capacity(n.saturating_sub(2) + 1);
    // Min-heap of current leaves (classic O(n log n) encoding).
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for _ in 0..n - 2 {
        let leaf = loop {
            let std::cmp::Reverse(v) = heap.pop().expect("tree always has a leaf");
            if !removed[v] && degree[v] == 1 {
                break v;
            }
        };
        removed[leaf] = true;
        order.push(leaf);
        // The unique remaining neighbor.
        let neighbor = neighbor_of(tree, &children, &removed, leaf);
        seq.push(neighbor as u32);
        degree[leaf] -= 1;
        degree[neighbor] -= 1;
        if degree[neighbor] == 1 {
            heap.push(std::cmp::Reverse(neighbor));
        }
    }
    // Record one of the two remaining nodes for the pruning order.
    if let Some(last_leaf) = (0..n).find(|&v| !removed[v] && degree[v] == 1) {
        order.push(last_leaf);
    }
    (seq, order)
}

fn neighbor_of(tree: &LabeledTree, children: &[Vec<u32>], removed: &[bool], v: usize) -> usize {
    if v != 0 {
        let p = tree.parent[v] as usize;
        if !removed[p] {
            return p;
        }
    }
    children[v]
        .iter()
        .map(|&c| c as usize)
        .find(|&c| !removed[c])
        .expect("leaf has exactly one live neighbor")
}

/// Decode a Prüfer sequence over nodes `0..n` (where `n = seq.len() + 2`)
/// into a tree rooted at node `n−1`, assigning the given labels.
pub fn prufer_decode(seq: &[u32], labels: Vec<u32>) -> Result<LabeledTree, TreeError> {
    let n = seq.len() + 2;
    if labels.len() != n {
        return Err(TreeError::InvalidPrufer(format!(
            "{} labels for {} nodes",
            labels.len(),
            n
        )));
    }
    if seq.iter().any(|&s| s as usize >= n) {
        return Err(TreeError::InvalidPrufer("entry out of range".into()));
    }
    let mut degree = vec![1u32; n];
    for &s in seq {
        degree[s as usize] += 1;
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    // Build undirected edges, then root at n-1.
    let mut edges = Vec::with_capacity(n - 1);
    for &s in seq {
        let std::cmp::Reverse(leaf) = heap.pop().expect("valid sequence has a leaf");
        edges.push((leaf, s as usize));
        degree[leaf] -= 1;
        degree[s as usize] -= 1;
        if degree[s as usize] == 1 {
            heap.push(std::cmp::Reverse(s as usize));
        }
    }
    let std::cmp::Reverse(u) = heap.pop().expect("two nodes remain");
    let std::cmp::Reverse(v) = heap.pop().expect("two nodes remain");
    edges.push((u, v));

    // Root the undirected tree at node 0 with a BFS.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut parent = vec![0u32; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[0] = true;
    queue.push_back(0usize);
    while let Some(x) = queue.pop_front() {
        for &y in &adj[x] {
            if !visited[y] {
                visited[y] = true;
                parent[y] = x as u32;
                queue.push_back(y);
            }
        }
    }
    if visited.iter().any(|&v| !v) {
        return Err(TreeError::InvalidPrufer(
            "decoded graph is disconnected".into(),
        ));
    }
    LabeledTree::new(parent, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixed tree:
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///     / \   \
    ///    3   4   5
    /// ```
    fn sample_tree() -> LabeledTree {
        LabeledTree::new(vec![0, 0, 0, 1, 1, 2], vec![10, 11, 12, 13, 14, 15]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(LabeledTree::new(vec![], vec![]).is_err());
        assert!(LabeledTree::new(vec![0, 0], vec![1]).is_err());
        // Cycle 1 -> 2 -> 1.
        assert!(LabeledTree::new(vec![0, 2, 1], vec![0, 0, 0]).is_err());
        // Out-of-range parent.
        assert!(LabeledTree::new(vec![0, 9], vec![0, 0]).is_err());
        // Self-parent at non-root.
        assert!(LabeledTree::new(vec![0, 1], vec![0, 0]).is_err());
    }

    #[test]
    fn depths_and_lca() {
        let t = sample_tree();
        assert_eq!(t.lca(3, 4), 1);
        assert_eq!(t.lca(3, 5), 0);
        assert_eq!(t.lca(1, 4), 1);
        assert_eq!(t.lca(0, 5), 0);
        assert_eq!(t.lca(2, 2), 2);
    }

    #[test]
    fn prufer_encode_known_value() {
        // Path 0-1-2-3 (parents: 1->0, 2->1, 3->2). Classic Prüfer of a
        // path prunes leaf 0 first (neighbor 1), then leaf 1 (neighbor 2):
        // sequence [1, 2].
        let t = LabeledTree::new(vec![0, 0, 1, 2], vec![0, 1, 2, 3]).unwrap();
        assert_eq!(prufer_encode(&t), vec![1, 2]);
    }

    #[test]
    fn prufer_star_encodes_to_center() {
        // Star centered at 0 with leaves 1..=4 -> sequence [0, 0, 0].
        let t = LabeledTree::new(vec![0, 0, 0, 0, 0], vec![9; 5]).unwrap();
        assert_eq!(prufer_encode(&t), vec![0, 0, 0]);
    }

    #[test]
    fn prufer_roundtrip_preserves_edge_set() {
        let t = sample_tree();
        let seq = prufer_encode(&t);
        let t2 = prufer_decode(&seq, t.labels().to_vec()).unwrap();
        // Same undirected edge multiset.
        let edges = |t: &LabeledTree| {
            let mut e: Vec<(usize, usize)> = (1..t.len())
                .map(|v| {
                    let p = t.parents()[v] as usize;
                    (p.min(v), p.max(v))
                })
                .collect();
            e.sort_unstable();
            e
        };
        assert_eq!(edges(&t), edges(&t2));
    }

    #[test]
    fn prufer_decode_rejects_bad_input() {
        assert!(prufer_decode(&[5], vec![0, 0, 0]).is_err());
        assert!(prufer_decode(&[0], vec![0, 0]).is_err());
    }

    #[test]
    fn pivots_nonempty_and_deterministic() {
        let t = sample_tree();
        let p1 = t.pivots();
        let p2 = t.pivots();
        assert!(!p1.is_empty());
        assert_eq!(p1, p2);
    }

    #[test]
    fn pivot_item_is_pair_symmetric() {
        let a = Pivot {
            ancestor: 1,
            p: 2,
            q: 3,
        };
        let b = Pivot {
            ancestor: 1,
            p: 3,
            q: 2,
        };
        assert_eq!(a.to_item(), b.to_item());
    }

    #[test]
    fn similar_trees_have_similar_item_sets() {
        let t1 = sample_tree();
        // Same structure, one label changed.
        let mut labels = t1.labels().to_vec();
        labels[5] = 99;
        let t2 = LabeledTree::new(t1.parents().to_vec(), labels).unwrap();
        // A completely different tree (path with different labels).
        let t3 = LabeledTree::new(vec![0, 0, 1, 2, 3, 4], vec![70, 71, 72, 73, 74, 75]).unwrap();
        let (s1, s2, s3) = (t1.item_set(), t2.item_set(), t3.item_set());
        assert!(s1.jaccard(&s2) > s1.jaccard(&s3));
        assert_eq!(s1.jaccard(&s3), 0.0);
    }

    #[test]
    fn single_node_tree_itemizes() {
        let t = LabeledTree::new(vec![0], vec![7]).unwrap();
        assert_eq!(t.item_set().len(), 1);
    }

    #[test]
    fn two_node_tree_pivots() {
        let t = LabeledTree::new(vec![0, 0], vec![1, 2]).unwrap();
        // No consecutive pairs exist for n = 2; the edge fallback must keep
        // the item set non-empty.
        assert!(!t.item_set().is_empty());
    }

    #[test]
    fn to_bytes_layout() {
        let t = LabeledTree::new(vec![0, 0], vec![5, 6]).unwrap();
        let b = t.to_bytes();
        assert_eq!(b.len(), 4 + 2 * 4 + 2 * 4);
        assert_eq!(&b[0..4], &2u32.to_le_bytes());
    }
}
