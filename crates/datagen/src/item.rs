//! The universal set representation every payload is reduced to.
//!
//! After itemization (paper §III-C step 1), a data object is just a set of
//! `u64` items; similarity is Jaccard similarity over these sets, and all
//! downstream machinery (MinHash sketching, compositeKModes clustering) is
//! domain independent.

use std::fmt;

/// An element of the universal set. Pivots, word ids, and neighbor ids are
/// all mapped into this space (hashed where necessary).
pub type Item = u64;

/// A set of [`Item`]s, stored sorted and deduplicated.
///
/// Invariant: `items` is strictly increasing. All constructors enforce it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ItemSet {
    items: Vec<Item>,
}

impl ItemSet {
    /// Build from arbitrary (possibly duplicated, unsorted) items.
    pub fn from_items(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        ItemSet { items }
    }

    /// Build from items already known to be strictly increasing.
    ///
    /// # Panics
    /// In debug builds, panics if the invariant does not hold.
    pub fn from_sorted_unchecked(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly increasing"
        );
        ItemSet { items }
    }

    /// The empty set.
    pub fn empty() -> Self {
        ItemSet { items: Vec::new() }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the set has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorted view of the items.
    #[inline]
    pub fn as_slice(&self) -> &[Item] {
        &self.items
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Size of the intersection with `other` (linear merge).
    pub fn intersection_size(&self, other: &ItemSet) -> usize {
        let (mut i, mut j, mut count) = (0, 0, 0);
        let (a, b) = (&self.items, &other.items);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Size of the union with `other`.
    pub fn union_size(&self, other: &ItemSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Exact Jaccard similarity `|x ∩ y| / |x ∪ y|`.
    ///
    /// Two empty sets have similarity 1 (they are identical).
    pub fn jaccard(&self, other: &ItemSet) -> f64 {
        let union = self.union_size(other);
        if union == 0 {
            return 1.0;
        }
        self.intersection_size(other) as f64 / union as f64
    }

    /// Iterate over the items in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.items.iter().copied()
    }

    /// Serialize to little-endian bytes (8 bytes per item), the layout used
    /// by the simulated KV store and the compression workloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.items.len() * 8);
        for item in &self.items {
            out.extend_from_slice(&item.to_le_bytes());
        }
        out
    }

    /// Inverse of [`ItemSet::to_bytes`]. Returns `None` if `bytes` is not a
    /// multiple of 8 long.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let items = bytes
            .chunks_exact(8)
            .map(|c| Item::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Some(ItemSet::from_items(items))
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        ItemSet::from_items(iter.into_iter().collect())
    }
}

/// A stable 64-bit hash for mapping structured keys (pivot triples, tokens)
/// into the universal item space. FNV-1a — deterministic across runs and
/// platforms, which the tests and experiments rely on.
#[inline]
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Hash a triple of `u32`s into an [`Item`] (used for tree pivots).
pub fn hash_triple(a: u32, b: u32, c: u32) -> Item {
    let mut buf = [0u8; 12];
    buf[0..4].copy_from_slice(&a.to_le_bytes());
    buf[4..8].copy_from_slice(&b.to_le_bytes());
    buf[8..12].copy_from_slice(&c.to_le_bytes());
    stable_hash64(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_items_sorts_and_dedups() {
        let s = ItemSet::from_items(vec![5, 1, 3, 1, 5]);
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_set() {
        let e = ItemSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.jaccard(&e), 1.0);
    }

    #[test]
    fn contains_uses_membership() {
        let s = ItemSet::from_items(vec![2, 4, 6]);
        assert!(s.contains(4));
        assert!(!s.contains(5));
    }

    #[test]
    fn jaccard_exact_values() {
        let a = ItemSet::from_items(vec![1, 2, 3, 4]);
        let b = ItemSet::from_items(vec![3, 4, 5, 6]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 6);
        assert!((a.jaccard(&b) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_identity_and_disjoint() {
        let a = ItemSet::from_items(vec![1, 2, 3]);
        let b = ItemSet::from_items(vec![10, 20]);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    #[test]
    fn jaccard_with_empty() {
        let a = ItemSet::from_items(vec![1]);
        assert_eq!(a.jaccard(&ItemSet::empty()), 0.0);
    }

    #[test]
    fn bytes_roundtrip() {
        let s = ItemSet::from_items(vec![0, 1, u64::MAX, 42]);
        let b = s.to_bytes();
        assert_eq!(b.len(), 32);
        assert_eq!(ItemSet::from_bytes(&b).unwrap(), s);
        assert!(ItemSet::from_bytes(&b[..7]).is_none());
    }

    #[test]
    fn stable_hash_is_stable() {
        // Pin exact values: determinism across platforms/runs is relied on.
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash64(b"a"), stable_hash64(b"a"));
        assert_ne!(stable_hash64(b"a"), stable_hash64(b"b"));
    }

    #[test]
    fn hash_triple_order_sensitive() {
        assert_ne!(hash_triple(1, 2, 3), hash_triple(3, 2, 1));
        assert_eq!(hash_triple(1, 2, 3), hash_triple(1, 2, 3));
    }

    #[test]
    fn from_iterator() {
        let s: ItemSet = [3u64, 1, 2].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2, 3]);
    }
}
