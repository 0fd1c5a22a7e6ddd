//! Content-addressed artifact cache for the staged planning pipeline.
//!
//! Every stage of the plan pipeline ([`crate::stages`]) names its output
//! with a [`Fingerprint`] — a seeded SplitMix64 digest of every input the
//! stage reads (dataset content, stratifier config, node roster + energy
//! traces, strategy + α). The [`PlanCache`] maps `(stage name,
//! fingerprint)` to the stage's artifact, so a replan recomputes only the
//! stages whose inputs actually changed.
//!
//! Determinism rules (DESIGN.md §10):
//! * keys are pure functions of stage inputs — never of wall time,
//!   iteration order, or thread count;
//! * the store is a `BTreeMap`, and eviction takes a superseded entry (the
//!   previous dataset generation's sketch, once its extension is stored)
//!   and then, under capacity pressure, the least-recently-used entry with
//!   a smallest-key tie-break, so the cache's behavior is bit-identical
//!   across runs;
//! * artifacts are immutable (`Arc`) — a cache hit hands back the exact
//!   value a cold compute would have produced, which is what makes warm
//!   replans bit-identical to cold plans.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pareto_datagen::item::stable_hash64;
use pareto_stats::split_seed;

/// A deterministic 64-bit digest of a stage's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

/// Chained SplitMix64 mixer for building [`Fingerprint`]s. Each `mix_*`
/// call folds one input into the state via `split_seed`, so the digest
/// depends on both the values and their order.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// Start a digest in a named domain (stage name or artifact kind), so
    /// identical payloads in different domains never collide.
    pub fn new(domain: &str) -> Self {
        FingerprintBuilder {
            state: split_seed(0x5EED_F1E1_D000_0000, stable_hash64(domain.as_bytes())),
        }
    }

    /// Fold one 64-bit value into the digest.
    pub fn mix_u64(mut self, v: u64) -> Self {
        self.state = split_seed(self.state, v);
        self
    }

    /// Fold a previously finished digest.
    pub fn mix_fp(self, fp: Fingerprint) -> Self {
        self.mix_u64(fp.0)
    }

    /// Fold an `f64` by its raw bits (`-0.0` and `0.0` stay distinct on
    /// purpose: the digest addresses *inputs*, not values-modulo-equality).
    pub fn mix_f64(self, v: f64) -> Self {
        self.mix_u64(v.to_bits())
    }

    /// Fold a `usize`.
    pub fn mix_usize(self, v: usize) -> Self {
        self.mix_u64(v as u64)
    }

    /// Fold a boolean.
    pub fn mix_bool(self, v: bool) -> Self {
        self.mix_u64(v as u64)
    }

    /// Fold a byte string (FNV-1a folded, then mixed — length included so
    /// concatenations can't collide).
    pub fn mix_bytes(self, bytes: &[u8]) -> Self {
        self.mix_u64(bytes.len() as u64)
            .mix_u64(stable_hash64(bytes))
    }

    /// Finish the digest. The final fixed mix separates finished digests
    /// from any prefix of mixes.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(split_seed(self.state, 0x00F1_AA11_5EA1))
    }
}

/// Per-stage hit/miss/evict counters, kept next to the entries so callers
/// (tests, the CLI, CI) can assert reuse without telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    events: BTreeMap<(String, &'static str), u64>,
}

impl CacheStats {
    fn bump(&mut self, stage: &str, event: &'static str) {
        *self.events.entry((stage.to_string(), event)).or_insert(0) += 1;
    }

    fn count(&self, stage: &str, event: &'static str) -> u64 {
        self.events
            .get(&(stage.to_string(), event))
            .copied()
            .unwrap_or(0)
    }

    /// Cache hits recorded for `stage`.
    pub fn hits(&self, stage: &str) -> u64 {
        self.count(stage, "hit")
    }

    /// Cache misses recorded for `stage`.
    pub fn misses(&self, stage: &str) -> u64 {
        self.count(stage, "miss")
    }

    /// Evictions of `stage` artifacts.
    pub fn evictions(&self, stage: &str) -> u64 {
        self.count(stage, "evict")
    }

    /// All `(stage, event) -> count` entries in sorted order.
    pub fn events(&self) -> impl Iterator<Item = (&str, &'static str, u64)> {
        self.events
            .iter()
            .map(|((stage, event), &count)| (stage.as_str(), *event, count))
    }

    /// Total events of any kind (handy for "did anything happen" checks).
    pub fn total(&self) -> u64 {
        self.events.values().sum()
    }
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

/// Bounded, deterministic LRU store of stage artifacts keyed by
/// `(stage name, fingerprint)`.
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<(&'static str, Fingerprint), Entry>,
    /// The entry the next insert replaces, set by [`PlanCache::supersede`].
    superseded: Option<(&'static str, Fingerprint)>,
    stats: CacheStats,
}

impl PlanCache {
    /// Default entry bound: generous for α sweeps (one artifact per stage
    /// per distinct input), small enough that a long session can't grow
    /// without bound.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A cache bounded to `capacity` entries (floored at 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: BTreeMap::new(),
            superseded: None,
            stats: CacheStats::default(),
        }
    }

    /// Entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss/evict counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Look up a stage artifact, recording a hit or a miss.
    pub fn get<T: Any + Send + Sync>(
        &mut self,
        stage: &'static str,
        fp: Fingerprint,
    ) -> Option<Arc<T>> {
        match self.lookup::<T>(stage, fp) {
            Some(v) => {
                self.stats.bump(stage, "hit");
                Some(v)
            }
            None => {
                self.stats.bump(stage, "miss");
                None
            }
        }
    }

    /// Look up an artifact that the next [`insert`](Self::insert)
    /// replaces (the previous dataset generation's sketch, used as the
    /// append prefix of the extended one): records a hit when found but
    /// stays silent on absence, so a speculative lookup doesn't inflate
    /// miss counts, and marks the entry so that the next insert evicts
    /// it. The caller inserts under the same guard (the stage driver holds
    /// one across lookup, compute and store), so no other insert can
    /// take the mark.
    pub fn supersede<T: Any + Send + Sync>(
        &mut self,
        stage: &'static str,
        fp: Fingerprint,
    ) -> Option<Arc<T>> {
        let v = self.lookup::<T>(stage, fp);
        if v.is_some() {
            self.stats.bump(stage, "hit");
            self.superseded = Some((stage, fp));
        }
        v
    }

    fn lookup<T: Any + Send + Sync>(
        &mut self,
        stage: &'static str,
        fp: Fingerprint,
    ) -> Option<Arc<T>> {
        let entry = self.entries.get_mut(&(stage, fp))?;
        self.tick += 1;
        entry.last_used = self.tick;
        // The key embeds the stage name, and every stage stores exactly one
        // artifact type, so a mismatched downcast is a programming error.
        Some(
            entry
                .value
                .clone()
                .downcast::<T>()
                .expect("stage artifact type is fixed per stage name"),
        )
    }

    /// Insert an artifact. The entry marked by [`supersede`](Self::supersede)
    /// leaves first, then the least-recently-used entries (smallest key on
    /// ties) while the cache is full. Returns the stage names of evicted
    /// entries, superseded ones included.
    pub fn insert<T: Any + Send + Sync>(
        &mut self,
        stage: &'static str,
        fp: Fingerprint,
        value: Arc<T>,
    ) -> Vec<&'static str> {
        let mut evicted = Vec::new();
        if let Some(old) = self.superseded.take() {
            if old != (stage, fp) && self.entries.remove(&old).is_some() {
                self.stats.bump(old.0, "evict");
                evicted.push(old.0);
            }
        }
        if !self.entries.contains_key(&(stage, fp)) {
            while self.entries.len() >= self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(key, e)| (e.last_used, *key))
                    .map(|(key, _)| *key)
                    .expect("non-empty cache at capacity");
                self.entries.remove(&victim);
                self.stats.bump(victim.0, "evict");
                evicted.push(victim.0);
            }
        }
        self.tick += 1;
        self.entries.insert(
            (stage, fp),
            Entry {
                value,
                last_used: self.tick,
            },
        );
        evicted
    }
}

/// A [`PlanCache`] behind `Arc<Mutex<…>>` so many sessions (one per
/// tenant, in the plan-serving daemon) can share one artifact store and
/// identical dataset digests dedupe fleet-wide.
///
/// Single-threaded semantics are unchanged: every session gets a private
/// `SharedPlanCache` by default, the lock is uncontended, and the
/// fingerprint/eviction behavior inside is exactly [`PlanCache`]'s — the
/// wrapper adds sharing, not policy. Under contention the lock is held for
/// the duration of one stage (lookup + compute + insert), which is also
/// what guarantees two tenants missing the same fingerprint compute it
/// once: the second locker finds the first's artifact already inserted.
#[derive(Clone)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<PlanCache>>,
}

impl SharedPlanCache {
    /// A shared cache bounded to `capacity` entries (floored at 1).
    pub fn new(capacity: usize) -> Self {
        SharedPlanCache {
            inner: Arc::new(Mutex::new(PlanCache::new(capacity))),
        }
    }

    /// Lock the underlying cache. Poisoning is ignored on purpose: the
    /// cache holds only immutable `Arc`ed artifacts plus counters, so a
    /// panicking peer cannot leave it half-written, and a serving process
    /// must not abort because one worker died.
    pub fn lock(&self) -> MutexGuard<'_, PlanCache> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the hit/miss/evict counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats().clone()
    }

    /// True when both handles view the same underlying store.
    pub fn same_store(&self, other: &SharedPlanCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::new(PlanCache::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn fingerprints_are_deterministic_and_order_sensitive() {
        let a = FingerprintBuilder::new("x").mix_u64(1).mix_u64(2).finish();
        let b = FingerprintBuilder::new("x").mix_u64(1).mix_u64(2).finish();
        let c = FingerprintBuilder::new("x").mix_u64(2).mix_u64(1).finish();
        let d = FingerprintBuilder::new("y").mix_u64(1).mix_u64(2).finish();
        assert_eq!(a, b);
        assert_ne!(a, c, "order must matter");
        assert_ne!(a, d, "domain must matter");
    }

    #[test]
    fn byte_mixing_resists_concatenation_collisions() {
        let ab = FingerprintBuilder::new("b").mix_bytes(b"ab").finish();
        let a_b = FingerprintBuilder::new("b")
            .mix_bytes(b"a")
            .mix_bytes(b"b")
            .finish();
        assert_ne!(ab, a_b);
    }

    #[test]
    fn get_records_hits_and_misses() {
        let mut cache = PlanCache::new(4);
        assert!(cache.get::<u32>("s", fp(1)).is_none());
        cache.insert("s", fp(1), Arc::new(7u32));
        assert_eq!(*cache.get::<u32>("s", fp(1)).unwrap(), 7);
        assert_eq!(cache.stats().misses("s"), 1);
        assert_eq!(cache.stats().hits("s"), 1);
    }

    #[test]
    fn quiet_lookup_never_counts_misses() {
        let mut cache = PlanCache::new(4);
        assert!(cache.supersede::<u32>("s", fp(9)).is_none());
        assert_eq!(cache.stats().misses("s"), 0);
        cache.insert("s", fp(9), Arc::new(1u32));
        assert!(cache.supersede::<u32>("s", fp(9)).is_some());
        assert_eq!(cache.stats().hits("s"), 1);
    }

    #[test]
    fn superseded_entry_leaves_as_an_eviction_on_the_next_insert() {
        let mut cache = PlanCache::new(4);
        cache.insert("s", fp(1), Arc::new(1u32));
        cache.insert("t", fp(2), Arc::new(2u32));
        // Absence marks nothing: the next insert evicts no one.
        assert!(cache.supersede::<u32>("s", fp(7)).is_none());
        assert!(cache.insert("t", fp(3), Arc::new(3u32)).is_empty());
        assert_eq!(*cache.supersede::<u32>("s", fp(1)).unwrap(), 1);
        assert_eq!(cache.insert("s", fp(4), Arc::new(4u32)), vec!["s"]);
        assert!(cache.get::<u32>("s", fp(1)).is_none());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions("s"), 1);
        // The mark is spent: a later insert at capacity evicts by LRU only.
        assert!(cache.insert("u", fp(5), Arc::new(5u32)).is_empty());
        assert_eq!(cache.insert("u", fp(6), Arc::new(6u32)), vec!["t"]);
    }

    #[test]
    fn superseding_a_key_by_itself_evicts_nothing() {
        let mut cache = PlanCache::new(2);
        cache.insert("s", fp(1), Arc::new(1u32));
        assert!(cache.supersede::<u32>("s", fp(1)).is_some());
        assert!(cache.insert("s", fp(1), Arc::new(2u32)).is_empty());
        assert_eq!(*cache.get::<u32>("s", fp(1)).unwrap(), 2);
        assert_eq!(cache.stats().evictions("s"), 0);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let mut cache = PlanCache::new(2);
        cache.insert("a", fp(1), Arc::new(1u32));
        cache.insert("b", fp(2), Arc::new(2u32));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get::<u32>("a", fp(1)).is_some());
        let evicted = cache.insert("c", fp(3), Arc::new(3u32));
        assert_eq!(evicted, vec!["b"]);
        assert!(cache.get::<u32>("a", fp(1)).is_some());
        assert!(cache.get::<u32>("b", fp(2)).is_none());
        assert_eq!(cache.stats().evictions("b"), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut cache = PlanCache::new(1);
        cache.insert("a", fp(1), Arc::new(1u32));
        let evicted = cache.insert("a", fp(1), Arc::new(2u32));
        assert!(evicted.is_empty());
        assert_eq!(*cache.get::<u32>("a", fp(1)).unwrap(), 2);
    }
}
