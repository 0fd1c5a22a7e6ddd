//! The compositeKModes clustering algorithm (Wang et al., ICDE 2013).
//!
//! Standard kModes represents a cluster center as the single modal value of
//! each attribute. Over MinHash sketches that fails: the attribute domains
//! are huge, so most points share no value with any center (*zero-match*).
//! CompositeKModes instead keeps the `L` highest-frequency values per
//! attribute in each center; a point matches an attribute if its value
//! appears anywhere in that attribute's list. The objective — total number
//! of matched attributes — is non-decreasing under both the assignment and
//! the update step, so the algorithm converges like classic kModes.
//!
//! # Data layout
//!
//! The run never looks at a raw `u64` sketch value after its first step:
//! every column of the signature matrix is **dictionary-encoded** once
//! (dense `u32` ids in ascending value order, stored column-major), so
//! "the same value" is "the same id", id order is value order, and every
//! per-value table is a direct-indexed array. A column is ordered by one
//! **bucket pass**, not a full sort: rows scatter in row order into a
//! power of two (≥ `n`) of equal-width buckets over the column's
//! `[min, max]`, and only buckets holding two or more rows are sorted —
//! linear on MinHash values, which spread evenly. The same order yields an
//! **inverted index** `(attribute, id) → rows holding it`.
//!
//! An `n × K` **score block** — cell `(row, cluster)` counts the
//! attributes of `row` whose id the cluster's center lists — lives for the
//! whole run and is only ever *adjusted*. An iteration is an update step
//! followed by an assignment step, and what passes between them is a list
//! of [`Delta`]s: "this id entered (left) that cluster's list for this
//! attribute".
//!
//! * **Update** recomputes the `L` most frequent ids (count desc, id asc)
//!   of every attribute for each **dirty** cluster — one that gained or
//!   lost a point in the last assignment — and emits the set difference
//!   between the list it replaces and the new one (order inside a list
//!   does not affect a score). A clean cluster has the members it had, so
//!   the counts, and the lists, it had: it is skipped. An empty cluster is
//!   re-seeded on the *current* worst-matched point, which moves while the
//!   cluster's (empty) membership does not, so it is always dirty.
//! * **Assignment** walks the inverted-index rows of each delta's id and
//!   adds `±1` to their cells — work proportional to what changed — then
//!   sweeps the block for each point's best cluster.
//!
//! The first iteration is not special: the seed points are `K` singleton
//! clusters, all dirty, whose update writes the initial centers into empty
//! lists, so every seeded id "enters" and the first assignment builds the
//! score block from zero through the same deltas. Each shard of a step
//! owns a disjoint output range — points for assignment, attributes for
//! encoding and update — so the result is bit-identical at any thread
//! count with nothing to merge.

use pareto_sketch::SignatureMatrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for one clustering run.
#[derive(Debug, Clone)]
pub struct KModesConfig {
    /// Number of clusters `K`.
    pub num_clusters: usize,
    /// Values kept per attribute in a center (`L ≥ 1`; `L = 1` is classic
    /// kModes).
    pub l: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Seed for center initialization.
    pub seed: u64,
    /// Worker threads for the encoding, assignment and update steps
    /// (1 = serial). Every step is a pure function of its shard's rows or
    /// columns, so the result is bit-identical at any thread count.
    pub threads: usize,
}

/// The result of a clustering run.
#[derive(Debug, Clone)]
pub struct KModesResult {
    /// Cluster id per input signature.
    pub assignments: Vec<u32>,
    /// Number of clusters (as configured, possibly with empty clusters
    /// when there are fewer points than clusters).
    pub num_clusters: usize,
    /// Fraction of points whose final best match score was zero.
    pub zero_match_rate: f64,
    /// Iterations executed until convergence or the cap.
    pub iterations: usize,
    /// Final total match score (the kModes objective; higher is better).
    pub total_score: u64,
}

/// `(point, attribute)` cells below which a shard is not worth a thread of
/// its own: each step touches every cell a few times per iteration, so
/// this is a few hundred microseconds of work against tens for a spawn.
const MIN_SHARD_CELLS: usize = 1 << 16;

/// Run `work` on every shard: inline when there is at most one, on scoped
/// threads (each owning its shard's output blocks) otherwise.
fn run_shards<S: Send>(shards: impl Iterator<Item = S>, work: impl Fn(S) + Sync) {
    let mut shards: Vec<S> = shards.collect();
    if shards.len() <= 1 {
        return shards.pop().map(work).unwrap_or(());
    }
    crossbeam::thread::scope(|scope| {
        for shard in shards {
            let work = &work;
            scope.spawn(move |_| work(shard));
        }
    })
    // Invariant: a worker only indexes its own shard, so it panics only if
    // this module has a bug; re-raise that instead of hiding it.
    .expect("kmodes worker panicked");
}

/// The dictionary-encoded sketch columns and their inverted index.
struct Columns {
    n: usize,
    /// `ids[a * n + i]`: rank of row `i`'s value among attribute `a`'s
    /// distinct values.
    ids: Vec<u32>,
    /// `base[a]`: attribute `a`'s first slot in tables indexed by
    /// (attribute, id); `base[num_attrs]` is such a table's size.
    base: Vec<u32>,
    /// Per attribute, the rows ordered by (id, row): the rows holding the
    /// id of slot `s` are `rows[starts[s]..starts[s + 1]]`, ascending.
    rows: Vec<u32>,
    starts: Vec<u32>,
}

impl Columns {
    fn encode(signatures: &SignatureMatrix, shards: usize) -> Columns {
        let (n, num_attrs) = (signatures.num_rows(), signatures.width());
        // Invariant: rows and table slots are `u32`; the planner rejects
        // larger inputs before the stage runs (`PlanError::InvalidStratifier`).
        let cells = u32::try_from(n * num_attrs).expect("fewer than 2^32 sketch coordinates");
        let mut ids = vec![0u32; n * num_attrs];
        let mut rows = vec![0u32; n * num_attrs];
        let chunk = num_attrs.div_ceil(shards).max(1);
        run_shards(
            ids.chunks_mut(chunk * n)
                .zip(rows.chunks_mut(chunk * n))
                .enumerate(),
            |(shard, (ids, rows))| {
                let mut column = vec![0u64; n];
                let mut keyed = vec![(0u64, 0u32); n];
                let mut fill = vec![0u32; n.next_power_of_two() + 1];
                for (off, (ids, rows)) in ids
                    .chunks_exact_mut(n)
                    .zip(rows.chunks_exact_mut(n))
                    .enumerate()
                {
                    let a = shard * chunk + off;
                    for (i, value) in column.iter_mut().enumerate() {
                        *value = signatures.row(i)[a];
                    }
                    bucket_sort(&column, &mut keyed, &mut fill);
                    let (mut id, mut prev) = (0, keyed[0].0);
                    for (slot, &(value, row)) in rows.iter_mut().zip(&keyed) {
                        id += u32::from(value != prev);
                        prev = value;
                        ids[row as usize] = id;
                        *slot = row;
                    }
                }
            },
        );
        // A column's ids are dense, so its last sorted row holds its
        // largest id; each id's rows start where the id first appears.
        let mut base = vec![0u32; num_attrs + 1];
        let mut starts = Vec::with_capacity(n * num_attrs / 2);
        for a in 0..num_attrs {
            let (ids, rows) = (&ids[a * n..(a + 1) * n], &rows[a * n..(a + 1) * n]);
            base[a + 1] = base[a] + ids[rows[n - 1] as usize] + 1;
            for (at, &row) in rows.iter().enumerate() {
                if starts.len() as u32 == base[a] + ids[row as usize] {
                    starts.push((a * n + at) as u32);
                }
            }
        }
        starts.push(cells);
        Columns {
            n,
            ids,
            base,
            rows,
            starts,
        }
    }

    fn column(&self, a: usize) -> &[u32] {
        &self.ids[a * self.n..(a + 1) * self.n]
    }

    /// The rows whose attribute holds the id of `slot`, ascending.
    fn rows_of(&self, slot: usize) -> &[u32] {
        &self.rows[self.starts[slot] as usize..self.starts[slot + 1] as usize]
    }
}

/// Write `column`'s `(value, row)` pairs into `keyed` in ascending order.
/// Rows are scattered, in row order, into `fill.len() - 1` (a power of
/// two, at least `column.len()`) equal-width buckets spanning
/// `[min, max]`, so only a bucket holding two or more pairs needs a sort.
/// MinHash values are near uniform, which leaves most buckets with one
/// pair or none; a column whose values crowd into one bucket costs a
/// plain sort.
fn bucket_sort(column: &[u64], keyed: &mut [(u64, u32)], fill: &mut [u32]) {
    let (min, max) = column
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    // The smallest shift that maps `max - min` below the bucket count.
    // Only a one-row column has a single bucket, and it spans nothing, so
    // the shift stays below 64.
    let span_bits = u64::BITS - max.saturating_sub(min).leading_zeros();
    let shift = span_bits.saturating_sub((fill.len() - 1).trailing_zeros());
    let bucket = |v: u64| ((v - min) >> shift) as usize;
    fill.fill(0);
    for &v in column {
        fill[bucket(v) + 1] += 1;
    }
    for b in 1..fill.len() {
        fill[b] += fill[b - 1];
    }
    // Placing advances each bucket's start to its end; `fill[b]` is bucket
    // `b`'s end afterwards, and `fill[b - 1]` (for `b = 0`, zero) its start.
    for (row, &v) in column.iter().enumerate() {
        let at = &mut fill[bucket(v)];
        keyed[*at as usize] = (v, row as u32);
        *at += 1;
    }
    let mut start = 0;
    for &end in &fill[..fill.len() - 1] {
        if end - start > 1 {
            keyed[start as usize..end as usize].sort_unstable();
        }
        start = end;
    }
}

/// One change to a center list: the id at `slot` of an (attribute, id)
/// table entered (or left) `cluster`'s list for that attribute, so every
/// row holding the id matches the cluster on one attribute more (fewer).
#[derive(Clone, Copy)]
struct Delta {
    slot: u32,
    cluster: u32,
    entered: bool,
}

/// Per-shard state of the update step.
#[derive(Clone)]
struct UpdateShard {
    /// A zeroed cell per id of the widest column: member counts while a
    /// list is computed, old/new marks while it is diffed.
    count: Vec<u32>,
    /// Room for one entry per point: the ids the current (attribute,
    /// cluster) touched.
    touched: Vec<u32>,
    /// `L` slots: the sort keys of the best ids ranked so far.
    top: Vec<u64>,
    /// The list being computed, before it replaces the old one.
    fresh: Vec<u32>,
    /// What this shard's last update step changed, in (attribute,
    /// cluster) order.
    deltas: Vec<Delta>,
}

/// The clustering algorithm.
pub struct CompositeKModes {
    cfg: KModesConfig,
}

impl CompositeKModes {
    /// Create a runner with the given configuration.
    ///
    /// # Panics
    /// Panics if `num_clusters` or `l` is zero.
    pub fn new(cfg: KModesConfig) -> Self {
        // Invariant: the planner validates both before the stage runs
        // (`PlanError::InvalidStratifier`); a direct caller passes constants.
        assert!(cfg.num_clusters >= 1, "need at least one cluster");
        assert!(cfg.l >= 1, "center list length L must be >= 1");
        CompositeKModes { cfg }
    }

    /// Cluster the signatures. An empty input produces an empty
    /// assignment; zero-width signatures match nothing, so every point
    /// lands in cluster 0 with score 0.
    pub fn run(&self, signatures: &SignatureMatrix) -> KModesResult {
        self.run_observed(signatures, |_, _, _, _| ())
    }

    /// [`run`](Self::run), showing `after_assign` the columns, the centers
    /// (`lists`, `lens`) and the maintained score block after every
    /// assignment step.
    fn run_observed(
        &self,
        signatures: &SignatureMatrix,
        mut after_assign: impl FnMut(&Columns, &[u32], &[u32], &[u32]),
    ) -> KModesResult {
        let n = signatures.num_rows();
        if n == 0 {
            return KModesResult {
                assignments: Vec::new(),
                num_clusters: self.cfg.num_clusters,
                zero_match_rate: 0.0,
                iterations: 0,
                total_score: 0,
            };
        }
        let num_attrs = signatures.width();
        let k = self.cfg.num_clusters.min(n);
        // No column has more than `n` distinct values to list.
        let l = self.cfg.l.min(n);
        let shards = self.cfg.threads.min(n * num_attrs / MIN_SHARD_CELLS).max(1);
        let cols = Columns::encode(signatures, shards);

        // Seed the centers on K distinct random points: each is the only
        // member of its cluster and every cluster is dirty, so the first
        // update step writes the seeds' values into the (empty) lists.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        // Points grouped by cluster: `grouped[starts[c]..starts[c + 1]]`.
        let mut grouped = vec![0u32; n];
        for (slot, &point) in grouped.iter_mut().zip(&idx[..k]) {
            *slot = point as u32;
        }
        let mut starts: Vec<usize> = (0..=k).collect();
        // Clusters whose lists the next update step must recompute.
        let mut dirty = vec![true; k];
        // The point an empty cluster is re-seeded on (no cluster is empty
        // while the seeds are the members).
        let mut worst = 0;
        // The cluster centers: per (attribute, cluster), `lens` ids in an
        // `l`-wide slot of `lists`, ordered by descending member
        // frequency. Attribute-major, so the update step's attribute
        // shards own contiguous blocks.
        let mut lists = vec![0u32; num_attrs * k * l];
        let mut lens = vec![0u32; num_attrs * k];

        let mut scores = vec![0u32; n * k];
        // `(cluster, score)` per point, as the assignment step leaves it.
        let mut best = vec![(0u32, 0u32); n];
        let mut assignments = vec![u32::MAX; n];
        let widest = cols.base.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut update_shards = vec![
            UpdateShard {
                count: vec![0; widest as usize],
                touched: vec![0; n],
                top: vec![0; l],
                fresh: vec![0; l],
                deltas: Vec::new(),
            };
            shards
        ];
        let point_chunk = n.div_ceil(shards.min(n));
        let attr_chunk = num_attrs.div_ceil(shards).max(1);
        let mut iterations = 0;
        for _ in 0..self.cfg.max_iters.max(1) {
            iterations += 1;
            // --- Update step (parallel over attributes): recompute the
            // L-frequent lists of the dirty clusters from their members ---
            let members = |c: usize| &grouped[starts[c]..starts[c + 1]];
            run_shards(
                lists
                    .chunks_mut(attr_chunk * k * l)
                    .zip(lens.chunks_mut(attr_chunk * k))
                    .zip(&mut update_shards)
                    .enumerate(),
                |(shard, ((lists, lens), state))| {
                    state.deltas.clear();
                    for (slot, (list, len)) in lists.chunks_exact_mut(l).zip(lens).enumerate() {
                        let (a, c) = (shard * attr_chunk + slot / k, slot % k);
                        if !dirty[c] {
                            continue;
                        }
                        let (col, members) = (cols.column(a), members(c));
                        let fresh = if members.is_empty() {
                            state.fresh[0] = col[worst];
                            1
                        } else {
                            state.top_values(col, members)
                        };
                        state.replace(list, len, fresh, cols.base[a], c as u32);
                    }
                },
            );
            // --- Assignment step (parallel over point ranges) ---
            run_shards(
                scores
                    .chunks_mut(point_chunk * k)
                    .zip(best.chunks_mut(point_chunk))
                    .enumerate(),
                |(shard, (scores, best))| {
                    assign_points(&cols, &update_shards, k, shard * point_chunk, scores, best)
                },
            );
            after_assign(&cols, &lists, &lens, &scores);
            let mut changed = false;
            dirty.fill(false);
            for (old, &(c, _)) in assignments.iter_mut().zip(&best) {
                if *old != c {
                    changed = true;
                    dirty[c as usize] = true;
                    // The first assignment moves a point out of no cluster.
                    if let Some(lost) = dirty.get_mut(*old as usize) {
                        *lost = true;
                    }
                    *old = c;
                }
            }
            if !changed && iterations > 1 {
                break;
            }
            group_by_cluster(&assignments, &mut starts, &mut grouped);
            // An empty cluster is re-seeded on the worst-matched point,
            // the standard kModes fix for dead centers. That point moves
            // from one iteration to the next, so the cluster stays dirty.
            for (c, dirty) in dirty.iter_mut().enumerate() {
                *dirty |= starts[c] == starts[c + 1];
            }
            // Invariant: `n > 0` was checked on entry.
            worst = (0..n).min_by_key(|&i| (best[i].1, i)).expect("n > 0");
        }

        let zero_matches = best.iter().filter(|&&(_, s)| s == 0).count();
        KModesResult {
            assignments,
            num_clusters: self.cfg.num_clusters,
            zero_match_rate: zero_matches as f64 / n as f64,
            iterations,
            total_score: best.iter().map(|&(_, s)| s as u64).sum(),
        }
    }
}

/// Assignment step for the points `first..first + best.len()`: for every
/// id that entered or left a center list, adjust the (row, cluster) score
/// of the rows holding it, then pick each point's best cluster (ties go to
/// the lowest cluster id). A row holds one id per attribute, so a cell
/// sees at most one delta per attribute and never dips below zero on the
/// way.
fn assign_points(
    cols: &Columns,
    updates: &[UpdateShard],
    k: usize,
    first: usize,
    scores: &mut [u32],
    best: &mut [(u32, u32)],
) {
    let (lo, hi) = (first as u32, (first + best.len()) as u32);
    for delta in updates.iter().flat_map(|shard| &shard.deltas) {
        let rows = cols.rows_of(delta.slot as usize);
        let rows = &rows[rows.partition_point(|&r| r < lo)..];
        for &row in &rows[..rows.partition_point(|&r| r < hi)] {
            let cell = &mut scores[(row - lo) as usize * k + delta.cluster as usize];
            if delta.entered {
                *cell += 1;
            } else {
                *cell -= 1;
            }
        }
    }
    for (scores, best) in scores.chunks_exact(k).zip(best) {
        *best = (0, scores[0]);
        for (c, &s) in scores.iter().enumerate().skip(1) {
            if s > best.1 {
                *best = (c as u32, s);
            }
        }
    }
}

/// Counting sort of the points by cluster.
fn group_by_cluster(assignments: &[u32], starts: &mut [usize], grouped: &mut [u32]) {
    starts.fill(0);
    for &c in assignments {
        starts[c as usize + 1] += 1;
    }
    for c in 1..starts.len() {
        starts[c] += starts[c - 1];
    }
    // Placing advances each cluster's start to its end, i.e. to the next
    // cluster's start: rotate them back into place afterwards.
    for (i, &c) in assignments.iter().enumerate() {
        grouped[starts[c as usize]] = i as u32;
        starts[c as usize] += 1;
    }
    starts.rotate_right(1);
    starts[0] = 0;
}

impl UpdateShard {
    /// Update step for one (cluster, attribute): write the most frequent
    /// ids among the members' values in `col` into `fresh`, ordered by
    /// descending count with the lower id (= lower value) first among
    /// equals, and return how many there are (at most `fresh.len()`).
    fn top_values(&mut self, col: &[u32], members: &[u32]) -> usize {
        let UpdateShard {
            count,
            touched,
            top,
            fresh,
            ..
        } = self;
        // Whether a member brings a new id is a coin flip over MinHash
        // values, so write the id unconditionally and advance past it only
        // when it is new instead of branching on it.
        let mut distinct = 0;
        for &point in members {
            let id = col[point as usize];
            touched[distinct] = id;
            distinct += usize::from(count[id as usize] == 0);
            count[id as usize] += 1;
        }
        // One integer key per id that sorts ascending into the wanted
        // order; `top[..len]` holds the smallest keys seen so far, sorted.
        // Most ids occur once in a cluster, so once the buffer is full a
        // key rarely beats its last entry and costs one comparison.
        let mut len = 0;
        for &id in &touched[..distinct] {
            let key = u64::from(u32::MAX - count[id as usize]) << 32 | u64::from(id);
            count[id as usize] = 0;
            if len == top.len() {
                if key > top[len - 1] {
                    continue;
                }
                len -= 1;
            }
            let mut at = len;
            while at > 0 && top[at - 1] > key {
                top[at] = top[at - 1];
                at -= 1;
            }
            top[at] = key;
            len += 1;
        }
        for (slot, &key) in fresh.iter_mut().zip(&top[..len]) {
            *slot = key as u32;
        }
        len
    }

    /// Replace `list[..*len]` by `fresh[..fresh_len]` and record the set
    /// difference: ids only the new list holds entered, ids only the old
    /// one holds left. `base` is the attribute's first (attribute, id)
    /// table slot.
    fn replace(
        &mut self,
        list: &mut [u32],
        len: &mut u32,
        fresh_len: usize,
        base: u32,
        cluster: u32,
    ) {
        const OLD: u32 = 1;
        const KEPT: u32 = 2;
        let UpdateShard {
            count,
            fresh,
            deltas,
            ..
        } = self;
        let (old, fresh) = (&list[..*len as usize], &fresh[..fresh_len]);
        for &id in old {
            count[id as usize] = OLD;
        }
        for &id in fresh {
            if count[id as usize] == OLD {
                count[id as usize] = KEPT;
            } else {
                deltas.push(Delta {
                    slot: base + id,
                    cluster,
                    entered: true,
                });
            }
        }
        for &id in old {
            if count[id as usize] == OLD {
                deltas.push(Delta {
                    slot: base + id,
                    cluster,
                    entered: false,
                });
            }
            count[id as usize] = 0;
        }
        list[..fresh_len].copy_from_slice(fresh);
        *len = fresh_len as u32;
    }
}

#[cfg(test)]
mod reference {
    //! The retired per-signature `HashMap` implementation, kept as the
    //! independent oracle the flat-array kernel is tested against. It
    //! compares raw `u64` values, hashes them per (cluster, attribute),
    //! and scores every point against every center.

    use std::collections::HashMap;

    use super::*;

    struct Center {
        lists: Vec<Vec<u64>>,
    }

    impl Center {
        fn from_row(row: &[u64]) -> Center {
            Center {
                lists: row.iter().map(|&v| vec![v]).collect(),
            }
        }

        fn score(&self, row: &[u64]) -> u32 {
            self.lists
                .iter()
                .zip(row)
                .filter(|(list, v)| list.contains(v))
                .count() as u32
        }
    }

    pub fn run(cfg: &KModesConfig, signatures: &SignatureMatrix) -> KModesResult {
        let n = signatures.num_rows();
        let rows: Vec<&[u64]> = (0..n).map(|i| signatures.row(i)).collect();
        let k = cfg.num_clusters.min(n.max(1));
        if n == 0 {
            return KModesResult {
                assignments: Vec::new(),
                num_clusters: cfg.num_clusters,
                zero_match_rate: 0.0,
                iterations: 0,
                total_score: 0,
            };
        }
        let num_attrs = signatures.width();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let mut centers: Vec<Center> = idx[..k]
            .iter()
            .map(|&i| Center::from_row(rows[i]))
            .collect();

        let mut assignments = vec![u32::MAX; n];
        let mut scores = vec![0u32; n];
        let mut iterations = 0;
        for _ in 0..cfg.max_iters.max(1) {
            iterations += 1;
            let mut changed = false;
            for (i, row) in rows.iter().enumerate() {
                let (mut best_c, mut best_s) = (0u32, centers[0].score(row));
                for (c, center) in centers.iter().enumerate().skip(1) {
                    let s = center.score(row);
                    if s > best_s {
                        best_s = s;
                        best_c = c as u32;
                    }
                }
                changed |= assignments[i] != best_c;
                assignments[i] = best_c;
                scores[i] = best_s;
            }
            if !changed && iterations > 1 {
                break;
            }
            let mut freq: Vec<Vec<HashMap<u64, u32>>> = vec![vec![HashMap::new(); num_attrs]; k];
            let mut members = vec![0usize; k];
            for (row, &c) in rows.iter().zip(&assignments) {
                members[c as usize] += 1;
                for (a, &v) in row.iter().enumerate() {
                    *freq[c as usize][a].entry(v).or_insert(0) += 1;
                }
            }
            for (c, center) in centers.iter_mut().enumerate() {
                if members[c] == 0 {
                    let worst = (0..n).min_by_key(|&i| (scores[i], i)).expect("n > 0");
                    *center = Center::from_row(rows[worst]);
                    continue;
                }
                for (a, counts) in freq[c].iter().enumerate() {
                    let mut pairs: Vec<(u64, u32)> = counts.iter().map(|(&v, &c)| (v, c)).collect();
                    pairs.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
                    center.lists[a] = pairs.iter().take(cfg.l).map(|&(v, _)| v).collect();
                }
            }
        }
        let zero_matches = scores.iter().filter(|&&s| s == 0).count();
        KModesResult {
            assignments,
            num_clusters: cfg.num_clusters,
            zero_match_rate: zero_matches as f64 / n as f64,
            iterations,
            total_score: scores.iter().map(|&s| s as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_datagen::ItemSet;
    use pareto_sketch::MinHasher;
    use proptest::prelude::*;
    use rand::RngCore;

    fn config(num_clusters: usize, l: usize, max_iters: usize, seed: u64) -> KModesConfig {
        KModesConfig {
            num_clusters,
            l,
            max_iters,
            seed,
            threads: 1,
        }
    }

    /// Three well-separated groups of item sets.
    fn grouped_signatures(per_group: usize, k: usize) -> (SignatureMatrix, Vec<u32>) {
        let mut sets = Vec::new();
        let mut truth = Vec::new();
        for g in 0u64..3 {
            let base: Vec<u64> = (0..40).map(|i| g * 10_000 + i).collect();
            for v in 0..per_group {
                let mut items = base.clone();
                // Small per-member variation.
                items.push(g * 10_000 + 500 + v as u64);
                sets.push(ItemSet::from_items(items));
                truth.push(g as u32);
            }
        }
        let refs: Vec<&ItemSet> = sets.iter().collect();
        (MinHasher::new(k, 77).sketch_matrix(&refs, 1), truth)
    }

    /// The new kernel against the retired one on every reported field, at
    /// the thread counts the planner runs.
    fn assert_matches_reference(cfg: &KModesConfig, signatures: &SignatureMatrix) {
        let expected = reference::run(cfg, signatures);
        for threads in [1, 2, 4, 8] {
            let got = CompositeKModes::new(KModesConfig {
                threads,
                ..cfg.clone()
            })
            .run(signatures);
            let ctx = format!("threads {threads}, {cfg:?}");
            assert_eq!(got.assignments, expected.assignments, "{ctx}");
            assert_eq!(got.iterations, expected.iterations, "{ctx}");
            assert_eq!(got.total_score, expected.total_score, "{ctx}");
            assert_eq!(
                got.zero_match_rate.to_bits(),
                expected.zero_match_rate.to_bits(),
                "{ctx}"
            );
            assert_eq!(got.num_clusters, expected.num_clusters, "{ctx}");
        }
    }

    /// Run the kernel and, after *every* assignment step, recompute the
    /// `n × K` score block from the current centers the slow way — per
    /// cell, the attributes whose list holds the row's id, without the
    /// inverted index — and compare it with the block the deltas
    /// maintained. Equal final assignments would not catch a delta applied
    /// twice whose arg-max happens to coincide. Returns each step's
    /// assignment (the block's arg-max, ties to the lowest cluster).
    fn assert_scores_maintained(cfg: &KModesConfig, signatures: &SignatureMatrix) -> Vec<Vec<u32>> {
        let mut history = Vec::new();
        let result = CompositeKModes::new(cfg.clone()).run_observed(
            signatures,
            |cols, lists, lens, scores| {
                let k = scores.len() / cols.n;
                let l = lists.len().checked_div(lens.len()).unwrap_or(0);
                let list = |a: usize, c: usize| {
                    let slot = a * k + c;
                    &lists[slot * l..][..lens[slot] as usize]
                };
                let num_attrs = cols.base.len() - 1;
                let expected: Vec<u32> = (0..cols.n * k)
                    .map(|cell| {
                        let (row, c) = (cell / k, cell % k);
                        (0..num_attrs)
                            .filter(|&a| list(a, c).contains(&cols.column(a)[row]))
                            .count() as u32
                    })
                    .collect();
                let step = history.len() + 1;
                assert_eq!(
                    scores, expected,
                    "score block after assignment {step}, {cfg:?}"
                );
                history.push(
                    scores
                        .chunks_exact(k)
                        .map(|row| (0..k).rev().max_by_key(|&c| row[c]).expect("k >= 1") as u32)
                        .collect(),
                );
            },
        );
        assert_eq!(history.len(), result.iterations);
        assert_eq!(history.last(), Some(&result.assignments));
        history
    }

    /// The first assignment step (1-based, at least 3) after which some
    /// cluster is empty that had members one step earlier while another
    /// cluster kept exactly the members it had: the update that follows
    /// re-seeds a dead center while skipping a clean one.
    fn late_empty_step(history: &[Vec<u32>], k: usize) -> Option<usize> {
        let members = |step: &[u32], c: usize| -> Vec<usize> {
            (0..step.len()).filter(|&i| step[i] as usize == c).collect()
        };
        (2..history.len()).find_map(|at| {
            let (prev, now) = (&history[at - 1], &history[at]);
            let emptied =
                (0..k).any(|c| members(now, c).is_empty() && !members(prev, c).is_empty());
            let clean =
                (0..k).any(|c| !members(now, c).is_empty() && members(now, c) == members(prev, c));
            (emptied && clean).then_some(at + 1)
        })
    }

    /// Rows on a line: cell `(row, a)` holds `(row + jitter) / window` with
    /// a per-cell jitter below `window`, so two rows share an attribute's
    /// value with a probability that falls off linearly with their
    /// distance. Cluster boundaries creep along the line a few rows per
    /// iteration while the clusters away from them sit still, and a
    /// cluster squeezed between two neighbours empties late.
    fn chain_matrix(n: usize, width: usize, window: u64, raw: &[u64]) -> SignatureMatrix {
        let values = raw[..n * width]
            .iter()
            .enumerate()
            .map(|(cell, &r)| ((cell / width) as u64 + r % window) / window)
            .collect();
        SignatureMatrix::new(width, n, values)
    }

    /// The sort-based encode the bucket pass replaced, kept as its oracle:
    /// each column's `(value, row)` pairs sorted outright. Returns `(ids,
    /// base, rows, starts)` as [`Columns`] lays them out.
    fn sorted_encode(signatures: &SignatureMatrix) -> [Vec<u32>; 4] {
        let (n, width) = (signatures.num_rows(), signatures.width());
        let (mut ids, mut base) = (vec![0; n * width], vec![0]);
        let (mut rows, mut starts) = (Vec::new(), Vec::new());
        for a in 0..width {
            let mut keyed: Vec<(u64, u32)> =
                (0..n).map(|i| (signatures.row(i)[a], i as u32)).collect();
            keyed.sort_unstable();
            let mut distinct = 0;
            for (at, &(value, row)) in keyed.iter().enumerate() {
                if at == 0 || value != keyed[at - 1].0 {
                    starts.push((a * n + at) as u32);
                    distinct += 1;
                }
                ids[a * n + row as usize] = distinct - 1;
                rows.push(row);
            }
            base.push(base[a] + distinct);
        }
        starts.push((n * width) as u32);
        [ids, base, rows, starts]
    }

    /// A column of `n` values drawn from `raw` in one of the shapes the
    /// bucket pass must order: MinHash-like 60-bit values, the same with
    /// `u64::MAX` empty-set sentinels, one value throughout, small values
    /// with one far outlier (every other value shares a bucket), or a tiny
    /// pool of ties.
    fn shaped_column(shape: u8, raw: &[u64]) -> Vec<u64> {
        raw.iter()
            .enumerate()
            .map(|(i, &r)| match shape {
                0 => r >> 4,
                1 if r % 5 == 0 => u64::MAX,
                1 => r >> 4,
                2 => raw[0],
                3 if i == raw.len() / 2 => u64::MAX - (r & 0xff),
                3 => r % 50,
                _ => r % 7,
            })
            .collect()
    }

    #[test]
    #[ignore = "diagnostic: seed scan for recovers_separated_groups calibration"]
    fn scan_seeds_for_group_recovery() {
        let (sigs, truth) = grouped_signatures(20, 48);
        for seed in 0u64..24 {
            let result = CompositeKModes::new(config(3, 3, 15, seed)).run(&sigs);
            let purity = crate::quality::cluster_purity(&result.assignments, &truth);
            println!(
                "seed {seed}: purity {purity:.3} zero_match {:.3}",
                result.zero_match_rate
            );
        }
    }

    #[test]
    fn recovers_separated_groups() {
        let (sigs, truth) = grouped_signatures(20, 48);
        // Calibrated: random init must land one center per group (~23% of
        // seeds); see scan_seeds_for_group_recovery.
        let result = CompositeKModes::new(config(3, 3, 15, 9)).run(&sigs);
        let purity = crate::quality::cluster_purity(&result.assignments, &truth);
        assert!(purity > 0.9, "purity {purity}");
        assert!(result.zero_match_rate < 0.2);
    }

    #[test]
    fn matches_reference_on_sketched_groups() {
        let (sigs, _) = grouped_signatures(20, 48);
        for seed in [5, 9, 11] {
            for l in [1, 3, 8] {
                assert_matches_reference(&config(3, l, 15, seed), &sigs);
            }
        }
    }

    #[test]
    fn score_block_is_maintained_on_sketched_groups() {
        for (per_group, width) in [(20, 48), (10, 32)] {
            let (sigs, _) = grouped_signatures(per_group, width);
            for seed in [5, 9, 11] {
                for (k, l) in [(3, 1), (3, 3), (5, 8), (16, 4)] {
                    assert_scores_maintained(&config(k, l, 15, seed), &sigs);
                }
            }
        }
    }

    /// The chain fixture of `late_empty_cluster_reseeds_among_clean_ones`.
    fn chain_fixture(seed: u64) -> (KModesConfig, SignatureMatrix) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let raw: Vec<u64> = (0..120 * 8).map(|_| rng.next_u64()).collect();
        (config(12, 2, 20, seed), chain_matrix(120, 8, 10, &raw))
    }

    #[test]
    #[ignore = "diagnostic: seed scan for late_empty_cluster_reseeds_among_clean_ones"]
    fn scan_seeds_for_late_empties() {
        for seed in 0u64..64 {
            let (cfg, sigs) = chain_fixture(seed);
            let history = assert_scores_maintained(&cfg, &sigs);
            if let Some(step) = late_empty_step(&history, cfg.num_clusters) {
                println!(
                    "seed {seed}: cluster empties at {step} of {}",
                    history.len()
                );
            }
        }
    }

    #[test]
    fn late_empty_cluster_reseeds_among_clean_ones() {
        // Calibrated (see scan_seeds_for_late_empties): a cluster loses
        // its last member at the fifth of eight assignment steps, when
        // most clusters are clean and skipped.
        let (cfg, sigs) = chain_fixture(58);
        let history = assert_scores_maintained(&cfg, &sigs);
        let step = late_empty_step(&history, cfg.num_clusters);
        assert!(
            step >= Some(5),
            "no late empty cluster: {step:?} of {}",
            history.len()
        );
        assert!(
            history.len() > step.unwrap_or(0) + 2,
            "the run ends with the re-seed"
        );
        assert_matches_reference(&cfg, &sigs);
    }

    #[test]
    fn matches_reference_when_shards_actually_spawn() {
        // 2100 points x 64 attributes clears the shard gate at every
        // thread count in `assert_matches_reference`; values drawn from a
        // small pool force ties and shared center entries.
        let (n, width) = (2100, 64);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let values: Vec<u64> = (0..n * width)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 33) % 7
            })
            .collect();
        assert!(n * width / MIN_SHARD_CELLS >= 2);
        assert_matches_reference(&config(6, 2, 4, 3), &SignatureMatrix::new(width, n, values));
    }

    #[test]
    fn empty_input() {
        let none = SignatureMatrix::new(16, 0, vec![]);
        let result = CompositeKModes::new(config(4, 2, 5, 1)).run(&none);
        assert!(result.assignments.is_empty());
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn degenerate_shapes_are_defined_and_match_the_reference() {
        let m =
            |width: usize, rows: &[&[u64]]| SignatureMatrix::new(width, rows.len(), rows.concat());
        let max = u64::MAX;
        let cases = [
            // sketch_size = 0: nothing can match.
            m(0, &[&[], &[], &[]]),
            // n = 1.
            m(3, &[&[7, 8, 9]]),
            // n < K.
            m(2, &[&[1, 2], &[100, 200]]),
            // All-empty item sets: every row is the sentinel.
            m(2, &[&[max, max], &[max, max], &[max, max], &[max, max]]),
            // Duplicate rows, and L larger than any column's distinct values.
            m(2, &[&[1, 2], &[1, 2], &[1, 2], &[3, 2], &[3, 2]]),
        ];
        for sigs in &cases {
            for (k, l) in [(1, 1), (3, 2), (8, 64)] {
                let cfg = config(k, l, 6, 2);
                assert_matches_reference(&cfg, sigs);
                let result = CompositeKModes::new(cfg).run(sigs);
                assert_eq!(result.assignments.len(), sigs.num_rows());
                assert!(result.assignments.iter().all(|&c| (c as usize) < k));
            }
        }
        let zero_width = CompositeKModes::new(config(3, 2, 6, 2)).run(&cases[0]);
        assert_eq!(zero_width.assignments, vec![0, 0, 0]);
        assert_eq!(zero_width.zero_match_rate, 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (sigs, _) = grouped_signatures(10, 32);
        let a = CompositeKModes::new(config(3, 2, 10, 9)).run(&sigs);
        let b = CompositeKModes::new(config(3, 2, 10, 9)).run(&sigs);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.total_score, b.total_score);
    }

    #[test]
    fn single_cluster_groups_everything() {
        let (sigs, _) = grouped_signatures(5, 16);
        let result = CompositeKModes::new(config(1, 4, 5, 4)).run(&sigs);
        assert!(result.assignments.iter().all(|&c| c == 0));
    }

    #[test]
    fn objective_improves_with_l() {
        // More values per attribute can only widen matching; the final
        // objective with larger L should be >= the L=1 objective.
        let (sigs, _) = grouped_signatures(15, 32);
        let score = |l: usize| {
            CompositeKModes::new(config(3, l, 15, 11))
                .run(&sigs)
                .total_score
        };
        assert!(score(4) >= score(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bucket pass lays out the same ids, inverted index and table
        /// bases as a full sort, on wide and degenerate columns, at every
        /// shard count.
        #[test]
        fn bucket_encode_equals_sorted_encode(
            n in 1usize..300,
            shapes in proptest::collection::vec(0u8..5, 1..6),
            raw in proptest::collection::vec(any::<u64>(), 300 * 5),
        ) {
            let width = shapes.len();
            let columns: Vec<Vec<u64>> = shapes
                .iter()
                .enumerate()
                .map(|(a, &shape)| shaped_column(shape, &raw[a * n..(a + 1) * n]))
                .collect();
            let values = (0..n * width).map(|cell| columns[cell % width][cell / width]).collect();
            let sigs = SignatureMatrix::new(width, n, values);
            let expected = sorted_encode(&sigs);
            for shards in 1..=3 {
                let cols = Columns::encode(&sigs, shards);
                let got = [cols.ids, cols.base, cols.rows, cols.starts];
                prop_assert_eq!(&got, &expected, "shards {}", shards);
            }
        }

        /// Random matrices over a tiny value pool: most columns tie on
        /// counts, many points tie on score, and with K close to n some
        /// clusters go empty and get re-seeded — the places where the
        /// tie-break and re-seed rules of the two kernels could part.
        #[test]
        fn flat_kernel_equals_hashmap_reference(
            n in 1usize..40,
            width in 0usize..7,
            pool in 1u64..5,
            k in 1usize..10,
            l in 1usize..5,
            max_iters in 1usize..8,
            seed in any::<u64>(),
            raw in proptest::collection::vec(any::<u64>(), 40 * 6),
        ) {
            // A pool entry of u64::MAX mixes the empty-set sentinel in.
            let values: Vec<u64> = raw[..n * width]
                .iter()
                .map(|v| if v % (pool + 1) == pool { u64::MAX } else { v % pool })
                .collect();
            let sigs = SignatureMatrix::new(width, n, values);
            let cfg = config(k, l, max_iters, seed);
            assert_matches_reference(&cfg, &sigs);
            assert_scores_maintained(&cfg, &sigs);
        }

        /// The sparse tail, where the delta loop differs from a full
        /// recompute: chains keep a few rows changing sides for up to a
        /// dozen iterations, most clusters clean, some emptying late.
        #[test]
        fn delta_kernel_equals_hashmap_reference_in_the_tail(
            n in 20usize..=120,
            width in 1usize..=12,
            window in 2u64..=40,
            k in 2usize..=16,
            l in 1usize..=4,
            max_iters in 1usize..=20,
            seed in any::<u64>(),
            raw in proptest::collection::vec(any::<u64>(), 120 * 12),
        ) {
            let sigs = chain_matrix(n, width, window, &raw);
            let cfg = config(k, l, max_iters, seed);
            assert_matches_reference(&cfg, &sigs);
            assert_scores_maintained(&cfg, &sigs);
        }
    }
}
