//! Cache behavior under eviction pressure: a seeded request stream
//! against a deliberately tiny shared [`pareto_core::SharedPlanCache`]
//! must (a) keep serving bit-correct plans, (b) keep its hit/miss/evict
//! counters in exact accounting balance with the store's occupancy, and
//! (c) monotonically trade hits for evictions as capacity shrinks.

use std::sync::Arc;

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::{CacheStats, FrontierConfig, PlanSession, SharedPlanCache};
use pareto_telemetry::{metrics, Telemetry};
use pareto_workloads::WorkloadKind;

const WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.15 };

fn cfg(seed: u64, strategy: Strategy) -> FrameworkConfig {
    FrameworkConfig {
        strategy,
        seed,
        threads: 1,
        ..FrameworkConfig::default()
    }
}

/// Drive a seeded alpha-churn stream through one shared cache (recording
/// into `telemetry`) and return the cache handle.
fn churn_cache(capacity: usize, rounds: usize, telemetry: Arc<Telemetry>) -> SharedPlanCache {
    let seed = 2017;
    let cluster = Arc::new(SimCluster::new(NodeSpec::paper_cluster(
        4, 400.0, 2, 9, seed,
    )));
    let dataset = pareto_datagen::rcv1_syn(seed, 0.03);
    let shared = SharedPlanCache::new(capacity);
    let alphas = [0.9, 0.95, 0.99, 0.999];

    let mut session = PlanSession::new_shared(
        cluster,
        cfg(seed, Strategy::HetEnergyAware { alpha: alphas[0] }),
        dataset,
        WORKLOAD,
    )
    .with_shared_cache(shared.clone())
    .with_telemetry(telemetry);

    for round in 0..rounds {
        // Deterministic pseudo-random walk over the alpha palette: the
        // same request stream for every capacity under test.
        let pick = (round * 7 + round / 3) % alphas.len();
        session.set_alpha(alphas[pick]);
        session.plan().expect("plan under cache pressure");
    }
    shared
}

/// Events of one `kind` (`hit` / `miss` / `evict`) summed over stages.
fn total(stats: &CacheStats, kind: &str) -> u64 {
    stats
        .events()
        .filter(|(_, k, _)| *k == kind)
        .map(|(_, _, n)| n)
        .sum()
}

/// [`churn_cache`] reduced to (hits, misses, evictions, final occupancy,
/// capacity).
fn churn(capacity: usize, rounds: usize) -> (u64, u64, u64, usize, usize) {
    let shared = churn_cache(capacity, rounds, Telemetry::disabled());
    let stats = shared.stats();
    (
        total(&stats, "hit"),
        total(&stats, "miss"),
        total(&stats, "evict"),
        shared.occupancy(),
        shared.capacity(),
    )
}

/// A `(stage, hit, miss, evict)` row.
type Row<'a> = (&'a str, u64, u64, u64);

/// Per-stage rows of a [`CacheStats`], sorted by stage name.
fn rows(stats: &CacheStats) -> Vec<Row<'_>> {
    let mut rows: Vec<Row<'_>> = Vec::new();
    for (stage, _, _) in stats.events() {
        if rows.last().map(|r| r.0) != Some(stage) {
            rows.push((
                stage,
                stats.hits(stage),
                stats.misses(stage),
                stats.evictions(stage),
            ));
        }
    }
    rows
}

/// The exact per-stage `(hit, miss, evict)` triples of the `churn(_, 12)`
/// stream, recorded at commit 734fdf3 (before the plan pipeline became
/// straight-line code over one get-or-compute driver). Any change to
/// lookup order, LRU touch order or which lookups are counted moves them.
#[test]
fn per_stage_cache_events_are_pinned() {
    let cases: [(usize, &[Row]); 3] = [
        (
            2,
            &[
                ("measure", 0, 12, 12),
                ("optimize", 0, 12, 11),
                ("partition", 0, 12, 11),
                ("profile", 0, 12, 12),
                ("sketch", 0, 12, 12),
                ("stratify", 0, 12, 12),
            ],
        ),
        (
            8,
            &[
                ("measure", 0, 1, 1),
                ("optimize", 3, 9, 7),
                ("partition", 3, 9, 6),
                ("profile", 11, 1, 0),
                ("sketch", 11, 1, 0),
                ("stratify", 11, 1, 0),
            ],
        ),
        (
            64,
            &[
                ("measure", 0, 1, 0),
                ("optimize", 8, 4, 0),
                ("partition", 8, 4, 0),
                ("profile", 11, 1, 0),
                ("sketch", 11, 1, 0),
                ("stratify", 11, 1, 0),
            ],
        ),
    ];
    for (capacity, want) in cases {
        let stats = churn_cache(capacity, 12, Telemetry::disabled()).stats();
        assert_eq!(rows(&stats), want, "capacity {capacity}");
    }
}

/// Same pin for the frontier artifact and the append-prefix sketch
/// lookup: `explore_frontier` -> `append_items` -> `plan` ->
/// `explore_frontier`, recorded at commit 734fdf3 and re-derived when the
/// explorer began planning one α per frontier vertex instead of bisecting
/// 12 αs: the first explore plans its 2 distinct vertex plans, the
/// re-explore after the append its 4. Re-derived again when storing the
/// extended sketch began evicting its prefix: that eviction takes the
/// slot the first frontier artifact lost before (frontier 1 → 0, sketch
/// 0 → 1 evictions).
#[test]
fn frontier_and_append_cache_events_are_pinned() {
    let seed = 2017;
    let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    let dataset = pareto_datagen::rcv1_syn(seed, 0.03);
    let mut session = PlanSession::new(
        &cluster,
        cfg(seed, Strategy::HetEnergyAware { alpha: 0.9 }),
        dataset,
        WORKLOAD,
    )
    .with_cache_capacity(16);
    let fcfg = FrontierConfig {
        max_points: 12,
        ..FrontierConfig::default()
    };
    let first = session.explore_frontier(&fcfg).expect("explore");
    assert!(!first.cache_hit);
    session.append_items(pareto_datagen::rcv1_syn(seed ^ 0x00A1_1E4D, 0.004).items);
    session.plan().expect("plan after append");
    let second = session.explore_frontier(&fcfg).expect("re-explore");
    assert!(!second.cache_hit, "an append must invalidate the frontier");
    let third = session.explore_frontier(&fcfg).expect("repeat explore");
    assert!(third.cache_hit);
    // 2 + 1 + 4 plans: every optimize and partition misses (each α is
    // new), the upstream stages hit on all but the first plan of each
    // dataset generation (1 + 4), and the append plan's prefix lookup hits
    // once more in sketch. The 24 artifacts stored overflow the 16 slots
    // by 8: the superseded prefix sketch, then 7 least recently used.
    assert_eq!((first.result.lp_solves, second.result.lp_solves), (2, 4));
    let want: &[Row] = &[
        ("frontier", 1, 2, 0),
        ("measure", 0, 2, 1),
        ("optimize", 0, 7, 2),
        ("partition", 0, 7, 2),
        ("profile", 5, 2, 1),
        ("sketch", 6, 2, 1),
        ("stratify", 5, 2, 1),
    ];
    assert_eq!(rows(&session.cache_stats()), want);
}

/// Every eviction the cache counts is also counted in telemetry, whichever
/// artifact's insert caused it (the `measure` sub-artifact included).
#[test]
fn telemetry_counts_every_eviction() {
    let telemetry = Telemetry::enabled();
    let in_stats = total(&churn_cache(2, 12, telemetry.clone()).stats(), "evict");
    let in_telemetry: u64 = telemetry
        .snapshot()
        .metrics
        .counters
        .iter()
        .filter(|(key, _)| {
            key.name == metrics::PLAN_CACHE_EVENTS_TOTAL
                && key
                    .labels
                    .contains(&("event".to_string(), "evict".to_string()))
        })
        .map(|(_, &n)| n)
        .sum();
    assert!(in_stats > 0, "capacity 2 under alpha churn must evict");
    assert_eq!(in_telemetry, in_stats);
}

/// Exact accounting: every artifact in the store arrived via a miss and
/// left via an eviction, so `misses - evictions == occupancy`, and the
/// store never exceeds its capacity.
#[test]
fn counters_reconcile_with_occupancy_under_pressure() {
    for capacity in [2usize, 4, 8, 64] {
        let (hits, misses, evictions, len, cap) = churn(capacity, 12);
        assert_eq!(cap, capacity);
        assert!(
            len <= capacity,
            "cap {capacity}: occupancy {len} over capacity"
        );
        assert_eq!(
            misses - evictions,
            len as u64,
            "cap {capacity}: inserts ({misses}) minus evictions ({evictions}) \
             must equal occupancy ({len})"
        );
        assert!(
            hits + misses > 0,
            "cap {capacity}: the stream must actually exercise the cache"
        );
    }
}

/// Shrinking capacity can only hurt: a tiny cache evicts more and hits
/// no more often than a roomy one over the identical request stream.
#[test]
fn smaller_cache_trades_hits_for_evictions() {
    let (hits_small, _, evict_small, _, _) = churn(2, 12);
    let (hits_large, _, evict_large, _, _) = churn(64, 12);
    assert!(
        evict_small > evict_large,
        "capacity 2 must evict more than capacity 64 \
         ({evict_small} vs {evict_large})"
    );
    assert!(
        hits_small <= hits_large,
        "capacity 2 cannot out-hit capacity 64 ({hits_small} vs {hits_large})"
    );
    assert!(
        hits_large > 0,
        "the roomy cache must serve repeated alphas from artifacts"
    );
}

/// Pressure never corrupts results: even at capacity 2 every plan in the
/// churn matches a cold, cache-free reference bit for bit.
#[test]
fn evicting_cache_still_serves_bit_correct_plans() {
    let seed = 2017;
    let cluster = Arc::new(SimCluster::new(NodeSpec::paper_cluster(
        4, 400.0, 2, 9, seed,
    )));
    let dataset = pareto_datagen::rcv1_syn(seed, 0.03);
    let shared = SharedPlanCache::new(2);
    let mut session = PlanSession::new_shared(
        cluster.clone(),
        cfg(seed, Strategy::HetEnergyAware { alpha: 0.9 }),
        dataset.clone(),
        WORKLOAD,
    )
    .with_shared_cache(shared.clone());

    for &alpha in &[0.9, 0.99, 0.9, 0.999, 0.99] {
        session.set_alpha(alpha);
        let warm = session.plan().expect("pressured plan");
        let cold = Framework::new(&cluster, cfg(seed, Strategy::HetEnergyAware { alpha }))
            .try_plan(&dataset, WORKLOAD)
            .expect("non-empty dataset");
        let warm_point = warm.pareto.as_ref().expect("warm pareto point");
        let cold_point = cold.pareto.as_ref().expect("cold pareto point");
        assert_eq!(warm.sizes, cold.sizes, "alpha {alpha}: sizes diverged");
        assert_eq!(
            warm.partitions, cold.partitions,
            "alpha {alpha}: placement diverged"
        );
        assert_eq!(
            warm_point.predicted_makespan.to_bits(),
            cold_point.predicted_makespan.to_bits(),
            "alpha {alpha}: makespan bits diverged"
        );
        assert_eq!(
            warm_point.predicted_dirty_joules.to_bits(),
            cold_point.predicted_dirty_joules.to_bits(),
            "alpha {alpha}: energy bits diverged"
        );
    }
    let evictions = total(&shared.stats(), "evict");
    assert!(evictions > 0, "capacity 2 under alpha churn must evict");
}
