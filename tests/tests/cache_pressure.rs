//! Cache behavior under eviction pressure: a seeded request stream
//! against a deliberately tiny shared [`pareto_core::SharedPlanCache`]
//! must (a) keep serving bit-correct plans, (b) keep its hit/miss/evict
//! counters in exact accounting balance with the store's occupancy, and
//! (c) monotonically trade hits for evictions as capacity shrinks.

use std::sync::Arc;

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::{PlanSession, SharedPlanCache};
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

/// Drive a seeded alpha-churn stream through one shared cache and return
/// (hits, misses, evictions, final occupancy, capacity).
fn churn(capacity: usize, rounds: usize) -> (u64, u64, u64, usize, usize) {
    let seed = 2017;
    let cluster = Arc::new(SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed)));
    let dataset = pareto_datagen::rcv1_syn(seed, 0.03);
    let shared = SharedPlanCache::new(capacity);
    let alphas = [0.9, 0.95, 0.99, 0.999];

    let mut session = PlanSession::new_shared(
        cluster,
        cfg(seed, Strategy::HetEnergyAware { alpha: alphas[0] }),
        dataset,
        WORKLOAD,
    )
    .with_shared_cache(shared.clone());

    for round in 0..rounds {
        // Deterministic pseudo-random walk over the alpha palette: the
        // same request stream for every capacity under test.
        let pick = (round * 7 + round / 3) % alphas.len();
        session.set_alpha(alphas[pick]);
        session.plan().expect("plan under cache pressure");
    }

    let stats = shared.stats();
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for (_, kind, count) in stats.events() {
        match kind {
            "hit" => hits += count,
            "miss" => misses += count,
            "evict" => evictions += count,
            _ => {}
        }
    }
    let cache = shared.lock();
    (hits, misses, evictions, cache.len(), cache.capacity())
}

/// Exact accounting: every artifact in the store arrived via a miss and
/// left via an eviction, so `misses - evictions == occupancy`, and the
/// store never exceeds its capacity.
#[test]
fn counters_reconcile_with_occupancy_under_pressure() {
    for capacity in [2usize, 4, 8, 64] {
        let (hits, misses, evictions, len, cap) = churn(capacity, 12);
        assert_eq!(cap, capacity);
        assert!(len <= capacity, "cap {capacity}: occupancy {len} over capacity");
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
    let cluster = Arc::new(SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed)));
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
        let cold = Framework::new(
            &cluster,
            cfg(seed, Strategy::HetEnergyAware { alpha }),
        )
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
    let stats = shared.stats();
    let evictions: u64 = stats
        .events()
        .filter(|(_, kind, _)| *kind == "evict")
        .map(|(_, _, n)| n)
        .sum();
    assert!(evictions > 0, "capacity 2 under alpha churn must evict");
}
