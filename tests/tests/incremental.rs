//! Incremental planning: warm replans through a [`PlanSession`] must be
//! bit-identical to cold plans over the same inputs, and an α sweep must
//! pay for the sketch/stratify/profile stages exactly once.
//!
//! The cache is an optimization, never an oracle: every test here compares
//! a cache-served plan against a from-scratch reference (a fresh
//! [`Framework`] or [`PlanEngine`]) field by field, floats by bit pattern.

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Plan, Strategy};
use pareto_core::{PlanEngine, PlanSession};
use pareto_datagen::Dataset;
use pareto_workloads::WorkloadKind;
use proptest::prelude::*;

const WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.15 };

fn cluster(seed: u64) -> SimCluster {
    SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed))
}

fn dataset(seed: u64) -> Dataset {
    pareto_datagen::rcv1_syn(seed, 0.04)
}

fn cfg(seed: u64, threads: usize, strategy: Strategy) -> FrameworkConfig {
    FrameworkConfig {
        strategy,
        seed,
        threads,
        ..FrameworkConfig::default()
    }
}

/// Every number in the plan, floats compared as bit patterns. Timings are
/// excluded — they are wall-clock measurements, not plan content.
fn assert_plans_identical(a: &Plan, b: &Plan, ctx: &str) {
    assert_eq!(
        a.stratification.assignments, b.stratification.assignments,
        "{ctx}: stratum assignments diverged"
    );
    assert_eq!(a.sizes, b.sizes, "{ctx}: sizes diverged");
    assert_eq!(a.partitions, b.partitions, "{ctx}: placement diverged");
    assert_eq!(
        a.estimation_cost, b.estimation_cost,
        "{ctx}: estimation cost diverged"
    );
    assert_eq!(
        a.energy_profiles.len(),
        b.energy_profiles.len(),
        "{ctx}: profile count diverged"
    );
    for (i, (pa, pb)) in a.energy_profiles.iter().zip(&b.energy_profiles).enumerate() {
        assert_eq!(
            pa.draw_watts.to_bits(),
            pb.draw_watts.to_bits(),
            "{ctx}: profile {i} draw bits diverged"
        );
        assert_eq!(
            pa.mean_green_watts.to_bits(),
            pb.mean_green_watts.to_bits(),
            "{ctx}: profile {i} green bits diverged"
        );
    }
    match (&a.time_models, &b.time_models) {
        (None, None) => {}
        (Some(ma), Some(mb)) => {
            assert_eq!(ma.len(), mb.len(), "{ctx}: model count diverged");
            for (x, y) in ma.iter().zip(mb) {
                assert_eq!(x.node_id, y.node_id, "{ctx}: model node id diverged");
                assert_eq!(
                    x.fit.slope.to_bits(),
                    y.fit.slope.to_bits(),
                    "{ctx}: node {} slope bits diverged",
                    x.node_id
                );
                assert_eq!(
                    x.fit.intercept.to_bits(),
                    y.fit.intercept.to_bits(),
                    "{ctx}: node {} intercept bits diverged",
                    x.node_id
                );
                assert_eq!(
                    x.observations, y.observations,
                    "{ctx}: node {} observations diverged",
                    x.node_id
                );
            }
        }
        _ => panic!("{ctx}: model presence diverged"),
    }
    match (&a.pareto, &b.pareto) {
        (None, None) => {}
        (Some(pa), Some(pb)) => {
            assert_eq!(
                pa.alpha.to_bits(),
                pb.alpha.to_bits(),
                "{ctx}: alpha bits diverged"
            );
            assert_eq!(pa.sizes, pb.sizes, "{ctx}: LP integer sizes diverged");
            let fa: Vec<u64> = pa.fractional_sizes.iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u64> = pb.fractional_sizes.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fa, fb, "{ctx}: LP fractional sizes diverged");
            assert_eq!(
                pa.predicted_makespan.to_bits(),
                pb.predicted_makespan.to_bits(),
                "{ctx}: predicted makespan bits diverged"
            );
            assert_eq!(
                pa.predicted_dirty_joules.to_bits(),
                pb.predicted_dirty_joules.to_bits(),
                "{ctx}: predicted dirty energy bits diverged"
            );
        }
        _ => panic!("{ctx}: pareto point presence diverged"),
    }
}

/// Replanning with nothing changed serves every stage from the cache and
/// reproduces the cold plan bit for bit.
#[test]
fn warm_replan_same_inputs_is_bit_identical() {
    let seed = 31;
    let ds = dataset(seed);
    let cl = cluster(seed);
    let strategy = Strategy::HetEnergyAware { alpha: 0.995 };
    let cold_ref = Framework::new(&cl, cfg(seed, 1, strategy))
        .try_plan(&ds, WORKLOAD)
        .expect("non-empty dataset");

    let mut session = PlanSession::new(&cl, cfg(seed, 1, strategy), ds, WORKLOAD);
    let cold = session.plan().expect("cold plan");
    let warm = session.plan().expect("warm replan");

    assert_plans_identical(&cold, &cold_ref, "cold session vs Framework::try_plan");
    assert_plans_identical(&warm, &cold, "warm replan vs cold plan");
    let reuse = session.last_reuse();
    assert!(
        reuse.sketch && reuse.stratify && reuse.profile && reuse.optimize && reuse.partition,
        "unchanged inputs must hit every stage, got {reuse:?}"
    );
    for stage in ["sketch", "stratify", "profile", "optimize", "partition"] {
        assert_eq!(session.cache_stats().misses(stage), 1, "{stage} misses");
        assert_eq!(session.cache_stats().hits(stage), 1, "{stage} hits");
    }
}

/// An 11-point α sweep computes sketch/stratify/profile exactly once; each
/// swept plan equals a cold plan at that α.
#[test]
fn alpha_sweep_computes_upstream_stages_once() {
    let seed = 2017;
    let ds = dataset(seed);
    let cl = cluster(seed);
    let alphas: Vec<f64> = (0..11).map(|i| 1.0 - i as f64 / 10.0).collect();
    assert_eq!(alphas.len(), 11);

    let mut session = PlanSession::new(
        &cl,
        cfg(seed, 4, Strategy::HetEnergyAware { alpha: 1.0 }),
        ds.clone(),
        WORKLOAD,
    );
    let plans = session.sweep(&alphas).expect("sweep");

    let stats = session.cache_stats();
    for stage in ["sketch", "stratify", "profile"] {
        assert_eq!(stats.misses(stage), 1, "{stage}: expected exactly one miss");
        assert_eq!(
            stats.hits(stage),
            (alphas.len() - 1) as u64,
            "{stage}: every later alpha must reuse the artifact"
        );
    }
    // The LP depends on α, so it must NOT be reused across distinct alphas.
    assert_eq!(stats.misses("optimize"), alphas.len() as u64);
    assert_eq!(stats.misses("partition"), alphas.len() as u64);

    for (alpha, plan) in alphas.iter().zip(&plans) {
        let cold = Framework::new(
            &cl,
            cfg(seed, 4, Strategy::HetEnergyAware { alpha: *alpha }),
        )
        .try_plan(&ds, WORKLOAD)
        .expect("non-empty dataset");
        assert_plans_identical(plan, &cold, &format!("sweep alpha {alpha}"));
    }
}

/// Appending records invalidates downstream stages but reuses the previous
/// generation's sketch as a prefix; the replan equals a cold plan over the
/// concatenated dataset.
#[test]
fn append_replan_matches_cold_plan_over_grown_dataset() {
    let seed = 11;
    let ds = dataset(seed);
    let cl = cluster(seed);
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    let extra = pareto_datagen::rcv1_syn(seed + 100, 0.01).items;
    assert!(!extra.is_empty());

    let mut session = PlanSession::new(&cl, cfg(seed, 4, strategy), ds.clone(), WORKLOAD);
    session.plan().expect("cold plan");
    session.append_items(extra.clone());
    let warm = session.plan().expect("replan after append");

    let mut grown = ds;
    grown.items.extend(extra);
    let cold = Framework::new(&cl, cfg(seed, 4, strategy))
        .try_plan(&grown, WORKLOAD)
        .expect("non-empty dataset");
    assert_plans_identical(&warm, &cold, "append replan vs cold grown plan");

    let stats = session.cache_stats();
    // Full-dataset sketch key missed (content changed), but the prefix
    // lookup hit the previous generation's artifact.
    assert_eq!(stats.misses("sketch"), 2);
    assert_eq!(stats.hits("sketch"), 1, "prefix sketch must be reused");
    let reuse = session.last_reuse();
    assert!(!reuse.sketch && !reuse.stratify, "append must recompute content stages");
}

/// Dropping a node invalidates profile/optimize/partition but keeps the
/// sketch, stratification, and (node-independent) measurements; the replan
/// equals a cold plan restricted to the surviving roster.
#[test]
fn drop_node_replan_matches_cold_subset_plan() {
    let seed = 31;
    let ds = dataset(seed);
    let cl = cluster(seed);
    let strategy = Strategy::HetEnergyAware { alpha: 0.995 };

    let mut session = PlanSession::new(&cl, cfg(seed, 4, strategy), ds.clone(), WORKLOAD);
    session.plan().expect("cold plan");
    session.drop_node(2).expect("drop node 2");
    let warm = session.plan().expect("replan after drop");
    assert_eq!(session.roster(), &[0, 1, 3]);

    let mut engine = PlanEngine::new(&cl, cfg(seed, 4, strategy));
    engine.set_roster(vec![0, 1, 3]).expect("set roster");
    let cold = engine.plan(&ds, WORKLOAD).expect("cold subset plan");
    assert_plans_identical(&warm, &cold, "drop-node replan vs cold subset plan");

    let stats = session.cache_stats();
    let reuse = session.last_reuse();
    assert!(reuse.sketch && reuse.stratify, "content stages must survive node churn");
    assert!(!reuse.profile && !reuse.partition, "roster stages must recompute");
    assert_eq!(
        stats.hits("measure"),
        1,
        "sampling measurements are node-independent and must be reused"
    );

    // Restoring the node brings back the original cached artifacts.
    session.restore_node(2).expect("restore node 2");
    let restored = session.plan().expect("replan after restore");
    let cold_full = Framework::new(&cl, cfg(seed, 4, strategy))
        .try_plan(&ds, WORKLOAD)
        .expect("non-empty dataset");
    assert_plans_identical(&restored, &cold_full, "restore replan vs cold full plan");
    let reuse = session.last_reuse();
    assert!(
        reuse.profile && reuse.optimize && reuse.partition,
        "restoring the original roster must hit the original artifacts, got {reuse:?}"
    );
}

/// Planning errors are values, not panics: empty datasets and bad rosters
/// report typed errors through the session API.
#[test]
fn empty_inputs_are_typed_errors() {
    let cl = cluster(7);
    let empty = Dataset::new("empty", pareto_datagen::DataKind::Text, vec![]);
    let mut session = PlanSession::new(
        &cl,
        cfg(7, 1, Strategy::Stratified),
        empty,
        WORKLOAD,
    );
    let err = session.plan().expect_err("empty dataset must not plan");
    assert!(err.to_string().contains("empty dataset"), "got: {err}");

    let mut session = PlanSession::new(&cl, cfg(7, 1, Strategy::Stratified), dataset(7), WORKLOAD);
    let err = session.drop_node(99).expect_err("unknown node");
    assert!(err.to_string().contains("node 99"), "got: {err}");
    for node in 0..3 {
        session.drop_node(node).expect("shrinking roster");
    }
    // Dropping the last node would empty the roster — refused eagerly
    // with its own typed error, not a downstream infeasible-LP failure.
    let err = session.drop_node(3).expect_err("last-node drop must be refused");
    assert!(
        matches!(err, pareto_core::PlanError::LastRosterNode { node: 3 }),
        "got: {err}"
    );
    assert!(err.to_string().contains("last node on the roster"), "got: {err}");
    assert_eq!(session.roster(), &[3], "failed drop must leave the roster intact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Any single-input delta (none, append, drop a node, change α), at
    /// any thread count and seed, replans bit-identically to a cold plan
    /// over the post-delta inputs.
    #[test]
    fn any_single_delta_replan_matches_cold_plan(
        delta in 0usize..4,
        tidx in 0usize..3,
        sidx in 0usize..3,
    ) {
        let threads = [1usize, 4, 8][tidx];
        let seed = [11u64, 31, 2017][sidx];
        let strategy = Strategy::HetEnergyAware { alpha: 0.995 };
        let ds = dataset(seed);
        let cl = cluster(seed);

        let mut session = PlanSession::new(&cl, cfg(seed, threads, strategy), ds.clone(), WORKLOAD);
        session.plan().expect("cold plan");

        let (warm, cold, ctx) = match delta {
            0 => {
                let warm = session.plan().expect("warm replan");
                let cold = Framework::new(&cl, cfg(seed, threads, strategy))
                    .try_plan(&ds, WORKLOAD)
                    .expect("non-empty dataset");
                (warm, cold, "no delta")
            }
            1 => {
                let extra = pareto_datagen::rcv1_syn(seed + 100, 0.01).items;
                session.append_items(extra.clone());
                let warm = session.plan().expect("append replan");
                let mut grown = ds.clone();
                grown.items.extend(extra);
                let cold = Framework::new(&cl, cfg(seed, threads, strategy))
                    .try_plan(&grown, WORKLOAD)
                    .expect("non-empty dataset");
                (warm, cold, "append")
            }
            2 => {
                session.drop_node(1).expect("drop node 1");
                let warm = session.plan().expect("drop replan");
                let mut engine = PlanEngine::new(&cl, cfg(seed, threads, strategy));
                engine.set_roster(vec![0, 2, 3]).expect("set roster");
                let cold = engine.plan(&ds, WORKLOAD).expect("cold subset plan");
                (warm, cold, "drop node")
            }
            _ => {
                session.set_alpha(0.9);
                let warm = session.plan().expect("alpha replan");
                let cold = Framework::new(
                    &cl,
                    cfg(seed, threads, Strategy::HetEnergyAware { alpha: 0.9 }),
                )
                .try_plan(&ds, WORKLOAD)
                .expect("non-empty dataset");
                (warm, cold, "alpha change")
            }
        };
        assert_plans_identical(&warm, &cold, &format!("{ctx}, threads {threads}, seed {seed}"));
    }
}

/// Satellite for the serving daemon: two sessions sharing one
/// [`pareto_core::SharedPlanCache`] behave exactly like private-cache
/// sessions plan-wise — bit-identical to cold references — while the
/// second session's identical request is served from artifacts the first
/// session computed.
#[test]
fn shared_cache_sessions_replan_bit_identically() {
    use std::sync::Arc;

    use pareto_core::SharedPlanCache;

    let seed = 47;
    let ds = dataset(seed);
    let cl = Arc::new(cluster(seed));
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    let shared = SharedPlanCache::new(64);

    let mut a = PlanSession::new_shared(cl.clone(), cfg(seed, 1, strategy), ds.clone(), WORKLOAD)
        .with_shared_cache(shared.clone());
    let mut b = PlanSession::new_shared(cl.clone(), cfg(seed, 1, strategy), ds.clone(), WORKLOAD)
        .with_shared_cache(shared.clone());
    assert!(a.cache().same_store(b.cache()), "sessions must share one store");

    // Session A pays for the pipeline once.
    let plan_a = a.plan().expect("session A plan");
    let misses_after_a: u64 = shared
        .stats()
        .events()
        .filter(|(_, kind, _)| *kind == "miss")
        .map(|(_, _, n)| n)
        .sum();
    assert!(misses_after_a >= 5, "cold plan must miss every stage");

    // Session B asks for the same work: every stage is a shared-cache hit
    // and the plan is bit-identical.
    let plan_b = b.plan().expect("session B plan");
    let misses_after_b: u64 = shared
        .stats()
        .events()
        .filter(|(_, kind, _)| *kind == "miss")
        .map(|(_, _, n)| n)
        .sum();
    assert_eq!(
        misses_after_a, misses_after_b,
        "session B must be served entirely from session A's artifacts"
    );
    assert_plans_identical(&plan_a, &plan_b, "shared-cache siblings");

    // Both match a cold, private-cache reference: sharing is an
    // optimization, never an oracle.
    let cold = Framework::new(&cl, cfg(seed, 1, strategy))
        .try_plan(&ds, WORKLOAD)
        .expect("non-empty dataset");
    assert_plans_identical(&plan_a, &cold, "shared vs cold");

    // A warm replan after an alpha change only re-solves downstream
    // stages, and still matches a cold reference bit for bit.
    a.set_alpha(0.9);
    let warm = a.plan().expect("alpha replan via shared cache");
    let cold_alpha = Framework::new(
        &cl,
        cfg(seed, 1, Strategy::HetEnergyAware { alpha: 0.9 }),
    )
    .try_plan(&ds, WORKLOAD)
    .expect("non-empty dataset");
    assert_plans_identical(&warm, &cold_alpha, "shared-cache alpha replan");
    let reuse = a.last_reuse();
    assert!(reuse.sketch && reuse.stratify && reuse.profile, "upstream stages must be reused");
}
