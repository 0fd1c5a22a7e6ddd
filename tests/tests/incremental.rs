//! Incremental planning: warm replans through a [`PlanSession`] must be
//! bit-identical to cold plans over the same inputs, and an α sweep must
//! pay for the sketch/stratify/profile stages exactly once.
//!
//! The cache is an optimization, never an oracle: every test here compares
//! a cache-served plan against a from-scratch reference (a fresh
//! [`Framework`] or [`PlanSession`]) field by field, floats by bit pattern.

use std::collections::BTreeMap;

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Plan, Strategy};
use pareto_core::{CacheStats, Deadline, FrontierConfig, FrontierResult, PlanError, PlanSession};
use pareto_datagen::{DataItem, Dataset};
use pareto_integration_tests::thread_counts;
use pareto_telemetry::{metrics, MetricKey, Telemetry};
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
/// swept plan equals a cold plan at that α; and the telemetry counters a
/// `report` prints agree with `CacheStats` event for event.
#[test]
fn alpha_sweep_computes_upstream_stages_once() {
    let seed = 2017;
    let ds = dataset(seed);
    let cl = cluster(seed);
    let alphas: Vec<f64> = (0..11).map(|i| 1.0 - i as f64 / 10.0).collect();
    assert_eq!(alphas.len(), 11);

    let telemetry = Telemetry::enabled();
    let mut session = PlanSession::new(
        &cl,
        cfg(seed, 4, Strategy::HetEnergyAware { alpha: 1.0 }),
        ds.clone(),
        WORKLOAD,
    )
    .with_telemetry(telemetry.clone());
    let plans: Vec<Plan> = alphas
        .iter()
        .map(|&alpha| {
            session.set_alpha(alpha);
            session.plan().expect("sweep")
        })
        .collect();

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

    assert_telemetry_matches(&telemetry, &stats, "alpha sweep");

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

/// The `pareto_plan_cache_events_total` counters a `report` prints must
/// equal `CacheStats` event for event.
fn assert_telemetry_matches(telemetry: &Telemetry, stats: &CacheStats, ctx: &str) {
    let label = |key: &MetricKey, name: &str| {
        let value = key.labels.iter().find(|(k, _)| k == name);
        value
            .expect("plan-cache counters carry stage and event")
            .1
            .clone()
    };
    let in_telemetry: BTreeMap<(String, String), u64> = telemetry
        .snapshot()
        .metrics
        .counters
        .iter()
        .filter(|(key, _)| key.name == metrics::PLAN_CACHE_EVENTS_TOTAL)
        .map(|(key, &n)| ((label(key, "stage"), label(key, "event")), n))
        .collect();
    let in_stats: BTreeMap<(String, String), u64> = stats
        .events()
        .map(|(stage, event, n)| ((stage.to_string(), event.to_string()), n))
        .collect();
    assert_eq!(
        in_telemetry, in_stats,
        "{ctx}: telemetry and CacheStats disagree"
    );
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
    assert!(
        !reuse.sketch && !reuse.stratify,
        "append must recompute content stages"
    );
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

    let mut fresh = PlanSession::new(&cl, cfg(seed, 4, strategy), ds.clone(), WORKLOAD);
    fresh.drop_node(2).expect("drop node 2");
    let cold = fresh.plan().expect("cold subset plan");
    assert_plans_identical(&warm, &cold, "drop-node replan vs cold subset plan");

    let stats = session.cache_stats();
    let reuse = session.last_reuse();
    assert!(
        reuse.sketch && reuse.stratify,
        "content stages must survive node churn"
    );
    assert!(
        !reuse.profile && !reuse.partition,
        "roster stages must recompute"
    );
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
    let mut session = PlanSession::new(&cl, cfg(7, 1, Strategy::Stratified), empty, WORKLOAD);
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
    let err = session
        .drop_node(3)
        .expect_err("last-node drop must be refused");
    assert!(
        matches!(err, pareto_core::PlanError::LastRosterNode { node: 3 }),
        "got: {err}"
    );
    assert!(
        err.to_string().contains("last node on the roster"),
        "got: {err}"
    );
    assert_eq!(
        session.roster(),
        &[3],
        "failed drop must leave the roster intact"
    );
}

/// A mining support outside (0, 1] is a typed error before the first
/// stage runs, not a panic inside the miner the measure stage calls.
#[test]
fn invalid_support_is_a_typed_error() {
    let cl = cluster(7);
    let ds = dataset(7);
    let config = cfg(7, 1, Strategy::HetEnergyAware { alpha: 0.995 });
    for support in [0.0, -0.1, 1.5, f64::NAN] {
        for workload in [
            WorkloadKind::FrequentPatterns { support },
            WorkloadKind::FrequentPatternsEclat { support },
        ] {
            let mut session = PlanSession::new(&cl, config.clone(), ds.clone(), workload);
            let err = session.plan().expect_err("invalid support must not plan");
            assert!(
                matches!(err, pareto_core::PlanError::InvalidWorkload { .. }),
                "{workload:?}: got {err}"
            );
            assert_eq!(
                err.to_string(),
                "invalid workload: support must be in (0, 1]"
            );
            let err = Framework::new(&cl, config.clone())
                .try_run(&ds, workload)
                .expect_err("invalid support must not run");
            assert!(
                matches!(err, pareto_core::PlanError::InvalidWorkload { .. }),
                "{workload:?}: got {err}"
            );
        }
    }
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
                let mut fresh = PlanSession::new(&cl, cfg(seed, threads, strategy), ds.clone(), WORKLOAD);
                fresh.drop_node(1).expect("drop node 1");
                let cold = fresh.plan().expect("cold subset plan");
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
    assert!(
        a.cache().same_store(b.cache()),
        "sessions must share one store"
    );

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
    let cold_alpha = Framework::new(&cl, cfg(seed, 1, Strategy::HetEnergyAware { alpha: 0.9 }))
        .try_plan(&ds, WORKLOAD)
        .expect("non-empty dataset");
    assert_plans_identical(&warm, &cold_alpha, "shared-cache alpha replan");
    let reuse = a.last_reuse();
    assert!(
        reuse.sketch && reuse.stratify && reuse.profile,
        "upstream stages must be reused"
    );
}

/// Records appended by lineage step `step` of the session seeded `seed`.
fn extra(seed: u64, step: u64) -> Vec<DataItem> {
    pareto_datagen::rcv1_syn(seed + 100 + step, 0.005).items
}

/// A cold plan over `ds` — the reference every warm plan must equal.
fn cold(cl: &SimCluster, seed: u64, threads: usize, strategy: Strategy, ds: &Dataset) -> Plan {
    Framework::new(cl, cfg(seed, threads, strategy))
        .try_plan(ds, WORKLOAD)
        .expect("non-empty dataset")
}

fn total(stats: &CacheStats, event: &str) -> u64 {
    stats
        .events()
        .filter(|(_, kind, _)| *kind == event)
        .map(|(_, _, n)| n)
        .sum()
}

/// Every stored artifact arrived through a miss and left through an
/// eviction, superseded append prefixes included.
fn assert_reconciles(cache: &pareto_core::SharedPlanCache, ctx: &str) {
    let stats = cache.stats();
    assert_eq!(
        total(&stats, "miss") - total(&stats, "evict"),
        cache.occupancy() as u64,
        "{ctx}: misses - evictions must equal occupancy"
    );
}

/// A lineage of appends keeps one signature matrix: each plan after an
/// append extends the previous generation's sketch and evicts it, so `k`
/// append+plan cycles on a cache far too large for capacity eviction
/// leave exactly one `sketch` entry — and every plan still equals a cold
/// plan of the same dataset. The session's cache is its own, so its keys
/// name generations, not digests: a stand-in that did not tell two
/// generations apart would serve the prefix sketch as the whole one.
#[test]
fn append_lineage_keeps_one_sketch_entry() {
    let seed = 23;
    let k = 4u64;
    let cl = cluster(seed);
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    for threads in thread_counts() {
        let ctx = format!("threads {threads}");
        let telemetry = Telemetry::enabled();
        let mut grown = dataset(seed);
        let mut session =
            PlanSession::new(&cl, cfg(seed, threads, strategy), grown.clone(), WORKLOAD)
                .with_cache_capacity(4096)
                .with_telemetry(telemetry.clone());
        session.plan().expect("cold plan");
        for step in 0..k {
            let items = extra(seed, step);
            session.append_items(items.clone());
            grown.items.extend(items);
            let warm = session.plan().expect("append replan");
            let reference = cold(&cl, seed, threads, strategy, &grown);
            assert_plans_identical(&warm, &reference, &format!("{ctx}, append {step}"));
        }

        let stats = session.cache_stats();
        assert_eq!(
            stats.misses("sketch"),
            k + 1,
            "{ctx}: one sketch per generation"
        );
        assert_eq!(
            stats.hits("sketch"),
            k,
            "{ctx}: every append reuses its prefix"
        );
        assert_eq!(
            stats.misses("sketch") - stats.evictions("sketch"),
            1,
            "{ctx}: the lineage must leave exactly one sketch entry"
        );
        assert_eq!(
            total(&stats, "evict"),
            k,
            "{ctx}: only superseded prefixes leave a 4096-entry cache"
        );
        assert_reconciles(session.cache(), &ctx);
        let evicted_in_telemetry: u64 = telemetry
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
        assert_eq!(
            evicted_in_telemetry, k,
            "{ctx}: telemetry counts each eviction once"
        );
        assert_telemetry_matches(&telemetry, &stats, &ctx);
    }
}

/// A session keys a cache of its own by generation and digests its
/// dataset only when handed a cache another session fills. Over two
/// different datasets of one length, neither session is ever served the
/// other's artifacts — not even through the prefix hint of a session that
/// appended before it was handed the store — and every plan equals a cold
/// plan.
#[test]
fn a_store_shared_by_handing_it_over_never_mixes_datasets() {
    use std::sync::Arc;

    let seed = 31;
    let cl = Arc::new(cluster(seed));
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    let (ds_a, ds_b) = (dataset(seed), dataset(seed + 1));
    assert_eq!(ds_a.len(), ds_b.len(), "the stand-ins must coincide");
    let open = |ds: &Dataset| PlanSession::new(&cl, cfg(seed, 1, strategy), ds.clone(), WORKLOAD);

    let mut a = open(&ds_a);
    let plan_a = a.plan().expect("A plan");
    assert_plans_identical(&plan_a, &cold(&cl, seed, 1, strategy, &ds_a), "A");
    let store = a.cache().clone();

    let mut b = open(&ds_b).with_shared_cache(store.clone());
    let plan_b = b.plan().expect("B plan");
    assert_plans_identical(&plan_b, &cold(&cl, seed, 1, strategy, &ds_b), "B");
    assert_eq!(
        total(&store.stats(), "hit"),
        0,
        "B is served nothing of A's"
    );

    // C plans and appends on a cache of its own, then joins the store.
    let mut c = open(&ds_b);
    c.plan().expect("C private plan");
    let items = extra(seed, 0);
    c.append_items(items.clone());
    let mut c = c.with_shared_cache(store.clone());
    let mut grown = ds_b.clone();
    grown.items.extend(items);
    let plan_c = c.plan().expect("C append plan");
    assert_plans_identical(&plan_c, &cold(&cl, seed, 1, strategy, &grown), "C");
    // C's prefix is B's dataset, not A's generation of the same length.
    assert_eq!(
        total(&store.stats(), "hit"),
        1,
        "C extends B's sketch and nothing else"
    );

    // A still keys by generation and is served its own artifacts only.
    a.set_alpha(0.9);
    let warm = a.plan().expect("A alpha replan");
    let reference = cold(&cl, seed, 1, Strategy::HetEnergyAware { alpha: 0.9 }, &ds_a);
    assert_plans_identical(&warm, &reference, "A after its siblings");
    let reuse = a.last_reuse();
    assert!(reuse.sketch && reuse.stratify && reuse.profile && !reuse.optimize);
    assert_reconciles(&store, "handed-over store");
}

/// A session whose cache was never shared computes its digest when it is
/// read: after two appends it equals the digest a sharing session
/// maintained incrementally and the digest of the whole dataset, and
/// reading it leaves the session's keys (and its warm artifacts) alone.
#[test]
fn an_undigested_session_reports_the_digest_of_its_records() {
    let seed = 37;
    let cl = cluster(seed);
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    let mut grown = dataset(seed);
    let open = || PlanSession::new(&cl, cfg(seed, 1, strategy), grown.clone(), WORKLOAD);
    let mut private = open();
    let mut digested = open().with_shared_cache(pareto_core::SharedPlanCache::default());
    for step in 0..2 {
        let items = extra(seed, step);
        for session in [&mut private, &mut digested] {
            session.plan().expect("plan");
            session.append_items(items.clone());
        }
        grown.items.extend(items);
    }
    let whole = pareto_core::dataset_fingerprint(&grown);
    assert_eq!(private.dataset_fingerprint(), whole);
    assert_eq!(digested.dataset_fingerprint(), whole);

    let plan = private.plan().expect("plan after the read");
    assert_plans_identical(&plan, &cold(&cl, seed, 1, strategy, &grown), "private");
    assert_eq!(private.dataset_fingerprint(), whole);
    private.plan().expect("replan");
    let reuse = private.last_reuse();
    assert!(
        reuse.sketch && reuse.stratify && reuse.profile && reuse.optimize && reuse.partition,
        "a read digest must not re-key the session"
    );
}

/// Two sessions over identical data share a cache. When one appends, the
/// generation both sketched is superseded; the other session's next plan
/// recomputes its sketch, and both stay bit-identical to cold plans. When
/// the second appends the same records, it is served the first's sketch.
#[test]
fn shared_lineage_survives_a_sibling_append() {
    let seed = 29;
    let cl = std::sync::Arc::new(cluster(seed));
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    for threads in thread_counts() {
        let ctx = format!("threads {threads}");
        let ds = dataset(seed);
        let shared = pareto_core::SharedPlanCache::new(4096);
        let open = || {
            PlanSession::new_shared(
                cl.clone(),
                cfg(seed, threads, strategy),
                ds.clone(),
                WORKLOAD,
            )
            .with_shared_cache(shared.clone())
        };
        let (mut a, mut b) = (open(), open());
        let base = cold(&cl, seed, threads, strategy, &ds);
        assert_plans_identical(&a.plan().expect("A plan"), &base, &format!("{ctx}: A"));
        assert_plans_identical(&b.plan().expect("B plan"), &base, &format!("{ctx}: B"));

        let items = extra(seed, 0);
        let mut grown = ds.clone();
        grown.items.extend(items.clone());
        let grown_ref = cold(&cl, seed, threads, strategy, &grown);
        a.append_items(items.clone());
        let after = a.plan().expect("A append plan");
        assert_plans_identical(&after, &grown_ref, &format!("{ctx}: A after append"));
        assert_eq!(
            shared.stats().evictions("sketch"),
            1,
            "{ctx}: prefix superseded"
        );

        let again = b.plan().expect("B replan");
        assert_plans_identical(&again, &base, &format!("{ctx}: B after sibling append"));
        assert!(
            !b.last_reuse().sketch,
            "{ctx}: B's superseded sketch is recomputed"
        );
        assert!(
            b.last_reuse().stratify,
            "{ctx}: B's downstream artifacts survive"
        );

        b.append_items(items);
        let caught_up = b.plan().expect("B append plan");
        assert_plans_identical(&caught_up, &grown_ref, &format!("{ctx}: B after append"));
        assert!(
            b.last_reuse().sketch,
            "{ctx}: B is served A's extended sketch"
        );
        let stats = shared.stats();
        assert_eq!(
            stats.misses("sketch") - stats.evictions("sketch"),
            1,
            "{ctx}: B retires the generation it moved past"
        );
        assert_reconciles(&shared, &ctx);
    }
}

/// A deadline that trips after the sketch stage has stored the extended
/// sketch does not orphan it: the next append extends that sketch, and the
/// plan still equals a cold plan of the whole dataset.
#[test]
fn deadline_after_sketch_keeps_the_lineage() {
    let seed = 37;
    let cl = cluster(seed);
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    for threads in thread_counts() {
        let ctx = format!("threads {threads}");
        let mut grown = dataset(seed);
        let mut session =
            PlanSession::new(&cl, cfg(seed, threads, strategy), grown.clone(), WORKLOAD)
                .with_cache_capacity(4096);
        session.plan().expect("cold plan");

        for step in 0..2 {
            let items = extra(seed, step);
            session.append_items(items.clone());
            grown.items.extend(items);
            if step == 0 {
                // One checkpoint: the sketch stage runs, stratify does not.
                session.set_deadline(Deadline::Budget(1));
                let err = session.plan().expect_err("deadline must trip");
                assert_eq!(
                    err,
                    PlanError::DeadlineExceeded { stage: "stratify" },
                    "{ctx}"
                );
                session.set_deadline(Deadline::None);
            }
        }
        let warm = session.plan().expect("plan after the second append");
        let reference = cold(&cl, seed, threads, strategy, &grown);
        assert_plans_identical(&warm, &reference, &format!("{ctx}: after deadline"));

        let stats = session.cache_stats();
        assert_eq!(
            stats.hits("sketch"),
            2,
            "{ctx}: each append extends the last sketch"
        );
        assert_eq!(
            stats.misses("sketch") - stats.evictions("sketch"),
            1,
            "{ctx}: no generation's sketch is orphaned"
        );
        assert_reconciles(session.cache(), &ctx);
    }
}

/// A frontier's points with every float as its bit pattern.
fn frontier_bits(result: &FrontierResult) -> Vec<(u64, u64, u64, u64, Vec<usize>)> {
    result
        .points
        .iter()
        .map(|p| {
            (
                p.alpha.to_bits(),
                p.makespan_s.to_bits(),
                p.dirty_joules.to_bits(),
                p.transfer_bytes.to_bits(),
                p.sizes.clone(),
            )
        })
        .collect()
}

/// Two sessions over different datasets share one cache and plan at the
/// same time, one per scoped thread. The cache is locked only to look up
/// and to insert, so their stage computes overlap. Every plan and
/// frontier still equals its single-session reference, telemetry equals
/// `CacheStats`, and (no key is common to both, so no miss is raced)
/// misses − evictions equals occupancy, although a 64-entry cache evicts
/// in whatever order the two threads interleave.
#[test]
fn concurrent_sessions_over_one_cache_stay_exact() {
    let seeds = [41u64, 43];
    let cl = std::sync::Arc::new(cluster(seeds[0]));
    let strategy = Strategy::HetEnergyAware { alpha: 0.99 };
    let explorer = &FrontierConfig::default();
    for threads in thread_counts() {
        let ctx = format!("threads {threads}");
        let shared = pareto_core::SharedPlanCache::new(64);
        let telemetry = Telemetry::enabled();
        let open = |seed: u64| {
            PlanSession::new_shared(
                cl.clone(),
                cfg(seed, threads, strategy),
                dataset(seed),
                WORKLOAD,
            )
        };
        // Both threads start planning together, so their cold stages overlap.
        let start = &std::sync::Barrier::new(seeds.len());
        let served: Vec<(Plan, std::sync::Arc<FrontierResult>)> = std::thread::scope(|scope| {
            let sessions: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let mut session = open(seed)
                        .with_shared_cache(shared.clone())
                        .with_telemetry(telemetry.clone());
                    scope.spawn(move || {
                        start.wait();
                        let plan = session.plan().expect("concurrent plan");
                        let frontier = session.explore_frontier(explorer);
                        (plan, frontier.expect("concurrent frontier").result)
                    })
                })
                .collect();
            sessions
                .into_iter()
                .map(|s| s.join().expect("session thread"))
                .collect()
        });

        for (&seed, (plan, frontier)) in seeds.iter().zip(&served) {
            let ds = dataset(seed);
            let reference = cold(&cl, seed, threads, strategy, &ds);
            assert_plans_identical(plan, &reference, &format!("{ctx}, seed {seed}"));
            let alone = open(seed)
                .explore_frontier(explorer)
                .expect("reference frontier")
                .result;
            assert_eq!(
                frontier_bits(frontier),
                frontier_bits(&alone),
                "{ctx}, seed {seed}: frontier diverged"
            );
        }
        assert_telemetry_matches(&telemetry, &shared.stats(), &ctx);
        assert_reconciles(&shared, &ctx);
    }
}
