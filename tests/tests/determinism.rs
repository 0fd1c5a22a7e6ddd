//! Reproducibility: the entire pipeline is a deterministic function of its
//! seed, across data domains and strategies.

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::partitioner::PartitionLayout;
use pareto_integration_tests::thread_counts;
use pareto_workloads::WorkloadKind;

fn run_once(seed: u64, strategy: Strategy) -> (Vec<usize>, f64, f64) {
    let ds = pareto_datagen::rcv1_syn(seed, 0.06);
    let cl = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    let out = Framework::new(
        &cl,
        FrameworkConfig {
            strategy,
            seed,
            ..FrameworkConfig::default()
        },
    )
    .try_run(&ds, WorkloadKind::FrequentPatterns { support: 0.15 })
    .expect("non-empty dataset");
    (
        out.plan.sizes.clone(),
        out.report.makespan_seconds,
        out.report.total_dirty_linear,
    )
}

#[test]
fn identical_seeds_identical_runs() {
    for strategy in [
        Strategy::Stratified,
        Strategy::HetAware,
        Strategy::HetEnergyAware { alpha: 0.995 },
        Strategy::Random,
    ] {
        let a = run_once(31, strategy);
        let b = run_once(31, strategy);
        assert_eq!(a.0, b.0, "{strategy:?}: sizes diverged");
        assert_eq!(a.1, b.1, "{strategy:?}: makespan diverged");
        assert_eq!(a.2, b.2, "{strategy:?}: dirty energy diverged");
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_once(1, Strategy::HetAware);
    let b = run_once(2, Strategy::HetAware);
    // Different data + weather: times cannot coincide bit-for-bit.
    assert_ne!(a.1, b.1);
}

#[test]
fn dataset_generation_stable_across_calls() {
    let a = pareto_datagen::treebank_syn(5, 0.05);
    let b = pareto_datagen::treebank_syn(5, 0.05);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.items.iter().zip(&b.items) {
        assert_eq!(x.items, y.items);
        assert_eq!(x.payload, y.payload);
    }
}

/// The acceptance gate for the parallel planning pipeline: `plan()` is
/// bit-identical across thread counts for every strategy class that
/// exercises a parallel stage, at three different seeds.
#[test]
fn plan_bit_identical_across_thread_counts() {
    let counts = thread_counts();
    for seed in [11u64, 31, 2017] {
        let ds = pareto_datagen::rcv1_syn(seed, 0.06);
        let cl = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
        for strategy in [
            Strategy::Stratified,
            Strategy::HetAware,
            Strategy::HetEnergyAware { alpha: 0.995 },
        ] {
            let plan_at = |threads: usize| {
                Framework::new(
                    &cl,
                    FrameworkConfig {
                        strategy,
                        seed,
                        threads,
                        ..FrameworkConfig::default()
                    },
                )
                .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.15 })
                .expect("non-empty dataset")
            };
            let serial = plan_at(counts[0]);
            for &threads in &counts[1..] {
                let par = plan_at(threads);
                let ctx = format!("seed {seed}, {strategy:?}, threads {threads}");
                assert_eq!(
                    serial.stratification.assignments, par.stratification.assignments,
                    "{ctx}: stratum assignments diverged"
                );
                assert_eq!(serial.sizes, par.sizes, "{ctx}: sizes diverged");
                assert_eq!(
                    serial.partitions, par.partitions,
                    "{ctx}: placement diverged"
                );
                match (&serial.time_models, &par.time_models) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        for (ma, mb) in a.iter().zip(b.iter()) {
                            assert_eq!(
                                ma.fit.slope.to_bits(),
                                mb.fit.slope.to_bits(),
                                "{ctx}: node {} slope bits diverged",
                                ma.node_id
                            );
                            assert_eq!(
                                ma.fit.intercept.to_bits(),
                                mb.fit.intercept.to_bits(),
                                "{ctx}: node {} intercept bits diverged",
                                ma.node_id
                            );
                            assert_eq!(
                                ma.observations, mb.observations,
                                "{ctx}: node {} observation count diverged",
                                ma.node_id
                            );
                        }
                    }
                    _ => panic!("{ctx}: model presence diverged"),
                }
                assert_eq!(
                    serial.estimation_cost.compute_ops, par.estimation_cost.compute_ops,
                    "{ctx}: estimation cost diverged"
                );
            }
        }
    }
}

/// Full runs (plan + placement + execution) agree across thread counts —
/// the parallelism knob must not leak into any measured number.
#[test]
fn run_outcomes_identical_across_thread_counts() {
    let seed = 31u64;
    let ds = pareto_datagen::uk_syn(seed, 0.08);
    let cl = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    let run_at = |threads: usize| {
        Framework::new(
            &cl,
            FrameworkConfig {
                strategy: Strategy::HetEnergyAware { alpha: 0.995 },
                layout: PartitionLayout::SimilarTogether,
                seed,
                threads,
                ..FrameworkConfig::default()
            },
        )
        .try_run(&ds, WorkloadKind::WebGraph)
        .expect("non-empty dataset")
    };
    let base = run_at(1);
    for threads in [4usize, 8] {
        let par = run_at(threads);
        assert_eq!(base.plan.sizes, par.plan.sizes);
        assert_eq!(base.report.makespan_seconds, par.report.makespan_seconds);
        assert_eq!(
            base.report.total_dirty_linear,
            par.report.total_dirty_linear
        );
    }
}

#[test]
fn parallel_execution_does_not_affect_results() {
    // execute_job runs tasks on real threads; reported simulated numbers
    // must be identical across repetitions regardless of scheduling.
    let cl = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, 9));
    let ds = pareto_datagen::uk_syn(9, 0.1);
    let run = || {
        Framework::new(
            &cl,
            FrameworkConfig {
                strategy: Strategy::Stratified,
                layout: PartitionLayout::SimilarTogether,
                seed: 9,
                ..FrameworkConfig::default()
            },
        )
        .try_run(&ds, WorkloadKind::WebGraph)
        .expect("non-empty dataset")
    };
    let reports: Vec<f64> = (0..4).map(|_| run().report.makespan_seconds).collect();
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "thread scheduling leaked into results: {reports:?}"
    );
}
