//! End-to-end pipeline integration: every data domain through every
//! strategy, checking structural invariants of the outcome.

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Quality, Strategy};
use pareto_core::partitioner::PartitionLayout;
use pareto_core::StratifierConfig;
use pareto_datagen::{DataKind, Dataset};
use pareto_workloads::WorkloadKind;

fn cluster(p: usize) -> SimCluster {
    SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, 77))
}

fn cfg(strategy: Strategy, layout: PartitionLayout) -> FrameworkConfig {
    FrameworkConfig {
        strategy,
        layout,
        stratifier: StratifierConfig {
            num_strata: 10,
            ..StratifierConfig::default()
        },
        seed: 77,
        ..FrameworkConfig::default()
    }
}

fn all_domains() -> Vec<(Dataset, WorkloadKind, PartitionLayout)> {
    vec![
        (
            // Support sits just below the motif-pivot frequency of the
            // generator's largest families, so patterns exist.
            pareto_datagen::treebank_syn(7, 0.08),
            WorkloadKind::FrequentPatterns { support: 0.05 },
            PartitionLayout::Representative,
        ),
        (
            pareto_datagen::rcv1_syn(7, 0.08),
            WorkloadKind::FrequentPatterns { support: 0.15 },
            PartitionLayout::Representative,
        ),
        (
            pareto_datagen::uk_syn(7, 0.1),
            WorkloadKind::WebGraph,
            PartitionLayout::SimilarTogether,
        ),
        (
            pareto_datagen::arabic_syn(7, 0.05),
            WorkloadKind::Lz77,
            PartitionLayout::SimilarTogether,
        ),
    ]
}

#[test]
fn every_domain_runs_under_every_strategy() {
    let cl = cluster(4);
    for (ds, workload, layout) in all_domains() {
        for strategy in [
            Strategy::Stratified,
            Strategy::HetAware,
            Strategy::HetEnergyAware { alpha: 0.995 },
            Strategy::HetEnergyAwareNormalized { alpha: 0.5 },
            Strategy::Random,
            Strategy::RoundRobin,
            Strategy::ClusterMode,
        ] {
            let outcome = Framework::new(&cl, cfg(strategy, layout))
                .try_run(&ds, workload)
                .expect("non-empty dataset");
            // Partition cover.
            let mut all: Vec<usize> = outcome.plan.partitions.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..ds.len()).collect::<Vec<_>>(),
                "{} under {strategy:?} lost records",
                ds.name
            );
            // Report sanity.
            assert!(outcome.report.makespan_seconds > 0.0);
            assert!(outcome.report.total_energy_joules > 0.0);
            assert!(outcome.report.total_dirty_clamped >= 0.0);
            assert!(
                outcome.report.total_dirty_clamped <= outcome.report.total_energy_joules + 1e-6
            );
            match (&outcome.quality, ds.kind) {
                (Quality::Mining { candidates, .. }, _) => assert!(*candidates > 0),
                (Quality::Compression { ratio, .. }, DataKind::Graph) => {
                    assert!(*ratio > 1.0, "graph data must compress, got {ratio}")
                }
                (Quality::Compression { ratio, .. }, _) => assert!(*ratio > 0.0),
            }
        }
    }
}

#[test]
fn mining_results_are_strategy_invariant() {
    // SON is exact, so every placement strategy must find the same global
    // pattern set — the paper's quality-preservation claim for mining.
    let cl = cluster(4);
    let ds = pareto_datagen::rcv1_syn(9, 0.08);
    let workload = WorkloadKind::FrequentPatterns { support: 0.15 };
    let mut counts = Vec::new();
    for strategy in [
        Strategy::Stratified,
        Strategy::HetAware,
        Strategy::Random,
        Strategy::RoundRobin,
    ] {
        let outcome =
            Framework::new(&cl, cfg(strategy, PartitionLayout::Representative))
                .try_run(&ds, workload)
                .expect("non-empty dataset");
        let Quality::Mining { global_frequent, .. } = outcome.quality else {
            panic!("expected mining quality");
        };
        counts.push(global_frequent);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "global frequent sets must be identical across strategies: {counts:?}"
    );
}

#[test]
fn cluster_mode_reports_hash_dictated_sizes() {
    // Redis-cluster-mode placement: CRC16 hash slots dictate both contents
    // and sizes — no estimation, no optimizer, sizes are whatever the hash
    // produced (and must still be an exact cover).
    let cl = cluster(4);
    let ds = pareto_datagen::rcv1_syn(13, 0.08);
    let plan = Framework::new(&cl, cfg(Strategy::ClusterMode, PartitionLayout::Representative))
        .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.15 })
        .expect("non-empty dataset");
    assert!(plan.time_models.is_none(), "cluster-mode never estimates");
    assert!(plan.pareto.is_none(), "cluster-mode never optimizes");
    assert_eq!(plan.estimation_cost.compute_ops, 0);
    let reported: Vec<usize> = plan.partitions.iter().map(Vec::len).collect();
    assert_eq!(
        plan.sizes, reported,
        "sizes must mirror the hash placement, not an equal-size target"
    );
    assert_eq!(plan.sizes.iter().sum::<usize>(), ds.len());
    // Contents are hash-dictated: record order inside a partition follows
    // corpus order (CRC16 gives no control over grouping), unlike the
    // stratified layouts which reorder by stratum.
    for part in &plan.partitions {
        assert!(part.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn normalized_alpha_trades_predicted_time_for_dirty_energy() {
    // The normalized strategy makes alpha scale-free: as it falls from 1
    // toward 0 the optimizer's *predicted* makespan must not improve and
    // predicted dirty energy must not worsen (deterministic counterpart of
    // the Fig. 5 frontier, via plan() only — no simulated execution).
    let cl = cluster(4);
    let ds = pareto_datagen::rcv1_syn(17, 0.08);
    let mut last: Option<(f64, f64)> = None;
    for alpha in [0.9, 0.5, 0.1] {
        let plan = Framework::new(
            &cl,
            cfg(
                Strategy::HetEnergyAwareNormalized { alpha },
                PartitionLayout::Representative,
            ),
        )
        .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.15 })
        .expect("non-empty dataset");
        let point = plan.pareto.expect("normalized strategy always optimizes");
        assert!(plan.time_models.is_some());
        assert_eq!(plan.sizes.iter().sum::<usize>(), ds.len());
        if let Some((prev_time, prev_dirty)) = last {
            assert!(
                point.predicted_makespan >= prev_time - 1e-6,
                "alpha {alpha}: makespan improved ({} < {prev_time})",
                point.predicted_makespan
            );
            assert!(
                point.predicted_dirty_joules <= prev_dirty + 1e-6,
                "alpha {alpha}: dirty energy worsened ({} > {prev_dirty})",
                point.predicted_dirty_joules
            );
        }
        last = Some((point.predicted_makespan, point.predicted_dirty_joules));
    }
}

#[test]
fn estimation_cost_is_small_relative_to_job() {
    // §III: the progressive-sampling estimate is "a one-time cost (small)".
    let cl = cluster(4);
    let ds = pareto_datagen::rcv1_syn(11, 0.12);
    let outcome = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
        .try_run(&ds, WorkloadKind::FrequentPatterns { support: 0.15 })
        .expect("non-empty dataset");
    let est_ops = outcome.plan.estimation_cost.compute_ops;
    let job_ops: u64 = outcome.report.runs.iter().map(|r| r.cost.compute_ops).sum();
    assert!(est_ops > 0);
    assert!(
        (est_ops as f64) < 0.5 * job_ops as f64,
        "estimation ({est_ops}) should be well below job cost ({job_ops})"
    );
}

#[test]
fn plan_sizes_respect_node_speeds() {
    let cl = cluster(8);
    for (ds, workload, layout) in all_domains() {
        let plan = Framework::new(&cl, cfg(Strategy::HetAware, layout))
            .try_plan(&ds, workload)
            .expect("non-empty dataset");
        // Node 0 (type 1) vs node 3 (type 4): the fast node must receive
        // more data under Het-Aware for every domain.
        assert!(
            plan.sizes[0] > plan.sizes[3],
            "{}: sizes {:?} ignore speed",
            ds.name,
            plan.sizes
        );
    }
}

#[test]
fn single_node_cluster_degenerates_gracefully() {
    let cl = cluster(1);
    let ds = pareto_datagen::rcv1_syn(5, 0.05);
    let outcome = Framework::new(&cl, cfg(Strategy::HetAware, PartitionLayout::Representative))
        .try_run(&ds, WorkloadKind::FrequentPatterns { support: 0.2 })
        .expect("non-empty dataset");
    assert_eq!(outcome.plan.sizes, vec![ds.len()]);
    assert!(outcome.report.makespan_seconds > 0.0);
}

#[test]
fn many_partitions_small_data() {
    // More partitions than strata, sizes forced tiny.
    let cl = cluster(12);
    let ds = pareto_datagen::uk_syn(5, 0.02);
    let outcome = Framework::new(
        &cl,
        cfg(Strategy::Stratified, PartitionLayout::SimilarTogether),
    )
    .try_run(&ds, WorkloadKind::WebGraph)
    .expect("non-empty dataset");
    assert_eq!(outcome.plan.partitions.len(), 12);
    let total: usize = outcome.plan.sizes.iter().sum();
    assert_eq!(total, ds.len());
}
