//! Wall-clock benchmarks of the full pipeline behind each paper figure —
//! one group per experiment id, at reduced scale so `cargo bench` stays
//! fast. The *simulated-time* results (what the paper reports) come from
//! the `experiments` binary; these benches track the real cost of running
//! the framework itself.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pareto_bench::experiments::{make_cluster, ALPHA_COMPRESSION, ALPHA_MINING};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::partitioner::PartitionLayout;
use pareto_core::StratifierConfig;
use pareto_datagen::Dataset;
use pareto_workloads::WorkloadKind;

const SCALE: f64 = 0.05;
/// Mining benches use larger corpora and higher supports than the
/// experiments so every partition stays far from SON's degenerate
/// `support x partition ~ 1` floor while keeping iterations fast.
const MINING_SCALE: f64 = 0.3;
const BENCH_TREE_SUPPORT: f64 = 0.1;
const BENCH_TEXT_SUPPORT: f64 = 0.1;
const SEED: u64 = 2017;

fn cfg(strategy: Strategy, layout: PartitionLayout) -> FrameworkConfig {
    FrameworkConfig {
        strategy,
        layout,
        stratifier: StratifierConfig {
            num_strata: 12,
            ..StratifierConfig::default()
        },
        seed: SEED,
        ..FrameworkConfig::default()
    }
}

fn bench_strategies(
    c: &mut Criterion,
    group_name: &str,
    dataset: &Dataset,
    workload: WorkloadKind,
    layout: PartitionLayout,
    energy_alpha: f64,
) {
    let cluster = make_cluster(8, SEED);
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for strategy in [
        Strategy::Stratified,
        Strategy::HetAware,
        Strategy::HetEnergyAware { alpha: energy_alpha },
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let fw = Framework::new(&cluster, cfg(strategy, layout));
                    let out = fw.try_run(dataset, workload).expect("non-empty dataset");
                    black_box(out.report.makespan_seconds)
                })
            },
        );
    }
    group.finish();
}

/// Fig. 2 — frequent tree mining pipeline (Treebank-syn).
fn fig2_tree_mining(c: &mut Criterion) {
    let ds = pareto_datagen::treebank_syn(SEED, MINING_SCALE);
    bench_strategies(
        c,
        "fig2_tree_mining",
        &ds,
        WorkloadKind::FrequentPatterns {
            support: BENCH_TREE_SUPPORT,
        },
        PartitionLayout::Representative,
        ALPHA_MINING,
    );
}

/// Fig. 3 — text mining pipeline (RCV1-syn).
fn fig3_text_mining(c: &mut Criterion) {
    let ds = pareto_datagen::rcv1_syn(SEED, MINING_SCALE);
    bench_strategies(
        c,
        "fig3_text_mining",
        &ds,
        WorkloadKind::FrequentPatterns {
            support: BENCH_TEXT_SUPPORT,
        },
        PartitionLayout::Representative,
        ALPHA_MINING,
    );
}

/// Fig. 4 — webgraph compression pipeline (UK-syn).
fn fig4_webgraph(c: &mut Criterion) {
    let ds = pareto_datagen::uk_syn(SEED, SCALE);
    bench_strategies(
        c,
        "fig4_webgraph",
        &ds,
        WorkloadKind::WebGraph,
        PartitionLayout::SimilarTogether,
        ALPHA_COMPRESSION,
    );
}

/// Tables II/III — LZ77 pipeline (UK-syn, 8 partitions).
fn tables23_lz77(c: &mut Criterion) {
    let ds = pareto_datagen::uk_syn(SEED, SCALE);
    bench_strategies(
        c,
        "tables23_lz77",
        &ds,
        WorkloadKind::Lz77,
        PartitionLayout::SimilarTogether,
        ALPHA_COMPRESSION,
    );
}

/// Figs. 5/6 — one frontier point (plan + run at α = 0.999).
fn fig56_frontier_point(c: &mut Criterion) {
    let ds = pareto_datagen::rcv1_syn(SEED, MINING_SCALE);
    let cluster = make_cluster(8, SEED);
    let mut group = c.benchmark_group("fig56_frontier_point");
    group.sample_size(10);
    group.bench_function("plan_and_run_alpha_0999", |b| {
        b.iter(|| {
            let fw = Framework::new(
                &cluster,
                cfg(
                    Strategy::HetEnergyAware { alpha: 0.999 },
                    PartitionLayout::Representative,
                ),
            );
            let out = fw.try_run(
                &ds,
                WorkloadKind::FrequentPatterns {
                    support: BENCH_TEXT_SUPPORT,
                },
            )
            .expect("non-empty dataset");
            black_box(out.report.total_dirty_linear)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    fig2_tree_mining,
    fig3_text_mining,
    fig4_webgraph,
    tables23_lz77,
    fig56_frontier_point
);
criterion_main!(benches);
