//! Micro-benchmarks of the framework's building blocks: sketching
//! throughput, compositeKModes iterations, LP solves, codec throughput,
//! and Apriori mining.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pareto_core::{Stratifier, StratifierConfig};
use pareto_datagen::{ItemSet, rcv1_syn, uk_syn};
use pareto_lp::{Problem, Relation};
use pareto_sketch::MinHasher;
use pareto_workloads::{
    lz77_compress, son_distributed_mine, webgraph_compress, Apriori, AprioriConfig, Eclat,
    EclatConfig, Lz77Config, WebGraphConfig,
};

fn bench_sketching(c: &mut Criterion) {
    let ds = rcv1_syn(1, 0.1);
    let sets: Vec<&ItemSet> = ds.items.iter().map(|i| &i.items).collect();
    let mut group = c.benchmark_group("sketching");
    group.throughput(Throughput::Elements(sets.len() as u64));
    for k in [32usize, 64, 128] {
        let hasher = MinHasher::new(k, 7);
        group.bench_with_input(BenchmarkId::new("minhash", k), &k, |b, _| {
            b.iter(|| {
                let sigs = hasher.sketch_matrix(&sets, 1);
                black_box(sigs.num_rows())
            })
        });
    }
    group.finish();
}

fn bench_stratification(c: &mut Criterion) {
    let ds = rcv1_syn(2, 0.1);
    let mut group = c.benchmark_group("stratify");
    group.sample_size(10);
    group.bench_function("composite_kmodes_500", |b| {
        b.iter(|| {
            let st = Stratifier::new(StratifierConfig {
                num_strata: 16,
                ..StratifierConfig::default()
            })
            .stratify(&ds);
            black_box(st.iterations)
        })
    });
    group.finish();
}

fn bench_parallel_planning(c: &mut Criterion) {
    use pareto_cluster::{NodeSpec, SimCluster};
    use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
    use pareto_workloads::WorkloadKind;

    let ds = rcv1_syn(7, 0.2);
    let cluster = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, 7));
    let mut group = c.benchmark_group("planning");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ds.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("het_energy_aware_plan", threads),
            &threads,
            |b, &threads| {
                let fw = Framework::new(
                    &cluster,
                    FrameworkConfig {
                        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
                        threads,
                        ..FrameworkConfig::default()
                    },
                );
                b.iter(|| {
                    let plan = fw
                        .try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.1 })
                        .expect("non-empty dataset");
                    black_box(plan.sizes.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp");
    for p in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("partitioning_lp", p), &p, |b, &p| {
            b.iter(|| {
                let mut costs = vec![0.0; p + 1];
                for (i, c) in costs.iter_mut().enumerate().take(p) {
                    *c = 1e-3 * (i % 7 + 1) as f64;
                }
                costs[p] = 0.999;
                let mut lp = Problem::minimize(costs);
                for i in 0..p {
                    let mut row = vec![0.0; p + 1];
                    row[i] = 1e-3 * (i % 4 + 1) as f64;
                    row[p] = -1.0;
                    lp.constrain(row, Relation::Le, 0.0);
                }
                let mut sum = vec![1.0; p + 1];
                sum[p] = 0.0;
                lp.constrain(sum, Relation::Eq, 1.0e6);
                black_box(lp.solve().unwrap().objective)
            })
        });
    }
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let ds = uk_syn(3, 0.1);
    let mut bytes = Vec::new();
    let mut lists: Vec<Vec<u32>> = Vec::new();
    for item in &ds.items {
        bytes.extend_from_slice(&item.payload.to_bytes());
        if let pareto_datagen::Payload::Adjacency(ns) = &item.payload {
            lists.push(ns.clone());
        }
    }
    let list_refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();

    let mut group = c.benchmark_group("codecs");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("lz77_compress", |b| {
        b.iter(|| black_box(lz77_compress(&bytes, &Lz77Config::default()).0.len()))
    });
    group.bench_function("webgraph_compress", |b| {
        b.iter(|| {
            black_box(
                webgraph_compress(&list_refs, &WebGraphConfig::default())
                    .0
                    .len(),
            )
        })
    });
    group.finish();
}

fn bench_apriori(c: &mut Criterion) {
    let ds = rcv1_syn(4, 0.05);
    let sets: Vec<&ItemSet> = ds.items.iter().map(|i| &i.items).collect();
    let mut group = c.benchmark_group("mining");
    group.sample_size(10);
    for support in [0.15f64, 0.08] {
        group.bench_with_input(
            BenchmarkId::new("apriori", format!("s{support}")),
            &support,
            |b, &support| {
                b.iter(|| {
                    let (out, ops) = Apriori::new(AprioriConfig {
                        min_support: support,
                        ..AprioriConfig::default()
                    })
                    .mine(&sets);
                    black_box((out.itemsets.len(), ops))
                })
            },
        );
    }
    group.finish();
}

fn bench_eclat_vs_apriori(c: &mut Criterion) {
    let ds = rcv1_syn(5, 0.05);
    let sets: Vec<&ItemSet> = ds.items.iter().map(|i| &i.items).collect();
    let support = 0.1;
    let mut group = c.benchmark_group("miners");
    group.sample_size(10);
    group.bench_function("apriori", |b| {
        b.iter(|| {
            black_box(
                Apriori::new(AprioriConfig {
                    min_support: support,
                    ..AprioriConfig::default()
                })
                .mine(&sets)
                .1,
            )
        })
    });
    group.bench_function("eclat", |b| {
        b.iter(|| {
            black_box(
                Eclat::new(EclatConfig {
                    min_support: support,
                    ..EclatConfig::default()
                })
                .mine(&sets)
                .1,
            )
        })
    });
    group.finish();
}

fn bench_son(c: &mut Criterion) {
    let ds = rcv1_syn(6, 0.05);
    let sets: Vec<&ItemSet> = ds.items.iter().map(|i| &i.items).collect();
    let mut group = c.benchmark_group("son");
    group.sample_size(10);
    for p in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("distributed_mine", p), &p, |b, &p| {
            let chunk = sets.len().div_ceil(p);
            let partitions: Vec<Vec<&ItemSet>> =
                sets.chunks(chunk).map(|c| c.to_vec()).collect();
            b.iter(|| {
                black_box(
                    son_distributed_mine(
                        &partitions,
                        &AprioriConfig {
                            min_support: 0.1,
                            ..AprioriConfig::default()
                        },
                    )
                    .candidate_count,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sketching,
    bench_stratification,
    bench_parallel_planning,
    bench_lp,
    bench_codecs,
    bench_apriori,
    bench_eclat_vs_apriori,
    bench_son
);
criterion_main!(benches);
