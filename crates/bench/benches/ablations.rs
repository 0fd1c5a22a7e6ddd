//! Wall-clock ablation benches: how design knobs change the *real* cost of
//! the framework's own machinery (the metric ablations live in the
//! `experiments ablations` subcommand).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pareto_core::{Stratifier, StratifierConfig};
use pareto_datagen::{rcv1_syn, ItemSet};
use pareto_sketch::MinHasher;
use pareto_workloads::{lz77_compress, Lz77Config};

const SEED: u64 = 99;

/// compositeKModes cost as the center width `L` grows.
fn kmodes_l(c: &mut Criterion) {
    let ds = rcv1_syn(SEED, 0.05);
    let sets: Vec<&ItemSet> = ds.items.iter().map(|i| &i.items).collect();
    let sigs = MinHasher::new(64, SEED).sketch_matrix(&sets, 1);
    let mut group = c.benchmark_group("ablation_kmodes_l");
    group.sample_size(10);
    for l in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(l), &l, |b, &l| {
            let stratifier = Stratifier::new(StratifierConfig {
                num_strata: 16,
                l,
                ..StratifierConfig::default()
            });
            b.iter(|| black_box(stratifier.stratify_signatures(&sigs).iterations))
        });
    }
    group.finish();
}

/// Sketch size `k` vs sketching cost.
fn sketch_size(c: &mut Criterion) {
    let ds = rcv1_syn(SEED, 0.05);
    let sets: Vec<&ItemSet> = ds.items.iter().map(|i| &i.items).collect();
    let mut group = c.benchmark_group("ablation_sketch_size");
    for k in [16usize, 64, 256] {
        let hasher = MinHasher::new(k, SEED);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(hasher.sketch_matrix(&sets, 1).num_rows()))
        });
    }
    group.finish();
}

/// LZ77 match-chain depth vs compression cost.
fn lz77_chain(c: &mut Criterion) {
    let ds = rcv1_syn(SEED, 0.05);
    let mut bytes = Vec::new();
    for item in &ds.items {
        bytes.extend_from_slice(&item.payload.to_bytes());
    }
    let mut group = c.benchmark_group("ablation_lz77_chain");
    group.sample_size(10);
    for chain in [4usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(chain), &chain, |b, &chain| {
            let cfg = Lz77Config {
                max_chain: chain,
                ..Lz77Config::default()
            };
            b.iter(|| black_box(lz77_compress(&bytes, &cfg).0.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, kmodes_l, sketch_size, lz77_chain);
criterion_main!(benches);
