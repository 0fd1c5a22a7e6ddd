//! Incremental planning benches: what the content-addressed artifact
//! cache buys on the planning path the paper amortizes over α sweeps and
//! replans (the one-time estimation cost of §III, "amortized over
//! multiple runs").

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::PlanSession;
use pareto_workloads::WorkloadKind;

const SEED: u64 = 99;
const WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.10 };

fn cfg(threads: usize) -> FrameworkConfig {
    FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 1.0 },
        seed: SEED,
        threads,
        ..FrameworkConfig::default()
    }
}

fn sweep_alphas(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 - i as f64 / (n - 1) as f64).collect()
}

/// Cold α sweep (fresh `Framework::try_plan` per α) vs warm sweep (one
/// `PlanSession`, sketch/stratify/profile computed once).
fn alpha_sweep(c: &mut Criterion) {
    let ds = pareto_datagen::rcv1_syn(SEED, 0.5);
    let cluster = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, SEED));
    let alphas = sweep_alphas(11);

    let mut group = c.benchmark_group("incremental_alpha_sweep");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("cold"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &alpha in &alphas {
                let plan = Framework::new(
                    &cluster,
                    FrameworkConfig {
                        strategy: Strategy::HetEnergyAware { alpha },
                        ..cfg(1)
                    },
                )
                .try_plan(&ds, WORKLOAD)
                .expect("non-empty dataset");
                total += plan.sizes.iter().sum::<usize>();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("warm"), |b| {
        b.iter(|| {
            let mut session = PlanSession::new(&cluster, cfg(1), ds.clone(), WORKLOAD);
            let plans = session.sweep(&alphas).expect("sweep");
            black_box(plans.iter().map(|p| p.sizes.iter().sum::<usize>()).sum::<usize>())
        })
    });
    group.finish();
}

/// Replan cost after each supported delta, against a warm session.
fn delta_replan(c: &mut Criterion) {
    let ds = pareto_datagen::rcv1_syn(SEED, 0.5);
    let cluster = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, SEED));
    let extra = pareto_datagen::rcv1_syn(SEED + 1, 0.02).items;

    let mut group = c.benchmark_group("incremental_delta_replan");
    group.sample_size(10);
    for delta in ["none", "alpha", "drop_node", "append"] {
        group.bench_with_input(BenchmarkId::from_parameter(delta), &delta, |b, &delta| {
            b.iter(|| {
                let mut session = PlanSession::new(&cluster, cfg(1), ds.clone(), WORKLOAD);
                session.plan().expect("cold plan");
                match delta {
                    "alpha" => session.set_alpha(0.9),
                    "drop_node" => session.drop_node(3).expect("drop"),
                    "append" => session.append_items(extra.clone()),
                    _ => {}
                }
                black_box(session.plan().expect("replan").sizes)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, alpha_sweep, delta_replan);
criterion_main!(benches);
