//! LP warm-starting benches: what re-seeding the previous optimal basis
//! buys on the two hot re-solve paths — the α sweep (`solve` chained basis to
//! basis, point to point) and the adaptive frontier explorer (each bisection
//! midpoint seeded from its interval endpoint). Cold solves are the
//! reference; warm results are bit-identical by the solver's contract, so
//! these measure pure pivot savings.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pareto_core::frontier::{explore, FrontierConfig, ModelerSolver};
use pareto_core::ParetoModeler;
use pareto_energy::NodeEnergyProfile;
use pareto_stats::LinearFit;
use pareto_telemetry::Telemetry;

fn fit(slope: f64, intercept: f64) -> LinearFit {
    LinearFit {
        slope,
        intercept,
        r_squared: 1.0,
        n: 6,
    }
}

/// An 8-node heterogeneous modeler in the paper's constant ranges.
fn modeler() -> ParetoModeler {
    let time: Vec<LinearFit> = (0..8)
        .map(|i| fit(1e-3 * (1.0 + i as f64 * 0.45), 0.1 + 0.07 * i as f64))
        .collect();
    let energy: Vec<NodeEnergyProfile> = (0..8)
        .map(|i| NodeEnergyProfile {
            draw_watts: 440.0 - 35.0 * i as f64,
            mean_green_watts: 20.0 + 19.0 * i as f64,
        })
        .collect();
    ParetoModeler::new(time, energy).unwrap()
}

fn sweep_alphas(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 - i as f64 / (n - 1) as f64).collect()
}

/// Cold sweep (every α solved from scratch) vs warm sweep (basis chained
/// α to α through `solve`).
fn lp_warm_sweep(c: &mut Criterion) {
    let m = modeler();
    let alphas = sweep_alphas(33);
    let n = 200_000;

    let mut group = c.benchmark_group("lp_warm_sweep");
    group.bench_function(BenchmarkId::from_parameter("cold"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &alpha in &alphas {
                let p = m.solve(n, alpha, None).expect("solve").point;
                total += p.sizes.iter().sum::<usize>();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("warm"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut basis = None;
            for &alpha in &alphas {
                let solved = m.solve(n, alpha, basis.as_ref()).expect("solve");
                total += solved.point.sizes.iter().sum::<usize>();
                basis = solved.basis;
            }
            black_box(total)
        })
    });
    group.finish();
}

/// The adaptive frontier explorer with warm-starting on vs off: every
/// bisection midpoint either re-seeds its interval endpoint's basis or
/// solves two-phase from scratch.
fn lp_warm_frontier(c: &mut Criterion) {
    let m = modeler();
    let fcfg = FrontierConfig {
        max_points: 48,
        tol: 1e-4,
        ..FrontierConfig::default()
    };
    let tel = Telemetry::disabled();

    let mut group = c.benchmark_group("lp_warm_frontier");
    group.bench_function(BenchmarkId::from_parameter("cold"), |b| {
        b.iter(|| {
            let mut solver = ModelerSolver::new(&m, 200_000).with_warm(false);
            black_box(explore(&mut solver, &fcfg, &tel).expect("explore").points.len())
        })
    });
    group.bench_function(BenchmarkId::from_parameter("warm"), |b| {
        b.iter(|| {
            let mut solver = ModelerSolver::new(&m, 200_000);
            black_box(explore(&mut solver, &fcfg, &tel).expect("explore").points.len())
        })
    });
    group.finish();
}

criterion_group!(benches, lp_warm_sweep, lp_warm_frontier);
criterion_main!(benches);
