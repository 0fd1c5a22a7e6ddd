//! Golden pins for the cold-plan data plane (sketch → stratify → profile).
//!
//! Every other identity suite compares the system with itself (thread
//! count vs thread count, warm vs cold, telemetry on vs off), so a kernel
//! that is wrong the same way everywhere would pass them all. The digests
//! below were recorded from the `HashMap` kModes / per-signature `Vec` /
//! per-transaction candidate scan implementation *before* it was replaced
//! by the flat-array kernels, and pin what those kernels must reproduce
//! bit for bit: the stratum assignment, the iteration count, the
//! progressive-sampling `(size, ops)` measurements, and the plan sizes.
//!
//! On any mismatch the test prints the full observed table in the form of
//! the `GOLDEN` constant, so an *intentional* change (a new RNG stream, a
//! different generator) can be re-pinned by pasting it.

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::estimator::HeterogeneityEstimator;
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::partitioner::PartitionLayout;
use pareto_core::session::PlanSession;
use pareto_datagen::Dataset;
use pareto_integration_tests::{digest, thread_counts};
use pareto_workloads::WorkloadKind;

const SEEDS: [u64; 3] = [11, 31, 2017];

/// One pinned planning outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    assignments: u64,
    iterations: usize,
    measure: u64,
    sizes: u64,
}

/// `(dataset, seed)` → pin, in `domains()` × `SEEDS` order.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, Pin)] = &[
    ("rcv1_syn", 11, Pin { assignments: 0x348bdd690803c363, iterations: 13, measure: 0x7b0b07e91f5e7807, sizes: 0x04541206c4cc479a }),
    ("rcv1_syn", 31, Pin { assignments: 0x51db000037cdeaa6, iterations: 7, measure: 0x4d545217547358cf, sizes: 0x687938cf34f9b6f1 }),
    ("rcv1_syn", 2017, Pin { assignments: 0xf4b62093401c2984, iterations: 8, measure: 0x7688c9e3c1908299, sizes: 0xb0d397f12e60f86d }),
    ("treebank_syn", 11, Pin { assignments: 0x9f904b816f9a764d, iterations: 6, measure: 0xc17362adaa983e22, sizes: 0x1f78dd1bf284a213 }),
    ("treebank_syn", 31, Pin { assignments: 0x9ecb95bdd8ee1723, iterations: 4, measure: 0x6173b663065b8102, sizes: 0xa61bd3bdad72a14f }),
    ("treebank_syn", 2017, Pin { assignments: 0xafda0544484a4144, iterations: 4, measure: 0xcb200c6b2349f89e, sizes: 0xa61bd3bdad72a14f }),
    ("uk_syn", 11, Pin { assignments: 0x08592f958a58a9a4, iterations: 13, measure: 0x6252c7bc9d1f41bb, sizes: 0x72fc58edc91355cc }),
    ("uk_syn", 31, Pin { assignments: 0x6d75896b8d0099a8, iterations: 10, measure: 0xfda60b114b4ed12f, sizes: 0x2178e721d3d40b22 }),
    ("uk_syn", 2017, Pin { assignments: 0xb7588aa0bc7e54a4, iterations: 20, measure: 0xfc9ea72b3be02b62, sizes: 0x132c5fc2e0772ac4 }),
];

type Domain = (
    &'static str,
    fn(u64) -> Dataset,
    WorkloadKind,
    PartitionLayout,
);

fn domains() -> [Domain; 3] {
    [
        (
            "rcv1_syn",
            |seed| pareto_datagen::rcv1_syn(seed, 0.08),
            WorkloadKind::FrequentPatterns { support: 0.1 },
            PartitionLayout::Representative,
        ),
        (
            "treebank_syn",
            |seed| pareto_datagen::treebank_syn(seed, 0.12),
            WorkloadKind::FrequentPatterns { support: 0.05 },
            PartitionLayout::Representative,
        ),
        (
            "uk_syn",
            |seed| pareto_datagen::uk_syn(seed, 0.06),
            WorkloadKind::FrequentPatterns { support: 0.2 },
            PartitionLayout::SimilarTogether,
        ),
    ]
}

fn observe(
    ds: &Dataset,
    workload: WorkloadKind,
    layout: PartitionLayout,
    seed: u64,
    threads: usize,
) -> Pin {
    let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    let cfg = FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
        layout,
        seed,
        threads,
        ..FrameworkConfig::default()
    };
    let plan = Framework::new(&cluster, cfg.clone())
        .try_plan(ds, workload)
        .expect("non-empty dataset");
    let (measurements, _) = HeterogeneityEstimator::new(&cluster, cfg.sampling, seed)
        .with_threads(threads)
        .measure(ds, &plan.stratification, workload);
    Pin {
        assignments: digest(plan.stratification.assignments.iter().map(|&c| c as u64)),
        iterations: plan.stratification.iterations,
        measure: digest(
            measurements
                .iter()
                .flat_map(|&(size, ops)| [size as u64, ops]),
        ),
        sizes: digest(plan.sizes.iter().map(|&s| s as u64)),
    }
}

#[test]
fn plans_match_the_pins_recorded_before_the_kernel_rewrite() {
    let mut observed = Vec::new();
    for (name, generate, workload, layout) in domains() {
        for seed in SEEDS {
            let ds = generate(seed);
            let serial = observe(&ds, workload, layout, seed, 1);
            for &threads in &thread_counts()[1..] {
                assert_eq!(
                    serial,
                    observe(&ds, workload, layout, seed, threads),
                    "{name} seed {seed}: threads {threads} diverged from serial"
                );
            }
            observed.push((name, seed, serial));
        }
    }
    if observed != GOLDEN {
        let table: String = observed
            .iter()
            .map(|(name, seed, p)| {
                format!(
                    "    ({name:?}, {seed}, Pin {{ assignments: {:#018x}, iterations: {}, \
                     measure: {:#018x}, sizes: {:#018x} }}),\n",
                    p.assignments, p.iterations, p.measure, p.sizes
                )
            })
            .collect();
        panic!("golden plan pins diverged; observed:\n{table}");
    }
}

/// One pinned planning outcome at the benchmark's cold-plan scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BenchPin {
    measure: u64,
    sizes: u64,
}

/// Corpus seed → pin, in `BENCH_SEEDS` order. Recorded before the
/// count-only Apriori level loop.
#[rustfmt::skip]
const GOLDEN_BENCH: &[(u64, BenchPin)] = &[
    (7, BenchPin { measure: 0xd5e89eee7f53e64f, sizes: 0xa7edc0b1971952c4 }),
    (11, BenchPin { measure: 0x5a611187781300a7, sizes: 0x2032ae4e24df0e86 }),
    (31, BenchPin { measure: 0xded4260b48f53f84, sizes: 0x912609970c09f944 }),
    (2017, BenchPin { measure: 0xc407962698d6735c, sizes: 0x39b80c457d33c363 }),
];

const BENCH_SEEDS: [u64; 4] = [7, 11, 31, 2017];

/// `benchmark/`'s `plan_cold` op: a `rcv1_syn` corpus of 625 documents
/// (scale 0.125) at support 0.1, planned with the default sampling plan
/// on the 8-node paper cluster. The rows above stop at scale 0.12 and
/// half that cluster, so this is the configuration every cold plan of
/// the wall-clock benchmark runs.
fn observe_bench(seed: u64, threads: usize) -> BenchPin {
    const CONFIG_SEED: u64 = 2017;
    let cluster = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, CONFIG_SEED));
    let cfg = FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
        seed: CONFIG_SEED,
        threads,
        ..FrameworkConfig::default()
    };
    let workload = WorkloadKind::FrequentPatterns { support: 0.1 };
    let ds = pareto_datagen::rcv1_syn(seed, 0.125);
    assert_eq!(ds.len(), 625);
    let plan = Framework::new(&cluster, cfg.clone())
        .try_plan(&ds, workload)
        .expect("non-empty dataset");
    let (measurements, _) = HeterogeneityEstimator::new(&cluster, cfg.sampling, CONFIG_SEED)
        .with_threads(threads)
        .measure(&ds, &plan.stratification, workload);
    BenchPin {
        measure: digest(
            measurements
                .iter()
                .flat_map(|&(size, ops)| [size as u64, ops]),
        ),
        sizes: digest(plan.sizes.iter().map(|&s| s as u64)),
    }
}

#[test]
fn bench_scale_plans_match_their_pins() {
    let mut observed = Vec::new();
    for seed in BENCH_SEEDS {
        let serial = observe_bench(seed, 1);
        for &threads in &thread_counts()[1..] {
            assert_eq!(
                serial,
                observe_bench(seed, threads),
                "seed {seed}: threads {threads} diverged from serial"
            );
        }
        observed.push((seed, serial));
    }
    if observed != GOLDEN_BENCH {
        let table: String = observed
            .iter()
            .map(|(seed, p)| {
                format!(
                    "    ({seed}, BenchPin {{ measure: {:#018x}, sizes: {:#018x} }}),\n",
                    p.measure, p.sizes
                )
            })
            .collect();
        panic!("golden bench-scale pins diverged; observed:\n{table}");
    }
}

/// One pinned post-append planning outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AppendPin {
    assignments: u64,
    iterations: usize,
    sizes: u64,
}

/// `seed` → pin of the plan that follows an append, in `SEEDS` order.
/// Recorded at the commit before the delta kModes loop.
#[rustfmt::skip]
const GOLDEN_APPEND: &[(u64, AppendPin)] = &[
    (11, AppendPin { assignments: 0xf1668c93d971a827, iterations: 14, sizes: 0x858e20d8e133ed0e }),
    (31, AppendPin { assignments: 0x70ee8c730b3f7a4b, iterations: 15, sizes: 0x3e4ab03d3a66cf5f }),
    (2017, AppendPin { assignments: 0x135f1ddf025123e1, iterations: 12, sizes: 0x99e7c3d53ba5d788 }),
];

/// The daemon's `Replan{append 4}`: a session that has planned its
/// `rcv1_syn` corpus gets 40 more records (`rcv1_syn(salt, 0.002 · 4)`)
/// and plans again — `sketch_append` over the cached prefix, then a full
/// re-stratify of the grown matrix. `incremental` compares this path warm
/// against cold, i.e. the kernel with itself; this pins it.
fn observe_append(seed: u64, threads: usize) -> AppendPin {
    let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    let cfg = FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
        seed,
        threads,
        ..FrameworkConfig::default()
    };
    let workload = WorkloadKind::FrequentPatterns { support: 0.1 };
    let base = pareto_datagen::rcv1_syn(seed, 0.08);
    let mut session = PlanSession::new(&cluster, cfg, base, workload);
    session.plan().expect("non-empty dataset");
    let extra = pareto_datagen::rcv1_syn(seed ^ 0x00A1_1E4D, 0.008).items;
    assert_eq!(extra.len(), 40);
    session.append_items(extra);
    let plan = session.plan().expect("non-empty dataset");
    let reuse = session.last_reuse();
    assert!(
        !reuse.sketch && !reuse.stratify,
        "an append must re-stratify"
    );
    AppendPin {
        assignments: digest(plan.stratification.assignments.iter().map(|&c| c as u64)),
        iterations: plan.stratification.iterations,
        sizes: digest(plan.sizes.iter().map(|&s| s as u64)),
    }
}

#[test]
fn post_append_plans_match_the_pins_recorded_before_the_delta_loop() {
    let mut observed = Vec::new();
    for seed in SEEDS {
        let serial = observe_append(seed, 1);
        for &threads in &thread_counts()[1..] {
            assert_eq!(
                serial,
                observe_append(seed, threads),
                "seed {seed}: threads {threads} diverged from serial"
            );
        }
        observed.push((seed, serial));
    }
    if observed != GOLDEN_APPEND {
        let table: String = observed
            .iter()
            .map(|(seed, p)| {
                format!(
                    "    ({seed}, AppendPin {{ assignments: {:#018x}, iterations: {}, \
                     sizes: {:#018x} }}),\n",
                    p.assignments, p.iterations, p.sizes
                )
            })
            .collect();
        panic!("golden append pins diverged; observed:\n{table}");
    }
}
