//! Acceptance gate for LP warm-starting: every layer that re-seeds a
//! previous optimal basis (α sweeps through a warm [`PlanSession`],
//! frontier exploration, fault-time replans) must produce bit-identical
//! results to the cold path — warm-starting is an optimization, never an
//! oracle — while measurably reducing total simplex pivots, observed
//! through the inert `pareto_lp_*` counters.

use std::sync::Arc;

use pareto_cluster::{FaultPlan, NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Plan, Strategy};
use pareto_core::{PlanSession, RecoveryConfig};
use pareto_datagen::Dataset;
use pareto_telemetry::{metrics, Telemetry};
use pareto_workloads::WorkloadKind;

const WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.15 };
const THREADS: [usize; 3] = [1, 4, 8];
const SEEDS: [u64; 3] = [11, 31, 2017];
const SWEEP: [f64; 6] = [1.0, 0.999, 0.995, 0.9, 0.5, 0.0];

fn cluster(seed: u64) -> SimCluster {
    SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed))
}

fn dataset(seed: u64) -> Dataset {
    pareto_datagen::rcv1_syn(seed, 0.04)
}

fn cfg(seed: u64, threads: usize, lp_warm: bool) -> FrameworkConfig {
    FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
        seed,
        threads,
        lp_warm,
        ..FrameworkConfig::default()
    }
}

/// Bitwise comparison of everything the LP decides.
fn assert_lp_outputs_identical(a: &Plan, b: &Plan, ctx: &str) {
    assert_eq!(a.sizes, b.sizes, "{ctx}: sizes diverged");
    assert_eq!(a.partitions, b.partitions, "{ctx}: placement diverged");
    match (&a.pareto, &b.pareto) {
        (Some(pa), Some(pb)) => {
            assert_eq!(pa.alpha.to_bits(), pb.alpha.to_bits(), "{ctx}: alpha");
            assert_eq!(pa.sizes, pb.sizes, "{ctx}: LP integer sizes");
            let fa: Vec<u64> = pa.fractional_sizes.iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u64> = pb.fractional_sizes.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fa, fb, "{ctx}: LP fractional sizes");
            assert_eq!(
                pa.predicted_makespan.to_bits(),
                pb.predicted_makespan.to_bits(),
                "{ctx}: predicted makespan"
            );
            assert_eq!(
                pa.predicted_dirty_joules.to_bits(),
                pb.predicted_dirty_joules.to_bits(),
                "{ctx}: predicted dirty energy"
            );
        }
        (None, None) => {}
        _ => panic!("{ctx}: pareto point presence diverged"),
    }
}

fn counter(tel: &Telemetry, name: &str, labels: &[(&str, &str)]) -> u64 {
    tel.snapshot()
        .metrics
        .counters
        .get(&metrics::MetricKey::new(name, labels))
        .copied()
        .unwrap_or(0)
}

fn total_pivots(tel: &Telemetry) -> u64 {
    counter(tel, metrics::LP_PIVOTS_TOTAL, &[("start", "cold")])
        + counter(tel, metrics::LP_PIVOTS_TOTAL, &[("start", "warm")])
}

/// Run a full α sweep through one warm session and return the plans.
fn sweep(seed: u64, threads: usize, lp_warm: bool, tel: Arc<Telemetry>) -> Vec<Plan> {
    let cl = cluster(seed);
    let mut session =
        PlanSession::new(&cl, cfg(seed, threads, lp_warm), dataset(seed), WORKLOAD)
            .with_telemetry(tel);
    SWEEP
        .iter()
        .map(|&alpha| {
            session.set_alpha(alpha);
            session.plan().expect("sweep plan")
        })
        .collect()
}

/// The tentpole contract, end to end: a warm α sweep is bit-identical to
/// a cold one at every thread count and seed.
#[test]
fn warm_sweep_is_bit_identical_to_cold_sweep() {
    for &seed in &SEEDS {
        for &threads in &THREADS {
            let warm = sweep(seed, threads, true, Telemetry::disabled());
            let cold = sweep(seed, threads, false, Telemetry::disabled());
            assert_eq!(warm.len(), cold.len());
            for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
                let ctx = format!("seed {seed}, threads {threads}, sweep step {i}");
                assert_lp_outputs_identical(w, c, &ctx);
            }
        }
    }
}

/// The warm sweep actually warm-starts (counters move) and spends fewer
/// total simplex pivots than the cold sweep over the same α schedule.
#[test]
fn warm_sweep_saves_pivots_over_cold_sweep() {
    let tel_warm = Telemetry::enabled();
    let tel_cold = Telemetry::enabled();
    sweep(2017, 1, true, tel_warm.clone());
    sweep(2017, 1, false, tel_cold.clone());

    let warm_hits = counter(&tel_warm, metrics::LP_SOLVES_TOTAL, &[("start", "warm")]);
    assert!(warm_hits > 0, "warm sweep never accepted a warm basis");
    assert_eq!(
        counter(&tel_cold, metrics::LP_SOLVES_TOTAL, &[("start", "warm")]),
        0,
        "cold sweep must not warm-start"
    );
    // Same amount of LP work in solve count either way.
    let solves = |tel: &Telemetry| {
        counter(tel, metrics::LP_SOLVES_TOTAL, &[("start", "cold")])
            + counter(tel, metrics::LP_SOLVES_TOTAL, &[("start", "warm")])
    };
    assert_eq!(solves(&tel_warm), solves(&tel_cold), "solve counts diverged");
    assert!(
        total_pivots(&tel_warm) < total_pivots(&tel_cold),
        "warm sweep spent {} pivots, cold {}",
        total_pivots(&tel_warm),
        total_pivots(&tel_cold)
    );
}

/// Fault-time replans warm-start from the pre-fault basis; the recovery
/// report must be bit-identical with warm-starting on and off.
#[test]
fn faulted_run_is_bit_identical_with_warm_replans() {
    for &seed in &SEEDS {
        let run = |lp_warm: bool| {
            let cl = cluster(seed);
            let fw = Framework::new(&cl, cfg(seed, 1, lp_warm));
            let ds = dataset(seed);
            // Crash node 1 early enough that real replanning happens.
            let clean = fw
                .try_run_with_faults(&ds, WORKLOAD, &FaultPlan::none(), &RecoveryConfig::default())
                .expect("non-empty dataset, valid config");
            let tc = clean.outcome.recovery.makespan_s * 0.4;
            let faults = FaultPlan::new().with_crash(1, tc);
            fw
                .try_run_with_faults(&ds, WORKLOAD, &faults, &RecoveryConfig::default())
                .expect("non-empty dataset, valid config")
        };
        let warm = run(true);
        let cold = run(false);
        let ctx = format!("seed {seed}");
        assert_eq!(
            warm.outcome.recovery, cold.outcome.recovery,
            "{ctx}: recovery reports diverged"
        );
        assert_eq!(
            warm.outcome.recovery.makespan_s.to_bits(),
            cold.outcome.recovery.makespan_s.to_bits(),
            "{ctx}: makespan bits diverged"
        );
        assert_eq!(
            warm.outcome.completed_by, cold.outcome.completed_by,
            "{ctx}: item placement diverged"
        );
        assert_lp_outputs_identical(&warm.plan, &cold.plan, &ctx);
    }
}

/// The inert-counter contract for the new LP counters: attaching an
/// enabled recorder never changes the sweep, and the counters land in the
/// snapshot with their documented names and labels.
#[test]
fn lp_counters_are_inert_and_present() {
    let off = sweep(31, 1, true, Telemetry::disabled());
    let tel = Telemetry::enabled();
    let on = sweep(31, 1, true, tel.clone());
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_lp_outputs_identical(a, b, &format!("telemetry on/off, step {i}"));
    }
    let snap = tel.snapshot();
    let names: Vec<&str> = snap.metrics.counters.keys().map(|k| k.name.as_str()).collect();
    assert!(
        names.contains(&metrics::LP_SOLVES_TOTAL),
        "missing {} in {names:?}",
        metrics::LP_SOLVES_TOTAL
    );
    assert!(
        names.contains(&metrics::LP_PIVOTS_TOTAL),
        "missing {} in {names:?}",
        metrics::LP_PIVOTS_TOTAL
    );
    // Fallbacks may legitimately be zero on this workload; when present
    // the counter must use the documented name.
    for key in snap.metrics.counters.keys() {
        if key.name == metrics::LP_WARM_FALLBACKS_TOTAL {
            assert!(key.labels.is_empty(), "fallback counter must be unlabelled");
        }
    }
}
