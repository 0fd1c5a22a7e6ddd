//! Acceptance gate for the chaos-search harness: a full-size sweep of 256
//! seeded fault schedules passes every invariant on main, and a known-bad
//! injected schedule both fails the auditor and shrinks to the same
//! minimal reproducing `--faults` spec on every run.

use pareto_cluster::{FaultPlan, NodeSpec, SimCluster};
use pareto_core::framework::{FrameworkConfig, Strategy};
use pareto_core::{run_chaos, shrink_schedule, ChaosConfig, ChaosReport, Invariant};
use pareto_datagen::Dataset;
use pareto_telemetry::Telemetry;
use pareto_workloads::WorkloadKind;

fn setup() -> (SimCluster, Dataset, FrameworkConfig) {
    let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 2017));
    let dataset = pareto_datagen::rcv1_syn(5, 0.04);
    let cfg = FrameworkConfig {
        strategy: Strategy::HetAware,
        ..FrameworkConfig::default()
    };
    (cluster, dataset, cfg)
}

fn sweep(chaos: &ChaosConfig) -> ChaosReport {
    let (cluster, dataset, cfg) = setup();
    run_chaos(
        &cluster,
        &dataset,
        WorkloadKind::FrequentPatterns { support: 0.15 },
        &cfg,
        chaos,
        &Telemetry::disabled(),
    )
    .expect("chaos sweep plans cleanly")
}

/// The issue's headline number: 256 seeded schedules, zero violations on
/// main, in CI-feasible time.
#[test]
fn two_hundred_fifty_six_schedules_are_clean() {
    let report = sweep(&ChaosConfig {
        schedules: 256,
        seed: 2017,
        ..ChaosConfig::default()
    });
    assert_eq!(report.schedules_run, 256);
    assert!(
        report.is_clean(),
        "main must survive every schedule; failures: {:?}",
        report
            .failures
            .iter()
            .map(|f| (&f.spec, &f.minimal_spec))
            .collect::<Vec<_>>()
    );
    // Every schedule contributes many individual invariant checks — an
    // empty sweep passing vacuously would be a harness bug.
    assert!(
        report.checks > 256 * 10,
        "suspiciously few checks: {}",
        report.checks
    );
}

/// A different master seed explores different schedules and is also clean
/// (the 2017 sweep is not a lucky constant).
#[test]
fn alternate_seed_sweep_is_clean() {
    let report = sweep(&ChaosConfig {
        schedules: 64,
        seed: 0xC0FFEE,
        ..ChaosConfig::default()
    });
    assert_eq!(report.schedules_run, 64);
    assert!(report.is_clean(), "failures: {:?}", report.failures.len());
}

/// The known-bad schedule: the auditor must catch the planted silent
/// corruption, and the greedy shrinker must reduce it to the identical
/// one-event spec string on repeated runs — the CI diffing contract.
#[test]
fn injected_corruption_shrinks_to_a_stable_minimal_spec() {
    let chaos = ChaosConfig {
        schedules: 16,
        seed: 2017,
        inject_corruption: true,
        ..ChaosConfig::default()
    };
    let a = sweep(&chaos);
    let b = sweep(&chaos);
    assert!(!a.is_clean(), "planted corruption must be caught");
    assert_eq!(a.failures.len(), 1, "only the planted schedule may fail");
    let failure = &a.failures[0];
    assert!(
        failure
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::WalRecovery),
        "the violation must be a WAL-recovery divergence: {:?}",
        failure.violations
    );
    assert_eq!(
        failure.minimal.len(),
        1,
        "shrinker must strip all compute noise: {}",
        failure.minimal_spec
    );
    assert!(
        failure.minimal_spec.starts_with("rot:0@"),
        "minimal reproducer must be the planted bit-rot: {}",
        failure.minimal_spec
    );
    assert_eq!(
        a.failures[0].minimal_spec, b.failures[0].minimal_spec,
        "minimal spec must be byte-identical across runs"
    );
    // The printed reproducer round-trips through the `--faults` grammar.
    let reparsed = FaultPlan::parse(&failure.minimal_spec, 4).expect("spec parses");
    assert_eq!(reparsed.to_spec(), failure.minimal_spec);
}

/// Shrinking is deterministic and order-stable: when failure needs two
/// specific events, everything else disappears and the survivors keep
/// their relative order.
#[test]
fn shrinker_keeps_a_minimal_conjunction_in_order() {
    let plan = FaultPlan::new()
        .with_straggler(0, 3.0)
        .with_torn_write(1, 7)
        .with_crash(2, 4.0)
        .with_snapshot_loss(3)
        .with_store_errors(0, 2);
    // Failure requires BOTH the torn write on 1 and the snapshot loss on 3.
    let needs_both = |p: &FaultPlan| p.torn_write(1).is_some() && p.snapshot_lost(3);
    let minimal = shrink_schedule(&plan, needs_both);
    assert_eq!(minimal.len(), 2, "minimal: {}", minimal.to_spec());
    assert_eq!(minimal.to_spec(), "torn:1@7, snaploss:3");
    // Fixpoint: shrinking the minimal plan changes nothing.
    let again = shrink_schedule(&minimal, needs_both);
    assert_eq!(again.to_spec(), minimal.to_spec());
}
