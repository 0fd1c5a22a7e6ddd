//! Acceptance gate for the elastic roster layer: a full-size sweep of 256
//! seeded elastic+fault schedules passes all nine auditor invariants, is
//! reproducible across planning thread counts {1, 4, 8} for three master
//! seeds, and the combined shrinker emits a stable one-line reproducer.

use pareto_cluster::{FaultPlan, NodeSpec, SimCluster};
use pareto_core::framework::{FrameworkConfig, Strategy};
use pareto_core::{
    advise_join, run_chaos, shrink_combined_schedule, ChaosConfig, ChaosReport, ElasticPlan,
    ElasticSpec, ParetoModeler, PlanSession, RecoveryConfig,
};
use pareto_datagen::Dataset;
use pareto_telemetry::Telemetry;
use pareto_workloads::WorkloadKind;

fn setup(threads: usize) -> (SimCluster, Dataset, FrameworkConfig) {
    let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 2017));
    let dataset = pareto_datagen::rcv1_syn(5, 0.04);
    let cfg = FrameworkConfig {
        strategy: Strategy::HetAware,
        threads,
        ..FrameworkConfig::default()
    };
    (cluster, dataset, cfg)
}

fn sweep(threads: usize, chaos: &ChaosConfig) -> ChaosReport {
    let (cluster, dataset, cfg) = setup(threads);
    run_chaos(
        &cluster,
        &dataset,
        WorkloadKind::FrequentPatterns { support: 0.15 },
        &cfg,
        chaos,
        &Telemetry::disabled(),
    )
    .expect("elastic chaos sweep plans cleanly")
}

fn elastic_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        schedules: 256,
        seed,
        elastic: Some(ElasticSpec::default()),
        ..ChaosConfig::default()
    }
}

/// The issue's acceptance number: 256 seeded elastic schedules composed
/// with the storage fault mix, zero auditor violations, and the sweep
/// report is identical across thread counts {1, 4, 8} for three master
/// seeds (planning is the only threaded stage; the roster simulation and
/// audit must not observe it).
#[test]
fn elastic_sweep_clean_and_identical_across_thread_counts() {
    for seed in [2017u64, 42, 0xC0FFEE] {
        let chaos = elastic_chaos(seed);
        let serial = sweep(1, &chaos);
        assert_eq!(serial.schedules_run, 256, "seed {seed}");
        assert!(
            serial.is_clean(),
            "seed {seed}: elastic sweep must be clean; failures: {:?}",
            serial
                .failures
                .iter()
                .map(|f| (&f.spec, &f.minimal_spec))
                .collect::<Vec<_>>()
        );
        // Nine invariants over 256 schedules produce far more checks than
        // the fault-only floor; a shrunken count means sections were
        // skipped.
        assert!(
            serial.checks > 256 * 12,
            "seed {seed}: suspiciously few checks: {}",
            serial.checks
        );
        for threads in [4usize, 8] {
            let par = sweep(threads, &chaos);
            assert_eq!(
                par.schedules_run, serial.schedules_run,
                "seed {seed}, threads {threads}"
            );
            assert!(par.is_clean(), "seed {seed}, threads {threads}");
            assert_eq!(
                par.checks, serial.checks,
                "seed {seed}, threads {threads}: check counts diverged — \
                 the audit saw different plans or outcomes"
            );
        }
    }
}

/// Composing elastic churn must not perturb the fault half of the sweep:
/// a zero-probability elastic spec draws only empty roster plans, so the
/// sweep report is exactly the fault-only report (disjoint draw indices,
/// identical audit path), and the real default-spec sweep is itself
/// reproducible run to run.
#[test]
fn elastic_composition_leaves_fault_only_sweeps_untouched() {
    let fault_only = ChaosConfig {
        schedules: 64,
        seed: 2017,
        elastic: None,
        ..ChaosConfig::default()
    };
    let a = sweep(1, &fault_only);
    let b = sweep(1, &fault_only);
    assert_eq!(a.checks, b.checks, "fault-only sweep must be reproducible");
    assert!(a.is_clean() && b.is_clean());

    // Elasticity at probability zero is byte-for-byte a fault-only sweep.
    let inert = sweep(
        1,
        &ChaosConfig {
            elastic: Some(ElasticSpec {
                join_prob: 0.0,
                drain_prob: 0.0,
                preempt_prob: 0.0,
                ..ElasticSpec::default()
            }),
            ..fault_only.clone()
        },
    );
    assert!(inert.is_clean());
    assert_eq!(
        inert.checks, a.checks,
        "zero-probability elasticity must not change a single audit check"
    );

    let composed = ChaosConfig {
        elastic: Some(ElasticSpec::default()),
        ..fault_only
    };
    let c1 = sweep(1, &composed);
    let c2 = sweep(1, &composed);
    assert!(c1.is_clean() && c2.is_clean());
    assert_eq!(c1.checks, c2.checks, "composed sweep must be reproducible");
}

/// The combined shrinker reduces a fault+elastic conjunction to exactly
/// the culpable events from each half, in one stable one-line spec.
#[test]
fn combined_shrinker_isolates_culprits_from_both_halves() {
    let faults = FaultPlan::new()
        .with_straggler(0, 3.0)
        .with_crash(2, 40.0)
        .with_store_errors(1, 2);
    let elastic = ElasticPlan::new()
        .with_join(3, 10.0)
        .with_drain(1, 35.0)
        .with_preempt(2, 80.0, 5.0);
    // Failure requires BOTH the crash on 2 and the drain on 1.
    let needs_both = |f: &FaultPlan, e: &ElasticPlan| {
        f.crash_time(2).is_some() && e.drain_time(1).is_some()
    };
    let (min_f, min_e) = shrink_combined_schedule(&faults, &elastic, needs_both);
    assert_eq!(min_f.to_spec(), "crash:2@40");
    assert_eq!(min_e.to_spec(), "drain:1@35");
    // Fixpoint: shrinking the minimum again changes nothing.
    let (again_f, again_e) = shrink_combined_schedule(&min_f, &min_e, needs_both);
    assert_eq!(again_f.to_spec(), min_f.to_spec());
    assert_eq!(again_e.to_spec(), min_e.to_spec());
}

/// The autoscaling advisor is deterministic and self-consistent: the same
/// inputs give bit-identical advice, the joined roster's makespan comes
/// from a real LP re-solve, and the verdict agrees with the payoff sign.
#[test]
fn join_advice_is_deterministic_and_self_consistent() {
    let (cluster, dataset, cfg) = setup(1);
    let items = dataset.len();
    let mut session = PlanSession::new(&cluster, cfg, dataset, WorkloadKind::FrequentPatterns {
        support: 0.15,
    });
    let cold = session.plan().expect("cold plan");
    let models = cold.time_models.as_ref().expect("het-aware fits models");
    let fits: Vec<_> = models.iter().map(|m| m.fit).collect();
    let modeler = ParetoModeler::new(fits, cold.energy_profiles.clone()).expect("aligned models");

    session.drop_node(3).expect("drop candidate");
    let roster: Vec<usize> = session.roster().to_vec();
    let a = advise_join(&cluster, &modeler, &roster, 3, items, 512, 1.0).expect("advice");
    let b = advise_join(&cluster, &modeler, &roster, 3, items, 512, 1.0).expect("advice");
    assert_eq!(a.candidate, 3);
    assert_eq!(a.roster, roster);
    assert_eq!(
        a.payoff_s.to_bits(),
        b.payoff_s.to_bits(),
        "advice must be bit-identical across calls"
    );
    assert_eq!(a.joined_makespan_s.to_bits(), b.joined_makespan_s.to_bits());
    assert!(a.current_makespan_s.is_finite() && a.current_makespan_s > 0.0);
    assert!(a.joined_makespan_s.is_finite() && a.joined_makespan_s > 0.0);
    // payoff = current − joined; the migration toll is already inside the
    // joined makespan (the candidate's LP intercept is offset by it), and
    // the verdict is the payoff's sign.
    let recomputed = a.current_makespan_s - a.joined_makespan_s;
    assert!(
        (a.payoff_s - recomputed).abs() < 1e-9,
        "payoff must decompose: {} vs {}",
        a.payoff_s,
        recomputed
    );
    assert_eq!(a.worthwhile, a.payoff_s > 1e-9);
    // Migration accounting follows the candidate's LP share.
    assert_eq!(a.migration_bytes, a.migration_items as u64 * 512);

    // Restoring the node and replanning reproduces the cold partition —
    // the advisor never mutates session state.
    session.restore_node(3).expect("restore candidate");
    let warm = session.plan().expect("warm plan");
    assert_eq!(warm.partitions, cold.partitions);
}

/// A drain mid-job hands off the in-flight stratum with exactly-once
/// bookkeeping, and the handoff records survive a full recovery audit —
/// the single-scenario version of the sweep, kept readable for debugging.
#[test]
fn single_drain_schedule_audits_clean_with_handoffs() {
    use pareto_core::framework::Framework;
    use pareto_core::{audit_elastic_run, FaultRunOutcome};

    let (cluster, dataset, cfg) = setup(1);
    let fw = Framework::new(&cluster, cfg);
    let wl = WorkloadKind::FrequentPatterns { support: 0.15 };
    let clean: FaultRunOutcome = fw
        .try_run_with_elastic(
            &dataset,
            wl,
            &FaultPlan::none(),
            &ElasticPlan::none(),
            &RecoveryConfig::default(),
        )
        .expect("clean run");
    let t = clean.outcome.recovery.makespan_s * 0.4;
    let elastic = ElasticPlan::new().with_drain(1, t);

    let run = fw
        .try_run_with_elastic(
            &dataset,
            wl,
            &FaultPlan::none(),
            &elastic,
            &RecoveryConfig::default(),
        )
        .expect("drained run");
    let rec = &run.outcome.recovery;
    assert!(rec.exactly_once, "drain must preserve exactly-once: {rec:?}");
    assert_eq!(rec.left_nodes, vec![1], "node 1 must leave at {t}s");
    assert!(
        rec.handoff_records >= 1 && rec.items_handed_off >= 1,
        "a mid-job drain must hand off in-flight work: {rec:?}"
    );
    let report = audit_elastic_run(&FaultPlan::none(), &elastic, &run.plan, &run.outcome);
    assert!(
        report.is_clean(),
        "drain run must satisfy all nine invariants: {:?}",
        report.violations
    );
}
