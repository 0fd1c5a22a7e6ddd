//! Acceptance gate for the energy-attribution ledger: the per-(node,
//! stage, stratum) rows the recorder collects during a run must
//! reconcile — busy seconds, total draw, and paper-linear dirty joules,
//! each within 0.1% relative — against the plan-level `NodeRun`
//! accounting the LP objective prices. Checked on a clean run, a
//! crash-recovery run, and an elastic join/drain run, so every busy-time
//! producer (exec, transfers, retries, handoffs, steals) is covered.

use std::sync::Arc;

use pareto_cluster::{FaultPlan, NodeSpec, SimCluster};
use pareto_core::framework::{FaultRunOutcome, Framework, FrameworkConfig, Strategy};
use pareto_core::RecoveryConfig;
use pareto_telemetry::ledger::{reconcile, ReferenceTotal};
use pareto_telemetry::Telemetry;
use pareto_workloads::WorkloadKind;

/// The reconciliation tolerance the issue fixes: 0.1% relative.
const REL_TOL: f64 = 1e-3;

/// Run the workload with the recorder attached and return the cluster
/// (needed for attribution), the outcome, and the recorder.
fn traced_run(seed: u64, faults: &FaultPlan) -> (SimCluster, FaultRunOutcome, Arc<Telemetry>) {
    let ds = pareto_datagen::rcv1_syn(seed, 0.06);
    let tel = Telemetry::enabled();
    let cl =
        SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed)).with_telemetry(tel.clone());
    let cfg = FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
        seed,
        threads: 1,
        ..FrameworkConfig::default()
    };
    let out = {
        let fw = Framework::new(&cl, cfg).with_telemetry(tel.clone());
        fw.try_run_with_faults(
            &ds,
            WorkloadKind::FrequentPatterns { support: 0.15 },
            faults,
            &RecoveryConfig::default(),
        )
        .expect("run completes")
    };
    (cl, out, tel)
}

/// Attribute the recorded intervals and reconcile them against the run's
/// `NodeRun` totals; panics with the mismatch list on failure.
fn assert_reconciles(cl: &SimCluster, out: &FaultRunOutcome, tel: &Telemetry, ctx: &str) {
    let snap = tel.snapshot();
    assert!(
        !snap.ledger.is_empty(),
        "{ctx}: no ledger intervals recorded"
    );
    let rows = cl.attribute_energy(&snap.ledger);
    let reference: Vec<ReferenceTotal> = out
        .outcome
        .report
        .runs
        .iter()
        .map(|r| ReferenceTotal {
            node: r.node_id,
            busy_s: r.seconds,
            energy_j: r.energy_joules,
            dirty_j: r.dirty_joules_linear,
        })
        .collect();
    let errors = reconcile(&rows, &reference, REL_TOL);
    assert!(
        errors.is_empty(),
        "{ctx}: ledger does not reconcile: {errors:#?}"
    );
    // The attribution genuinely split green off: the paper cluster starts
    // at hour 9, when the panels produce.
    assert!(
        rows.iter().any(|r| r.green_j > 0.0),
        "{ctx}: no green energy attributed anywhere"
    );
}

/// Clean run: only exec intervals, every node reconciles.
#[test]
fn clean_run_ledger_reconciles() {
    let (cl, out, tel) = traced_run(7, &FaultPlan::none());
    assert_reconciles(&cl, &out, &tel, "clean run");
}

/// Crash recovery: the dead node's burned busy time, the survivors'
/// redistribution transfers, and the re-executed items all attribute, and
/// still reconcile per node.
#[test]
fn crashed_run_ledger_reconciles() {
    let seed = 31u64;
    let (_, clean, _) = traced_run(seed, &FaultPlan::none());
    let tc = clean.outcome.recovery.makespan_s * 0.4;
    let faults = FaultPlan::new().with_crash(1, tc);
    let (cl, out, tel) = traced_run(seed, &faults);
    assert_eq!(out.outcome.recovery.crashed_nodes, vec![1]);
    assert_reconciles(&cl, &out, &tel, "crashed run");
    // The crash shows up as distinct ledger stages beyond plain exec.
    let stages: std::collections::BTreeSet<String> = cl
        .attribute_energy(&tel.snapshot().ledger)
        .iter()
        .map(|r| r.stage.clone())
        .collect();
    assert!(stages.contains("exec"), "stages: {stages:?}");
    assert!(stages.contains("redistribute"), "stages: {stages:?}");
}

/// Elastic churn: a mid-job drain (with its exactly-once handoff) and a
/// composed crash keep the ledger reconciled — handoff transfer time and
/// rescue re-execution are attributed to the nodes that paid for them.
#[test]
fn elastic_drain_ledger_reconciles() {
    let seed = 5u64;
    let (_, clean, _) = traced_run(seed, &FaultPlan::none());
    let t = clean.outcome.recovery.makespan_s * 0.4;
    let drain = FaultPlan::new().with_drain(1, t);
    let (cl, out, tel) = traced_run(seed, &drain);
    assert_eq!(out.outcome.recovery.left_nodes, vec![1]);
    assert_reconciles(&cl, &out, &tel, "drained run");

    let crash_and_drain = FaultPlan::new().with_crash(2, t * 1.2).with_drain(1, t);
    let (cl, out, tel) = traced_run(seed, &crash_and_drain);
    assert_reconciles(&cl, &out, &tel, "drain+crash run");
}
