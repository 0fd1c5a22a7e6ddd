//! Metamorphic relations for the recovery executor: properties a
//! [`RecoveryOutcome`] must satisfy that need no reference implementation.
//!
//! - (i) Faults that cannot act change nothing. An empty fault plan, a
//!   crash scheduled at twice the fault-free makespan and a straggler of
//!   factor 1.0 all reproduce the plain run: the same node completes each
//!   item at the same clock bits, the same items are reassigned in the same
//!   order, and makespan and dirty joules are bit-equal.
//! - (vi) Exactly once. Under every fault shape the benchmark's
//!   `run_resilient` workload rotates through, each item has exactly one
//!   `exec` span in the telemetry, on the node `completed_by` names. The
//!   count comes from the spans, not from the executor's own bookkeeping or
//!   `core::audit`, so an item executed twice shows even if the outcome
//!   records only its last completion.
//! - (vii) A steal never finishes after its victim would have. Under the
//!   same fault shapes, every `steal` instant's `thief_finish_s` (the
//!   thief's projected finish of the stolen half) is below its
//!   `victim_finish_s` (the victim's projected finish before the steal).
//!
//! The cases are web-graph runs on the 8-node paper cluster over three
//! `uk_syn` seeds, plus one `rcv1_syn` mining run.

use std::sync::Arc;

use pareto_cluster::{FaultPlan, NodeSpec, SimCluster};
use pareto_core::framework::{FaultRunOutcome, Framework, FrameworkConfig, Strategy};
use pareto_core::partitioner::PartitionLayout;
use pareto_core::{RecoveryConfig, RecoveryOutcome};
use pareto_datagen::Dataset;
use pareto_telemetry::{Telemetry, Track};
use pareto_workloads::WorkloadKind;

/// One job: a corpus, the workload run over it and the cluster size.
struct Case {
    name: String,
    data: Dataset,
    workload: WorkloadKind,
    nodes: usize,
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = [1u64, 2, 3]
        .into_iter()
        .map(|seed| Case {
            name: format!("uk_syn seed {seed}"),
            data: pareto_datagen::uk_syn(seed, 0.05),
            workload: WorkloadKind::WebGraph,
            nodes: 8,
        })
        .collect();
    cases.push(Case {
        name: "rcv1_syn seed 31".into(),
        data: pareto_datagen::rcv1_syn(31, 0.06),
        workload: WorkloadKind::FrequentPatterns { support: 0.15 },
        nodes: 4,
    });
    cases
}

fn run(case: &Case, faults: &FaultPlan, tel: Option<&Arc<Telemetry>>) -> FaultRunOutcome {
    let cluster = SimCluster::new(NodeSpec::paper_cluster(case.nodes, 400.0, 2, 9, 2017));
    let mut fw = Framework::new(
        &cluster,
        FrameworkConfig {
            strategy: Strategy::HetEnergyAware { alpha: 0.995 },
            seed: 2017,
            threads: 1,
            ..FrameworkConfig::default()
        },
    );
    if let Some(tel) = tel {
        fw = fw.with_telemetry(tel.clone());
    }
    fw.try_run_with_faults(
        &case.data,
        case.workload,
        faults,
        &RecoveryConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", case.name))
}

fn plain(case: &Case) -> FaultRunOutcome {
    run(case, &FaultPlan::none(), None)
}

/// The node holding the most items in the fault-free plan.
fn busiest(out: &FaultRunOutcome) -> usize {
    (0..out.plan.sizes.len())
        .max_by_key(|&i| (out.plan.sizes[i], std::cmp::Reverse(i)))
        .expect("a plan has nodes")
}

fn assert_same_run(a: &RecoveryOutcome, b: &RecoveryOutcome, ctx: &str) {
    let bits =
        |v: &[Option<f64>]| -> Vec<Option<u64>> { v.iter().map(|t| t.map(f64::to_bits)).collect() };
    assert_eq!(a.completed_by, b.completed_by, "{ctx}: completed_by");
    assert_eq!(
        bits(&a.completed_at_s),
        bits(&b.completed_at_s),
        "{ctx}: completed_at_s"
    );
    assert_eq!(
        a.reassigned_items, b.reassigned_items,
        "{ctx}: reassigned_items"
    );
    let (ra, rb) = (&a.recovery, &b.recovery);
    assert_eq!(
        ra.makespan_s.to_bits(),
        rb.makespan_s.to_bits(),
        "{ctx}: makespan"
    );
    assert_eq!(
        ra.dirty_linear_j.to_bits(),
        rb.dirty_linear_j.to_bits(),
        "{ctx}: dirty joules"
    );
}

/// Relation (i): faults that cannot act leave the run bit-identical.
#[test]
fn inert_fault_plans_reproduce_the_plain_run() {
    for case in cases() {
        let base = plain(&case);
        let node = busiest(&base);
        let makespan = base.outcome.recovery.makespan_s;
        for (label, faults) in [
            ("empty plan", FaultPlan::new()),
            (
                "crash after the makespan",
                FaultPlan::new().with_crash(node, 2.0 * makespan),
            ),
            (
                "straggler factor 1.0",
                FaultPlan::new().with_straggler(node, 1.0),
            ),
        ] {
            let out = run(&case, &faults, None);
            let ctx = format!("{}, {label} on node {node}", case.name);
            assert_same_run(&out.outcome, &base.outcome, &ctx);
            assert!(
                out.outcome.recovery.crashed_nodes.is_empty(),
                "{ctx}: nobody dies"
            );
        }
    }
}

/// The four fault shapes of the `run_resilient` benchmark workload, with
/// times set against the fault-free makespan `m` and the failing node `a`
/// one that holds items.
fn fault_shapes(a: usize, nodes: usize, m: f64) -> [String; 4] {
    let b = (a + 3) % nodes;
    [
        format!("crash:{a}@{},slow:{b}@3", 0.2 * m),
        format!("kv:{b}@2,crash:{a}@{}", 0.5 * m),
        format!("kv:{a}@5"),
        format!("slow:{a}@3,net:{b}@0-{m}@8"),
    ]
}

/// Relation (vi): every item executes exactly once, counted from the
/// telemetry's `exec` spans.
#[test]
fn every_item_executes_exactly_once_under_every_fault_shape() {
    let mut steals = 0;
    for case in cases() {
        let base = plain(&case);
        let m = base.outcome.recovery.makespan_s;
        for spec in fault_shapes(busiest(&base), case.nodes, m) {
            let faults = FaultPlan::parse(&spec, case.nodes).expect("shape parses");
            let tel = Telemetry::enabled();
            let out = run(&case, &faults, Some(&tel));
            let ctx = format!("{}, {spec}", case.name);
            // The counter: exec spans per item, and the node of each.
            let mut runs = vec![Vec::new(); case.data.len()];
            for span in tel.snapshot().spans.iter().filter(|s| s.name == "exec") {
                let item = span
                    .attrs
                    .iter()
                    .find(|(k, _)| k == "item")
                    .expect("exec names its item");
                let Track::Node(node) = span.track else {
                    panic!("{ctx}: exec off a node track")
                };
                runs[item.1.parse::<usize>().expect("item id")].push(node);
            }
            for (item, nodes) in runs.iter().enumerate() {
                assert_eq!(nodes.len(), 1, "{ctx}: item {item} ran on {nodes:?}");
                assert_eq!(
                    Some(nodes[0]),
                    out.outcome.completed_by[item],
                    "{ctx}: item {item}"
                );
            }
            steals += out.outcome.recovery.speculative_steals;
        }
    }
    assert!(
        steals > 0,
        "no case stole, so moves by steal went unchecked"
    );
}

/// Relation (vii): a thief finishes what it steals before the victim
/// would have, read from the `steal` instants' two projected finishes.
#[test]
fn every_steal_finishes_before_its_victim_would_have() {
    let mut steals = 0;
    for case in cases() {
        let base = plain(&case);
        let m = base.outcome.recovery.makespan_s;
        for spec in fault_shapes(busiest(&base), case.nodes, m) {
            let faults = FaultPlan::parse(&spec, case.nodes).expect("shape parses");
            let tel = Telemetry::enabled();
            run(&case, &faults, Some(&tel));
            for steal in tel.snapshot().instants.iter().filter(|i| i.name == "steal") {
                let attr = |key: &str| -> f64 {
                    let (_, v) = steal
                        .attrs
                        .iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("a steal instant carries {key}"));
                    v.parse().expect("a finish time")
                };
                let (thief, victim) = (attr("thief_finish_s"), attr("victim_finish_s"));
                assert!(
                    thief < victim,
                    "{}, {spec}: thief finishes at {thief} s, victim at {victim} s",
                    case.name
                );
                steals += 1;
            }
        }
    }
    assert!(steals > 0, "no case stole, so the relation went unchecked");
}

/// The claims gate's C8 job at seed 43: crashing the node that is busy
/// longest, 40 % into its busy time, costs wall time. A speed-blind steal
/// made that node a slow thief holding a fast node's work, so its crash
/// used to hand the work back to faster nodes and shorten the job.
#[test]
fn crashing_the_longest_busy_node_does_not_shorten_the_job() {
    let data = pareto_datagen::rcv1_syn(43, 0.32);
    let workload = WorkloadKind::FrequentPatterns { support: 0.1 };
    let cluster = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, 43));
    let fw = Framework::new(
        &cluster,
        FrameworkConfig {
            strategy: Strategy::HetAware,
            layout: PartitionLayout::Representative,
            seed: 43,
            threads: 1,
            ..FrameworkConfig::default()
        },
    );
    let cfg = RecoveryConfig::default();
    let clean = fw
        .try_run_with_faults(&data, workload, &FaultPlan::none(), &cfg)
        .expect("non-empty dataset, valid config");
    let (victim, busy) = clean
        .outcome
        .report
        .runs
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.seconds))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a cluster has nodes");
    let crashed = fw
        .try_run_with_faults(
            &data,
            workload,
            &FaultPlan::new().with_crash(victim, 0.4 * busy),
            &cfg,
        )
        .expect("non-empty dataset, valid config");
    let rec = &crashed.outcome.recovery;
    assert_eq!(rec.crashed_nodes, vec![victim]);
    assert!(rec.exactly_once);
    assert!(
        rec.makespan_overhead >= 0.0,
        "crashing node {victim} shortened the job: {:.2} s against {:.2} s clean",
        rec.makespan_s,
        rec.fault_free_makespan_s
    );
}
