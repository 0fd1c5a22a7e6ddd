//! Golden pins for the recovery executor.
//!
//! `fault_determinism`, `elastic`, `chaos` and `telemetry_inertness` all
//! compare the executor with itself (thread count vs thread count, warm vs
//! cold, telemetry on vs off), so a restructuring that reorders two events
//! the same way everywhere would pass them all. The digests below were
//! recorded from the executor of five positional-argument wrappers around
//! free-function `simulate` + `replan` *before* it was collapsed into the
//! single `recovery::execute` over a `Sim` state struct, and pin what that
//! restructuring must reproduce bit for bit: the whole [`RecoveryOutcome`]
//! and the sim-clock telemetry dump of the same run, for every recovery
//! mechanism, at both re-solve regimes (`alpha = 1` waterfilling and
//! `alpha < 1` LP).
//!
//! When the partition LP's warm-started simplex gave way to the exact
//! breakpoint walk, every outcome digest stayed as recorded. The dump
//! digests were re-recorded then: the `pareto_lp_*` solve and pivot
//! counters left the dump, and the `pareto_lp_*` plan-point gauges moved
//! in their last bits. With every `pareto_lp_*` metric dropped from both
//! sides, all 24 dumps hashed as they did under the simplex.
//!
//! When the straggler steal gained its gate (a thief steals only what it
//! would finish before the victim), every outcome digest stayed as
//! recorded. The four dumps of the `straggler-steal` and
//! `thief-dies-mid-steal` scenarios were re-recorded then: their `steal`
//! instants gained the `thief_finish_s` and `victim_finish_s` attributes.
//!
//! On any mismatch the test prints the full observed table in the form of
//! the `GOLDEN` constant, so an *intentional* change to the simulation can
//! be re-pinned by pasting it.

use pareto_cluster::{FaultPlan, NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::{RecoveryConfig, RecoveryOutcome};
use pareto_integration_tests::{digest, thread_counts};
use pareto_telemetry::export::json_dump;
use pareto_telemetry::{ClockDomain, Telemetry, TelemetrySnapshot, Track};
use pareto_workloads::WorkloadKind;

const SEED: u64 = 31;
const NODES: usize = 4;
const ALPHAS: [f64; 2] = [1.0, 0.999];
const WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.15 };

/// One pinned run: the outcome digest and the telemetry-dump digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    outcome: u64,
    dump: u64,
}

/// `(scenario, alpha)` → pin, in `scenarios()` × `ALPHAS` order.
#[rustfmt::skip]
const GOLDEN: &[(&str, f64, Pin)] = &[
    ("fault-free", 1.0, Pin { outcome: 0x14f2576867c19c71, dump: 0x07c10b78e36166e1 }),
    ("crash-mid-exec", 1.0, Pin { outcome: 0x77534633520c6ecd, dump: 0x8c367cd989509782 }),
    ("fetch-retry-exhaustion", 1.0, Pin { outcome: 0x5fa61f96eec66d1a, dump: 0x2654b3ad38b25fa1 }),
    ("transient-retries", 1.0, Pin { outcome: 0x5013e690b1a7aad1, dump: 0x956bf31aefc4baf2 }),
    ("straggler-steal", 1.0, Pin { outcome: 0x58dc1ccc6e573fd7, dump: 0x35f8deab464f60b0 }),
    ("thief-dies-mid-steal", 1.0, Pin { outcome: 0x0883359076df87de, dump: 0x597ea880139a5f3e }),
    ("net-degradation", 1.0, Pin { outcome: 0x5e6e8130b9a62ade, dump: 0x82c3dbf3cdd898d9 }),
    ("drain", 1.0, Pin { outcome: 0xaa152ddc8899b414, dump: 0x973e8e2c7ff74e23 }),
    ("preempt-generous-grace", 1.0, Pin { outcome: 0xd684be885526789c, dump: 0x4693ddaba7d922c7 }),
    ("preempt-zero-grace", 1.0, Pin { outcome: 0xdcbaaae4f6bfc2ca, dump: 0xb7a927bb06a119f9 }),
    ("join-rebalance", 1.0, Pin { outcome: 0xb74aed223d93cfc8, dump: 0x97300ef29babf7f8 }),
    ("late-joiner-rescue", 1.0, Pin { outcome: 0x00c27d7d2758b87a, dump: 0xf6798ee5221b3875 }),
    ("fault-free", 0.999, Pin { outcome: 0x14f2576867c19c71, dump: 0xb264c611421a7349 }),
    ("crash-mid-exec", 0.999, Pin { outcome: 0x77534633520c6ecd, dump: 0x8b6ff45aaae16cea }),
    ("fetch-retry-exhaustion", 0.999, Pin { outcome: 0x5fa61f96eec66d1a, dump: 0x5ae81ada6bb24089 }),
    ("transient-retries", 0.999, Pin { outcome: 0x5013e690b1a7aad1, dump: 0x49d60446ce0c549a }),
    ("straggler-steal", 0.999, Pin { outcome: 0x58dc1ccc6e573fd7, dump: 0xf9f96984ddec3a18 }),
    ("thief-dies-mid-steal", 0.999, Pin { outcome: 0xe2565bdd2f1f6315, dump: 0xca7d16b0d207771a }),
    ("net-degradation", 0.999, Pin { outcome: 0x5e6e8130b9a62ade, dump: 0xf3494747d0dec671 }),
    ("drain", 0.999, Pin { outcome: 0xaa152ddc8899b414, dump: 0x03503c204e5ef40b }),
    ("preempt-generous-grace", 0.999, Pin { outcome: 0xd684be885526789c, dump: 0x179787987a90222f }),
    ("preempt-zero-grace", 0.999, Pin { outcome: 0xdcbaaae4f6bfc2ca, dump: 0xb680034d8c589a91 }),
    ("join-rebalance", 0.999, Pin { outcome: 0xb74aed223d93cfc8, dump: 0x06f3ca4d5631bd10 }),
    ("late-joiner-rescue", 0.999, Pin { outcome: 0x00c27d7d2758b87a, dump: 0x9fd58575908ad5dd }),
];

/// `None` → 0, `Some(x)` → 1 then `x`: keeps `Some(0)` apart from `None`.
fn opt_words(v: &[Option<u64>]) -> impl Iterator<Item = u64> + '_ {
    v.iter().flat_map(|o| [u64::from(o.is_some()), o.unwrap_or(0)])
}

fn list_words(v: &[usize]) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(v.len() as u64).chain(v.iter().map(|&x| x as u64))
}

/// Every field of the outcome, f64s by bit pattern.
fn outcome_digest(out: &RecoveryOutcome) -> u64 {
    let r = &out.recovery;
    let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
        v.iter().map(|o| o.map(f64::to_bits)).collect()
    };
    let completed_by: Vec<Option<u64>> =
        out.completed_by.iter().map(|o| o.map(|n| n as u64)).collect();
    let mut words: Vec<u64> = vec![
        r.faults_injected as u64,
        r.replans as u64,
        r.retries_spent as u64,
        r.speculative_steals as u64,
        r.items_reassigned as u64,
        r.items_stolen as u64,
        r.items_total as u64,
        r.items_completed as u64,
        u64::from(r.exactly_once),
        r.makespan_s.to_bits(),
        r.fault_free_makespan_s.to_bits(),
        r.makespan_overhead.to_bits(),
        r.dirty_linear_j.to_bits(),
        r.fault_free_dirty_linear_j.to_bits(),
        r.dirty_overhead_j.to_bits(),
        r.elastic_events as u64,
        r.joins_applied as u64,
        r.drains_applied as u64,
        r.preempts_applied as u64,
        r.handoff_records as u64,
        r.handoff_retries as u64,
        r.items_handed_off as u64,
    ];
    words.extend(list_words(&r.crashed_nodes));
    words.extend(list_words(&r.left_nodes));
    words.extend(opt_words(&completed_by));
    words.extend(opt_words(&bits(&out.completed_at_s)));
    words.extend(list_words(&out.reassigned_items));
    words.extend(list_words(&out.handed_off_items));
    words.extend(opt_words(&bits(&out.join_epochs)));
    words.extend(opt_words(&bits(&out.leave_epochs)));
    let job = &out.report;
    words.extend([
        job.makespan_seconds.to_bits(),
        job.total_dirty_linear.to_bits(),
        job.total_dirty_clamped.to_bits(),
        job.total_energy_joules.to_bits(),
    ]);
    for run in &job.runs {
        words.extend([
            run.node_id as u64,
            run.seconds.to_bits(),
            run.energy_joules.to_bits(),
            run.dirty_joules_linear.to_bits(),
            run.dirty_joules_clamped.to_bits(),
            run.cost.compute_ops,
            run.cost.bytes,
            run.cost.round_trips,
        ]);
    }
    digest(words)
}

/// One faulted run through the public framework path with a recorder on
/// both the framework and the cluster. Returns the outcome and everything
/// the run recorded on the simulated clock: wall-clock planning spans and
/// the wall-seconds stage histogram are dropped (they are the one
/// legitimately machine-dependent part of a dump).
fn run(alpha: f64, threads: usize, faults: &FaultPlan) -> (RecoveryOutcome, TelemetrySnapshot) {
    let ds = pareto_datagen::rcv1_syn(SEED, 0.06);
    let tel = Telemetry::enabled();
    let cl = SimCluster::new(NodeSpec::paper_cluster(NODES, 400.0, 2, 9, SEED))
        .with_telemetry(tel.clone());
    let cfg = FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha },
        seed: SEED,
        threads,
        ..FrameworkConfig::default()
    };
    let out = Framework::new(&cl, cfg)
        .with_telemetry(tel.clone())
        .try_run_with_faults(&ds, WORKLOAD, faults, &RecoveryConfig::default())
        .expect("run must plan");
    let mut snap = tel.snapshot();
    snap.spans.retain(|s| s.domain == ClockDomain::Sim);
    snap.instants.retain(|i| i.domain == ClockDomain::Sim);
    snap.metrics.histograms.retain(|k, _| k.name != "pareto_plan_stage_s");
    (out.outcome, snap)
}

/// A named scenario plus a substring its telemetry dump must contain —
/// proof that the run actually exercised the mechanism it is named for.
type Scenario = (&'static str, FaultPlan, &'static str);

/// The scenario matrix for one `alpha`. Event times are fractions of the
/// fault-free makespan `t` so they land mid-job under either plan;
/// `thief` is the node (and mid-transfer instant) of the first speculative
/// steal in the straggler scenario, which the next scenario kills.
fn scenarios(t: f64, thief: (usize, f64)) -> Vec<Scenario> {
    let straggler = || FaultPlan::new().with_straggler(3, 8.0);
    let mut degraded = FaultPlan::new();
    for node in 0..NODES {
        degraded = degraded.with_network_degradation(node, 0.0, 1e9, 50.0);
    }
    vec![
        ("fault-free", FaultPlan::none(), r#""kind":"fetch""#),
        (
            "crash-mid-exec",
            FaultPlan::new().with_crash(1, t * 0.4),
            r#""during":"exec""#,
        ),
        (
            "fetch-retry-exhaustion",
            FaultPlan::new().with_store_errors(2, 10),
            r#""during":"fetch""#,
        ),
        (
            "transient-retries",
            FaultPlan::new().with_store_errors(2, 2),
            r#""name":"kv-retry""#,
        ),
        ("straggler-steal", straggler(), r#""kind":"steal""#),
        (
            "thief-dies-mid-steal",
            straggler().with_crash(thief.0, thief.1),
            r#""during":"steal""#,
        ),
        ("net-degradation", degraded, r#""kind":"fetch""#),
        (
            "drain",
            FaultPlan::new().with_drain(1, t * 0.3),
            r#""name":"leave""#,
        ),
        (
            "preempt-generous-grace",
            FaultPlan::new().with_preempt(2, t * 0.3, t),
            r#""name":"leave""#,
        ),
        (
            "preempt-zero-grace",
            FaultPlan::new().with_preempt(2, t * 0.3, 0.0),
            r#""name":"crash""#,
        ),
        (
            "join-rebalance",
            FaultPlan::new().with_join(3, t * 0.2),
            r#""name":"rebalance""#,
        ),
        (
            "late-joiner-rescue",
            FaultPlan::new()
                .with_crash(0, 0.001)
                .with_crash(1, 0.001)
                .with_crash(2, 0.001)
                .with_join(3, t * 2.0),
            r#""kind":"rescue""#,
        ),
    ]
}

/// Node and mid-transfer sim time of the first speculative steal recorded
/// (the cluster is fresh, so the run's sim epoch is 0).
fn first_steal(snap: &TelemetrySnapshot) -> (usize, f64) {
    let steal = snap
        .spans
        .iter()
        .find(|s| s.attrs.iter().any(|(k, v)| k == "kind" && v == "steal"))
        .expect("the straggler scenario steals");
    let Track::Node(node) = steal.track else {
        panic!("steal transfers are paid on a node track");
    };
    (node, 0.5 * (steal.start_s + steal.end_s))
}

#[test]
fn recovery_matches_the_pins_recorded_before_the_executor_collapse() {
    let counts = thread_counts();
    let mut observed = Vec::new();
    for alpha in ALPHAS {
        let (clean, _) = run(alpha, 1, &FaultPlan::none());
        let t = clean.recovery.makespan_s;
        let (_, straggler_snap) = run(alpha, 1, &FaultPlan::new().with_straggler(3, 8.0));
        for (name, faults, marker) in scenarios(t, first_steal(&straggler_snap)) {
            let observe = |threads: usize| {
                let (out, snap) = run(alpha, threads, &faults);
                let dump = json_dump(&snap, &[]);
                assert!(dump.contains(marker), "{name} alpha {alpha}: dump lacks {marker}");
                Pin {
                    outcome: outcome_digest(&out),
                    dump: digest(dump.bytes().map(u64::from)),
                }
            };
            let serial = observe(counts[0]);
            for &threads in &counts[1..] {
                assert_eq!(
                    serial,
                    observe(threads),
                    "{name} alpha {alpha}: threads {threads} diverged from serial"
                );
            }
            observed.push((name, alpha, serial));
        }
    }
    if observed != GOLDEN {
        let table: String = observed
            .iter()
            .map(|(name, alpha, p)| {
                format!(
                    "    ({name:?}, {alpha:?}, Pin {{ outcome: {:#018x}, dump: {:#018x} }}),\n",
                    p.outcome, p.dump
                )
            })
            .collect();
        panic!("golden recovery pins diverged; observed:\n{table}");
    }
}
