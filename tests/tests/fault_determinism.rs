//! Acceptance gate for the fault-injection layer: for a fixed fault plan
//! the whole recovery story — crash handling, LP replanning, retries,
//! speculative steals — is a deterministic function of the seed, and
//! bit-identical whatever the planning thread count. CI runs this at
//! extra thread counts via `PARETO_TEST_THREADS`.

use pareto_cluster::{FaultPlan, FaultSpec, NodeSpec, SimCluster};
use pareto_core::framework::{FaultRunOutcome, Framework, FrameworkConfig, Strategy};
use pareto_core::RecoveryConfig;
use pareto_integration_tests::thread_counts;
use pareto_workloads::WorkloadKind;

fn faulted_run(seed: u64, threads: usize, faults: &FaultPlan) -> FaultRunOutcome {
    let ds = pareto_datagen::rcv1_syn(seed, 0.06);
    let cl = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    Framework::new(
        &cl,
        FrameworkConfig {
            strategy: Strategy::HetAware,
            seed,
            threads,
            ..FrameworkConfig::default()
        },
    )
    .try_run_with_faults(
        &ds,
        WorkloadKind::FrequentPatterns { support: 0.15 },
        faults,
        &RecoveryConfig::default(),
    )
    .expect("faulted run must plan")
}

/// Compare two fault runs field-for-field; f64s via to_bits.
fn assert_bit_identical(a: &FaultRunOutcome, b: &FaultRunOutcome, ctx: &str) {
    let (ra, rb) = (&a.outcome.recovery, &b.outcome.recovery);
    assert_eq!(ra, rb, "{ctx}: recovery reports diverged");
    assert_eq!(
        ra.makespan_s.to_bits(),
        rb.makespan_s.to_bits(),
        "{ctx}: makespan bits diverged"
    );
    assert_eq!(
        ra.dirty_linear_j.to_bits(),
        rb.dirty_linear_j.to_bits(),
        "{ctx}: dirty-energy bits diverged"
    );
    assert_eq!(
        a.outcome.completed_by, b.outcome.completed_by,
        "{ctx}: item placement diverged"
    );
    assert_eq!(
        a.outcome.reassigned_items, b.outcome.reassigned_items,
        "{ctx}: reassignment order diverged"
    );
}

/// Seeded generated fault plans replay bit-identically at every thread
/// count, including the extra ones CI's `thread-matrix` job sets.
#[test]
fn generated_fault_plan_identical_across_thread_counts() {
    let counts = thread_counts();
    for seed in [11u64, 2017] {
        let faults = FaultPlan::generate(seed ^ 0xFA17, 4, &FaultSpec::default());
        let serial = faulted_run(seed, counts[0], &faults);
        for &threads in &counts[1..] {
            let par = faulted_run(seed, threads, &faults);
            assert_bit_identical(&serial, &par, &format!("seed {seed}, threads {threads}"));
        }
    }
}

/// The same fault plan generated twice from one seed is identical, and a
/// different seed yields a different plan (no degenerate generator).
#[test]
fn fault_plans_are_seed_deterministic() {
    let a = FaultPlan::generate(42, 8, &FaultSpec::default());
    let b = FaultPlan::generate(42, 8, &FaultSpec::default());
    assert_eq!(a, b);
    let c = FaultPlan::generate(43, 8, &FaultSpec::default());
    assert_ne!(a, c, "different seeds should draw different fault plans");
}

/// Storage-fault generation rides the same `(seed, node, event)` hash
/// scheme: regenerating is bit-identical, and enabling the storage kinds
/// leaves the compute draws untouched (the event-index spaces are
/// disjoint), so pre-existing seeded plans never shift.
#[test]
fn storage_fault_plans_are_seed_deterministic() {
    let spec = FaultSpec::storage();
    let a = FaultPlan::generate(42, 8, &spec);
    let b = FaultPlan::generate(42, 8, &spec);
    assert_eq!(a, b);
    // Compute events survive verbatim when storage kinds switch on.
    let compute_only = FaultPlan::generate(42, 8, &FaultSpec::default());
    for ev in compute_only.events() {
        assert!(
            a.events().contains(ev),
            "enabling storage faults perturbed compute event {ev:?}"
        );
    }
}

/// Every generated plan — storage kinds included — survives a
/// `to_spec` → `parse` round trip, so a printed minimal reproducer is
/// always a valid `--faults` argument.
#[test]
fn generated_storage_plans_round_trip_through_the_spec_grammar() {
    for seed in [7u64, 42, 2017] {
        let plan = FaultPlan::generate(seed, 4, &FaultSpec::storage());
        let spec = plan.to_spec();
        let reparsed = FaultPlan::parse(&spec, 4)
            .unwrap_or_else(|e| panic!("seed {seed}: {spec:?} failed to parse: {e}"));
        assert_eq!(reparsed.to_spec(), spec, "seed {seed} round trip");
    }
}

/// Storage faults target the durability drills, not the executor: adding
/// them to a compute plan leaves the simulated run bit-identical. This
/// pins the disjointness that lets the chaos harness reuse one planned
/// execution across schedules.
#[test]
fn executor_results_ignore_storage_fault_events() {
    let seed = 11u64;
    let compute = FaultPlan::generate(seed ^ 0xFA17, 4, &FaultSpec::default());
    let mut with_storage = compute.clone();
    with_storage = with_storage
        .with_torn_write(0, 13)
        .with_bit_rot(1, 40, 0x08)
        .with_snapshot_loss(2)
        .with_recovery_crash(3, 2);
    assert!(with_storage.events().len() > compute.events().len());

    let base = faulted_run(seed, 1, &compute);
    let augmented = faulted_run(seed, 1, &with_storage);
    // Identical except for the injected-event count, which reports the
    // full plan length.
    assert_eq!(
        augmented.outcome.recovery.faults_injected,
        with_storage.events().len()
    );
    assert_eq!(
        base.outcome.recovery.makespan_s.to_bits(),
        augmented.outcome.recovery.makespan_s.to_bits(),
        "storage events must not perturb simulated time"
    );
    assert_eq!(
        base.outcome.completed_by, augmented.outcome.completed_by,
        "storage events must not perturb item placement"
    );
    assert_eq!(
        base.outcome.recovery.crashed_nodes,
        augmented.outcome.recovery.crashed_nodes
    );
}

/// Every generated roster schedule survives a `to_spec` → `parse` round
/// trip, so a printed minimal reproducer that carries roster changes is
/// always a valid `--faults` (or `--elastic`) argument.
#[test]
fn generated_elastic_plans_round_trip_through_the_spec_grammar() {
    let mut non_empty = 0;
    for seed in [7u64, 42, 2017, 31337] {
        let plan = FaultPlan::parse(&format!("eseeded:{seed}"), 4).expect("eseeded parses");
        non_empty += usize::from(!plan.is_empty());
        let spec = plan.to_spec();
        let reparsed = FaultPlan::parse(&spec, 4)
            .unwrap_or_else(|e| panic!("seed {seed}: {spec:?} failed to parse: {e}"));
        assert_eq!(reparsed.to_spec(), spec, "seed {seed} round trip");
        assert_eq!(reparsed.events(), plan.events(), "seed {seed} events");
    }
    assert!(non_empty > 0, "every test seed drew an empty roster plan");
}

/// Hand-written roster clauses round-trip too, and `eseeded:SEED`
/// expands to exactly the roster half of the generated plan — the grammar
/// and the generator agree on one canonical event list.
#[test]
fn elastic_spec_grammar_accepts_explicit_and_seeded_clauses() {
    let spec = "join:3@12.5, drain:1@40, preempt:2@60@7.25";
    let plan = FaultPlan::parse(spec, 4).expect("explicit clauses parse");
    assert_eq!(plan.to_spec(), spec);
    assert_eq!(plan.join_time(3), Some(12.5));
    assert_eq!(plan.drain_time(1), Some(40.0));
    assert_eq!(plan.preempt(2), Some((60.0, 7.25)));

    let seeded = FaultPlan::parse("eseeded:42", 4).expect("seeded clause parses");
    let generated = FaultPlan::generate(42, 4, &FaultSpec::default().with_roster());
    assert_eq!(
        seeded.events(),
        &generated.events()[generated.len() - generated.roster_len()..],
        "eseeded:SEED must expand to the generated roster events verbatim"
    );

    // Malformed clauses are typed errors, not silent drops.
    assert!(FaultPlan::parse("join:9@5", 4).is_err(), "node range");
    assert!(FaultPlan::parse("drain:1@-3", 4).is_err(), "negative time");
    assert!(FaultPlan::parse("preempt:1@5", 4).is_err(), "missing grace");
    assert!(FaultPlan::parse("vanish:1@5", 4).is_err(), "unknown kind");
}

/// Composed fault + roster schedules replay bit-identically at every
/// thread count — the roster extension of the CI determinism matrix.
#[test]
fn composed_elastic_schedule_identical_across_thread_counts() {
    let counts = thread_counts();
    for seed in [11u64, 2017] {
        let spec = format!("seeded:{}, eseeded:{}", seed ^ 0xFA17, seed ^ 0xE1A5);
        let plan = FaultPlan::parse(&spec, 4).expect("seeded clauses parse");
        let serial = faulted_run(seed, counts[0], &plan);
        for &threads in &counts[1..] {
            let par = faulted_run(seed, threads, &plan);
            assert_bit_identical(
                &serial,
                &par,
                &format!("elastic seed {seed}, threads {threads}"),
            );
            assert_eq!(
                serial.outcome.recovery.handoff_records, par.outcome.recovery.handoff_records,
                "seed {seed}, threads {threads}: handoff counts diverged"
            );
        }
    }
}

/// The issue's acceptance scenario: a single node crashes mid-job. Every
/// item completes exactly once, the replanned assignment excludes the dead
/// node, and the whole story is identical at every thread count.
#[test]
fn single_crash_recovery_identical_across_thread_counts() {
    let counts = thread_counts();
    let seed = 31u64;
    // Place the crash mid-job using the fault-free wall makespan.
    let clean = faulted_run(seed, 1, &FaultPlan::none());
    assert!(clean.outcome.recovery.exactly_once);
    let tc = clean.outcome.recovery.makespan_s * 0.4;
    let faults = FaultPlan::new().with_crash(1, tc);

    let serial = faulted_run(seed, counts[0], &faults);
    let rec = &serial.outcome.recovery;
    assert_eq!(rec.crashed_nodes, vec![1], "node 1 must die at {tc}s");
    assert!(rec.replans >= 1, "the crash must trigger an LP re-solve");
    assert!(rec.exactly_once, "all items complete exactly once: {rec:?}");
    // The replanned assignment excludes the dead node.
    for &item in &serial.outcome.reassigned_items {
        assert_ne!(
            serial.outcome.completed_by[item],
            Some(1),
            "reassigned item {item} completed on the dead node"
        );
    }
    assert!(
        rec.makespan_overhead >= 0.0 && rec.makespan_overhead < 1.0,
        "crash recovery must bound makespan inflation: {}",
        rec.makespan_overhead
    );

    for &threads in &counts[1..] {
        let par = faulted_run(seed, threads, &faults);
        assert_bit_identical(&serial, &par, &format!("threads {threads}"));
    }
}

/// FNV-1a over a spec string's bytes.
fn spec_digest(spec: &str) -> u64 {
    pareto_datagen::item::stable_hash64(spec.as_bytes())
}

/// Seeds of the generator pins; every pinned plan spans 8 nodes.
const PIN_SEEDS: [u64; 3] = [7, 11, 2017];

/// FNV-1a digests of `to_spec()` for the seeded generators at
/// [`PIN_SEEDS`], recorded while roster schedules still had a plan type,
/// generator and grammar of their own. A generator change that moves a
/// single draw shows here, checked against the past rather than against
/// the generator itself.
const GENERATOR_PINS: [(&str, [u64; 3]); 4] = [
    ("default", [0xeaa2_8094_77bd_2d3a, 0x2c41_3212_e184_2f52, 0xd935_f6d1_b942_ecf3]),
    ("storage", [0x41e9_7e7e_b3ec_ac51, 0x13c0_8945_7cf3_0485, 0xb699_8231_1f15_328b]),
    ("serving", [0x12ef_5f4e_cfb9_a1bd, 0x7ba5_8176_7f58_8218, 0x2cb3_75fa_43c5_5cc3]),
    ("roster", [0xcba9_19ba_9f26_bacc, 0x15ce_0813_fbea_a4e8, 0xd0c2_9473_8224_1430]),
];

/// The spec of one pinned generated plan: `seeded:S` and `eseeded:S`
/// through the grammar, the storage and serving mixes through `generate`.
fn generated_spec(family: &str, seed: u64) -> String {
    let parsed = |clause: &str| FaultPlan::parse(&format!("{clause}:{seed}"), 8).unwrap();
    match family {
        "default" => parsed("seeded").to_spec(),
        "storage" => FaultPlan::generate(seed, 8, &FaultSpec::storage()).to_spec(),
        "serving" => FaultPlan::generate(seed, 8, &FaultSpec::serving()).to_spec(),
        _ => parsed("eseeded").to_spec(),
    }
}

/// Every seeded generator reproduces its pinned plans byte for byte, and
/// a roster-enabled plan is the fault plan followed by the roster plan.
#[test]
fn generated_plans_match_their_pinned_digests() {
    for (family, pins) in GENERATOR_PINS {
        for (seed, pin) in PIN_SEEDS.into_iter().zip(pins) {
            let spec = generated_spec(family, seed);
            assert!(!spec.is_empty(), "{family} at seed {seed} drew an empty plan");
            assert_eq!(spec_digest(&spec), pin, "{family} at seed {seed}: `{spec}`");
        }
    }
    for seed in PIN_SEEDS {
        let mixed = FaultPlan::generate(seed, 8, &FaultSpec::storage().with_roster());
        let joined = format!(
            "{}, {}",
            generated_spec("storage", seed),
            generated_spec("roster", seed)
        );
        assert_eq!(mixed.to_spec(), joined, "seed {seed}");
    }
}
