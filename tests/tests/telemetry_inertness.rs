//! Acceptance gate for the telemetry subsystem: recording must be
//! *inert*. Attaching an enabled recorder to the framework and the
//! simulated cluster may never change a plan or a recovery report — not
//! by one bit, at any thread count, with or without injected faults. The
//! flip side is also checked: the recorder must actually be *rich* — a
//! faulted run must leave crash/replan/redistribution visible as distinct
//! spans and instants on per-node tracks, and the chrome-trace export of
//! that run must be structurally well-formed.

use std::sync::Arc;

use pareto_cluster::{FaultPlan, FaultSpec, NodeSpec, SimCluster};
use pareto_core::estimator::EnergyEstimator;
use pareto_core::framework::{FaultRunOutcome, Framework, FrameworkConfig, Plan, Strategy};
use pareto_core::RecoveryConfig;
use pareto_telemetry::export::chrome_trace;
use pareto_telemetry::report::validate_chrome_trace;
use pareto_telemetry::{event, json, CaptureSink, Telemetry, TelemetrySnapshot, Track};
use pareto_workloads::WorkloadKind;

const THREADS: [usize; 3] = [1, 4, 8];

fn make_framework(seed: u64, threads: usize, tel: Option<Arc<Telemetry>>) -> (SimCluster, FrameworkConfig) {
    let mut cl = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, seed));
    if let Some(tel) = tel {
        cl = cl.with_telemetry(tel);
    }
    let cfg = FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
        seed,
        threads,
        ..FrameworkConfig::default()
    };
    (cl, cfg)
}

fn plan_with(seed: u64, threads: usize, tel: Option<Arc<Telemetry>>) -> Plan {
    let ds = pareto_datagen::rcv1_syn(seed, 0.06);
    let (cl, cfg) = make_framework(seed, threads, tel.clone());
    let mut fw = Framework::new(&cl, cfg);
    if let Some(tel) = tel {
        fw = fw.with_telemetry(tel);
    }
    fw.try_plan(&ds, WorkloadKind::FrequentPatterns { support: 0.15 }).expect("non-empty dataset")
}

fn faulted_run_with(
    seed: u64,
    threads: usize,
    faults: &FaultPlan,
    tel: Option<Arc<Telemetry>>,
) -> FaultRunOutcome {
    let ds = pareto_datagen::rcv1_syn(seed, 0.06);
    let (cl, cfg) = make_framework(seed, threads, tel.clone());
    let mut fw = Framework::new(&cl, cfg);
    if let Some(tel) = tel {
        fw = fw.with_telemetry(tel);
    }
    fw.try_run_with_faults(
        &ds,
        WorkloadKind::FrequentPatterns { support: 0.15 },
        faults,
        &RecoveryConfig::default(),
    )
    .expect("non-empty dataset, valid config")
}

/// Bit-level plan comparison: partitions, sizes, and every f64 the
/// optimizer produced (wall-clock timings excluded — they are the one
/// legitimately non-deterministic field).
fn assert_plans_bit_identical(off: &Plan, on: &Plan, ctx: &str) {
    assert_eq!(off.sizes, on.sizes, "{ctx}: sizes diverged");
    assert_eq!(off.partitions, on.partitions, "{ctx}: partitions diverged");
    match (&off.pareto, &on.pareto) {
        (Some(a), Some(b)) => {
            assert_eq!(
                a.alpha.to_bits(),
                b.alpha.to_bits(),
                "{ctx}: alpha bits diverged"
            );
            assert_eq!(
                a.predicted_makespan.to_bits(),
                b.predicted_makespan.to_bits(),
                "{ctx}: predicted makespan bits diverged"
            );
            assert_eq!(
                a.predicted_dirty_joules.to_bits(),
                b.predicted_dirty_joules.to_bits(),
                "{ctx}: predicted dirty-energy bits diverged"
            );
        }
        (None, None) => {}
        _ => panic!("{ctx}: pareto point present on one side only"),
    }
}

/// Planning with an enabled recorder produces a bit-identical plan at
/// every thread count — and actually records the planning stages.
#[test]
fn plan_is_bit_identical_with_telemetry_on() {
    for &threads in &THREADS {
        let off = plan_with(2017, threads, None);
        let tel = Telemetry::enabled();
        let on = plan_with(2017, threads, Some(tel.clone()));
        assert_plans_bit_identical(&off, &on, &format!("threads {threads}"));
        let snap = tel.snapshot();
        for stage in ["plan", "sketch", "stratify", "profile", "optimize", "partition"] {
            assert!(
                snap.spans.iter().any(|s| s.name == stage),
                "threads {threads}: no {stage:?} span recorded"
            );
        }
    }
}

/// Faulted runs — a generated fault plan and an explicit mid-job crash —
/// produce bit-identical recovery reports with the recorder attached, at
/// every thread count.
#[test]
fn faulted_run_is_bit_identical_with_telemetry_on() {
    let seed = 31u64;
    let clean = faulted_run_with(seed, 1, &FaultPlan::none(), None);
    let tc = clean.outcome.recovery.makespan_s * 0.4;
    let fault_plans = [
        FaultPlan::generate(seed ^ 0xFA17, 4, &FaultSpec::default()),
        FaultPlan::new().with_crash(1, tc),
    ];
    for faults in &fault_plans {
        for &threads in &THREADS {
            let off = faulted_run_with(seed, threads, faults, None);
            let on = faulted_run_with(seed, threads, faults, Some(Telemetry::enabled()));
            let ctx = format!("threads {threads}, faults {faults:?}");
            assert_eq!(
                off.outcome.recovery, on.outcome.recovery,
                "{ctx}: recovery reports diverged"
            );
            assert_eq!(
                off.outcome.recovery.makespan_s.to_bits(),
                on.outcome.recovery.makespan_s.to_bits(),
                "{ctx}: makespan bits diverged"
            );
            assert_eq!(
                off.outcome.recovery.dirty_linear_j.to_bits(),
                on.outcome.recovery.dirty_linear_j.to_bits(),
                "{ctx}: dirty-energy bits diverged"
            );
            assert_eq!(
                off.outcome.completed_by, on.outcome.completed_by,
                "{ctx}: item placement diverged"
            );
        }
    }
}

fn node_track(snap: &TelemetrySnapshot, pred: impl Fn(&str, usize) -> bool) -> bool {
    snap.spans.iter().any(|s| match s.track {
        Track::Node(n) => pred(&s.name, n),
        _ => false,
    })
}

/// The acceptance scenario: a faulted run's trace shows the crash, the
/// replan, and the redistribution as distinct, correctly-tracked records,
/// and its chrome-trace export validates (monotonic timestamps per track,
/// matched B/E pairs).
#[test]
fn faulted_run_trace_shows_crash_replan_redistribution() {
    let seed = 31u64;
    let clean = faulted_run_with(seed, 1, &FaultPlan::none(), None);
    let tc = clean.outcome.recovery.makespan_s * 0.4;
    let faults = FaultPlan::new().with_crash(1, tc);
    let tel = Telemetry::enabled();
    let out = faulted_run_with(seed, 1, &faults, Some(tel.clone()));
    assert_eq!(out.outcome.recovery.crashed_nodes, vec![1]);
    let snap = tel.snapshot();

    // The crash is an instant on the dead node's own track.
    assert!(
        snap.instants
            .iter()
            .any(|i| i.name == "crash" && i.track == Track::Node(1)),
        "no crash instant on node 1's track"
    );
    // The replan is an instant on the coordinator track.
    assert!(
        snap.instants
            .iter()
            .any(|i| i.name == "replan" && i.track == Track::Coordinator),
        "no replan instant on the coordinator track"
    );
    // Redistribution shows up as transfer spans tagged with its kind on
    // surviving nodes' tracks.
    assert!(
        node_track(&snap, |name, n| name == "transfer" && n != 1)
            && snap.spans.iter().any(|s| {
                s.name == "transfer"
                    && s.attrs
                        .iter()
                        .any(|(k, v)| k == "kind" && v == "redistribute")
            }),
        "no redistribute transfer span on a survivor's track"
    );
    // Item executions land on per-node tracks.
    assert!(
        node_track(&snap, |name, _| name == "exec"),
        "no exec spans on node tracks"
    );

    // The chrome-trace export of exactly this snapshot is well-formed.
    let trace = chrome_trace(&snap);
    let doc = json::parse(&trace).expect("chrome trace parses as JSON");
    let stats = validate_chrome_trace(&doc).expect("chrome trace validates");
    assert!(stats.span_pairs > 0, "trace has no span pairs");
    assert!(stats.instants >= 2, "trace lost the crash/replan instants");
    assert!(stats.tracks >= 3, "trace has no per-node tracks");
}

/// Tests that swap the process-global event sink serialize on this lock
/// so a concurrently running sink-swapping test can't steal their events.
static SINK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The estimator's degraded-green-window warning flows through the
/// structured event layer, so tests can observe it without scraping
/// stderr.
#[test]
fn estimator_degraded_warning_is_capturable() {
    let _sink_guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cl = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 7));
    let capture = Arc::new(CaptureSink::new());
    let previous = event::set_sink(capture.clone());
    // A non-finite planning window forces every node onto the degraded
    // "fully grid-powered" fallback.
    let profiles = EnergyEstimator::profiles(&cl, f64::NAN, 3600.0);
    event::set_sink(previous);
    assert_eq!(profiles.len(), 4);
    assert!(
        profiles.iter().all(|p| p.mean_green_watts.is_finite()),
        "degraded profiles must stay finite"
    );
    let events = capture.events();
    assert!(
        events.iter().any(|e| {
            e.target == "estimator"
                && e.severity == pareto_telemetry::Severity::Warning
                && e.message.contains("green trace missing or non-finite")
        }),
        "degraded-window warning not captured: {events:?}"
    );
}

/// Chaos sweeps — including the planted-corruption schedule — find the
/// same violations and shrink them to bit-identical minimal specs with
/// the recorder attached and the flight recorder wired as the event
/// sink, at every thread count. The shrinker's discovery also lands in
/// the flight ring, so a `--flight-out` dump carries the reproducer.
#[test]
fn chaos_minimal_specs_bit_identical_with_telemetry_on() {
    use pareto_core::{run_chaos, ChaosConfig};
    use pareto_telemetry::FlightRecorder;

    let ds = pareto_datagen::rcv1_syn(5, 0.04);
    let chaos = ChaosConfig {
        schedules: 4,
        seed: 2017,
        inject_corruption: true,
        ..ChaosConfig::default()
    };
    let sweep = |threads: usize, tel: Option<Arc<Telemetry>>| -> Vec<(u64, String)> {
        let (cl, cfg) = make_framework(2017, threads, tel.clone());
        let t = tel.unwrap_or_else(Telemetry::disabled);
        let report = run_chaos(
            &cl,
            &ds,
            WorkloadKind::FrequentPatterns { support: 0.15 },
            &cfg,
            &chaos,
            &t,
        )
        .expect("chaos sweep plans cleanly");
        report
            .failures
            .iter()
            .map(|f| (f.schedule_seed, f.minimal_spec.clone()))
            .collect()
    };
    let _sink_guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for &threads in &THREADS {
        let off = sweep(threads, None);
        assert!(
            !off.is_empty(),
            "threads {threads}: planted corruption must be caught"
        );
        let flight = Arc::new(FlightRecorder::new(256));
        let previous = event::set_sink(flight.clone());
        let on = sweep(threads, Some(Telemetry::enabled()));
        event::set_sink(previous);
        assert_eq!(
            off, on,
            "threads {threads}: minimal specs diverged with telemetry on"
        );
        assert!(
            flight.pushed() > 0,
            "threads {threads}: flight recorder saw no events"
        );
        let dump = flight.dump_json("test");
        assert!(
            dump.contains("violated invariants"),
            "chaos warning missing from flight dump: {dump}"
        );
    }
}

/// With the recorder on, a faulted run leaves an energy ledger whose
/// intervals exactly cover each node's cumulative-busy axis (the
/// telescoping property the attribution's reconciliation relies on), and
/// lineage instants reconstruct the crashed batch's placement and
/// redistribution.
#[test]
fn ledger_covers_busy_time_and_lineage_traces_the_crashed_batch() {
    use std::collections::BTreeMap;

    let seed = 31u64;
    let clean = faulted_run_with(seed, 1, &FaultPlan::none(), None);
    let tc = clean.outcome.recovery.makespan_s * 0.4;
    let faults = FaultPlan::new().with_crash(1, tc);
    let tel = Telemetry::enabled();
    let out = faulted_run_with(seed, 1, &faults, Some(tel.clone()));
    assert_eq!(out.outcome.recovery.crashed_nodes, vec![1]);
    let snap = tel.snapshot();

    // Every node that was accounted busy has ledger intervals, and their
    // busy-axis extents sum to the accounted busy seconds — coverage
    // without overlap, which is what makes the green integrals telescope.
    assert!(!snap.ledger.is_empty(), "faulted run recorded no ledger intervals");
    let mut busy_by_node: BTreeMap<usize, f64> = BTreeMap::new();
    for iv in &snap.ledger {
        assert!(
            iv.busy1_s >= iv.busy0_s,
            "interval runs backwards on the busy axis: {iv:?}"
        );
        *busy_by_node.entry(iv.node).or_insert(0.0) += iv.busy_s();
    }
    for run in &out.outcome.report.runs {
        if run.seconds == 0.0 {
            continue;
        }
        let ledger_busy = busy_by_node.get(&run.node_id).copied().unwrap_or_else(|| {
            panic!(
                "node {} accounted {:.6}s busy but has no ledger intervals",
                run.node_id, run.seconds
            )
        });
        assert!(
            (ledger_busy - run.seconds).abs() <= 1e-9 * run.seconds.max(1.0),
            "node {}: ledger busy {:.9}s vs accounted {:.9}s",
            run.node_id,
            ledger_busy,
            run.seconds
        );
    }

    // Lineage: batch 1 was placed on node 1 at hop 0, and after the crash
    // its remnant moved off the dead node as a hop-1 redistribute.
    let get = |attrs: &[(String, String)], key: &str| -> Option<String> {
        attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let lineage: Vec<_> = snap
        .instants
        .iter()
        .filter(|i| i.name == "lineage")
        .collect();
    assert!(!lineage.is_empty(), "no lineage instants recorded");
    assert!(
        lineage.iter().all(|i| i.track == Track::Coordinator),
        "lineage instants must live on the coordinator track"
    );
    assert!(
        lineage.iter().any(|i| {
            get(&i.attrs, "batch").as_deref() == Some("1")
                && get(&i.attrs, "hop").as_deref() == Some("0")
                && get(&i.attrs, "kind").as_deref() == Some("place")
        }),
        "batch 1's hop-0 placement is missing"
    );
    assert!(
        lineage.iter().any(|i| {
            get(&i.attrs, "batch").as_deref() == Some("1")
                && get(&i.attrs, "kind").as_deref() == Some("redistribute")
                && get(&i.attrs, "from").as_deref() == Some("node1")
        }),
        "batch 1's post-crash redistribution is missing"
    );
}

/// The plan-serving soak is built from the simulation's own bookkeeping,
/// so attaching an enabled recorder may not change one byte of the
/// summary JSON — while the recorder itself must come back rich with the
/// service's outcome and breaker counters.
#[test]
fn service_soak_is_inert_to_recording_but_counters_are_rich() {
    use pareto_service::soak::{run_soak, SoakConfig};
    use pareto_telemetry::metrics::{
        SERVICE_BREAKER_TRANSITIONS_TOTAL, SERVICE_REQUESTS_TOTAL, SERVICE_RETRIES_TOTAL,
    };

    let cfg = SoakConfig {
        requests: 300,
        ..SoakConfig::default()
    };

    let silent = run_soak(cfg.clone(), None);
    let tel = Telemetry::enabled();
    let recorded = run_soak(cfg, Some(tel.clone()));

    assert_eq!(
        silent.json, recorded.json,
        "recording must not change the soak summary by one byte"
    );

    // The requests counter tallies *responses*: served/degraded/error are
    // always terminal, while every shed response counts — including the
    // ones a client retries away (the retry is a new request).
    let snap = tel.snapshot();
    for (label, want) in [
        ("served", recorded.outcomes.served),
        ("degraded", recorded.outcomes.degraded),
        ("shed", recorded.shed_events),
        ("error", recorded.outcomes.error),
    ] {
        let got: u64 = snap
            .metrics
            .counters
            .iter()
            .filter(|(k, _)| {
                k.name == SERVICE_REQUESTS_TOTAL
                    && k.labels.iter().any(|(n, v)| n == "outcome" && v == label)
            })
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(got, want, "outcome counter {label:?} out of balance");
    }
    let retry_total: u64 = snap
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.name == SERVICE_RETRIES_TOTAL)
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(retry_total, recorded.retries, "retry counter out of balance");
    // Scattered soak stalls may never hit one tenant three times in a
    // row, so drive a breaker trip deterministically and check the
    // transition lands on the recorder.
    use pareto_service::{PlanService, Request, RequestKind, ServiceConfig};
    let breaker_tel = Telemetry::enabled();
    let service = PlanService::new(ServiceConfig::default(), Some(breaker_tel.clone()));
    for i in 0..3u64 {
        service.handle(
            &Request {
                id: i,
                tenant: "t0".into(),
                deadline_budget: 0,
                kind: RequestKind::Plan { alpha: 0.99 },
            },
            i,
            true,
        );
    }
    let breaker_snap = breaker_tel.snapshot();
    assert!(
        breaker_snap.metrics.counters.iter().any(|(k, v)| {
            k.name == SERVICE_BREAKER_TRANSITIONS_TOTAL
                && k.labels.iter().any(|(n, v)| n == "to" && v == "open")
                && *v > 0
        }),
        "three consecutive solver failures must record an open transition"
    );
}
