//! `paretofab` observability surfaces end-to-end: the bench harness
//! records a baseline it can cleanly compare against and fails loudly on
//! an injected regression; a traced faulted run's telemetry dump
//! validates through `report` and `report lineage` reconstructs the
//! crashed batch's hop chain deterministically while its chrome trace and
//! Prometheus exposition validate; the flight recorder dumps its ring when
//! a run dies or a chaos sweep finds a violation. Two more end-to-end
//! checks live here: a WAL-durable run recovers every node, and graph
//! presets plan at scales below their host count.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_paretofab"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("paretofab-obs-{name}-{}", std::process::id()));
    p
}

/// Small, fast bench matrix shared by the regression tests.
const BENCH_ARGS: [&str; 7] = ["bench", "--scale", "0.02", "--nodes", "4", "--seed", "7"];

fn bench(extra: &[&str]) -> std::process::Output {
    bin()
        .args(BENCH_ARGS)
        .args(extra)
        .output()
        .expect("spawn paretofab bench")
}

/// Recording a baseline and immediately comparing against it passes; an
/// injected synthetic regression (a gated metric the current run cannot
/// produce) exits nonzero with a `bench-regression:` diagnostic.
#[test]
fn bench_baseline_round_trip_and_injected_regression() {
    let record = tmp("bench.json");
    let out = bench(&["--record", record.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "bench --record failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&record).expect("read bench record");
    for key in ["\"bench\"", "cold_plan.makespan_s", "faulted_run.green_kj"] {
        assert!(json.contains(key), "bench record missing {key}: {json}");
    }

    // Same matrix, same metrics: the self-comparison is clean.
    let out = bench(&["--baseline", record.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "self-baseline comparison failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("within tolerance"),
        "missing clean verdict: {stdout}"
    );

    // Inject a regression: rename a gated metric in the baseline so the
    // current run can no longer produce it.
    let perturbed = tmp("bench-perturbed.json");
    std::fs::write(
        &perturbed,
        json.replace("cold_plan.makespan_s", "cold_plan.makespan_zz"),
    )
    .expect("write perturbed baseline");
    let out = bench(&["--baseline", perturbed.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "injected regression must exit nonzero"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("bench-regression:") && stdout.contains("missing from current run"),
        "missing regression diagnostic: {stdout}"
    );

    // A baseline from a different matrix is an error, not a pass.
    let out = bin()
        .args([
            "bench",
            "--scale",
            "0.03",
            "--nodes",
            "4",
            "--seed",
            "7",
            "--baseline",
        ])
        .arg(&record)
        .output()
        .expect("spawn paretofab bench");
    assert!(!out.status.success(), "matrix mismatch must exit nonzero");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("matrix mismatch"),
        "missing matrix-mismatch diagnostic"
    );

    let _ = std::fs::remove_file(&record);
    let _ = std::fs::remove_file(&perturbed);
}

/// Run a traced, fault-injected workload with every exporter on and return
/// its telemetry dump, chrome trace and Prometheus paths (caller removes
/// them).
fn traced_faulted_dump(name: &str) -> [PathBuf; 3] {
    let files = [
        tmp(&format!("{name}.json")),
        tmp(&format!("{name}-trace.json")),
        tmp(&format!("{name}.prom")),
    ];
    let out = bin()
        .args([
            "run",
            "--preset",
            "rcv1",
            "--scale",
            "0.05",
            "--nodes",
            "4",
            "--seed",
            "31",
            "--strategy",
            "het-energy-aware",
            "--alpha",
            "0.995",
            "--support",
            "0.15",
            "--faults",
            "crash:1@0.5",
        ])
        .arg("--telemetry-out")
        .arg(&files[0])
        .arg("--trace-out")
        .arg(&files[1])
        .arg("--metrics-out")
        .arg(&files[2])
        .output()
        .expect("spawn paretofab run");
    assert!(
        out.status.success(),
        "traced faulted run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    files
}

/// The telemetry dump of a faulted run validates and summarizes through
/// `report`, its chrome trace validates alongside it (matched B/E pairs,
/// monotone timestamps per track), its Prometheus exposition parses, and
/// `report lineage` reconstructs the crashed batch's full hop chain —
/// placement then redistribution off the dead node — with byte-identical
/// output across invocations.
#[test]
fn report_validates_dump_and_reconstructs_lineage() {
    let [dump, trace, prom] = traced_faulted_dump("dump");

    let out = bin()
        .args(["report", "--input"])
        .arg(&dump)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("spawn paretofab report");
    assert!(
        out.status.success(),
        "report failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("telemetry dump:"),
        "summary header missing: {stdout}"
    );
    assert!(
        stdout.contains("[ledger]"),
        "ledger section missing: {stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("chrome trace ") && l.contains(": OK")),
        "chrome trace verdict missing: {stdout}"
    );

    let exposition = std::fs::read_to_string(&prom).expect("read --metrics-out file");
    pareto_telemetry::export::validate_exposition(&exposition)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{exposition}"));
    assert!(
        exposition.contains("pareto_plan_cache_events_total"),
        "exposition missing the plan-cache counters: {exposition}"
    );

    let lineage = |batch: &str| -> std::process::Output {
        bin()
            .args(["report", "lineage", "--input"])
            .arg(&dump)
            .args(["--batch", batch])
            .output()
            .expect("spawn paretofab report lineage")
    };
    let out = lineage("1");
    assert!(
        out.status.success(),
        "report lineage failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chain = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        chain.contains("lineage of batch 1"),
        "header missing: {chain}"
    );
    assert!(chain.contains("place - -> node1"), "hop 0 missing: {chain}");
    assert!(
        chain.contains("redistribute node1 -> "),
        "post-crash redistribution missing: {chain}"
    );

    // Deterministic reconstruction: same dump, same bytes.
    let again = lineage("1");
    assert_eq!(out.stdout, again.stdout, "lineage output is not stable");

    // A batch that never existed is a clean error.
    let out = lineage("99");
    assert!(!out.status.success(), "unknown batch must exit nonzero");

    for file in [dump, trace, prom] {
        let _ = std::fs::remove_file(file);
    }
}

/// A run that cannot complete (every node crashes) dumps the flight
/// ring — bounded, JSON, tagged with the failure reason — while a clean
/// run leaves the armed recorder silent.
#[test]
fn flight_recorder_dumps_on_failure_only() {
    let flight = tmp("flight.json");
    let out = bin()
        .args([
            "run",
            "--preset",
            "rcv1",
            "--scale",
            "0.02",
            "--nodes",
            "2",
            "--seed",
            "7",
            "--faults",
            "crash:0@0.01,crash:1@0.01",
            "--flight-out",
        ])
        .arg(&flight)
        .output()
        .expect("spawn paretofab run");
    assert!(!out.status.success(), "all-nodes-crash run must fail");
    let dump = std::fs::read_to_string(&flight).expect("flight dump written");
    for key in ["\"flight-recorder\"", "\"run-error\"", "\"frames\""] {
        assert!(dump.contains(key), "flight dump missing {key}: {dump}");
    }
    let _ = std::fs::remove_file(&flight);

    let flight = tmp("flight-clean.json");
    let out = bin()
        .args([
            "run",
            "--preset",
            "rcv1",
            "--scale",
            "0.02",
            "--nodes",
            "2",
            "--seed",
            "7",
            "--flight-out",
        ])
        .arg(&flight)
        .output()
        .expect("spawn paretofab run");
    assert!(
        out.status.success(),
        "clean run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !flight.exists(),
        "flight recorder must stay silent on a clean run"
    );

    // A chaos sweep that catches its planted corruption succeeds, and the
    // violation still arms the recorder.
    let flight = tmp("flight-chaos.json");
    let out = bin()
        .args([
            "chaos",
            "--preset",
            "rcv1",
            "--scale",
            "0.05",
            "--seed",
            "2017",
            "--nodes",
            "4",
            "--schedules",
            "16",
            "--inject-corruption",
            "--flight-out",
        ])
        .arg(&flight)
        .output()
        .expect("spawn paretofab chaos");
    assert!(
        out.status.success(),
        "caught corruption must exit 0:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = std::fs::read_to_string(&flight).expect("flight dump written on violation");
    for key in ["\"flight-recorder\"", "\"chaos-violation\""] {
        assert!(dump.contains(key), "flight dump missing {key}: {dump}");
    }
    let _ = std::fs::remove_file(&flight);
}

/// `run --durability wal` replays every node's snapshot + WAL after the
/// workload and reports a bit-identical recovery on each of them.
#[test]
fn durable_run_recovers_every_node() {
    let out = bin()
        .args([
            "run",
            "--preset",
            "rcv1",
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--nodes",
            "4",
            "--workload",
            "patterns",
            "--durability",
            "wal",
        ])
        .output()
        .expect("spawn paretofab run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "durable run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for node in 0..4 {
        let prefix = format!("node {node}: ");
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_start().starts_with(&prefix) && l.ends_with("recovery ok")),
            "node {node} did not recover bit-identically:\n{stdout}"
        );
    }
}

/// Scales too small for a graph preset's host count generate one vertex
/// per host instead of panicking.
#[test]
fn tiny_scale_graph_presets_plan() {
    for preset in ["uk", "arabic"] {
        let out = bin()
            .args([
                "plan", "--preset", preset, "--scale", "0.001", "--nodes", "4",
            ])
            .output()
            .expect("spawn paretofab plan");
        assert!(
            out.status.success(),
            "{preset} at scale 0.001 exited {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
