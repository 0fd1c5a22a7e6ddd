//! `paretofab` observability surfaces end-to-end: the bench harness
//! records a baseline it can cleanly compare against and fails loudly on
//! an injected regression; a traced faulted run's telemetry dump
//! validates through `report` and `report lineage` reconstructs the
//! crashed batch's hop chain deterministically; the flight recorder
//! dumps its ring when a run dies.

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
        .args(["bench", "--scale", "0.03", "--nodes", "4", "--seed", "7", "--baseline"])
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

/// Run a traced, fault-injected workload and return its telemetry dump
/// path (caller removes it).
fn traced_faulted_dump(name: &str) -> PathBuf {
    let dump = tmp(name);
    let out = bin()
        .args([
            "run", "--preset", "rcv1", "--scale", "0.05", "--nodes", "4", "--seed", "31",
            "--strategy", "het-energy-aware", "--alpha", "0.995", "--support", "0.15",
            "--faults", "crash:1@0.5", "--telemetry-out",
        ])
        .arg(&dump)
        .output()
        .expect("spawn paretofab run");
    assert!(
        out.status.success(),
        "traced faulted run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dump
}

/// The telemetry dump of a faulted run validates and summarizes through
/// `report`, and `report lineage` reconstructs the crashed batch's full
/// hop chain — placement then redistribution off the dead node — with
/// byte-identical output across invocations.
#[test]
fn report_validates_dump_and_reconstructs_lineage() {
    let dump = traced_faulted_dump("dump.json");

    let out = bin()
        .args(["report", "--input"])
        .arg(&dump)
        .output()
        .expect("spawn paretofab report");
    assert!(
        out.status.success(),
        "report failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("telemetry dump:"), "summary header missing: {stdout}");
    assert!(stdout.contains("[ledger]"), "ledger section missing: {stdout}");

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
    assert!(chain.contains("lineage of batch 1"), "header missing: {chain}");
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

    let _ = std::fs::remove_file(&dump);
}

/// A run that cannot complete (every node crashes) dumps the flight
/// ring — bounded, JSON, tagged with the failure reason — while a clean
/// run leaves the armed recorder silent.
#[test]
fn flight_recorder_dumps_on_failure_only() {
    let flight = tmp("flight.json");
    let out = bin()
        .args([
            "run", "--preset", "rcv1", "--scale", "0.02", "--nodes", "2", "--seed", "7",
            "--faults", "crash:0@0.01,crash:1@0.01", "--flight-out",
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
            "run", "--preset", "rcv1", "--scale", "0.02", "--nodes", "2", "--seed", "7",
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
}
