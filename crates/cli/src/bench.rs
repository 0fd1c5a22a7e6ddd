//! `paretofab bench`: the deterministic perf/energy regression gate.
//!
//! Runs a fixed workload matrix — cold plan, warm replan, WAL recover,
//! frontier explore, faulted run — once each and emits their
//! deterministic outputs (predicted makespan, LP solves, cache hit rate,
//! attributed green/dirty joules) as a BENCH JSON record. `--baseline`
//! compares them against a previous record within each metric's relative
//! tolerance band and exits nonzero on any out-of-band drift — a genuine
//! behavioral regression.
//!
//! Nothing here is timed: wall-clock numbers come from `benchmark/run.sh`
//! only. Records written before that split also carry ungated
//! (`"gate": 0`) wall rows and a sampling-count key in their matrix; both
//! are skipped when such a record is the baseline, so the committed
//! `BENCH_*.json` trajectory stays comparable.
//!
//! The matrix is self-contained (always the rcv1 preset, strategy forced
//! to het-energy-aware α=0.995) so a record is comparable across
//! branches; `--scale/--seed/--nodes` are captured in the record and must
//! match between baseline and current run.

use std::fs;
use std::path::Path;
use std::time::Instant;

use pareto_cluster::{FaultPlan, KvStore, NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::frontier::FrontierConfig;
use pareto_core::{PlanSession, RecoveryConfig};
use pareto_telemetry::json::{self, Value};
use pareto_telemetry::{event, Telemetry};
use pareto_workloads::WorkloadKind;

use crate::args::Common;

/// Relative tolerance band for gated metrics: the ledger reconciliation
/// bound from the energy-attribution layer, reused here so "no worse than
/// the accounting can resolve" is one number everywhere.
const GATE_TOL_REL: f64 = 1e-3;

/// One named, gated measurement in a bench record: a deterministic
/// output of the run, compared against the baseline within
/// [`GATE_TOL_REL`].
struct Metric {
    name: &'static str,
    value: f64,
}

impl Metric {
    fn gated(name: &'static str, value: f64) -> Metric {
        Metric { name, value }
    }
}

/// The fixed matrix parameters captured in (and compared between)
/// records.
struct Matrix {
    preset: &'static str,
    scale: f64,
    seed: u64,
    nodes: usize,
}

fn framework_cfg(m: &Matrix) -> FrameworkConfig {
    FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: 0.995 },
        seed: m.seed,
        ..FrameworkConfig::default()
    }
}

fn bench_cluster(m: &Matrix) -> SimCluster {
    SimCluster::new(NodeSpec::paper_cluster(m.nodes, 400.0, 2, 9, m.seed))
}

const BENCH_WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.1 };

/// Workload 1: cold planning — a fresh session pays the full pipeline.
fn cold_plan(m: &Matrix) -> Result<Vec<Metric>, String> {
    let dataset = pareto_datagen::rcv1_syn(m.seed, m.scale);
    let cluster = bench_cluster(m);
    let mut session = PlanSession::new(&cluster, framework_cfg(m), dataset, BENCH_WORKLOAD);
    let plan = session.plan().map_err(|e| e.to_string())?;
    let point = plan
        .pareto
        .as_ref()
        .ok_or("bench strategy fits no pareto point")?;
    Ok(vec![
        Metric::gated("cold_plan.makespan_s", point.predicted_makespan),
        Metric::gated("cold_plan.dirty_kj", point.predicted_dirty_joules / 1000.0),
    ])
}

/// Workload 2: warm replanning — one session, two replans at alternating
/// α so the sketch/stratify/profile artifacts are reused while the
/// optimizer re-solves; the cache hit rate is the gated output.
fn warm_replan(m: &Matrix) -> Result<Vec<Metric>, String> {
    let dataset = pareto_datagen::rcv1_syn(m.seed, m.scale);
    let cluster = bench_cluster(m);
    let mut session = PlanSession::new(&cluster, framework_cfg(m), dataset, BENCH_WORKLOAD);
    session.plan().map_err(|e| e.to_string())?; // cold fill
    for alpha in [0.999, 0.995] {
        session.set_alpha(alpha);
        session.plan().map_err(|e| e.to_string())?;
    }
    let (mut hits, mut misses) = (0u64, 0u64);
    for (_, kind, count) in session.cache_stats().events() {
        match kind {
            "hit" => hits += count,
            "miss" => misses += count,
            _ => {}
        }
    }
    let rate = hits as f64 / (hits + misses).max(1) as f64;
    Ok(vec![Metric::gated("warm_replan.cache_hit_rate", rate)])
}

/// Workload 3: WAL recovery — replay a fixed log back into a store.
fn wal_recover(_: &Matrix) -> Result<Vec<Metric>, String> {
    let store = KvStore::new();
    store.enable_wal();
    for i in 0..2000u32 {
        store
            .set(&format!("key{i}"), format!("value-{i}").into_bytes())
            .map_err(|e| format!("bench kv set: {e:?}"))?;
        store
            .incr("counter")
            .map_err(|e| format!("bench kv incr: {e:?}"))?;
    }
    let (_, report) =
        KvStore::recover(None, &store.wal_bytes()).map_err(|e| format!("recover: {e:?}"))?;
    Ok(vec![Metric::gated(
        "wal_recover.records_replayed",
        report.records_replayed as f64,
    )])
}

/// Workload 4: frontier exploration through a fresh session, so
/// the run pays the full solve; LP effort and frontier size are the
/// gated outputs.
fn frontier_explore(m: &Matrix) -> Result<Vec<Metric>, String> {
    let fcfg = FrontierConfig {
        max_points: 24,
        ..FrontierConfig::default()
    };
    let dataset = pareto_datagen::rcv1_syn(m.seed, m.scale);
    let cluster = bench_cluster(m);
    let mut session = PlanSession::new(&cluster, framework_cfg(m), dataset, BENCH_WORKLOAD);
    let outcome = session.explore_frontier(&fcfg).map_err(|e| e.to_string())?;
    let report = outcome.result.report();
    Ok(vec![
        Metric::gated("frontier_explore.lp_solves", report.lp_solves as f64),
        Metric::gated("frontier_explore.points_kept", report.points_kept as f64),
    ])
}

/// Workload 5: a fault-injected run with telemetry armed, so the gated
/// metrics include the energy ledger's attributed green/dirty joules —
/// the regression gate over the paper's energy objective.
fn faulted_run(m: &Matrix) -> Result<Vec<Metric>, String> {
    let spec = "crash:1@0.5,slow:0@3";
    let faults = FaultPlan::parse(spec, m.nodes).map_err(|e| e.to_string())?;
    let tel = Telemetry::enabled();
    let dataset = pareto_datagen::rcv1_syn(m.seed, m.scale);
    let cluster = bench_cluster(m).with_telemetry(tel.clone());
    let fw = Framework::new(&cluster, framework_cfg(m)).with_telemetry(tel.clone());
    let out = fw
        .try_run_with_faults(&dataset, BENCH_WORKLOAD, &faults, &RecoveryConfig::default())
        .map_err(|e| e.to_string())?;
    let rows = cluster.attribute_energy(&tel.snapshot().ledger);
    let energy_j: f64 = rows.iter().map(|r| r.energy_j).sum();
    let green_j: f64 = rows.iter().map(|r| r.green_j).sum();
    let rec = &out.outcome.recovery;
    Ok(vec![
        Metric::gated("faulted_run.makespan_s", rec.makespan_s),
        Metric::gated("faulted_run.replans", f64::from(rec.replans)),
        Metric::gated("faulted_run.green_kj", green_j / 1000.0),
        Metric::gated("faulted_run.dirty_kj", (energy_j - green_j) / 1000.0),
    ])
}

/// Serialize a record deterministically via the telemetry JSON model
/// (fixed key order). Every row is gated; the `gate` key stays so older
/// and newer records read the same way.
fn record_json(m: &Matrix, metrics: &[Metric]) -> String {
    let matrix = Value::obj(vec![
        ("preset", Value::Str(m.preset.into())),
        ("scale", Value::Num(m.scale)),
        ("seed", Value::Num(m.seed as f64)),
        ("nodes", Value::Num(m.nodes as f64)),
    ]);
    let entries = Value::Arr(
        metrics
            .iter()
            .map(|metric| {
                Value::obj(vec![
                    ("name", Value::Str(metric.name.into())),
                    ("value", Value::Num(metric.value)),
                    ("gate", Value::Num(1.0)),
                    ("tol_rel", Value::Num(GATE_TOL_REL)),
                ])
            })
            .collect(),
    );
    Value::obj(vec![
        ("version", Value::Num(1.0)),
        ("kind", Value::Str("bench".into())),
        ("matrix", matrix),
        ("metrics", entries),
    ])
    .to_json()
}

fn matrix_field(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get("matrix")
        .and_then(|m| m.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("baseline matrix missing {key:?}"))
}

/// Compare the run against a baseline record's gated rows. Returns the
/// list of regression lines (empty = pass).
fn compare_against(
    baseline_text: &str,
    m: &Matrix,
    metrics: &[Metric],
) -> Result<Vec<String>, String> {
    let doc = json::parse(baseline_text).map_err(|e| format!("parse baseline: {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("bench") {
        return Err("baseline is not a bench record".into());
    }
    let preset = doc
        .get("matrix")
        .and_then(|mx| mx.get("preset"))
        .and_then(Value::as_str)
        .ok_or("baseline matrix missing preset")?;
    if preset != m.preset {
        return Err(format!(
            "baseline matrix mismatch: preset {preset:?} vs {:?}",
            m.preset
        ));
    }
    for (key, ours) in [
        ("scale", m.scale),
        ("seed", m.seed as f64),
        ("nodes", m.nodes as f64),
    ] {
        let theirs = matrix_field(&doc, key)?;
        if theirs != ours {
            return Err(format!(
                "baseline matrix mismatch: {key} {theirs} vs {ours} — re-record instead of comparing"
            ));
        }
    }
    let entries = doc
        .get("metrics")
        .and_then(Value::as_arr)
        .ok_or("baseline missing metrics array")?;
    let mut regressions = Vec::new();
    for entry in entries {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or("baseline metric missing name")?;
        let gate = entry.get("gate").and_then(Value::as_f64).unwrap_or(0.0) != 0.0;
        if !gate {
            continue;
        }
        let base = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("baseline metric {name:?} missing value"))?;
        let tol = entry
            .get("tol_rel")
            .and_then(Value::as_f64)
            .unwrap_or(GATE_TOL_REL);
        let Some(current) = metrics.iter().find(|metric| metric.name == name) else {
            regressions.push(format!(
                "bench-regression: {name} missing from current run (baseline {base})"
            ));
            continue;
        };
        let rel = (current.value - base).abs() / base.abs().max(1e-9);
        if rel > tol {
            regressions.push(format!(
                "bench-regression: {name} baseline={base} current={} rel={rel:.3e} tol={tol:.1e}",
                current.value
            ));
        }
    }
    Ok(regressions)
}

/// `bench`: run the matrix, optionally record, optionally gate against a
/// baseline.
pub fn bench_cmd(
    common: &Common,
    record: Option<&Path>,
    baseline: Option<&Path>,
) -> Result<(), String> {
    let m = Matrix {
        preset: "rcv1",
        scale: common.scale,
        seed: common.seed,
        nodes: common.nodes,
    };
    println!(
        "bench matrix       preset={} scale={} seed={} nodes={}",
        m.preset, m.scale, m.seed, m.nodes
    );
    let mut metrics = Vec::new();
    for (label, run) in [
        ("cold_plan", cold_plan as fn(&Matrix) -> Result<Vec<Metric>, String>),
        ("warm_replan", warm_replan),
        ("wal_recover", wal_recover),
        ("frontier_explore", frontier_explore),
        ("faulted_run", faulted_run),
    ] {
        let t0 = Instant::now();
        metrics.extend(run(&m)?);
        println!(
            "bench workload     {label} done in {:.3}s",
            t0.elapsed().as_secs_f64()
        );
    }
    for metric in &metrics {
        println!("bench metric       {} = {}  [gated]", metric.name, metric.value);
    }

    if let Some(path) = record {
        fs::write(path, record_json(&m, &metrics)).map_err(|e| format!("write {path:?}: {e}"))?;
        event::info("cli", format!("wrote bench record to {}", path.display()));
    }
    if let Some(path) = baseline {
        let text = fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        let regressions = compare_against(&text, &m, &metrics)?;
        if regressions.is_empty() {
            println!(
                "bench result       all gated metrics within tolerance of {}",
                path.display()
            );
        } else {
            for line in &regressions {
                println!("{line}");
            }
            return Err(format!(
                "{} gated metric(s) regressed vs {}",
                regressions.len(),
                path.display()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record committed while this harness still sampled wall time and
    /// ran the LP warm-start workload: 14 gated rows, 12 ungated wall rows
    /// and a sampling-count matrix key.
    const OLD_RECORD: &str = include_str!("../../../BENCH_16.json");

    fn tiny_matrix() -> Matrix {
        Matrix {
            preset: "rcv1",
            scale: 0.02,
            seed: 2017,
            nodes: 4,
        }
    }

    /// The gated rows of a record, as a current run would produce them.
    fn gated_rows(record: &str) -> Vec<Metric> {
        let doc = json::parse(record).unwrap();
        let rows = doc.get("metrics").and_then(Value::as_arr).unwrap();
        rows.iter()
            .filter(|row| row.get("gate").and_then(Value::as_f64) != Some(0.0))
            .map(|row| {
                let name = row.get("name").and_then(Value::as_str).unwrap();
                let value = row.get("value").and_then(Value::as_f64).unwrap();
                Metric::gated(Box::leak(name.to_string().into_boxed_str()), value)
            })
            .collect()
    }

    #[test]
    fn record_round_trips_and_compares_clean_against_itself() {
        let m = tiny_matrix();
        let metrics = vec![Metric::gated("cold_plan.makespan_s", 12.5)];
        let text = record_json(&m, &metrics);
        let regressions = compare_against(&text, &m, &metrics).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn gated_drift_is_a_regression_but_wall_drift_is_not() {
        let m = tiny_matrix();
        // The old record's wall rows have no counterpart in a current run
        // and its matrix has a key this harness no longer writes: neither
        // is a regression.
        let mut current = gated_rows(OLD_RECORD);
        assert_eq!(current.len(), 14);
        let regressions = compare_against(OLD_RECORD, &m, &current).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
        // Green joules off by 1%: regression.
        let green = current
            .iter_mut()
            .find(|metric| metric.name == "faulted_run.green_kj")
            .unwrap();
        green.value *= 1.01;
        let regressions = compare_against(OLD_RECORD, &m, &current).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("faulted_run.green_kj"));
    }

    #[test]
    fn matrix_mismatch_is_an_error_not_a_pass() {
        let m = tiny_matrix();
        let baseline = record_json(&m, &[Metric::gated("x", 1.0)]);
        let other = Matrix {
            nodes: 8,
            ..tiny_matrix()
        };
        let err = compare_against(&baseline, &other, &[Metric::gated("x", 1.0)]).unwrap_err();
        assert!(err.contains("matrix mismatch"), "{err}");
    }

    #[test]
    fn missing_gated_metric_fails_comparison() {
        let m = tiny_matrix();
        let baseline = record_json(&m, &[Metric::gated("frontier_explore.lp_solves", 9.0)]);
        let regressions = compare_against(&baseline, &m, &[]).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("missing from current run"));
    }
}
