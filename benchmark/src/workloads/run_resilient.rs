//! `run_resilient`: what `paretofab run --durability wal` and
//! `paretofab run --faults` do end to end — plan, place, execute, recover.
//!
//! A round visits `GRAPHS` seeded web graphs; each gets two ops: (a)
//! `Framework::try_run` with WAL durability, then (b)
//! `Framework::try_run_with_faults` under a fault spec whose times are
//! fractions of the makespan op (a) just measured on that graph. Absolute
//! fault times tuned to one dataset silently never fire on another.

use std::time::Instant;

use pareto_cluster::{Durability, FaultPlan, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig};
use pareto_core::RecoveryConfig;
use pareto_datagen::Dataset;
use pareto_workloads::WorkloadKind;

use super::{check_plan_covers, paper_cluster, plan_cfg, predicted, Recorder, NODES};
use crate::rng::{sub_seed, Rng};
use crate::trace::Tracer;

/// Graphs per round (two ops each).
pub const GRAPHS: usize = 16;
/// `uk_syn` scale: 450 vertices.
pub const SCALE: f64 = 0.05;
pub const WORKLOAD: WorkloadKind = WorkloadKind::WebGraph;

/// The `i`-th graph of round `round` under run seed `seed`.
pub fn graph(seed: u64, round: usize, i: usize) -> Dataset {
    pareto_datagen::uk_syn(sub_seed(seed, 3, (round * GRAPHS + i) as u64), SCALE)
}

/// The fault spec of a round's graph `i`, in the `--faults` grammar,
/// rotating over four shapes; nodes and factors are drawn from the seed,
/// times are set against the measured fault-free `makespan_s`. The node
/// that fails is drawn among the nodes `sizes` (the fault-free plan, which
/// the faulted op recomputes bit for bit) gave records: the LP leaves some
/// nodes idle, and a failure there orphans nothing. Returns the spec and
/// whether it must force at least one replan.
pub fn fault_spec(
    seed: u64,
    round: usize,
    i: usize,
    makespan_s: f64,
    sizes: &[usize],
) -> (String, bool) {
    let mut rng = Rng::new(sub_seed(seed, 4, (round * GRAPHS + i) as u64));
    // A plan that covers its records loads at least one node.
    let loaded: Vec<u64> = (0..NODES as u64)
        .filter(|&n| sizes[n as usize] > 0)
        .collect();
    let a = loaded[rng.below(loaded.len() as u64) as usize];
    let b = (a + 1 + rng.below(NODES as u64 - 1)) % NODES as u64;
    let slow = 2.0 + 2.0 * rng.unit();
    match i % 4 {
        // A crash a fifth of the way in, plus a straggler.
        0 => (
            format!("crash:{a}@{},slow:{b}@{slow}", 0.2 * makespan_s),
            true,
        ),
        // Transient store errors within the retry budget, then a mid-job crash.
        1 => (format!("kv:{b}@2,crash:{a}@{}", 0.5 * makespan_s), true),
        // Store errors beyond the retry budget: the node is declared failed.
        2 => (format!("kv:{a}@5"), true),
        // No failure: a straggler and a degraded link for the whole job.
        _ => (format!("slow:{a}@{slow},net:{b}@0-{makespan_s}@8"), false),
    }
}

/// What op (a) observed.
pub struct DurableRun {
    pub latency_s: f64,
    /// Wall seconds of the op spent planning (`Plan.timings.total_s`).
    pub plan_s: f64,
    /// Simulated makespan the run achieved.
    pub makespan_s: f64,
    /// Achieved makespan / LP-predicted makespan.
    pub makespan_rel: f64,
    /// Records the plan gave each node.
    pub sizes: Vec<usize>,
}

/// Op (a): plan, place with the WAL armed, execute, replay every node's
/// log.
pub fn durable_run(
    cluster: &SimCluster,
    data: &Dataset,
    tr: &mut Tracer,
) -> Result<DurableRun, String> {
    let cfg = FrameworkConfig {
        durability: Durability::Wal,
        ..plan_cfg()
    };
    let fw = Framework::new(cluster, cfg);
    let t0 = Instant::now();
    let out = tr
        .span("try_run", |_| fw.try_run(data, WORKLOAD))
        .map_err(|e| e.to_string())?;
    let latency_s = t0.elapsed().as_secs_f64();
    tr.span("check", |tr| {
        check_plan_covers(&out.plan, data.len())?;
        let durability = out.durability.as_ref().ok_or("no durability report")?;
        if !durability.all_recovered() {
            return Err("a node's WAL replay did not reproduce its store".to_string());
        }
        tr.count("wal.records", durability.total_wal_records());
        let makespan_s = out.report.makespan_seconds;
        Ok(DurableRun {
            latency_s,
            plan_s: out.plan.timings.total_s,
            makespan_s,
            makespan_rel: makespan_s / predicted(&out.plan)?.0,
            sizes: out.plan.sizes.clone(),
        })
    })
}

/// What op (b) observed.
pub struct FaultedRun {
    pub latency_s: f64,
    pub plan_s: f64,
    pub replans: u32,
    pub items_reassigned: usize,
    pub steals: u32,
    /// Recovered makespan / fault-free makespan of the same job.
    pub makespan_rel: f64,
}

/// Op (b): plan, then execute under `spec`, recovering by re-solving the
/// LP.
pub fn faulted_run(
    cluster: &SimCluster,
    data: &Dataset,
    spec: &str,
    tr: &mut Tracer,
) -> Result<FaultedRun, String> {
    let faults = FaultPlan::parse(spec, NODES).map_err(|e| format!("{spec}: {e}"))?;
    let fw = Framework::new(cluster, plan_cfg());
    let t0 = Instant::now();
    let out = tr
        .span("try_run_with_faults", |_| {
            fw.try_run_with_faults(data, WORKLOAD, &faults, &RecoveryConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let latency_s = t0.elapsed().as_secs_f64();
    tr.span("check", |tr| {
        let r = &out.outcome.recovery;
        if !r.exactly_once || r.items_completed != r.items_total || r.items_total != data.len() {
            return Err(format!(
                "{spec}: {} of {} items completed, exactly_once={}",
                r.items_completed, r.items_total, r.exactly_once
            ));
        }
        if r.faults_injected == 0 {
            return Err(format!("{spec}: no fault was injected"));
        }
        tr.count("recovery.replans", u64::from(r.replans));
        Ok(FaultedRun {
            latency_s,
            plan_s: out.plan.timings.total_s,
            replans: r.replans,
            items_reassigned: r.items_reassigned,
            steals: r.speculative_steals,
            makespan_rel: r.makespan_s / r.fault_free_makespan_s,
        })
    })
}

/// One round: a WAL run and a faulted run on each of `GRAPHS` graphs.
pub fn round(seed: u64, round: usize, tr: &mut Tracer, rec: &mut Recorder) -> Result<(), String> {
    let t0 = Instant::now();
    let graphs: Vec<Dataset> = (0..GRAPHS).map(|i| graph(seed, round, i)).collect();
    rec.setup_s.push(t0.elapsed().as_secs_f64());

    let (mut must_replan, mut replanned) = (0, 0);
    for (i, data) in graphs.iter().enumerate() {
        // A fresh cluster per op, as each `paretofab run` builds its own:
        // the nodes' stores start empty.
        let cluster = paper_cluster();
        let durable = match tr.span("op", |tr| durable_run(&cluster, data, tr)) {
            Ok(run) => {
                rec.ok(run.latency_s);
                rec.makespan_rel.push(run.makespan_rel);
                run
            }
            Err(e) => {
                rec.fail(|| format!("run_resilient graph {i} durable run: {e}"));
                continue;
            }
        };
        let cluster = paper_cluster();
        let (spec, forces_replan) = fault_spec(seed, round, i, durable.makespan_s, &durable.sizes);
        match tr.span("op", |tr| faulted_run(&cluster, data, &spec, tr)) {
            Ok(run) => {
                rec.ok(run.latency_s);
                rec.makespan_rel.push(run.makespan_rel);
                must_replan += usize::from(forces_replan);
                replanned += usize::from(forces_replan && run.replans > 0);
            }
            Err(e) => rec.fail(|| format!("run_resilient graph {i} faulted run: {e}")),
        }
    }
    // Fault times derive from each graph's measured makespan and failures
    // land on nodes that hold records, so the crash and retry-exhaustion
    // specs must actually fire (a lightly loaded node can still finish
    // before its crash time).
    if 2 * replanned < must_replan {
        rec.fail(|| format!("only {replanned} of {must_replan} failure specs forced a replan"));
    }
    rec.end_round(None);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_parse_and_scale_with_the_makespan() {
        // Nodes 0 and 4 idle, as the LP plans the paper cluster.
        let sizes = [0, 102, 70, 53, 0, 102, 70, 53];
        let spec_of = |seed, round, i, makespan_s| fault_spec(seed, round, i, makespan_s, &sizes);
        for round in 0..8 {
            for i in 0..GRAPHS {
                let (spec, forces_replan) = spec_of(2017, round, i, 0.25);
                let plan = FaultPlan::parse(&spec, NODES).unwrap_or_else(|e| panic!("{spec}: {e}"));
                assert!(!plan.is_empty());
                for (node, &size) in sizes.iter().enumerate() {
                    if let Some(at) = plan.crash_time(node) {
                        assert!(at > 0.0 && at < 0.25, "{spec}: crash inside the job");
                        assert!(size > 0, "{spec}: crash on a node with records");
                    }
                }
                if i % 4 == 2 {
                    let node: usize = spec["kv:".len()..spec.len() - 2].parse().unwrap();
                    assert!(forces_replan && sizes[node] > 0, "{spec}");
                }
                assert_eq!(spec_of(2017, round, i, 0.25).0, spec);
            }
        }
        assert_ne!(spec_of(2017, 0, 0, 0.25).0, spec_of(2017, 0, 0, 0.5).0);
        assert_ne!(spec_of(2017, 0, 0, 0.25).0, spec_of(7, 0, 0, 0.25).0);
        assert_ne!(spec_of(2017, 0, 0, 0.25).0, spec_of(2017, 1, 0, 0.25).0);
    }
}
