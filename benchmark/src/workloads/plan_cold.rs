//! `plan_cold`: a fresh `PlanSession` (private, empty cache) and one
//! `plan()` per op. Every stage misses.
//!
//! One round plans `CORPORA` different seeded corpora once each; no
//! corpus is ever planned twice in a run.

use std::time::Instant;

use pareto_cluster::SimCluster;
use pareto_core::framework::{FrameworkConfig, Plan};
use pareto_core::PlanSession;
use pareto_datagen::Dataset;
use pareto_workloads::WorkloadKind;

use super::{check_plan_covers, paper_cluster, plan_cfg, plan_digest, predicted, Recorder, ALPHA};
use crate::rng::sub_seed;
use crate::trace::Tracer;

/// Corpora (= ops) per round.
pub const CORPORA: usize = 32;
/// `rcv1_syn` scale: 625 documents.
pub const SCALE: f64 = 0.125;
pub const WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.1 };

/// The `i`-th corpus of round `round` under run seed `seed`.
pub fn corpus(seed: u64, round: usize, i: usize) -> Dataset {
    pareto_datagen::rcv1_syn(sub_seed(seed, 1, (round * CORPORA + i) as u64), SCALE)
}

/// The timed part of one op: open a session over `dataset` and plan.
/// Returns the plan, the op's latency, and the session for follow-ups.
pub fn cold_plan<'a>(
    cluster: &'a SimCluster,
    cfg: FrameworkConfig,
    dataset: Dataset,
    tr: &mut Tracer,
) -> Result<(Plan, f64, PlanSession<'a>), String> {
    let t0 = Instant::now();
    let mut session = tr.span("session_new", |_| {
        PlanSession::new(cluster, cfg, dataset, WORKLOAD)
    });
    let plan = tr
        .span("plan", |_| session.plan())
        .map_err(|e| e.to_string())?;
    Ok((plan, t0.elapsed().as_secs_f64(), session))
}

/// The plan's LP-predicted `(makespan, dirty energy)`, each relative to
/// the pure-makespan plan (alpha = 1) of the same session.
pub fn relative_to_makespan_plan(
    session: &mut PlanSession<'_>,
    plan: &Plan,
    alpha: f64,
) -> Result<(f64, f64), String> {
    let (makespan, dirty) = predicted(plan)?;
    session.set_alpha(1.0);
    let reference = session.plan().map_err(|e| e.to_string())?;
    session.set_alpha(alpha);
    let (ref_makespan, ref_dirty) = predicted(&reference)?;
    Ok((makespan / ref_makespan, dirty / ref_dirty))
}

/// One round: `CORPORA` cold plans, each on a corpus of its own.
pub fn round(seed: u64, round: usize, tr: &mut Tracer, rec: &mut Recorder) -> Result<(), String> {
    let t0 = Instant::now();
    let cluster = paper_cluster();
    let corpora: Vec<Dataset> = (0..CORPORA).map(|i| corpus(seed, round, i)).collect();
    rec.setup_s.push(t0.elapsed().as_secs_f64());
    // The round's first corpus is planned a second time, untimed, and
    // must come out bit for bit the same.
    let again = corpora[0].clone();

    for (i, dataset) in corpora.into_iter().enumerate() {
        let n = dataset.len();
        let outcome = tr.span("op", |tr| -> Result<(f64, f64), String> {
            let (plan, latency, mut session) = cold_plan(&cluster, plan_cfg(), dataset, tr)?;
            tr.span("check", |tr| {
                check_plan_covers(&plan, n)?;
                if i == 0 {
                    let (second, _, _) = cold_plan(&cluster, plan_cfg(), again.clone(), tr)?;
                    if plan_digest(&second) != plan_digest(&plan) {
                        return Err("the same corpus planned twice gave two plans".into());
                    }
                }
                Ok((
                    latency,
                    relative_to_makespan_plan(&mut session, &plan, ALPHA)?.0,
                ))
            })
        });
        match outcome {
            Ok((latency, rel)) => {
                rec.ok(latency);
                rec.makespan_rel.push(rel);
            }
            Err(e) => rec.fail(|| format!("plan_cold op {i}: {e}")),
        }
    }
    rec.end_round(None);
    Ok(())
}
