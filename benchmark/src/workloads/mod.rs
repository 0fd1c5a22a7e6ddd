//! The four workloads and what they share: the fixed cluster and planner
//! configuration, the per-run recorder, and the round loop.
//!
//! Every workload is a seeded list of operations executed in rounds, each
//! round on fresh state. Round `r` of seed `s` is always the same work,
//! but every round draws new inputs from the seed: what an operation costs
//! depends on its dataset (kModes converges in 7 to 20 iterations
//! depending on the data), and only many datasets per run keep a run's
//! totals comparable from seed to seed. A run repeats whole rounds until
//! `--seconds` of operation time has been measured; a faster program
//! completes more rounds of the same distribution, never a different mix.

pub mod plan_cold;
pub mod replan_warm;
pub mod run_resilient;
pub mod serve_mixed;

use std::path::Path;

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{FrameworkConfig, Plan, Strategy};

use crate::rng::mix64;
use crate::stats;
use crate::trace::Tracer;

/// Nodes in every workload's cluster.
pub const NODES: usize = 8;
/// The cluster and the planner's own random steps are configuration, not
/// input: `--seed` varies datasets, op schedules, alphas and fault specs.
pub const CONFIG_SEED: u64 = 2017;
/// The paper's scalarization weight for the reference plan.
pub const ALPHA: f64 = 0.995;

/// The 8-node paper cluster (4 machine types, solar panels on all nodes).
pub fn paper_cluster() -> SimCluster {
    SimCluster::new(NodeSpec::paper_cluster(NODES, 400.0, 2, 9, CONFIG_SEED))
}

/// Planner configuration shared by the in-process workloads: the box has
/// two cores, so in-process workloads plan on one thread.
pub fn plan_cfg() -> FrameworkConfig {
    FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: ALPHA },
        seed: CONFIG_SEED,
        threads: 1,
        ..FrameworkConfig::default()
    }
}

/// One workload's round function: set up round `round`'s fresh state
/// (timed as set-up), then run its seeded op list, reporting into the
/// recorder.
pub type Round<'a> = Box<dyn FnMut(usize, &mut Tracer, &mut Recorder) -> Result<(), String> + 'a>;

/// The round function of workload `name` under run seed `seed`;
/// `paretofab` is the shipped CLI binary `serve_mixed` spawns.
pub fn build<'a>(name: &str, seed: u64, paretofab: &'a Path) -> Option<Round<'a>> {
    Some(match name {
        "plan_cold" => Box::new(move |r, tr, rec| plan_cold::round(seed, r, tr, rec)),
        "replan_warm" => Box::new(move |r, tr, rec| replan_warm::round(seed, r, tr, rec)),
        "run_resilient" => Box::new(move |r, tr, rec| run_resilient::round(seed, r, tr, rec)),
        "serve_mixed" => {
            Box::new(move |r, tr, rec| serve_mixed::round(seed, paretofab, r, tr, rec))
        }
        _ => return None,
    })
}

/// Everything one run measured.
#[derive(Default)]
pub struct Recorder {
    /// Set-up seconds, one per round.
    pub setup_s: Vec<f64>,
    /// Successful ops / timed wall, one per round.
    pub round_ops_per_s: Vec<f64>,
    /// Latency of every successful op, all rounds pooled.
    pub latencies_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Relative makespan of every op that observed one.
    pub makespan_rel: Vec<f64>,
    /// Peak resident set of the process doing the work, one per round
    /// (only `serve_mixed` fills it: a daemon per round).
    pub worker_rss_mib: Vec<f64>,
    /// Operation seconds measured so far.
    pub measured_s: f64,
    /// Successful ops of the round in progress, and their summed latency.
    round_ok: usize,
    round_busy_s: f64,
    /// The first few failure messages, for stderr.
    pub notes: Vec<String>,
}

impl Recorder {
    /// One op that completed and passed its checks.
    pub fn ok(&mut self, latency_s: f64) {
        self.attempted += 1;
        self.latencies_s.push(latency_s);
        self.round_ok += 1;
        self.round_busy_s += latency_s;
    }

    /// One op that errored, was shed or degraded, or failed a check.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// Close a round whose successful ops took `wall_s` of wall — for ops
    /// run one after another (`None`), the sum of their latencies.
    pub fn end_round(&mut self, wall_s: Option<f64>) {
        let timed_s = wall_s.unwrap_or(self.round_busy_s);
        if timed_s > 0.0 {
            self.round_ops_per_s.push(self.round_ok as f64 / timed_s);
        }
        self.measured_s += timed_s;
        (self.round_ok, self.round_busy_s) = (0, 0.0);
    }
}

/// Repeat whole rounds until `seconds` of operation time is measured
/// (to the nearest round, at least one).
pub fn measure(w: &mut Round, seconds: f64, tr: &mut Tracer) -> Result<Recorder, String> {
    let mut rec = Recorder::default();
    for round in 0.. {
        let before = rec.measured_s;
        w(round, tr, &mut rec)?;
        let last = rec.measured_s - before;
        if last <= 0.0 {
            return Err(format!(
                "round {round} measured nothing: {}",
                rec.notes.join("; ")
            ));
        }
        if rec.measured_s + 0.5 * last >= seconds {
            break;
        }
    }
    Ok(rec)
}

/// Round 0 alone (the traced run compares it with and without spans).
pub fn measure_first_round(w: &mut Round, tr: &mut Tracer) -> Result<Recorder, String> {
    let mut rec = Recorder::default();
    w(0, tr, &mut rec)?;
    Ok(rec)
}

/// The end-to-end metric values of a finished run, in `spec::END_TO_END`
/// terms. `own_rss_mib` is this process's peak, used unless the workload
/// measured a worker process of its own.
///
/// Timings are medians (of rounds, of pooled samples): the reference host
/// has slow spells that only ever slow a round down, and a median shrugs
/// off the rounds and ops a spell hits. (Rounds are comparable because
/// every round holds the same number of ops of each class and enough
/// datasets to average their cost.) The relative makespan is a mean: over
/// the alpha range it moves in steps (the LP jumps between vertices), so
/// its median sits on a step edge and flips between seeds.
pub fn end_to_end(rec: &Recorder, own_rss_mib: f64) -> Result<Vec<(&'static str, f64)>, String> {
    if rec.latencies_s.is_empty() {
        return Err(format!(
            "no operation succeeded ({} attempted): {}",
            rec.attempted,
            rec.notes.join("; ")
        ));
    }
    if rec.makespan_rel.is_empty() {
        return Err("no operation observed a makespan".into());
    }
    let rss = if rec.worker_rss_mib.is_empty() {
        own_rss_mib
    } else {
        stats::median(&rec.worker_rss_mib)
    };
    Ok(vec![
        ("ops_per_s", stats::median(&rec.round_ops_per_s)),
        ("op_p50_s", stats::percentile(&rec.latencies_s, 50.0)),
        ("op_p90_s", stats::percentile(&rec.latencies_s, 90.0)),
        ("peak_rss_mib", rss),
        (
            "objective_makespan_rel",
            rec.makespan_rel.iter().sum::<f64>() / rec.makespan_rel.len() as f64,
        ),
        ("setup_s", stats::median(&rec.setup_s)),
    ])
}

/// A 64-bit digest of everything a plan decides: sizes, record placement,
/// and the optimizer's point, bit for bit.
pub fn plan_digest(plan: &Plan) -> u64 {
    let mut h = mix64(plan.sizes.len() as u64);
    let mut fold = |v: u64| h = mix64(h ^ v);
    for &s in &plan.sizes {
        fold(s as u64);
    }
    for part in &plan.partitions {
        fold(part.len() as u64);
        for &i in part {
            fold(i as u64);
        }
    }
    if let Some(p) = &plan.pareto {
        fold(p.predicted_makespan.to_bits());
        fold(p.predicted_dirty_joules.to_bits());
        for x in &p.fractional_sizes {
            fold(x.to_bits());
        }
    }
    h
}

/// Structural soundness of a plan over `n` records: the sizes sum to `n`
/// and the partitions hold every record index exactly once, sized as
/// planned.
pub fn check_plan_covers(plan: &Plan, n: usize) -> Result<(), String> {
    if plan.sizes.iter().sum::<usize>() != n {
        return Err(format!(
            "sizes sum to {} not {n}",
            plan.sizes.iter().sum::<usize>()
        ));
    }
    let mut seen = vec![false; n];
    for (part, &size) in plan.partitions.iter().zip(&plan.sizes) {
        if part.len() != size {
            return Err(format!(
                "partition holds {} records, planned {size}",
                part.len()
            ));
        }
        for &i in part {
            if i >= n || std::mem::replace(&mut seen[i], true) {
                return Err(format!("record {i} placed twice or out of range"));
            }
        }
    }
    if plan.partitions.len() != plan.sizes.len() || seen.contains(&false) {
        return Err("a record was not placed".into());
    }
    Ok(())
}

/// The LP-predicted makespan and dirty energy (joules) of a plan.
pub fn predicted(plan: &Plan) -> Result<(f64, f64), String> {
    plan.pareto
        .as_ref()
        .map(|p| (p.predicted_makespan, p.predicted_dirty_joules))
        .ok_or_else(|| "plan carries no optimizer point".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose every round is one op of `round_s` seconds.
    fn fixed(round_s: f64) -> Round<'static> {
        Box::new(move |_, _, rec| {
            rec.setup_s.push(0.1);
            rec.ok(round_s);
            rec.makespan_rel.push(1.0);
            rec.end_round(None);
            Ok(())
        })
    }

    #[test]
    fn rounds_repeat_to_the_nearest_round() {
        let rounds = |round_s: f64, seconds: f64| {
            measure(&mut fixed(round_s), seconds, &mut Tracer::off())
                .unwrap()
                .setup_s
                .len()
        };
        assert_eq!(rounds(10.0, 20.0), 2);
        assert_eq!(rounds(9.0, 20.0), 2); // 18 s is nearer to 20 s than 27 s
        assert_eq!(rounds(7.0, 20.0), 3);
        assert_eq!(rounds(30.0, 20.0), 1);
        assert_eq!(
            measure_first_round(&mut fixed(1.0), &mut Tracer::off())
                .unwrap()
                .attempted,
            1
        );
        assert!(measure(&mut fixed(0.0), 1.0, &mut Tracer::off()).is_err());
    }

    #[test]
    fn end_to_end_aggregates_rounds_and_pooled_samples() {
        let mut rec = Recorder::default();
        for (round, lat) in [(0, 0.1), (1, 0.3), (2, 0.2)] {
            rec.setup_s.push(1.0 + round as f64);
            rec.ok(lat);
            rec.makespan_rel.push(1.0 + lat);
            rec.end_round(None);
        }
        rec.fail(|| "boom".into());
        let m: std::collections::BTreeMap<_, _> =
            end_to_end(&rec, 12.5).unwrap().into_iter().collect();
        assert_eq!(m["setup_s"], 2.0);
        assert_eq!(m["ops_per_s"], 5.0); // median of 10, 3.33, 5
        assert_eq!(m["op_p50_s"], 0.2);
        assert_eq!(m["op_p90_s"], 0.3);
        assert_eq!(m["peak_rss_mib"], 12.5);
        assert!((m["objective_makespan_rel"] - 1.2).abs() < 1e-12);
        assert_eq!((rec.attempted, rec.failed), (4, 1));
        rec.worker_rss_mib = vec![30.0, 10.0, 20.0];
        assert_eq!(end_to_end(&rec, 12.5).unwrap()[3], ("peak_rss_mib", 20.0));
        assert!(end_to_end(&Recorder::default(), 1.0).is_err());
    }
}
