//! Invariant auditor for fault-injected runs and durable-store drills.
//!
//! The recovery executor (PR 2) and the durable KV tier both make strong
//! promises — exactly-once item processing, conservation of the LP plan's
//! partition sizes, monotone simulated time, bit-identical WAL recovery.
//! This module turns those promises into *checked invariants*: given a
//! [`RecoveryOutcome`] (plus the plan it executed), [`audit_run`]
//! returns an [`AuditReport`] listing every violated invariant with a
//! human-readable detail string. The chaos harness ([`crate::chaos`])
//! sweeps hundreds of seeded fault schedules through this auditor and
//! shrinks any failure to a minimal reproducing schedule.
//!
//! The auditor is read-only and pure: it never mutates the outcome it
//! inspects, so auditing cannot perturb determinism.

use pareto_cluster::FaultPlan;

use crate::framework::Plan;
use crate::recovery::RecoveryOutcome;

/// The invariants the auditor enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Every item completes exactly once whenever at least one node
    /// survives; no item is ever recorded complete on a node that never
    /// ran it.
    ExactlyOnce,
    /// Per-stratum conservation: for each stratum, the number of completed
    /// items equals the stratum's population (no stratum silently starves
    /// while others double-dip).
    StratumConservation,
    /// The initial partitions form an exact permutation of the dataset and
    /// match the LP plan's integer sizes.
    SizeConservation,
    /// Simulated time is finite, non-negative, and a faulty run never
    /// finishes before its own fault-free baseline.
    TimeMonotone,
    /// The [`RecoveryReport`](crate::recovery::RecoveryReport)'s
    /// aggregate fields agree with the per-item evidence.
    ReportConsistency,
    /// WAL recovery reproduces the expected store state (storage drills:
    /// torn writes recover the longest complete prefix, bit-rot is either
    /// detected or harmless, recovery restarts are idempotent).
    WalRecovery,
    /// Every item moved through a drain handoff record completes exactly
    /// once (never on the node that handed it off, and always somewhere
    /// whenever a node remains available), and the handoff aggregates
    /// agree with the per-item handoff log.
    HandoffExactlyOnce,
    /// No work executes outside a node's membership window: nothing
    /// completes on a node after its leave epoch or before its join
    /// epoch, leaves are disjoint from crashes, and epochs are ordered.
    LeaveEpochRespected,
    /// Conservation across join/leave boundaries: elastic transition
    /// counts agree with the plan and with per-node epochs, and a run
    /// with an available node at the end never strands items.
    ElasticConservation,
}

impl Invariant {
    /// Stable label, used as the telemetry `invariant` attribute.
    pub fn label(&self) -> &'static str {
        match self {
            Invariant::ExactlyOnce => "exactly_once",
            Invariant::StratumConservation => "stratum_conservation",
            Invariant::SizeConservation => "size_conservation",
            Invariant::TimeMonotone => "time_monotone",
            Invariant::ReportConsistency => "report_consistency",
            Invariant::WalRecovery => "wal_recovery",
            Invariant::HandoffExactlyOnce => "handoff_exactly_once",
            Invariant::LeaveEpochRespected => "leave_epoch",
            Invariant::ElasticConservation => "elastic_conservation",
        }
    }

    /// Every invariant, in audit order.
    pub const ALL: [Invariant; 9] = [
        Invariant::ExactlyOnce,
        Invariant::StratumConservation,
        Invariant::SizeConservation,
        Invariant::TimeMonotone,
        Invariant::ReportConsistency,
        Invariant::WalRecovery,
        Invariant::HandoffExactlyOnce,
        Invariant::LeaveEpochRespected,
        Invariant::ElasticConservation,
    ];
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One broken invariant with its evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// What the auditor saw (counts, node ids, byte offsets …).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant.label(), self.detail)
    }
}

/// The auditor's verdict: how many checks ran and which ones failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Individual checks evaluated (a violation-free report with zero
    /// checks is vacuous, so callers can assert `checks > 0`).
    pub checks: usize,
    /// Every broken invariant, in discovery order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// A fresh, empty report.
    pub fn new() -> Self {
        AuditReport::default()
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count a passed check (or several).
    pub fn passed(&mut self, checks: usize) {
        self.checks += checks;
    }

    /// Record a violation (counts as one check).
    pub fn violate(&mut self, invariant: Invariant, detail: String) {
        self.checks += 1;
        self.violations.push(Violation { invariant, detail });
    }

    /// Check a predicate: pass silently or record a violation.
    pub fn check(&mut self, invariant: Invariant, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed(1);
        } else {
            self.violate(invariant, detail());
        }
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }
}

/// Audit one execution against the plan it ran and the schedule it ran
/// under: `outcome` is what [`execute`](crate::recovery::execute) produced
/// for `plan`'s partitions (one per cluster node) under `faults`, roster
/// changes included.
///
/// Beyond the six fault invariants it checks the roster-change promises —
/// exactly-once across drain handoffs, no work executed outside a node's
/// membership window, and conservation of items and transition counts
/// across join/leave boundaries.
pub fn audit_run(faults: &FaultPlan, plan: &Plan, outcome: &RecoveryOutcome) -> AuditReport {
    let (partitions, sizes) = (&plan.partitions, &plan.sizes);
    let strata = &plan.stratification.assignments;
    let num_nodes = partitions.len();
    let mut report = AuditReport::new();
    let rec = &outcome.recovery;
    let n = rec.items_total;

    // --- SizeConservation: partitions are a permutation matching sizes. --
    let mut seen = vec![0u32; n];
    let mut out_of_range = 0usize;
    for part in partitions {
        for &item in part {
            match seen.get_mut(item) {
                Some(slot) => *slot += 1,
                None => out_of_range += 1,
            }
        }
    }
    report.check(Invariant::SizeConservation, out_of_range == 0, || {
        format!("{out_of_range} partitioned item(s) outside 0..{n}")
    });
    let dupes = seen.iter().filter(|&&c| c > 1).count();
    let missing = seen.iter().filter(|&&c| c == 0).count();
    report.check(
        Invariant::SizeConservation,
        dupes == 0 && missing == 0,
        || {
            format!(
                "initial partitions are not a permutation: {dupes} duplicated, {missing} missing"
            )
        },
    );
    report.check(
        Invariant::SizeConservation,
        sizes.len() == partitions.len() && sizes.iter().zip(partitions).all(|(&s, p)| s == p.len()),
        || {
            format!(
                "LP sizes {:?} disagree with materialized partitions {:?}",
                sizes,
                partitions.iter().map(Vec::len).collect::<Vec<_>>()
            )
        },
    );
    report.check(
        Invariant::SizeConservation,
        sizes.iter().sum::<usize>() == n,
        || {
            format!(
                "LP sizes sum {} != items_total {n}",
                sizes.iter().sum::<usize>()
            )
        },
    );

    // --- ExactlyOnce: total completion whenever anyone survived. --------
    // A node counts as *available* at end-of-run when it neither crashed
    // nor gracefully left, and — if the plan scheduled it as a joiner —
    // it actually activated (a joiner killed before its join time never
    // contributes capacity, so its absence is not a violation).
    let never_activated = |i: usize| {
        faults.join_time(i).is_some() && outcome.join_epochs.get(i).copied().flatten().is_none()
    };
    let survivors = (0..num_nodes)
        .filter(|&i| {
            !rec.crashed_nodes.contains(&i) && !rec.left_nodes.contains(&i) && !never_activated(i)
        })
        .count();
    let completed = outcome.completed_by.iter().filter(|c| c.is_some()).count();
    if survivors > 0 {
        report.check(Invariant::ExactlyOnce, completed == n, || {
            format!("{survivors} survivor(s) but only {completed}/{n} items completed")
        });
        report.check(Invariant::ExactlyOnce, rec.exactly_once, || {
            "report.exactly_once is false despite surviving nodes".into()
        });
    } else {
        // Total cluster loss: completion must be partial, never invented.
        report.check(Invariant::ExactlyOnce, completed <= n, || {
            format!("{completed} completions exceed {n} items")
        });
    }
    let bad_completer = outcome
        .completed_by
        .iter()
        .flatten()
        .filter(|&&node| node >= num_nodes)
        .count();
    report.check(Invariant::ExactlyOnce, bad_completer == 0, || {
        format!("{bad_completer} item(s) completed by nonexistent nodes")
    });

    // --- StratumConservation: per-stratum completion matches population. -
    if survivors > 0 {
        let max_stratum = strata.iter().copied().max().unwrap_or(0) as usize;
        let mut population = vec![0usize; max_stratum + 1];
        let mut done = vec![0usize; max_stratum + 1];
        for (item, &s) in strata.iter().enumerate().take(n) {
            population[s as usize] += 1;
            if outcome.completed_by.get(item).copied().flatten().is_some() {
                done[s as usize] += 1;
            }
        }
        for (s, (&pop, &got)) in population.iter().zip(&done).enumerate() {
            report.check(Invariant::StratumConservation, pop == got, || {
                format!("stratum {s}: {got}/{pop} items completed")
            });
        }
    }

    // --- TimeMonotone: finite, non-negative, no time travel. ------------
    report.check(
        Invariant::TimeMonotone,
        rec.makespan_s.is_finite() && rec.makespan_s >= 0.0,
        || {
            format!(
                "makespan {} is not a finite non-negative time",
                rec.makespan_s
            )
        },
    );
    report.check(
        Invariant::TimeMonotone,
        rec.fault_free_makespan_s.is_finite() && rec.fault_free_makespan_s >= 0.0,
        || format!("fault-free makespan {} invalid", rec.fault_free_makespan_s),
    );
    // When no work moved off its planned node, faults only ever add cost
    // (retries, backoff, slowdowns), so a *completed* run can never beat
    // its own baseline (tolerance for f64 summation order). Two legitimate
    // escapes are carved out: a lost job stops early, and a run that
    // rebalanced — reassignment, steals, or an LP replan — may land a
    // better schedule than the static fault-free assignment.
    let work_moved = rec.items_reassigned > 0
        || rec.items_stolen > 0
        || rec.speculative_steals > 0
        || rec.replans > 0
        || rec.elastic_events > 0;
    if completed == n && !work_moved {
        report.check(
            Invariant::TimeMonotone,
            rec.makespan_s >= rec.fault_free_makespan_s - 1e-9,
            || {
                format!(
                    "faulty run ({}s) finished before its fault-free baseline ({}s)",
                    rec.makespan_s, rec.fault_free_makespan_s
                )
            },
        );
    }

    // --- ReportConsistency: aggregates agree with per-item evidence. -----
    report.check(
        Invariant::ReportConsistency,
        rec.items_completed == completed,
        || {
            format!(
                "items_completed {} != observed {completed}",
                rec.items_completed
            )
        },
    );
    report.check(
        Invariant::ReportConsistency,
        rec.exactly_once == (completed == n),
        || "exactly_once flag disagrees with completion count".into(),
    );
    let roster_len = faults.roster_len();
    let fault_len = faults.len() - roster_len;
    report.check(
        Invariant::ReportConsistency,
        rec.faults_injected == fault_len,
        || {
            format!(
                "faults_injected {} != {fault_len} fault event(s)",
                rec.faults_injected
            )
        },
    );
    report.check(
        Invariant::ReportConsistency,
        rec.items_reassigned == outcome.reassigned_items.len(),
        || {
            format!(
                "items_reassigned {} != reassignment log {}",
                rec.items_reassigned,
                outcome.reassigned_items.len()
            )
        },
    );
    let mut crashed_sorted = rec.crashed_nodes.clone();
    crashed_sorted.sort_unstable();
    crashed_sorted.dedup();
    report.check(
        Invariant::ReportConsistency,
        crashed_sorted.len() == rec.crashed_nodes.len()
            && crashed_sorted.iter().all(|&c| c < num_nodes),
        || {
            format!(
                "crashed_nodes {:?} has duplicates or unknown ids",
                rec.crashed_nodes
            )
        },
    );
    // An item may complete on a node that *later* crashed, but a node
    // that died at sim-time zero (zero busy seconds) can never have
    // completed anything.
    let ghost_completions = outcome
        .completed_by
        .iter()
        .flatten()
        .filter(|&&node| {
            rec.crashed_nodes.contains(&node)
                && outcome
                    .report
                    .runs
                    .get(node)
                    .is_some_and(|r| r.seconds == 0.0)
        })
        .count();
    report.check(Invariant::ReportConsistency, ghost_completions == 0, || {
        format!("{ghost_completions} item(s) completed by nodes dead from t=0")
    });

    // --- HandoffExactlyOnce: drained work is never lost or duplicated. ---
    report.check(
        Invariant::HandoffExactlyOnce,
        rec.items_handed_off == outcome.handed_off_items.len(),
        || {
            format!(
                "items_handed_off {} != handoff log {}",
                rec.items_handed_off,
                outcome.handed_off_items.len()
            )
        },
    );
    report.check(
        Invariant::HandoffExactlyOnce,
        rec.handoff_records as usize <= rec.left_nodes.len(),
        || {
            format!(
                "{} handoff record(s) but only {} node(s) ever left",
                rec.handoff_records,
                rec.left_nodes.len()
            )
        },
    );
    let out_of_range_handoffs = outcome.handed_off_items.iter().filter(|&&r| r >= n).count();
    report.check(
        Invariant::HandoffExactlyOnce,
        out_of_range_handoffs == 0,
        || format!("{out_of_range_handoffs} handed-off item(s) outside 0..{n}"),
    );
    if survivors > 0 {
        // With capacity left at end-of-run, every item that rode a handoff
        // record must have landed and completed — never on the node that
        // handed it off.
        let lost_handoffs = outcome
            .handed_off_items
            .iter()
            .filter(|&&r| outcome.completed_by.get(r).copied().flatten().is_none())
            .count();
        report.check(Invariant::HandoffExactlyOnce, lost_handoffs == 0, || {
            format!("{lost_handoffs} handed-off item(s) never completed despite survivors")
        });
        let reassigned: std::collections::HashSet<usize> =
            outcome.reassigned_items.iter().copied().collect();
        let untracked = outcome
            .handed_off_items
            .iter()
            .filter(|r| !reassigned.contains(r))
            .count();
        report.check(Invariant::HandoffExactlyOnce, untracked == 0, || {
            format!("{untracked} handed-off item(s) missing from the reassignment log")
        });
    }
    // --- LeaveEpochRespected: membership windows bound all execution. ----
    let mut left_sorted = rec.left_nodes.clone();
    left_sorted.sort_unstable();
    left_sorted.dedup();
    report.check(
        Invariant::LeaveEpochRespected,
        left_sorted.len() == rec.left_nodes.len() && left_sorted.iter().all(|&l| l < num_nodes),
        || {
            format!(
                "left_nodes {:?} has duplicates or unknown ids",
                rec.left_nodes
            )
        },
    );
    report.check(
        Invariant::LeaveEpochRespected,
        rec.left_nodes
            .iter()
            .all(|l| !rec.crashed_nodes.contains(l)),
        || {
            format!(
                "left_nodes {:?} overlaps crashed_nodes {:?}",
                rec.left_nodes, rec.crashed_nodes
            )
        },
    );
    let bad_epochs = (0..num_nodes)
        .filter(|&i| {
            let join = outcome.join_epochs.get(i).copied().flatten();
            let leave = outcome.leave_epochs.get(i).copied().flatten();
            let invalid = |t: f64| !t.is_finite() || t < 0.0;
            join.is_some_and(invalid)
                || leave.is_some_and(invalid)
                || matches!((join, leave), (Some(j), Some(l)) if j > l + 1e-9)
        })
        .count();
    report.check(Invariant::LeaveEpochRespected, bad_epochs == 0, || {
        format!("{bad_epochs} node(s) have non-finite, negative, or inverted join/leave epochs")
    });
    let outside_window = outcome
        .completed_by
        .iter()
        .zip(&outcome.completed_at_s)
        .filter(|(node, at)| match (node, at) {
            (Some(node), Some(t)) => {
                let after_leave = outcome
                    .leave_epochs
                    .get(*node)
                    .copied()
                    .flatten()
                    .is_some_and(|l| *t > l + 1e-9);
                let before_join = outcome
                    .join_epochs
                    .get(*node)
                    .copied()
                    .flatten()
                    .is_some_and(|j| *t < j - 1e-9);
                after_leave || before_join
            }
            _ => false,
        })
        .count();
    report.check(Invariant::LeaveEpochRespected, outside_window == 0, || {
        format!("{outside_window} item(s) completed outside their node's membership window")
    });

    // --- ElasticConservation: transitions conserve items and counts. -----
    let mismatched_evidence = outcome
        .completed_by
        .iter()
        .zip(&outcome.completed_at_s)
        .filter(|(node, at)| node.is_some() != at.is_some())
        .count();
    report.check(Invariant::ElasticConservation, mismatched_evidence == 0, || {
        format!("{mismatched_evidence} item(s) have a completer without a completion time (or vice versa)")
    });
    report.check(
        Invariant::ElasticConservation,
        rec.elastic_events == roster_len,
        || {
            format!(
                "elastic_events {} != {roster_len} roster event(s)",
                rec.elastic_events
            )
        },
    );
    let applied =
        rec.joins_applied as usize + rec.drains_applied as usize + rec.preempts_applied as usize;
    report.check(
        Invariant::ElasticConservation,
        applied <= roster_len,
        || format!("{applied} transition(s) applied from {roster_len} roster event(s)"),
    );
    let join_epoch_count = outcome.join_epochs.iter().flatten().count();
    report.check(
        Invariant::ElasticConservation,
        rec.joins_applied as usize == join_epoch_count,
        || {
            format!(
                "joins_applied {} != {join_epoch_count} recorded join epoch(s)",
                rec.joins_applied
            )
        },
    );
    let leave_epoch_count = outcome.leave_epochs.iter().flatten().count();
    report.check(
        Invariant::ElasticConservation,
        rec.left_nodes.len() == leave_epoch_count,
        || {
            format!(
                "{} left node(s) but {leave_epoch_count} recorded leave epoch(s)",
                rec.left_nodes.len()
            )
        },
    );
    if roster_len == 0 {
        report.check(
            Invariant::ElasticConservation,
            rec.joins_applied == 0
                && rec.drains_applied == 0
                && rec.preempts_applied == 0
                && rec.handoff_records == 0
                && rec.handoff_retries == 0
                && rec.items_handed_off == 0
                && rec.left_nodes.is_empty()
                && outcome.handed_off_items.is_empty(),
            || "roster activity reported under a plan with no roster events".into(),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::PlanTimings;
    use crate::recovery::{execute, ExecRequest, RecoveryConfig};
    use crate::stealing::RecordWork;
    use pareto_cluster::{Cost, NodeSpec, SimCluster};
    use pareto_energy::NodeEnergyProfile;
    use pareto_stats::LinearFit;
    use pareto_stratify::Stratification;

    /// An equal-split plan over `p` nodes and what the executor made of it
    /// under `faults`.
    fn fixture(p: usize, n: usize, faults: &FaultPlan) -> (Plan, RecoveryOutcome) {
        let cl = SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, 3));
        let work = vec![
            RecordWork {
                ops: 1_000_000,
                bytes: 256
            };
            n
        ];
        let mut partitions = vec![Vec::new(); p];
        for i in 0..n {
            partitions[i * p / n].push(i);
        }
        let sizes: Vec<usize> = partitions.iter().map(Vec::len).collect();
        let strata: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let fits: Vec<LinearFit> = (0..p)
            .map(|i| LinearFit {
                slope: cl.cost_to_seconds(i, &Cost::compute(1_000_000)),
                intercept: 0.0,
                r_squared: 1.0,
                n: 2,
            })
            .collect();
        let profiles: Vec<NodeEnergyProfile> = (0..p)
            .map(|i| NodeEnergyProfile {
                draw_watts: 200.0 + 40.0 * i as f64,
                mean_green_watts: 120.0,
            })
            .collect();
        let outcome = execute(&ExecRequest {
            cluster: &cl,
            work: &work,
            initial: &partitions,
            strata: &strata,
            fits: &fits,
            profiles: &profiles,
            alpha: 1.0,
            faults,
            cfg: &RecoveryConfig::default(),
            telemetry: None,
        })
        .expect("well-formed request");
        let plan = Plan {
            stratification: Stratification {
                assignments: strata,
                strata: Vec::new(),
                zero_match_rate: 0.0,
                iterations: 0,
            },
            time_models: None,
            energy_profiles: profiles,
            pareto: None,
            sizes,
            partitions,
            estimation_cost: Cost::ZERO,
            timings: PlanTimings::default(),
        };
        (plan, outcome)
    }

    #[test]
    fn clean_run_passes_every_invariant() {
        let faults = FaultPlan::none();
        let (plan, outcome) = fixture(4, 120, &faults);
        let report = audit_run(&faults, &plan, &outcome);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.checks > 10, "audit must actually check things");
    }

    #[test]
    fn crashed_run_still_passes_when_recovery_works() {
        let faults = FaultPlan::new().with_crash(1, 0.5).with_store_errors(2, 2);
        let (plan, outcome) = fixture(4, 120, &faults);
        let report = audit_run(&faults, &plan, &outcome);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn total_cluster_loss_is_not_a_violation() {
        let faults = FaultPlan::new().with_crash(0, 0.001).with_crash(1, 0.001);
        let (plan, outcome) = fixture(2, 40, &faults);
        let report = audit_run(&faults, &plan, &outcome);
        // Losing the job to a total cluster loss is the *correct* outcome;
        // the auditor only flags invented completions.
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn doctored_outcome_trips_exactly_once() {
        let faults = FaultPlan::none();
        let (plan, mut outcome) = fixture(3, 60, &faults);
        // Forge a lost item that the report still claims completed.
        outcome.completed_by[7] = None;
        let report = audit_run(&faults, &plan, &outcome);
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::ExactlyOnce));
        // The forged hole also breaks its stratum's conservation and the
        // aggregate count.
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::StratumConservation));
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::ReportConsistency));
    }

    #[test]
    fn doctored_partitions_trip_size_conservation() {
        let faults = FaultPlan::none();
        let (mut plan, outcome) = fixture(3, 60, &faults);
        let dup = plan.partitions[0][0];
        plan.partitions[1].push(dup); // same item in two partitions
        let report = audit_run(&faults, &plan, &outcome);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SizeConservation));
    }

    #[test]
    fn doctored_time_trips_monotonicity() {
        // A fault-free plan: no work moves, so the baseline bound applies.
        let faults = FaultPlan::none();
        let (plan, mut outcome) = fixture(4, 120, &faults);
        outcome.recovery.makespan_s = outcome.recovery.fault_free_makespan_s * 0.5;
        let report = audit_run(&faults, &plan, &outcome);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::TimeMonotone));
    }

    #[test]
    fn clean_elastic_run_passes_all_nine_invariants() {
        let faults = FaultPlan::none();
        // Calibrate transition times off the fault-free makespan so the
        // drain lands mid-run with work still queued.
        let (_, base) = fixture(4, 120, &faults);
        let t = base.recovery.makespan_s * 0.3;
        let roster = FaultPlan::new()
            .with_join(3, t * 0.5)
            .with_drain(1, t)
            .with_preempt(2, t * 1.4, base.recovery.makespan_s * 10.0);
        let (plan, outcome) = fixture(4, 120, &roster);
        let report = audit_run(&roster, &plan, &outcome);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.checks > 20, "elastic audit must check things");
        let labels: std::collections::HashSet<&str> =
            Invariant::ALL.iter().map(Invariant::label).collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn doctored_completion_after_leave_trips_leave_epoch() {
        let faults = FaultPlan::none();
        let (_, base) = fixture(4, 120, &faults);
        let roster = FaultPlan::new().with_drain(1, base.recovery.makespan_s * 0.3);
        let (plan, mut outcome) = fixture(4, 120, &roster);
        let leave = outcome.leave_epochs[1].expect("node 1 drained and left");
        let victim = outcome
            .completed_by
            .iter()
            .position(|&by| by == Some(1))
            .expect("node 1 completed something before draining");
        // Forge an execution on the drained node after its leave epoch.
        outcome.completed_at_s[victim] = Some(leave + 100.0);
        let report = audit_run(&roster, &plan, &outcome);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::LeaveEpochRespected));
    }

    #[test]
    fn doctored_handoff_aggregates_trip_handoff_exactly_once() {
        let faults = FaultPlan::none();
        let (_, base) = fixture(4, 120, &faults);
        let roster = FaultPlan::new().with_drain(1, base.recovery.makespan_s * 0.3);
        let (plan, mut outcome) = fixture(4, 120, &roster);
        assert!(outcome.recovery.items_handed_off > 0, "drain must hand off");
        // Claim one more handed-off item than the per-item log records.
        outcome.recovery.items_handed_off += 1;
        let report = audit_run(&roster, &plan, &outcome);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::HandoffExactlyOnce));
    }

    #[test]
    fn elastic_activity_under_empty_plan_is_flagged() {
        let faults = FaultPlan::none();
        let (plan, mut outcome) = fixture(4, 120, &faults);
        outcome.recovery.joins_applied = 1;
        let report = audit_run(&faults, &plan, &outcome);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::ElasticConservation));
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let labels: Vec<&str> = Invariant::ALL.iter().map(|i| i.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(Invariant::WalRecovery.to_string(), "wal_recovery");
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = AuditReport::new();
        a.passed(3);
        let mut b = AuditReport::new();
        b.violate(Invariant::WalRecovery, "drill failed".into());
        a.merge(b);
        assert_eq!(a.checks, 4);
        assert_eq!(a.violations.len(), 1);
        assert!(!a.is_clean());
        assert_eq!(a.violations[0].to_string(), "[wal_recovery] drill failed");
    }
}
