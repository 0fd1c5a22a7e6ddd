//! The autoscaling advisor ([`advise_join`]): given the fitted `f_i`
//! models and energy profiles, decide whether adding a candidate node pays
//! for the cost of migrating its LP share onto it.
//!
//! Roster changes themselves — a node joining mid-job, draining then
//! leaving, or being preempted — are events of the one fault timeline,
//! [`pareto_cluster::FaultPlan`], which the recovery executor
//! ([`crate::recovery`]) runs and the auditor ([`crate::audit`]) checks.
//! This module's tests check their builders, queries, generator and
//! grammar from the roster's point of view.

use pareto_cluster::{Cost, SimCluster};

use crate::pareto::{ParetoModeler, PartitionPlanError};

/// The autoscaling advisor's verdict on one candidate join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinAdvice {
    /// The candidate node id.
    pub candidate: usize,
    /// The roster the candidate would join.
    pub roster: Vec<usize>,
    /// Items still to process.
    pub backlog_items: usize,
    /// Predicted makespan for the backlog on the current roster, seconds.
    pub current_makespan_s: f64,
    /// Predicted makespan with the candidate added, *including* its
    /// migration cost as a time-intercept offset, seconds.
    pub joined_makespan_s: f64,
    /// Items the LP would migrate onto the candidate.
    pub migration_items: usize,
    /// Bytes that migration moves over the network.
    pub migration_bytes: u64,
    /// Seconds the candidate spends receiving its share before it can
    /// start working.
    pub migration_seconds: f64,
    /// `current_makespan_s - joined_makespan_s`.
    pub payoff_s: f64,
    /// True when the join pays for its migration cost.
    pub worthwhile: bool,
}

/// Decide whether adding `candidate` to `roster` pays for its migration.
///
/// Two restricted-LP solves: one over the current roster, one over the
/// roster plus the candidate with the candidate's time intercept shifted
/// by the seconds needed to transfer its LP share (`share ×
/// bytes_per_item` over the cluster network). The share itself comes from
/// a zero-offset pre-solve, so a slow network shrinks the apparent
/// benefit exactly the way the recovery replanner's offsets do.
pub fn advise_join(
    cluster: &SimCluster,
    modeler: &ParetoModeler,
    roster: &[usize],
    candidate: usize,
    backlog_items: usize,
    bytes_per_item: u64,
    alpha: f64,
) -> Result<JoinAdvice, PartitionPlanError> {
    if roster.is_empty() {
        return Err(PartitionPlanError::Degenerate("empty roster"));
    }
    let nodes = modeler.num_nodes();
    if candidate >= nodes || roster.iter().any(|&i| i >= nodes) {
        return Err(PartitionPlanError::Degenerate("node index out of range"));
    }
    if roster.contains(&candidate) {
        return Err(PartitionPlanError::Degenerate("candidate already in roster"));
    }
    let solve = |m: &ParetoModeler, n: usize| {
        if alpha >= 1.0 {
            Ok(m.solve_het_aware(n))
        } else {
            m.solve(n, alpha)
        }
    };

    let current = solve(
        &modeler.restrict_with_offsets(roster, &vec![0.0; roster.len()])?,
        backlog_items,
    )?;

    let mut extended: Vec<usize> = roster.to_vec();
    extended.push(candidate);
    // Pass 1: zero offsets, to learn the candidate's share.
    let probe = solve(
        &modeler.restrict_with_offsets(&extended, &vec![0.0; extended.len()])?,
        backlog_items,
    )?;
    let migration_items = *probe.sizes.last().unwrap_or(&0);
    let migration_bytes = migration_items as u64 * bytes_per_item;
    let migration_seconds = if migration_items == 0 {
        0.0
    } else {
        cluster.cost_to_seconds(candidate, &Cost::request(migration_bytes))
    };
    // Pass 2: the candidate pays its migration before contributing.
    let mut offsets = vec![0.0; roster.len()];
    offsets.push(migration_seconds);
    let joined = solve(
        &modeler.restrict_with_offsets(&extended, &offsets)?,
        backlog_items,
    )?;

    let payoff_s = current.predicted_makespan - joined.predicted_makespan;
    Ok(JoinAdvice {
        candidate,
        roster: roster.to_vec(),
        backlog_items,
        current_makespan_s: current.predicted_makespan,
        joined_makespan_s: joined.predicted_makespan,
        migration_items,
        migration_bytes,
        migration_seconds,
        payoff_s,
        worthwhile: payoff_s > 1e-9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_cluster::{FaultPlan, FaultSpec, NodeSpec};
    use pareto_energy::NodeEnergyProfile;
    use pareto_stats::LinearFit;

    /// Roster churn at probability 0.5 per kind, and no faults.
    fn spec_all() -> FaultSpec {
        FaultSpec {
            crash_prob: 0.0,
            straggler_prob: 0.0,
            store_error_prob: 0.0,
            degradation_prob: 0.0,
            join_prob: 0.5,
            drain_prob: 0.5,
            preempt_prob: 0.5,
            ..FaultSpec::default()
        }
    }

    #[test]
    fn builders_and_queries() {
        let plan = FaultPlan::new()
            .with_join(2, 40.0)
            .with_drain(1, 30.0)
            .with_preempt(3, 20.0, 10.0)
            .with_drain(1, 25.0)
            .with_crash(0, 5.0);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.roster_len(), 4);
        assert_eq!(plan.join_time(2), Some(40.0));
        assert_eq!(plan.join_time(1), None);
        // Earliest drain wins.
        assert_eq!(plan.drain_time(1), Some(25.0));
        assert_eq!(plan.preempt(3), Some((20.0, 10.0)));
        assert_eq!(plan.preempt(0), None);
        // A crash is not a roster change, and a preemption is not a crash.
        assert_eq!(plan.crash_time(0), Some(5.0));
        assert_eq!(plan.crash_time(3), None);
        // Times are floored at zero.
        let floored = FaultPlan::new().with_preempt(0, -3.0, -1.0);
        assert_eq!(floored.preempt(0), Some((0.0, 0.0)));
    }

    #[test]
    fn without_event_removes_exactly_one() {
        let plan = FaultPlan::new().with_join(1, 10.0).with_drain(2, 20.0);
        let cut = plan.without_event(0);
        assert_eq!(cut.len(), 1);
        assert_eq!(cut.events()[0].node_id, 2);
        // Out of range is a no-op copy.
        assert_eq!(plan.without_event(9), plan);
    }

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let spec = spec_all();
        let a = FaultPlan::generate(99, 8, &spec);
        let b = FaultPlan::generate(99, 8, &spec);
        assert_eq!(a, b);
        // A node's role does not depend on cluster size.
        let small = FaultPlan::generate(99, 4, &spec);
        for node in 0..4 {
            assert_eq!(a.join_time(node), small.join_time(node));
            assert_eq!(a.drain_time(node), small.drain_time(node));
            assert_eq!(a.preempt(node), small.preempt(node));
        }
    }

    #[test]
    fn generation_respects_probabilities_and_exclusivity() {
        // The stock specs draw no roster changes.
        for spec in [FaultSpec::default(), FaultSpec::storage(), FaultSpec::serving()] {
            assert_eq!(FaultPlan::generate(7, 16, &spec).roster_len(), 0);
        }
        let always = FaultSpec {
            join_prob: 1.0,
            drain_prob: 1.0,
            preempt_prob: 1.0,
            ..spec_all()
        };
        let plan = FaultPlan::generate(7, 16, &always);
        // One role per node; node 0 never joins, so it drains instead.
        assert_eq!(plan.len(), 16);
        assert_eq!(plan.join_time(0), None);
        assert!(plan.drain_time(0).is_some());
        for node in 1..16 {
            assert!(plan.join_time(node).is_some());
            assert_eq!(plan.drain_time(node), None);
            assert_eq!(plan.preempt(node), None);
        }
    }

    #[test]
    fn parse_round_trips_each_clause() {
        let plan = FaultPlan::new()
            .with_join(3, 42.5)
            .with_drain(0, 17.25)
            .with_preempt(2, 61.0, 12.5);
        let spec = plan.to_spec();
        assert_eq!(spec, "join:3@42.5, drain:0@17.25, preempt:2@61@12.5");
        assert_eq!(FaultPlan::parse(&spec, 4).expect("round trip"), plan);
        // Whitespace and empty clauses are tolerated.
        let sloppy = FaultPlan::parse(" join:1@5 , , drain:0@9.5 ", 2).expect("sloppy");
        assert_eq!(sloppy.len(), 2);
    }

    #[test]
    fn to_spec_round_trips_generated_plans() {
        for seed in [7u64, 2017, 0xE1A5] {
            let plan = FaultPlan::generate(seed, 8, &spec_all());
            let parsed = FaultPlan::parse(&plan.to_spec(), 8).expect("round trip");
            assert_eq!(parsed, plan, "seed {seed}");
        }
    }

    #[test]
    fn parse_eseeded_matches_generate() {
        let parsed = FaultPlan::parse("eseeded:2017", 6).expect("seeded");
        let generated = FaultPlan::generate(2017, 6, &FaultSpec::default().with_roster());
        // The roster changes come last, and `eseeded` is exactly them.
        assert!(!parsed.is_empty());
        assert_eq!(generated.roster_len(), parsed.len());
        assert_eq!(parsed.events(), &generated.events()[generated.len() - parsed.len()..]);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "join:1",
            "join:x@5",
            "drain:9@5",
            "preempt:0@5",
            "preempt:0@5@2@9",
            "join:0@-4",
            "join:0@inf",
            "evict:0@5",
            "eseeded:banana",
        ] {
            assert!(
                FaultPlan::parse(bad, 4).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    fn advisor_fixture() -> (SimCluster, ParetoModeler) {
        let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 3));
        let fits: Vec<LinearFit> = (0..4)
            .map(|i| LinearFit {
                slope: cluster.cost_to_seconds(i, &Cost::compute(1_000_000)),
                intercept: 0.0,
                r_squared: 1.0,
                n: 2,
            })
            .collect();
        let profiles: Vec<NodeEnergyProfile> = (0..4)
            .map(|i| NodeEnergyProfile {
                draw_watts: 200.0 + 40.0 * i as f64,
                mean_green_watts: 120.0,
            })
            .collect();
        let modeler = ParetoModeler::new(fits, profiles).expect("aligned fixture");
        (cluster, modeler)
    }

    #[test]
    fn advisor_is_deterministic_and_accounts_migration() {
        let (cluster, modeler) = advisor_fixture();
        let a = advise_join(&cluster, &modeler, &[0, 1, 2], 3, 5_000, 256, 1.0)
            .expect("advice");
        let b = advise_join(&cluster, &modeler, &[0, 1, 2], 3, 5_000, 256, 1.0)
            .expect("advice");
        assert_eq!(a, b);
        assert!(a.current_makespan_s > 0.0);
        assert!(a.migration_items > 0);
        assert_eq!(a.migration_bytes, a.migration_items as u64 * 256);
        assert!(a.migration_seconds > 0.0);
        assert!((a.payoff_s - (a.current_makespan_s - a.joined_makespan_s)).abs() < 1e-12);
    }

    #[test]
    fn huge_migration_cost_makes_join_unprofitable() {
        let (cluster, modeler) = advisor_fixture();
        // A big backlog of tiny items: join clearly pays.
        let cheap = advise_join(&cluster, &modeler, &[0, 1], 3, 50_000, 1, 1.0)
            .expect("cheap advice");
        assert!(cheap.worthwhile, "cheap migration should pay: {cheap:?}");
        // A tiny backlog of enormous items: migration swamps the benefit.
        let dear = advise_join(&cluster, &modeler, &[0, 1], 3, 16, 1_000_000_000, 1.0)
            .expect("dear advice");
        assert!(
            dear.joined_makespan_s >= cheap.joined_makespan_s || !dear.worthwhile,
            "dear: {dear:?}"
        );
        assert!(!dear.worthwhile, "huge migration should not pay: {dear:?}");
    }

    #[test]
    fn advisor_rejects_degenerate_inputs() {
        let (cluster, modeler) = advisor_fixture();
        assert!(advise_join(&cluster, &modeler, &[], 3, 100, 1, 1.0).is_err());
        assert!(advise_join(&cluster, &modeler, &[0, 1], 9, 100, 1, 1.0).is_err());
        assert!(advise_join(&cluster, &modeler, &[0, 3], 3, 100, 1, 1.0).is_err());
    }
}
