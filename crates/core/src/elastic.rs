//! Planned roster elasticity: seeded join / drain / preempt schedules.
//!
//! Where [`pareto_cluster::fault`] models *adversarial* topology change
//! (crashes, stragglers, flaky stores), this module models *planned*
//! change: an [`ElasticPlan`] schedules nodes joining the roster mid-job,
//! draining gracefully (finish or hand off queued work, then leave), or
//! being preempted (a drain notice with a hard kill after a grace window).
//! The recovery executor ([`crate::recovery`]) consumes an elastic plan
//! alongside a fault plan; the auditor ([`crate::audit`]) checks
//! exactly-once across handoffs and that no work executes outside a
//! node's membership window.
//!
//! Plans are generated with the same `(seed, node_id, event_index)` draw
//! scheme as fault plans ([`pareto_cluster::fault::unit_draw`]) so elastic
//! schedules compose with fault schedules without perturbing either:
//! compute faults own event indices `0..=7`, storage faults `8..=15`, and
//! elastic events claim the block `16..=22`.
//!
//! The module also hosts the autoscaling advisor ([`advise_join`]): given
//! the fitted `f_i` models and energy profiles it decides whether adding a
//! candidate node pays for the cost of migrating its LP share onto it.

use std::fmt;

use pareto_cluster::fault::unit_draw;
use pareto_cluster::{Cost, SimCluster};

use crate::pareto::{ParetoModeler, PartitionPlanError};

/// Event indices claimed by elastic draws (see [`unit_draw`]'s family
/// partition). Fault kinds stop at 15; elastic starts at 16.
const IDX_JOIN_OCCURS: u64 = 16;
const IDX_JOIN_TIME: u64 = 17;
const IDX_DRAIN_OCCURS: u64 = 18;
const IDX_DRAIN_TIME: u64 = 19;
const IDX_PREEMPT_OCCURS: u64 = 20;
const IDX_PREEMPT_TIME: u64 = 21;
const IDX_PREEMPT_GRACE: u64 = 22;

/// What happens to a node at its scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElasticEventKind {
    /// The node is absent at job start and becomes available at `at_s`.
    Join,
    /// The node stops taking new work at `at_s`, hands off its queue via
    /// a KV-backed handoff record, and leaves the roster.
    DrainThenLeave,
    /// A drain notice at `at_s` with a hard kill at `at_s + grace_s`: if
    /// the node has not finished draining inside the grace window it
    /// falls back to the crash path.
    Preempt {
        /// Seconds between the notice and the hard kill.
        grace_s: f64,
    },
}

/// One scheduled roster transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticEvent {
    /// The node the transition applies to.
    pub node_id: usize,
    /// Scheduled simulated time of the transition (notice time for
    /// preemptions).
    pub at_s: f64,
    /// The transition kind.
    pub kind: ElasticEventKind,
}

/// Probabilities and windows for seeded elastic schedule generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticSpec {
    /// Probability a node (other than node 0) starts absent and joins.
    pub join_prob: f64,
    /// `[lo, hi)` window for join times, seconds.
    pub join_window_s: (f64, f64),
    /// Probability a node drains and leaves gracefully.
    pub drain_prob: f64,
    /// `[lo, hi)` window for drain times, seconds.
    pub drain_window_s: (f64, f64),
    /// Probability a node is preempted.
    pub preempt_prob: f64,
    /// `[lo, hi)` window for preempt notice times, seconds.
    pub preempt_window_s: (f64, f64),
    /// `[lo, hi)` window for the grace period, seconds.
    pub preempt_grace_s: (f64, f64),
}

impl Default for ElasticSpec {
    /// The standard chaos-sweep mix: roughly one roster transition per
    /// three nodes of each kind, landing inside the same simulated window
    /// the fault generator uses for crashes.
    fn default() -> Self {
        ElasticSpec {
            join_prob: 0.25,
            join_window_s: (10.0, 150.0),
            drain_prob: 0.30,
            drain_window_s: (10.0, 150.0),
            preempt_prob: 0.25,
            preempt_window_s: (10.0, 150.0),
            preempt_grace_s: (5.0, 30.0),
        }
    }
}

/// A malformed elastic spec string.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSpecError(pub String);

impl fmt::Display for ElasticSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad elastic spec: {}", self.0)
    }
}

impl std::error::Error for ElasticSpecError {}

/// A deterministic schedule of roster transitions for one job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElasticPlan {
    events: Vec<ElasticEvent>,
}

impl ElasticPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ElasticPlan::default()
    }

    /// Alias for [`ElasticPlan::new`], mirroring [`pareto_cluster::FaultPlan::none`].
    pub fn none() -> Self {
        ElasticPlan::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[ElasticEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no transitions are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule `node` to join at `at_s` (floored to 0).
    #[must_use]
    pub fn with_join(mut self, node: usize, at_s: f64) -> Self {
        self.events.push(ElasticEvent {
            node_id: node,
            at_s: at_s.max(0.0),
            kind: ElasticEventKind::Join,
        });
        self
    }

    /// Schedule `node` to drain and leave at `at_s` (floored to 0).
    #[must_use]
    pub fn with_drain(mut self, node: usize, at_s: f64) -> Self {
        self.events.push(ElasticEvent {
            node_id: node,
            at_s: at_s.max(0.0),
            kind: ElasticEventKind::DrainThenLeave,
        });
        self
    }

    /// Schedule `node` to be preempted at `at_s` with `grace_s` seconds
    /// before the hard kill (both floored to 0).
    #[must_use]
    pub fn with_preempt(mut self, node: usize, at_s: f64, grace_s: f64) -> Self {
        self.events.push(ElasticEvent {
            node_id: node,
            at_s: at_s.max(0.0),
            kind: ElasticEventKind::Preempt {
                grace_s: grace_s.max(0.0),
            },
        });
        self
    }

    /// A copy with event `index` removed; out of range is a no-op copy
    /// (the shape the delta-debugging shrinker wants).
    #[must_use]
    pub fn without_event(&self, index: usize) -> Self {
        let mut events = self.events.clone();
        if index < events.len() {
            events.remove(index);
        }
        ElasticPlan { events }
    }

    /// Earliest scheduled join time for `node`, if any.
    pub fn join_time(&self, node: usize) -> Option<f64> {
        self.events
            .iter()
            .filter(|e| e.node_id == node && e.kind == ElasticEventKind::Join)
            .map(|e| e.at_s)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Earliest scheduled drain time for `node`, if any.
    pub fn drain_time(&self, node: usize) -> Option<f64> {
        self.events
            .iter()
            .filter(|e| {
                e.node_id == node && e.kind == ElasticEventKind::DrainThenLeave
            })
            .map(|e| e.at_s)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Earliest scheduled preemption for `node` as `(notice_s, grace_s)`,
    /// if any.
    pub fn preempt(&self, node: usize) -> Option<(f64, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                ElasticEventKind::Preempt { grace_s } if e.node_id == node => {
                    Some((e.at_s, grace_s))
                }
                _ => None,
            })
            .fold(None, |acc: Option<(f64, f64)>, cur| match acc {
                Some(a) if a.0 <= cur.0 => Some(a),
                _ => Some(cur),
            })
    }

    /// Generate a schedule from `(seed, node_id, event_index)` draws.
    ///
    /// Each node takes at most one elastic role per seed, priority
    /// join > drain > preempt — a node cannot both start absent and
    /// drain. Node 0 never joins so at least one node is present at job
    /// start. All seven draws are made for every node regardless of which
    /// role (if any) applies, so plans are prefix-stable in cluster size
    /// and compose with fault plans generated from the same seed without
    /// perturbing their draws.
    pub fn generate(seed: u64, num_nodes: usize, spec: &ElasticSpec) -> Self {
        let window = |u: f64, (lo, hi): (f64, f64)| lo + u * (hi - lo).max(0.0);
        let mut plan = ElasticPlan::new();
        for node in 0..num_nodes {
            let joins = unit_draw(seed, node, IDX_JOIN_OCCURS) < spec.join_prob;
            let join_at = window(unit_draw(seed, node, IDX_JOIN_TIME), spec.join_window_s);
            let drains = unit_draw(seed, node, IDX_DRAIN_OCCURS) < spec.drain_prob;
            let drain_at = window(unit_draw(seed, node, IDX_DRAIN_TIME), spec.drain_window_s);
            let preempted = unit_draw(seed, node, IDX_PREEMPT_OCCURS) < spec.preempt_prob;
            let preempt_at =
                window(unit_draw(seed, node, IDX_PREEMPT_TIME), spec.preempt_window_s);
            let grace = window(unit_draw(seed, node, IDX_PREEMPT_GRACE), spec.preempt_grace_s);
            if joins && node > 0 {
                plan = plan.with_join(node, join_at);
            } else if drains {
                plan = plan.with_drain(node, drain_at);
            } else if preempted {
                plan = plan.with_preempt(node, preempt_at, grace);
            }
        }
        plan
    }

    /// Render as the elastic spec grammar: `join:N@T`, `drain:N@T`,
    /// `preempt:N@T@G`, comma-joined. `{}` float formatting is shortest
    /// round-trip, so `parse(to_spec())` is an exact identity.
    pub fn to_spec(&self) -> String {
        let clauses: Vec<String> = self
            .events
            .iter()
            .map(|e| match e.kind {
                ElasticEventKind::Join => format!("join:{}@{}", e.node_id, e.at_s),
                ElasticEventKind::DrainThenLeave => {
                    format!("drain:{}@{}", e.node_id, e.at_s)
                }
                ElasticEventKind::Preempt { grace_s } => {
                    format!("preempt:{}@{}@{}", e.node_id, e.at_s, grace_s)
                }
            })
            .collect();
        clauses.join(", ")
    }

    /// Parse the spec grammar. Clauses are comma-separated and
    /// whitespace-tolerant; empty clauses are skipped. `eseeded:SEED`
    /// expands to `ElasticPlan::generate(SEED, num_nodes,
    /// &ElasticSpec::default())`. Node ids must be `< num_nodes`.
    pub fn parse(spec: &str, num_nodes: usize) -> Result<Self, ElasticSpecError> {
        let bad = |clause: &str, why: &str| {
            Err(ElasticSpecError(format!("clause {clause:?}: {why}")))
        };
        let node_of = |clause: &str, s: &str| -> Result<usize, ElasticSpecError> {
            let n: usize = s
                .trim()
                .parse()
                .map_err(|_| ElasticSpecError(format!("clause {clause:?}: bad node id {s:?}")))?;
            if n >= num_nodes {
                return Err(ElasticSpecError(format!(
                    "clause {clause:?}: node {n} outside cluster of {num_nodes}"
                )));
            }
            Ok(n)
        };
        let secs = |clause: &str, s: &str| -> Result<f64, ElasticSpecError> {
            let v: f64 = s.trim().parse().map_err(|_| {
                ElasticSpecError(format!("clause {clause:?}: bad seconds value {s:?}"))
            })?;
            if !v.is_finite() || v < 0.0 {
                return Err(ElasticSpecError(format!(
                    "clause {clause:?}: seconds must be finite and >= 0"
                )));
            }
            Ok(v)
        };
        let mut plan = ElasticPlan::new();
        for raw in spec.split(',') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            let (kind, rest) = match clause.split_once(':') {
                Some(parts) => parts,
                None => return bad(clause, "expected kind:args"),
            };
            match kind.trim() {
                "join" | "drain" => {
                    let (n, t) = match rest.split_once('@') {
                        Some(parts) => parts,
                        None => return bad(clause, "expected NODE@SECONDS"),
                    };
                    let node = node_of(clause, n)?;
                    let at = secs(clause, t)?;
                    plan = if kind.trim() == "join" {
                        plan.with_join(node, at)
                    } else {
                        plan.with_drain(node, at)
                    };
                }
                "preempt" => {
                    let mut parts = rest.split('@');
                    let (n, t, g) = match (parts.next(), parts.next(), parts.next(), parts.next())
                    {
                        (Some(n), Some(t), Some(g), None) => (n, t, g),
                        _ => return bad(clause, "expected NODE@SECONDS@GRACE"),
                    };
                    let node = node_of(clause, n)?;
                    plan = plan.with_preempt(node, secs(clause, t)?, secs(clause, g)?);
                }
                "eseeded" => {
                    let seed: u64 = rest.trim().parse().map_err(|_| {
                        ElasticSpecError(format!("clause {clause:?}: bad seed {rest:?}"))
                    })?;
                    let generated = ElasticPlan::generate(seed, num_nodes, &ElasticSpec::default());
                    plan.events.extend(generated.events);
                }
                other => {
                    return bad(clause, &format!("unknown elastic event kind {other:?}"));
                }
            }
        }
        Ok(plan)
    }
}

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
            m.solve(n, alpha, None).map(|solved| solved.point)
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
    let mut offsets = vec![0.0; extended.len()];
    *offsets.last_mut().unwrap() = migration_seconds;
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
    use pareto_cluster::NodeSpec;
    use pareto_energy::NodeEnergyProfile;
    use pareto_stats::LinearFit;

    fn spec_all() -> ElasticSpec {
        ElasticSpec {
            join_prob: 0.5,
            drain_prob: 0.5,
            preempt_prob: 0.5,
            ..ElasticSpec::default()
        }
    }

    #[test]
    fn builders_and_queries() {
        let plan = ElasticPlan::new()
            .with_join(2, 40.0)
            .with_drain(1, 30.0)
            .with_preempt(3, 20.0, 10.0)
            .with_drain(1, 25.0);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.join_time(2), Some(40.0));
        assert_eq!(plan.join_time(1), None);
        // Earliest drain wins.
        assert_eq!(plan.drain_time(1), Some(25.0));
        assert_eq!(plan.preempt(3), Some((20.0, 10.0)));
        assert_eq!(plan.preempt(0), None);
        // Times are floored at zero.
        let floored = ElasticPlan::new().with_preempt(0, -3.0, -1.0);
        assert_eq!(floored.preempt(0), Some((0.0, 0.0)));
    }

    #[test]
    fn without_event_removes_exactly_one() {
        let plan = ElasticPlan::new().with_join(1, 10.0).with_drain(2, 20.0);
        let cut = plan.without_event(0);
        assert_eq!(cut.len(), 1);
        assert_eq!(cut.events()[0].node_id, 2);
        // Out of range is a no-op copy.
        assert_eq!(plan.without_event(9), plan);
    }

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let spec = spec_all();
        let a = ElasticPlan::generate(99, 8, &spec);
        let b = ElasticPlan::generate(99, 8, &spec);
        assert_eq!(a, b);
        // A node's role does not depend on cluster size.
        let small = ElasticPlan::generate(99, 4, &spec);
        for node in 0..4 {
            assert_eq!(a.join_time(node), small.join_time(node));
            assert_eq!(a.drain_time(node), small.drain_time(node));
            assert_eq!(a.preempt(node), small.preempt(node));
        }
    }

    #[test]
    fn generation_respects_probabilities_and_exclusivity() {
        let zero = ElasticSpec {
            join_prob: 0.0,
            drain_prob: 0.0,
            preempt_prob: 0.0,
            ..ElasticSpec::default()
        };
        assert!(ElasticPlan::generate(7, 16, &zero).is_empty());
        let always = ElasticSpec {
            join_prob: 1.0,
            drain_prob: 1.0,
            preempt_prob: 1.0,
            ..ElasticSpec::default()
        };
        let plan = ElasticPlan::generate(7, 16, &always);
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
        let plan = ElasticPlan::new()
            .with_join(3, 42.5)
            .with_drain(0, 17.25)
            .with_preempt(2, 61.0, 12.5);
        let spec = plan.to_spec();
        let parsed = ElasticPlan::parse(&spec, 4).expect("round trip");
        assert_eq!(parsed, plan);
        // Whitespace and empty clauses are tolerated.
        let sloppy = ElasticPlan::parse(" join:1@5 , , drain:0@9.5 ", 2).expect("sloppy");
        assert_eq!(sloppy.len(), 2);
    }

    #[test]
    fn to_spec_round_trips_generated_plans() {
        for seed in [7u64, 2017, 0xE1A5] {
            let plan = ElasticPlan::generate(seed, 8, &spec_all());
            let parsed = ElasticPlan::parse(&plan.to_spec(), 8).expect("round trip");
            assert_eq!(parsed, plan, "seed {seed}");
        }
    }

    #[test]
    fn parse_eseeded_matches_generate() {
        let parsed = ElasticPlan::parse("eseeded:2017", 6).expect("seeded");
        let generated = ElasticPlan::generate(2017, 6, &ElasticSpec::default());
        assert_eq!(parsed, generated);
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
                ElasticPlan::parse(bad, 4).is_err(),
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
