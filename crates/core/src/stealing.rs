//! A work-stealing execution baseline (paper §I).
//!
//! The paper's introduction positions work stealing (Blumofe & Leiserson)
//! as the "typical solution" to heterogeneity and argues it does not fit
//! distributed analytics: it balances *sizes* reactively at the cost of
//! moving data mid-job, and it cannot fix *payload* problems (a skewed
//! partition has already inflated the SON candidate set before any steal
//! happens). This module makes that argument measurable: an event-driven
//! simulation of per-record work stealing over the heterogeneous cluster,
//! comparable against the framework's proactive plans.
//!
//! The model: every node owns a deque of records with known per-record
//! work; a node that drains its deque steals the *back half* of the
//! most-loaded victim's remaining records, paying the victim's payload
//! bytes over the network plus one round trip per steal. Simulated time
//! advances per record; the returned report uses the same accounting as
//! [`SimCluster::account_costs`](pareto_cluster::SimCluster).
//!
//! Every deque is a [`WorkQueue`], which keeps the sum of its records' ops
//! next to the ids, so picking a victim reads one total per node instead
//! of re-pricing every queued record.

use std::collections::VecDeque;

use pareto_cluster::{Cost, JobReport, SimCluster};

/// Outcome of a work-stealing simulation.
#[derive(Debug, Clone)]
pub struct StealingOutcome {
    /// Standard job accounting (per-node busy seconds, energy, dirty).
    pub report: JobReport,
    /// Number of steal events that occurred.
    pub steals: usize,
    /// Total records moved between nodes.
    pub records_moved: usize,
    /// Total bytes moved by steals.
    pub bytes_moved: u64,
}

/// One record's execution profile.
#[derive(Debug, Clone, Copy)]
pub struct RecordWork {
    /// Compute operations the record costs (content-dependent).
    pub ops: u64,
    /// Payload size in bytes (what a steal must move).
    pub bytes: u64,
}

/// One node's queue of record ids (front = next to run) plus the sum of
/// their [`RecordWork::ops`]. Every edit goes through a method that keeps
/// the sum, so a scheduler reads a queue's remaining work in O(1). Shared
/// by the work-stealing baseline and the fault executor's node queues.
///
/// The sum saturates rather than wraps. It is exact while the ops queued
/// at once fit in `u64`; the fault executor rejects jobs where they may
/// not (`RecoveryConfigError::WorkOverflow`).
pub(crate) struct WorkQueue<'a> {
    work: &'a [RecordWork],
    items: VecDeque<usize>,
    ops: u64,
}

impl<'a> WorkQueue<'a> {
    /// A queue holding `items`, in order; each is an index into `work`.
    pub(crate) fn new(work: &'a [RecordWork], items: &[usize]) -> Self {
        let mut queue = WorkQueue {
            work,
            items: VecDeque::with_capacity(items.len()),
            ops: 0,
        };
        queue.extend(items.iter().copied());
        queue
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total ops of the queued records.
    pub(crate) fn ops(&self) -> u64 {
        self.ops
    }

    /// The queued record ids, front first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.items.iter().copied()
    }

    pub(crate) fn pop_front(&mut self) -> Option<usize> {
        let r = self.items.pop_front()?;
        self.ops = self.ops.saturating_sub(self.work[r].ops);
        Some(r)
    }

    /// Append `items` at the back, in order.
    pub(crate) fn extend(&mut self, items: impl IntoIterator<Item = usize>) {
        for r in items {
            self.ops = self.ops.saturating_add(self.work[r].ops);
            self.items.push_back(r);
        }
    }

    /// Remove and return the records from position `at` on, in order.
    /// Panics if `at > len`, like [`VecDeque::split_off`].
    pub(crate) fn split_off(&mut self, at: usize) -> Vec<usize> {
        let tail: Vec<usize> = self.items.drain(at..).collect();
        for &r in &tail {
            self.ops = self.ops.saturating_sub(self.work[r].ops);
        }
        tail
    }

    /// Take the back half (rounded up) of the queue, in order: the classic
    /// deque steal.
    pub(crate) fn steal_back_half(&mut self) -> Vec<usize> {
        self.split_off(self.len() / 2)
    }

    /// Empty the queue, returning every record in order.
    pub(crate) fn take_all(&mut self) -> Vec<usize> {
        self.ops = 0;
        self.items.drain(..).collect()
    }
}

/// Simulate work stealing over `initial` per-node record queues.
///
/// `work[r]` describes record `r`; `initial[i]` lists the record ids that
/// start on node `i` (a partition of `0..work.len()`).
pub fn simulate_work_stealing(
    cluster: &SimCluster,
    work: &[RecordWork],
    initial: &[Vec<usize>],
) -> StealingOutcome {
    assert_eq!(
        initial.len(),
        cluster.num_nodes(),
        "one initial queue per node"
    );
    let p = cluster.num_nodes();
    // Per-node state: pending record queue (front = next to process),
    // current simulated clock, and accumulated cost.
    let mut queues: Vec<_> = initial.iter().map(|q| WorkQueue::new(work, q)).collect();
    let mut clock = vec![0.0f64; p];
    let mut costs = vec![Cost::ZERO; p];
    let mut steals = 0usize;
    let mut records_moved = 0usize;
    let mut bytes_moved = 0u64;

    // Event-driven: always advance the node with the smallest clock.
    // A node with work processes one record; an idle node steals or, if
    // nothing remains anywhere, retires (clock pinned to +inf).
    let mut retired = vec![false; p];
    while let Some(node) = (0..p)
        .filter(|&i| !retired[i])
        .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
    {
        if let Some(r) = queues[node].pop_front() {
            let cost = Cost::compute(work[r].ops);
            clock[node] += cluster.cost_to_seconds(node, &cost);
            costs[node].add(cost);
            continue;
        }
        // Steal from the victim with the most *remaining simulated work*
        // (what a real scheduler approximates with queue lengths), priced
        // once per victim from its queue's ops total.
        let victim = (0..p)
            .filter(|&v| v != node && !queues[v].is_empty())
            .map(|v| {
                let load = Cost::compute(queues[v].ops());
                (v, cluster.cost_to_seconds(v, &load))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let Some((victim, _)) = victim else {
            retired[node] = true;
            continue;
        };
        let stolen = queues[victim].steal_back_half();
        let moved_bytes: u64 = stolen.iter().map(|&r| work[r].bytes).sum();
        // The thief pays the transfer before it can proceed.
        let transfer = Cost {
            compute_ops: 0,
            bytes: moved_bytes,
            round_trips: 1,
        };
        clock[node] += cluster.cost_to_seconds(node, &transfer);
        costs[node].add(transfer);
        steals += 1;
        records_moved += stolen.len();
        bytes_moved += moved_bytes;
        queues[node].extend(stolen);
    }

    let report = cluster.account_costs(&costs);
    StealingOutcome {
        report,
        steals,
        records_moved,
        bytes_moved,
    }
}

/// Convenience: build [`RecordWork`] for every record of a dataset under a
/// given per-record op model.
pub fn record_work_from<F>(dataset: &pareto_datagen::Dataset, ops_of: F) -> Vec<RecordWork>
where
    F: Fn(&pareto_datagen::DataItem) -> u64,
{
    dataset
        .items
        .iter()
        .map(|item| RecordWork {
            ops: ops_of(item),
            bytes: item.payload.to_bytes().len() as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_cluster::NodeSpec;
    use proptest::collection::vec;
    use proptest::prelude::any;

    fn cluster(p: usize) -> SimCluster {
        SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, 3))
    }

    fn uniform_work(n: usize, ops: u64) -> Vec<RecordWork> {
        vec![RecordWork { ops, bytes: 100 }; n]
    }

    fn equal_split(n: usize, p: usize) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); p];
        for i in 0..n {
            parts[i * p / n].push(i);
        }
        parts
    }

    proptest::proptest! {
        /// Random edit sequences leave a `WorkQueue` holding the same items,
        /// in the same order, as a plain deque, with `ops()` equal to their
        /// recomputed sum after every step.
        #[test]
        fn work_queue_matches_a_plain_deque(
            ops in vec(0u64..1_000_000_000_000, 1..40),
            initial in vec(0usize..40, 0..20),
            steps in vec((0u8..5, any::<usize>()), 0..64),
        ) {
            let work: Vec<RecordWork> =
                ops.iter().map(|&ops| RecordWork { ops, bytes: 1 }).collect();
            let initial: Vec<usize> = initial.iter().map(|r| r % work.len()).collect();
            let mut queue = WorkQueue::new(&work, &initial);
            let mut model: VecDeque<usize> = initial.iter().copied().collect();
            for (kind, arg) in steps {
                match kind {
                    0 => {
                        let items: Vec<usize> =
                            (0..arg % 8).map(|k| (arg / 8 + k * 7) % work.len()).collect();
                        queue.extend(items.iter().copied());
                        model.extend(items);
                    }
                    1 => assert_eq!(queue.pop_front(), model.pop_front()),
                    2 => {
                        let take = model.len().div_ceil(2);
                        let back: Vec<usize> = model.drain(model.len() - take..).collect();
                        assert_eq!(queue.steal_back_half(), back);
                    }
                    3 => {
                        let at = arg % (model.len() + 1);
                        assert_eq!(queue.split_off(at), Vec::from(model.split_off(at)));
                    }
                    _ => assert_eq!(queue.take_all(), model.drain(..).collect::<Vec<_>>()),
                }
                assert_eq!(queue.iter().collect::<Vec<_>>(), Vec::from(model.clone()));
                assert_eq!(queue.len(), model.len());
                assert_eq!(queue.ops(), model.iter().map(|&r| work[r].ops).sum::<u64>());
            }
        }
    }

    #[test]
    fn stealing_improves_on_static_equal_split() {
        let cl = cluster(4);
        let work = uniform_work(400, 1_000_000);
        let initial = equal_split(400, 4);
        // Static equal split: slowest node (1/4 speed) dominates.
        let static_costs: Vec<Cost> = initial
            .iter()
            .map(|q| Cost::compute(q.iter().map(|&r| work[r].ops).sum()))
            .collect();
        let static_report = cl.account_costs(&static_costs);
        let ws = simulate_work_stealing(&cl, &work, &initial);
        assert!(ws.steals > 0, "idle fast nodes must steal");
        assert!(
            ws.report.makespan_seconds < static_report.makespan_seconds * 0.75,
            "stealing {} vs static {}",
            ws.report.makespan_seconds,
            static_report.makespan_seconds
        );
    }

    #[test]
    fn stealing_cannot_beat_oracle_proportional_split() {
        // Proactive speed-proportional sizing needs no steals and no
        // transfers; work stealing converges toward it but pays movement.
        let cl = cluster(4);
        let work = uniform_work(500, 2_000_000);
        let total_ops: u64 = work.iter().map(|w| w.ops).sum();
        // Oracle: ops proportional to speed 1, 1/2, 1/3, 1/4.
        let speeds = [1.0, 0.5, 1.0 / 3.0, 0.25];
        let s: f64 = speeds.iter().sum();
        let oracle_costs: Vec<Cost> = speeds
            .iter()
            .map(|sp| Cost::compute((total_ops as f64 * sp / s) as u64))
            .collect();
        let oracle = cl.account_costs(&oracle_costs);
        let ws = simulate_work_stealing(&cl, &work, &equal_split(500, 4));
        assert!(
            ws.report.makespan_seconds >= oracle.makespan_seconds * 0.98,
            "stealing {} cannot beat the proactive oracle {}",
            ws.report.makespan_seconds,
            oracle.makespan_seconds
        );
        assert!(ws.bytes_moved > 0, "balancing required data movement");
    }

    #[test]
    fn no_stealing_when_already_balanced() {
        let cl = cluster(4);
        let work = uniform_work(100, 1_000_000);
        // Hand the fast node proportionally more records up front.
        let mut initial = vec![Vec::new(); 4];
        let shares = [48usize, 24, 16, 12];
        let mut next = 0;
        for (node, &take) in shares.iter().enumerate() {
            for _ in 0..take {
                initial[node].push(next);
                next += 1;
            }
        }
        let ws = simulate_work_stealing(&cl, &work, &initial);
        assert_eq!(ws.records_moved, 0, "balanced start should not steal");
        assert!(ws.report.imbalance() < 1.05);
    }

    #[test]
    fn empty_and_single_record_inputs() {
        let cl = cluster(2);
        let ws = simulate_work_stealing(&cl, &[], &[vec![], vec![]]);
        assert_eq!(ws.report.makespan_seconds, 0.0);
        let work = uniform_work(1, 5_000_000);
        let ws = simulate_work_stealing(&cl, &work, &[vec![0], vec![]]);
        assert!(ws.report.makespan_seconds > 0.0);
    }

    #[test]
    fn all_records_processed_exactly_once() {
        let cl = cluster(3);
        let work: Vec<RecordWork> = (0..97)
            .map(|i| RecordWork {
                ops: 100_000 + (i as u64 % 7) * 50_000,
                bytes: 64,
            })
            .collect();
        let initial = equal_split(97, 3);
        let ws = simulate_work_stealing(&cl, &work, &initial);
        let total_ops: u64 = work.iter().map(|w| w.ops).sum();
        let charged: u64 = ws.report.runs.iter().map(|r| r.cost.compute_ops).sum();
        assert_eq!(charged, total_ops, "every record charged exactly once");
    }
}
