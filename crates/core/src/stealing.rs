//! The executor's per-node queues: the work profile of each record and
//! the deque of record ids every node of [`crate::recovery`] runs from.
//!
//! The paper's introduction (§I) positions work stealing as the "typical
//! solution" to heterogeneity. Its one implementation here is the
//! recovery executor's straggler steal, which the §I ablation runs with no
//! model and no faults.
//!
//! A `WorkQueue` keeps the sum of its records' ops next to the ids, so
//! picking a victim reads one total per node instead of re-pricing every
//! queued record.

use std::collections::VecDeque;

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
/// the sum, so a scheduler reads a queue's remaining work in O(1).
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

    /// The records [`WorkQueue::steal_back_half`] would take, in order.
    pub(crate) fn back_half(&self) -> impl Iterator<Item = usize> + '_ {
        self.items.range(self.len() / 2..).copied()
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
    use crate::recovery::{execute, ExecRequest, RecoveryConfig, RecoveryOutcome};
    use pareto_cluster::{Cost, FaultPlan, NodeSpec, SimCluster};
    use pareto_energy::NodeEnergyProfile;
    use pareto_stats::LinearFit;
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

    /// Run the executor as the §I ablation does: no model, no faults, and
    /// any idle node may steal from any node still working.
    fn steal(cl: &SimCluster, work: &[RecordWork], initial: &[Vec<usize>]) -> RecoveryOutcome {
        let p = cl.num_nodes();
        let no_model = LinearFit {
            slope: 0.0,
            intercept: 0.0,
            r_squared: 0.0,
            n: 0,
        };
        let no_energy = NodeEnergyProfile {
            draw_watts: 0.0,
            mean_green_watts: 0.0,
        };
        execute(&ExecRequest {
            cluster: cl,
            work,
            initial,
            strata: &[],
            fits: &vec![no_model; p],
            profiles: &vec![no_energy; p],
            alpha: 1.0,
            faults: &FaultPlan::none(),
            cfg: &RecoveryConfig {
                straggler_threshold: 1.0,
                ..RecoveryConfig::default()
            },
            telemetry: None,
        })
        .expect("node-aligned request over a valid config")
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
                        assert_eq!(queue.back_half().collect::<Vec<_>>(), back);
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
        let ws = steal(&cl, &work, &initial);
        assert!(ws.recovery.speculative_steals > 0, "idle fast nodes must steal");
        assert!(ws.recovery.exactly_once);
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
        let speeds: Vec<f64> = (0..4).map(|i| cl.node(i).speed()).collect();
        let s: f64 = speeds.iter().sum();
        let oracle_costs: Vec<Cost> = speeds
            .iter()
            .map(|sp| Cost::compute((total_ops as f64 * sp / s) as u64))
            .collect();
        let oracle = cl.account_costs(&oracle_costs);
        let ws = steal(&cl, &work, &equal_split(500, 4));
        assert!(
            ws.report.makespan_seconds >= oracle.makespan_seconds * 0.98,
            "stealing {} cannot beat the proactive oracle {}",
            ws.report.makespan_seconds,
            oracle.makespan_seconds
        );
        // Every node fetches its own partition once; bytes beyond that
        // moved in steals.
        let charged: u64 = ws.report.runs.iter().map(|r| r.cost.bytes).sum();
        let own: u64 = work.iter().map(|w| w.bytes).sum();
        assert!(charged > own, "balancing required data movement");
    }
}
