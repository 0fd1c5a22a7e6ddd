//! Components I & II: the task-specific heterogeneity estimator and the
//! green-energy estimator (paper §III-A, §III-B).
//!
//! The heterogeneity estimator learns one execution-time utility function
//! `f_i(x) = m_i·x + c_i` per node by **progressive sampling**: it draws
//! *stratified* samples of 0.05%–2% of the data (representative of the
//! final partitions, which is what makes the model payload-aware), runs the
//! **actual algorithm** on each sample, observes per-node execution time,
//! and fits a linear regression.
//!
//! The energy estimator reduces each node's green trace to the mean-rate
//! profile `k_i = E_i − ḠE_i` used by the LP (§III-D).

use pareto_cluster::{Cost, SimCluster};
use pareto_datagen::{DataItem, Dataset};
use pareto_energy::NodeEnergyProfile;
use pareto_stats::{progressive_schedule, stratified_sample, LinearFit};
use pareto_stratify::Stratification;
use pareto_workloads::{run_workload, WorkloadKind};

/// Progressive-sampling schedule parameters (§III-A: 0.05% → 2%).
#[derive(Debug, Clone, Copy)]
pub struct SamplingPlan {
    /// Smallest sample, as a fraction of the dataset.
    pub lo_frac: f64,
    /// Largest sample, as a fraction of the dataset.
    pub hi_frac: f64,
    /// Number of samples (fit points).
    pub steps: usize,
    /// Floor on the smallest sample, in records. The paper's fractions
    /// assume corpora of 10⁵–10⁷ records; on small datasets a 0.05%
    /// sample is a handful of records, where support-threshold workloads
    /// degenerate (every subset is "frequent") and the fitted slope is
    /// garbage. The floor keeps every sample in the workload's sane
    /// operating regime.
    pub min_records: usize,
}

impl Default for SamplingPlan {
    fn default() -> Self {
        SamplingPlan {
            lo_frac: 0.0005,
            hi_frac: 0.02,
            steps: 6,
            min_records: 32,
        }
    }
}

impl SamplingPlan {
    /// Concrete sample sizes for a dataset of `n` records: geometric steps
    /// from `max(lo_frac·n, min_records)` to `max(hi_frac·n,
    /// 4·min_records)`, clamped to `n` and deduplicated.
    pub fn sizes(&self, n: usize) -> Vec<usize> {
        assert!(n > 0, "empty population");
        let lo = ((self.lo_frac * n as f64).round() as usize)
            .max(self.min_records)
            .min(n);
        let hi = ((self.hi_frac * n as f64).round() as usize)
            .max(self.min_records.saturating_mul(4))
            .clamp(lo, n);
        if lo >= hi {
            return vec![lo];
        }
        // Reuse the geometric scheduler over the [lo, hi] size range.
        progressive_schedule(hi, lo as f64 / hi as f64, 1.0, self.steps)
    }
}

/// A fitted per-node execution-time model.
#[derive(Debug, Clone)]
pub struct NodeTimeModel {
    /// Node index in the cluster.
    pub node_id: usize,
    /// The linear utility function `f_i` (seconds vs. record count).
    pub fit: LinearFit,
    /// The raw `(sample size, seconds)` observations behind the fit.
    pub observations: Vec<(f64, f64)>,
}

impl NodeTimeModel {
    /// Predicted seconds for a partition of `x` records, floored at 0.
    pub fn predict(&self, x: f64) -> f64 {
        self.fit.predict(x).max(0.0)
    }
}

/// Component I: learns `f_i` for every node by progressive sampling.
pub struct HeterogeneityEstimator<'a> {
    cluster: &'a SimCluster,
    plan: SamplingPlan,
    seed: u64,
    threads: usize,
}

impl<'a> HeterogeneityEstimator<'a> {
    /// Create an estimator over `cluster` (serial; see
    /// [`HeterogeneityEstimator::with_threads`]).
    pub fn new(cluster: &'a SimCluster, plan: SamplingPlan, seed: u64) -> Self {
        HeterogeneityEstimator {
            cluster,
            plan,
            seed,
            threads: 1,
        }
    }

    /// Run the progressive-sampling schedule and the per-node fits on up
    /// to `threads` workers. Each schedule step draws its sample from an
    /// RNG seeded by `split_seed(seed, step)`, so the sample at step `j`
    /// is a function of `(seed, j)` alone — never of which worker ran it
    /// or of how many steps preceded it — and the estimate is
    /// bit-identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run progressive sampling: the samples are stratified (so they are
    /// representative of the final partitions — §III-A point 3), the
    /// actual workload runs on each, and each node's observed times are
    /// fitted with a linear model.
    ///
    /// Returns one model per node plus the total estimation cost charged
    /// (the "one-time cost (small)… amortized over multiple runs" of
    /// §III).
    pub fn estimate(
        &self,
        dataset: &Dataset,
        stratification: &Stratification,
        workload: WorkloadKind,
    ) -> (Vec<NodeTimeModel>, Cost) {
        let (measurements, total_cost) = self.measure(dataset, stratification, workload);
        let ids: Vec<usize> = (0..self.cluster.num_nodes()).collect();
        (self.fit_measurements(&measurements, &ids), total_cost)
    }

    /// The measurement half of [`estimate`](Self::estimate): run the
    /// progressive-sampling schedule and return the raw `(sample size,
    /// ops)` observations plus the total cost charged. The measurements
    /// are **node-independent** (the workload runs on a stratified sample,
    /// never on a node), which is what lets the incremental planner reuse
    /// them across roster changes and re-fit per node cheaply.
    pub fn measure(
        &self,
        dataset: &Dataset,
        stratification: &Stratification,
        workload: WorkloadKind,
    ) -> (Vec<(usize, u64)>, Cost) {
        let n = dataset.len();
        assert!(n > 0, "cannot estimate on an empty dataset");
        let sizes = self.plan.sizes(n);
        // One measurement per schedule step, each on its own RNG stream.
        let run_step = |step: usize, size: usize| -> (usize, u64) {
            let mut rng =
                pareto_stats::seeded_rng(pareto_stats::split_seed(self.seed, step as u64));
            let idx = stratified_sample(&stratification.strata, size, &mut rng)
                .expect("schedule sizes never exceed the population");
            let records: Vec<&DataItem> = idx.iter().map(|&i| &dataset.items[i]).collect();
            let (_, ops) = run_workload(workload, &records);
            (size, ops)
        };
        let measurements: Vec<(usize, u64)> = if self.threads > 1 && sizes.len() > 1 {
            let chunk = sizes.len().div_ceil(self.threads.min(sizes.len()));
            let mut out = Vec::with_capacity(sizes.len());
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = sizes
                    .chunks(chunk)
                    .enumerate()
                    .map(|(shard, shard_sizes)| {
                        let base = shard * chunk;
                        scope.spawn(move |_| {
                            shard_sizes
                                .iter()
                                .enumerate()
                                .map(|(i, &size)| run_step(base + i, size))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    out.extend(handle.join().expect("sampling worker panicked"));
                }
            })
            .expect("sampling scope panicked");
            out
        } else {
            sizes
                .iter()
                .enumerate()
                .map(|(step, &size)| run_step(step, size))
                .collect()
        };
        let mut total_cost = Cost::ZERO;
        for &(_, ops) in &measurements {
            total_cost.add(Cost::compute(ops));
        }
        (measurements, total_cost)
    }

    /// Fit one [`NodeTimeModel`] for each node in `node_ids` (actual
    /// cluster ids, e.g. an active roster) from shared measurements. Each
    /// fit is a pure per-node function of the measurements, so the models
    /// for a node are bit-identical whether fitted alongside the full
    /// cluster or a restricted roster — and at any thread count (nodes are
    /// sharded across workers; outputs concatenate in `node_ids` order).
    pub fn fit_measurements(
        &self,
        measurements: &[(usize, u64)],
        node_ids: &[usize],
    ) -> Vec<NodeTimeModel> {
        let fit_node = |node_id: usize| {
            let observations: Vec<(f64, f64)> = measurements
                .iter()
                .map(|&(size, ops)| {
                    let secs = self.cluster.cost_to_seconds(node_id, &Cost::compute(ops));
                    (size as f64, secs)
                })
                .collect();
            let fit = fit_with_fallback(&observations);
            NodeTimeModel {
                node_id,
                fit,
                observations,
            }
        };
        let p = node_ids.len();
        if self.threads <= 1 || p < 2 {
            return node_ids.iter().map(|&id| fit_node(id)).collect();
        }
        let ids = node_ids;
        let chunk = p.div_ceil(self.threads.min(p));
        let mut models = Vec::with_capacity(p);
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .chunks(chunk)
                .map(|shard| {
                    scope.spawn(move |_| {
                        shard.iter().map(|&id| fit_node(id)).collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                models.extend(handle.join().expect("fit worker panicked"));
            }
        })
        .expect("fit scope panicked");
        models
    }
}

/// Fit a line; if the observations are degenerate (a single distinct
/// sample size survived deduplication on a tiny dataset), fall back to a
/// through-origin proportional model.
fn fit_with_fallback(observations: &[(f64, f64)]) -> LinearFit {
    match LinearFit::fit(observations) {
        Ok(fit) if fit.slope >= 0.0 => fit,
        _ => {
            // Proportional fallback: slope = mean(y/x), intercept 0.
            let slope = observations
                .iter()
                .filter(|(x, _)| *x > 0.0)
                .map(|(x, y)| y / x)
                .sum::<f64>()
                / observations.len().max(1) as f64;
            LinearFit {
                slope: slope.max(f64::MIN_POSITIVE),
                intercept: 0.0,
                r_squared: 0.0,
                n: observations.len(),
            }
        }
    }
}

/// Component II: reduce every node's trace to its `k_i` profile over the
/// planning window (§III-D's mean-rate approximation).
pub struct EnergyEstimator;

impl EnergyEstimator {
    /// Profiles for all nodes over `[t0, t0 + horizon]` seconds.
    ///
    /// Nodes whose trace yields a non-finite profile are degraded to a
    /// zero energy weight (see `profiles_checked`), with a structured
    /// warning (stderr by default, capturable via
    /// [`pareto_telemetry::event::set_sink`]) naming them.
    pub fn profiles(cluster: &SimCluster, t0: f64, horizon: f64) -> Vec<NodeEnergyProfile> {
        let (profiles, degraded) = Self::profiles_checked(cluster, t0, horizon);
        if !degraded.is_empty() {
            pareto_telemetry::event::warn(
                "estimator",
                format!(
                    "green trace missing or non-finite on nodes {degraded:?}; \
                     treating them as fully grid-powered (k_i = 0)"
                ),
            );
        }
        profiles
    }

    /// Like [`profiles`](Self::profiles), but returns the ids of nodes
    /// whose green trace produced a non-finite profile. Those nodes fall
    /// back to `mean_green_watts = draw_watts`, i.e. a zero energy weight
    /// `k_i = E_i − ḠE_i = 0`: a broken or missing trace must not push
    /// NaN into the LP, and a zero weight makes the solver treat the node
    /// purely by its time model.
    fn profiles_checked(
        cluster: &SimCluster,
        t0: f64,
        horizon: f64,
    ) -> (Vec<NodeEnergyProfile>, Vec<usize>) {
        // A broken planning window (NaN/infinite t0 or horizon, e.g. from
        // a degenerate makespan estimate upstream) would panic or hang
        // inside the trace integration; treat it as "no trace available".
        let window_ok = t0.is_finite() && t0 >= 0.0 && horizon.is_finite();
        let mut degraded = Vec::new();
        let profiles = cluster
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let mut prof = if window_ok {
                    NodeEnergyProfile::from_trace(&n.power(), &n.trace, t0, horizon)
                } else {
                    NodeEnergyProfile {
                        draw_watts: n.power().watts(),
                        mean_green_watts: f64::NAN,
                    }
                };
                if !prof.draw_watts.is_finite() || !prof.mean_green_watts.is_finite() {
                    degraded.push(i);
                    if !prof.draw_watts.is_finite() {
                        prof.draw_watts = 0.0;
                    }
                    prof.mean_green_watts = prof.draw_watts;
                }
                prof
            })
            .collect();
        (profiles, degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_cluster::NodeSpec;
    use pareto_stratify::{Stratifier, StratifierConfig};

    fn setup() -> (Dataset, SimCluster, Stratification) {
        let ds = pareto_datagen::rcv1_syn(3, 0.05); // 250 docs
        let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 3));
        let strat = Stratifier::new(StratifierConfig {
            num_strata: 8,
            ..StratifierConfig::default()
        })
        .stratify(&ds);
        (ds, cluster, strat)
    }

    #[test]
    fn estimates_one_model_per_node() {
        let (ds, cluster, strat) = setup();
        let est = HeterogeneityEstimator::new(&cluster, SamplingPlan::default(), 11);
        let (models, cost) = est.estimate(
            &ds,
            &strat,
            WorkloadKind::FrequentPatterns { support: 0.1 },
        );
        assert_eq!(models.len(), 4);
        assert!(cost.compute_ops > 0);
        for m in &models {
            assert!(m.fit.slope >= 0.0, "time must not decrease with size");
            assert!(!m.observations.is_empty());
        }
    }

    #[test]
    fn slower_nodes_get_steeper_models() {
        let (ds, cluster, strat) = setup();
        let est = HeterogeneityEstimator::new(&cluster, SamplingPlan::default(), 11);
        let (models, _) = est.estimate(&ds, &strat, WorkloadKind::Lz77);
        // Node 3 is type 4 (speed 1/4): its slope must be ~4x node 0's.
        let ratio = models[3].fit.slope / models[0].fit.slope;
        assert!(
            (ratio - 4.0).abs() < 0.2,
            "slope ratio should reflect speed ratio, got {ratio}"
        );
    }

    #[test]
    fn prediction_extrapolates_sensibly() {
        let (ds, cluster, strat) = setup();
        let est = HeterogeneityEstimator::new(&cluster, SamplingPlan::default(), 5);
        let (models, _) = est.estimate(&ds, &strat, WorkloadKind::Lz77);
        let m = &models[0];
        let at_full = m.predict(ds.len() as f64);
        let at_half = m.predict(ds.len() as f64 / 2.0);
        assert!(at_full > at_half && at_half > 0.0);
    }

    #[test]
    fn estimation_is_deterministic() {
        let (ds, cluster, strat) = setup();
        let plan = SamplingPlan::default();
        let (m1, c1) = HeterogeneityEstimator::new(&cluster, plan, 9).estimate(
            &ds,
            &strat,
            WorkloadKind::Lz77,
        );
        let (m2, c2) = HeterogeneityEstimator::new(&cluster, plan, 9).estimate(
            &ds,
            &strat,
            WorkloadKind::Lz77,
        );
        assert_eq!(c1.compute_ops, c2.compute_ops);
        assert_eq!(m1[2].fit.slope, m2[2].fit.slope);
    }

    #[test]
    fn estimation_is_thread_count_invariant() {
        let (ds, cluster, strat) = setup();
        let (base_models, base_cost) =
            HeterogeneityEstimator::new(&cluster, SamplingPlan::default(), 11).estimate(
                &ds,
                &strat,
                WorkloadKind::FrequentPatterns { support: 0.1 },
            );
        for threads in [2, 4, 8] {
            let (models, cost) = HeterogeneityEstimator::new(
                &cluster,
                SamplingPlan::default(),
                11,
            )
            .with_threads(threads)
            .estimate(&ds, &strat, WorkloadKind::FrequentPatterns { support: 0.1 });
            assert_eq!(base_cost.compute_ops, cost.compute_ops, "threads={threads}");
            for (a, b) in base_models.iter().zip(&models) {
                assert_eq!(a.node_id, b.node_id);
                assert_eq!(a.fit.slope.to_bits(), b.fit.slope.to_bits());
                assert_eq!(a.fit.intercept.to_bits(), b.fit.intercept.to_bits());
                assert_eq!(a.observations, b.observations);
            }
        }
    }

    #[test]
    fn energy_profiles_cover_all_nodes() {
        let (_, cluster, _) = setup();
        let profiles = EnergyEstimator::profiles(&cluster, 0.0, 3600.0);
        assert_eq!(profiles.len(), 4);
        // Draws must match the paper's 440/345/250/155 W cycle.
        assert_eq!(profiles[0].draw_watts, 440.0);
        assert_eq!(profiles[3].draw_watts, 155.0);
        // Mean green is bounded by the panel rating.
        assert!(profiles.iter().all(|p| p.mean_green_watts >= 0.0));
        assert!(profiles.iter().all(|p| p.mean_green_watts <= 400.0));
    }

    #[test]
    fn non_finite_window_degrades_to_zero_energy_weight() {
        // Traces are validated at construction, so the non-finite path in
        // practice is a broken planning window (e.g. a NaN horizon from a
        // degenerate makespan estimate). It must never put NaN into the LP.
        let (_, cluster, _) = setup();
        let (profiles, degraded) = EnergyEstimator::profiles_checked(&cluster, f64::NAN, 3600.0);
        assert_eq!(degraded, vec![0, 1, 2, 3], "every node's window is broken");
        for p in &profiles {
            assert!(p.draw_watts.is_finite());
            assert!(p.mean_green_watts.is_finite());
            assert_eq!(p.k(), 0.0, "degraded nodes are weightless in the LP");
        }
        // A sane window degrades nobody.
        let (_, ok) = EnergyEstimator::profiles_checked(&cluster, 0.0, 3600.0);
        assert!(ok.is_empty());
    }

    #[test]
    fn fallback_fit_on_degenerate_observations() {
        let fit = super::fit_with_fallback(&[(10.0, 1.0)]);
        assert!(fit.slope > 0.0);
        assert_eq!(fit.intercept, 0.0);
    }
}
