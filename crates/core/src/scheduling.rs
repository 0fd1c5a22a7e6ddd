//! *When* to run the job, not just *where* — GreenSlot-style start-time
//! planning (Goiri et al., the paper's reference [12]).
//!
//! The paper's framework fixes the job start and decides partition sizes;
//! its green-energy model, however, is a *forecast over time*, which also
//! supports the complementary question GreenSlot asks: given a deadline,
//! which start time minimizes dirty energy? This module sweeps candidate
//! start times, re-solves the partitioning LP against each window's mean
//! green rates, and returns the (start, plan) frontier — deferring a job
//! from night to mid-morning can dominate any placement-only optimization.

use pareto_cluster::SimCluster;
use pareto_energy::NodeEnergyProfile;
use pareto_stats::LinearFit;

use crate::pareto::{ParetoModeler, ParetoPoint, PartitionPlanError};

/// One candidate start time and the plan the modeler chose for it.
#[derive(Debug, Clone)]
pub struct StartTimeOption {
    /// Job start offset into the traces, seconds.
    pub start_s: f64,
    /// The Pareto point planned for that window.
    pub point: ParetoPoint,
}

/// Sweep job start times over `[0, deadline_s − makespan]` in `step_s`
/// increments and plan each with the scalarized LP at `alpha`.
///
/// The planning window for each candidate start is that start's own
/// predicted makespan (one fixed-point refinement: plan with a first-guess
/// window, then re-profile over the predicted duration).
///
/// Returns every feasible option (start + plan), sorted by start time; use
/// [`best_start`] for the argmin.
pub fn sweep_start_times(
    cluster: &SimCluster,
    fits: &[LinearFit],
    n: usize,
    alpha: f64,
    deadline_s: f64,
    step_s: f64,
) -> Result<Vec<StartTimeOption>, PartitionPlanError> {
    assert!(step_s > 0.0 && deadline_s >= 0.0, "invalid sweep bounds");
    assert_eq!(
        fits.len(),
        cluster.num_nodes(),
        "one time model per node required"
    );
    let mut options = Vec::new();
    let mut start = 0.0f64;
    while start <= deadline_s {
        // First pass: profile over a nominal 1-hour window.
        let point = plan_at(cluster, fits, n, alpha, start, 3600.0)?;
        // Refine: re-profile over the predicted duration (bounded below by
        // a minute so flat tiny jobs don't divide by ~zero windows).
        let window = point.predicted_makespan.max(60.0);
        let refined = plan_at(cluster, fits, n, alpha, start, window)?;
        // Only feasible if the job fits before the deadline.
        if start + refined.predicted_makespan <= deadline_s || options.is_empty() {
            options.push(StartTimeOption {
                start_s: start,
                point: refined,
            });
        }
        start += step_s;
    }
    Ok(options)
}

/// The option minimizing the scalarized objective
/// `alpha·makespan + (1−alpha)·dirty`.
pub fn best_start(options: &[StartTimeOption], alpha: f64) -> Option<&StartTimeOption> {
    options.iter().min_by(|a, b| {
        let obj = |o: &StartTimeOption| {
            alpha * o.point.predicted_makespan
                + (1.0 - alpha) * o.point.predicted_dirty_joules
        };
        obj(a).partial_cmp(&obj(b)).expect("finite objectives")
    })
}

fn plan_at(
    cluster: &SimCluster,
    fits: &[LinearFit],
    n: usize,
    alpha: f64,
    start_s: f64,
    window_s: f64,
) -> Result<ParetoPoint, PartitionPlanError> {
    let profiles: Vec<NodeEnergyProfile> = cluster
        .nodes()
        .iter()
        .map(|node| NodeEnergyProfile::from_trace(&node.power(), &node.trace, start_s, window_s))
        .collect();
    Ok(ParetoModeler::new(fits.to_vec(), profiles)?.solve(n, alpha, None)?.point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto_cluster::NodeSpec;

    fn fits_for(cluster: &SimCluster) -> Vec<LinearFit> {
        cluster
            .nodes()
            .iter()
            .map(|n| LinearFit {
                slope: 1e-4 / n.speed(),
                intercept: 0.0,
                r_squared: 1.0,
                n: 6,
            })
            .collect()
    }

    /// Traces start at midnight: a dirty-energy-weighted plan should
    /// prefer a daylight start over the midnight one.
    #[test]
    fn daylight_start_beats_midnight() {
        let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 0, 11));
        let fits = fits_for(&cluster);
        let options = sweep_start_times(
            &cluster,
            &fits,
            100_000,
            0.9,
            24.0 * 3600.0,
            2.0 * 3600.0,
        )
        .unwrap();
        assert!(options.len() > 6);
        let best = best_start(&options, 0.9).unwrap();
        let midnight = &options[0];
        assert!(
            best.point.predicted_dirty_joules < midnight.point.predicted_dirty_joules,
            "best ({:.0}s start, {:.0} J) should beat midnight ({:.0} J)",
            best.start_s,
            best.point.predicted_dirty_joules,
            midnight.point.predicted_dirty_joules
        );
        // And the best start is during daylight (06:00-18:00).
        let hour = (best.start_s / 3600.0) % 24.0;
        assert!(
            (4.0..19.0).contains(&hour),
            "best start at hour {hour} is not near daylight"
        );
    }

    #[test]
    fn makespan_is_start_time_invariant() {
        // Start time shifts energy, never compute time.
        let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 0, 3));
        let fits = fits_for(&cluster);
        let options =
            sweep_start_times(&cluster, &fits, 50_000, 1.0, 12.0 * 3600.0, 4.0 * 3600.0)
                .unwrap();
        let makespans: Vec<f64> = options.iter().map(|o| o.point.predicted_makespan).collect();
        for w in makespans.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "{makespans:?}");
        }
    }

    #[test]
    fn deadline_filters_late_starts() {
        let cluster = SimCluster::new(NodeSpec::paper_cluster(2, 400.0, 2, 0, 5));
        let fits = fits_for(&cluster);
        // Makespan ~ a few seconds; deadline of 1 hour, hourly steps: only
        // starts at 0 and 3600 qualify... step 3600 → starts 0, 3600.
        let options =
            sweep_start_times(&cluster, &fits, 10_000, 1.0, 3600.0, 3600.0).unwrap();
        assert!(!options.is_empty() && options.len() <= 2);
        for o in &options {
            assert!(o.start_s + o.point.predicted_makespan <= 3600.0 + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "one time model per node")]
    fn mismatched_fits_panic() {
        let cluster = SimCluster::new(NodeSpec::paper_cluster(3, 400.0, 1, 0, 5));
        let fits = vec![LinearFit {
            slope: 1.0,
            intercept: 0.0,
            r_squared: 1.0,
            n: 2,
        }];
        let _ = sweep_start_times(&cluster, &fits, 10, 1.0, 100.0, 10.0);
    }
}
