//! Trace the time/dirty-energy Pareto frontier by sweeping the
//! scalarization weight α (the paper's Fig. 5), and show that the
//! equal-size stratified baseline sits above it.
//!
//! ```text
//! cargo run --release -p pareto-examples --bin pareto_frontier
//! ```

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::estimator::{EnergyEstimator, HeterogeneityEstimator, SamplingPlan};
use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
use pareto_core::pareto::ParetoModeler;
use pareto_core::{Stratifier, StratifierConfig};
use pareto_examples::parse_args;
use pareto_workloads::WorkloadKind;

fn main() {
    let args = parse_args("pareto_frontier");
    let dataset = pareto_datagen::rcv1_syn(args.seed, args.scale);
    let workload = WorkloadKind::FrequentPatterns { support: 0.15 };
    let cluster = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, args.seed));

    // Build the modeler once (stratify + progressive sampling), then sweep
    // α through the *predicted* frontier — the cheap planning view.
    let strat = Stratifier::new(StratifierConfig::default()).stratify(&dataset);
    let estimator = HeterogeneityEstimator::new(&cluster, SamplingPlan::default(), args.seed);
    let (models, _) = estimator.estimate(&dataset, &strat, workload);
    let profiles = EnergyEstimator::profiles(&cluster, 0.0, 6.0 * 3600.0);
    let modeler = ParetoModeler::new(models.iter().map(|m| m.fit).collect(), profiles)
        .expect("aligned inputs");

    println!("predicted frontier (LP only, no execution):");
    println!("{:>10} {:>12} {:>14}", "alpha", "time_s", "dirty_kJ");
    let alphas = [1.0, 0.9999, 0.999, 0.997, 0.995, 0.99, 0.97, 0.95, 0.9, 0.5, 0.0];
    for &alpha in &alphas {
        let point = modeler.solve(dataset.len(), alpha, None).expect("feasible LP").point;
        println!(
            "{:>10} {:>12.1} {:>14.1}",
            alpha,
            point.predicted_makespan,
            point.predicted_dirty_joules / 1000.0
        );
    }

    // Then *measure* a few of the points plus the baseline.
    println!("\nmeasured points (full pipeline + execution):");
    println!("{:>18} {:>12} {:>14}", "strategy", "time_s", "dirty_kJ");
    for strategy in [
        Strategy::HetAware,
        Strategy::HetEnergyAware { alpha: 0.995 },
        Strategy::HetEnergyAware { alpha: 0.99 },
        Strategy::HetEnergyAware { alpha: 0.9 },
        Strategy::Stratified,
    ] {
        let fw = Framework::new(
            &cluster,
            FrameworkConfig {
                strategy,
                seed: args.seed,
                ..FrameworkConfig::default()
            },
        );
        let outcome = fw.try_run(&dataset, workload).expect("non-empty dataset");
        let label = match strategy {
            Strategy::HetEnergyAware { alpha } => format!("alpha={alpha}"),
            other => other.label().to_string(),
        };
        println!(
            "{:>18} {:>12.1} {:>14.1}",
            label,
            outcome.report.makespan_seconds,
            outcome.report.total_dirty_linear / 1000.0
        );
    }
    println!(
        "\nLower α trades runtime for dirty energy until the load collapses \
         onto the greenest node (≈α 0.9, as §V-D observes); the equal-size \
         baseline is not Pareto-efficient."
    );
}
