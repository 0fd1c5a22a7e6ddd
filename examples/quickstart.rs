//! Quickstart: partition a text corpus three ways and compare makespan and
//! dirty energy on the paper's 4-type heterogeneous cluster.
//!
//! ```text
//! cargo run --release -p pareto-examples --bin quickstart
//! ```

use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Quality, Strategy};
use pareto_examples::{parse_args, print_report};
use pareto_workloads::WorkloadKind;

fn main() {
    let args = parse_args("quickstart");

    // 1. A dataset. Synthetic RCV1-like corpus; swap in
    //    `pareto_datagen::loaders` if you have real data.
    let dataset = pareto_datagen::rcv1_syn(args.seed, args.scale);
    println!(
        "dataset: {} ({} docs, {} tokens)",
        dataset.name,
        dataset.len(),
        dataset.total_elements()
    );

    // 2. The cluster: machine types cycle x/2x/3x/4x in speed with
    //    440/345/250/155 W draws and four solar-trace locations (§V-A).
    let cluster = SimCluster::new(NodeSpec::paper_cluster(8, 400.0, 2, 9, args.seed));

    // 3. Run the same workload under three partitioning strategies.
    let workload = WorkloadKind::FrequentPatterns { support: 0.15 };
    for strategy in [
        Strategy::Stratified,
        Strategy::HetAware,
        Strategy::HetEnergyAware { alpha: 0.995 },
    ] {
        let framework = Framework::new(
            &cluster,
            FrameworkConfig {
                strategy,
                seed: args.seed,
                ..FrameworkConfig::default()
            },
        );
        let outcome = framework.try_run(&dataset, workload).expect("non-empty dataset");
        print_report(strategy.label(), &outcome.report);
        if let Quality::Mining {
            global_frequent,
            candidates,
            false_positives,
        } = outcome.quality
        {
            println!(
                "  patterns: {global_frequent} frequent, {candidates} candidates \
                 ({false_positives} false positives pruned)\n"
            );
        }
    }
    println!(
        "Het-Aware balances runtime across unequal nodes; Het-Energy-Aware \
         shifts load toward nodes with more solar supply."
    );
}
