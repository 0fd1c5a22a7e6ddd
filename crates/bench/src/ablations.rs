//! Ablations for the design choices DESIGN.md calls out.
//!
//! Each function returns a [`Table`] of *metrics* (error rates, simulated
//! seconds) — nothing here is wall-clock.

use pareto_cluster::{Cost, KvStore};
use pareto_core::estimator::{HeterogeneityEstimator, SamplingPlan};
use pareto_core::{Stratifier, StratifierConfig};
use pareto_datagen::DataItem;
use pareto_energy::{dirty_energy_joules, DirtyEnergyMode, NodeEnergyProfile};
use pareto_stats::{simple_random_sample, stratified_sample, total_variation_distance, PolyFit};
use pareto_workloads::{run_workload, WorkloadKind};

use crate::experiments::{make_cluster, ExpSettings};
use crate::harness::Table;

/// §III-D: linear vs polynomial cost models under progressive sampling.
///
/// Fits degree 1–3 models to the progressive-sampling observations of the
/// fastest node and compares their extrapolation at full-dataset size
/// against the measured time. The paper's claim: with so few fit points,
/// higher degrees extrapolate worse.
pub fn regression_ablation(st: ExpSettings) -> Table {
    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale);
    let cluster = make_cluster(4, st.seed);
    let strat = Stratifier::new(StratifierConfig {
        num_strata: 16,
        ..StratifierConfig::default()
    })
    .stratify(&ds);
    let workload = WorkloadKind::FrequentPatterns { support: 0.08 };
    let est = HeterogeneityEstimator::new(&cluster, SamplingPlan::default(), st.seed);
    let (models, _) = est.estimate(&ds, &strat, workload);
    // Ground truth: actually run the full dataset on node 0.
    let refs: Vec<&DataItem> = ds.items.iter().collect();
    let (_, ops) = run_workload(workload, &refs);
    let actual = cluster.cost_to_seconds(0, &Cost::compute(ops));

    let mut t = Table::new(
        "Ablation — cost-model degree vs extrapolation error (§III-D)",
        &["degree", "predicted_s", "actual_s", "rel_error"],
    );
    let x_full = ds.len() as f64;
    for degree in 1..=3 {
        // Tiny datasets may dedupe the schedule below degree+1 points.
        if models[0].observations.len() <= degree {
            continue;
        }
        let fit = PolyFit::fit(&models[0].observations, degree).expect("enough points");
        let predicted = fit.predict(x_full);
        t.row(vec![
            degree.to_string(),
            format!("{predicted:.2}"),
            format!("{actual:.2}"),
            format!("{:.3}", ((predicted - actual) / actual).abs()),
        ]);
    }
    t
}

/// §IV: Redis pipelining width vs simulated request time.
///
/// Writes `n` records through the store at several pipeline widths and
/// reports the simulated seconds of the traffic on a type-1 node.
pub fn pipeline_ablation(n_records: usize) -> Table {
    let cluster = make_cluster(4, 1);
    let mut t = Table::new(
        "Ablation — pipeline width vs store traffic time (§IV)",
        &["width", "round_trips", "sim_seconds"],
    );
    for width in [1usize, 4, 16, 64, 256] {
        let kv = KvStore::new();
        let mut pipe = kv.pipeline(width);
        for i in 0..n_records {
            pipe = pipe.rpush("data", vec![0u8; 64 + (i % 32)]);
        }
        let (_, cost) = pipe.execute().expect("list ops cannot fail on fresh key");
        let secs = cluster.cost_to_seconds(0, &cost);
        t.row(vec![
            width.to_string(),
            cost.round_trips.to_string(),
            format!("{secs:.4}"),
        ]);
    }
    t
}

/// §III-E / Cochran: stratified vs simple-random sample representativeness.
///
/// Measures the total-variation distance between a sample's stratum
/// histogram and the global one, averaged over 20 draws.
pub fn sampling_ablation(st: ExpSettings) -> Table {
    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale);
    let strat = Stratifier::new(StratifierConfig {
        num_strata: 16,
        ..StratifierConfig::default()
    })
    .stratify(&ds);
    let global: Vec<f64> = strat.sizes().iter().map(|&s| s as f64).collect();
    let mut t = Table::new(
        "Ablation — stratified vs simple-random sample error (§III-E)",
        &["sample_frac", "tvd_stratified", "tvd_simple_random"],
    );
    let mut rng = pareto_stats::seeded_rng(st.seed ^ 0xCC);
    for frac in [0.005, 0.01, 0.02, 0.05] {
        let k = ((ds.len() as f64 * frac) as usize).max(4);
        let mut tvd_strat = 0.0;
        let mut tvd_srs = 0.0;
        let draws = 20;
        for _ in 0..draws {
            let hist_of = |idx: &[usize]| {
                let mut h = vec![0.0; strat.num_strata()];
                for &i in idx {
                    h[strat.assignments[i] as usize] += 1.0;
                }
                h
            };
            let s1 = stratified_sample(&strat.strata, k, &mut rng).expect("k <= n");
            tvd_strat += total_variation_distance(&hist_of(&s1), &global);
            let s2 = simple_random_sample(ds.len(), k, &mut rng).expect("k <= n");
            tvd_srs += total_variation_distance(&hist_of(&s2), &global);
        }
        t.row(vec![
            format!("{frac}"),
            format!("{:.4}", tvd_strat / draws as f64),
            format!("{:.4}", tvd_srs / draws as f64),
        ]);
    }
    t
}

/// §III-C: compositeKModes center width `L` vs zero-match rate and purity.
pub fn kmodes_l_ablation(st: ExpSettings) -> Table {
    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale);
    let truth: Vec<u32> = ds
        .items
        .iter()
        .map(|i| i.truth_cluster.expect("synthetic data has truth"))
        .collect();
    let mut t = Table::new(
        "Ablation — compositeKModes L vs zero-match and purity (§III-C)",
        &["L", "zero_match_rate", "purity"],
    );
    for l in [1usize, 2, 4, 8] {
        let strat = Stratifier::new(StratifierConfig {
            num_strata: 24,
            l,
            ..StratifierConfig::default()
        })
        .stratify(&ds);
        let purity = pareto_stratify::cluster_purity(&strat.assignments, &truth);
        t.row(vec![
            l.to_string(),
            format!("{:.4}", strat.zero_match_rate),
            format!("{purity:.3}"),
        ]);
    }
    t
}

/// §III-D: error of the mean-green-rate linearization `k_i·T` against the
/// trace-integrated dirty energy, per node type and job length.
pub fn mean_ge_ablation(st: ExpSettings) -> Table {
    let cluster = make_cluster(4, st.seed);
    let horizon = 6.0 * 3600.0;
    let mut t = Table::new(
        "Ablation — mean-GE linearization error (§III-D)",
        &["node", "job_s", "exact_kJ", "linear_kJ", "rel_error"],
    );
    for node in cluster.nodes() {
        let power = node.power();
        let profile = NodeEnergyProfile::from_trace(&power, &node.trace, 0.0, horizon);
        for job_s in [600.0, 3600.0, 4.0 * 3600.0] {
            let exact =
                dirty_energy_joules(&power, &node.trace, 0.0, job_s, DirtyEnergyMode::PaperLinear);
            let linear = profile.linear_dirty_joules(job_s);
            let rel = if exact.abs() > 1e-9 {
                ((exact - linear) / exact).abs()
            } else {
                0.0
            };
            t.row(vec![
                format!("{}({})", node.id, node.location.name),
                format!("{job_s}"),
                format!("{:.1}", exact / 1000.0),
                format!("{:.1}", linear / 1000.0),
                format!("{rel:.3}"),
            ]);
        }
    }
    t
}


/// §I: work stealing vs proactive Het-Aware sizing on a per-record
/// compression workload.
///
/// Work stealing reactively balances the equal-split start by moving data
/// mid-job; the proactive plan needs no movement. The table reports
/// makespan, steals, and bytes moved for: static equal split, work
/// stealing from that split, and the Het-Aware plan.
pub fn work_stealing_ablation(st: ExpSettings) -> Table {
    use pareto_core::stealing::{record_work_from, simulate_work_stealing};
    let ds = pareto_datagen::uk_syn(st.seed, st.scale);
    let cluster = make_cluster(4, st.seed);
    // Per-record cost: LZ77 over the record's own bytes (content-aware).
    let work = record_work_from(&ds, |item| {
        let bytes = item.payload.to_bytes();
        let (_, ops) = pareto_workloads::lz77_compress(&bytes, &Default::default());
        ops
    });
    let n = ds.len();
    let equal: Vec<Vec<usize>> = {
        let sizes = pareto_core::DataPartitioner::equal_sizes(n, 4);
        let mut parts = Vec::new();
        let mut next = 0;
        for s in sizes {
            parts.push((next..next + s).collect());
            next += s;
        }
        parts
    };
    // Static equal split (no stealing).
    let static_costs: Vec<pareto_cluster::Cost> = equal
        .iter()
        .map(|q| pareto_cluster::Cost::compute(q.iter().map(|&r| work[r].ops).sum()))
        .collect();
    let static_report = cluster.account_costs(&static_costs);
    // Work stealing from the equal split.
    let ws = simulate_work_stealing(&cluster, &work, &equal);
    // Proactive oracle: per-node ops proportional to node speed
    // (Het-Aware's effect with per-record knowledge).
    let speeds = [1.0, 0.5, 1.0 / 3.0, 0.25];
    let s: f64 = speeds.iter().sum();
    let total_ops: u64 = work.iter().map(|w| w.ops).sum();
    let oracle_costs: Vec<pareto_cluster::Cost> = speeds
        .iter()
        .map(|sp| pareto_cluster::Cost::compute((total_ops as f64 * sp / s) as u64))
        .collect();
    let oracle_report = cluster.account_costs(&oracle_costs);

    let mut t = Table::new(
        "Ablation — work stealing vs proactive sizing (§I)",
        &["executor", "time_s", "steals", "bytes_moved"],
    );
    t.row(vec![
        "static-equal".into(),
        format!("{:.2}", static_report.makespan_seconds),
        "0".into(),
        "0".into(),
    ]);
    t.row(vec![
        "work-stealing".into(),
        format!("{:.2}", ws.report.makespan_seconds),
        ws.steals.to_string(),
        ws.bytes_moved.to_string(),
    ]);
    t.row(vec![
        "het-aware-plan".into(),
        format!("{:.2}", oracle_report.makespan_seconds),
        "0".into(),
        "0".into(),
    ]);
    t
}

/// §III-D future work: raw vs normalized α on the same modeler — shows the
/// normalized weight sweeping the frontier uniformly where the raw weight
/// is unusable below ~0.99.
pub fn normalized_alpha_ablation(st: ExpSettings) -> Table {
    use pareto_core::estimator::{EnergyEstimator, HeterogeneityEstimator, SamplingPlan};
    use pareto_core::pareto::ParetoModeler;
    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale);
    let cluster = make_cluster(8, st.seed);
    let strat = Stratifier::new(StratifierConfig {
        num_strata: 16,
        ..StratifierConfig::default()
    })
    .stratify(&ds);
    let (models, _) = HeterogeneityEstimator::new(&cluster, SamplingPlan::default(), st.seed)
        .estimate(&ds, &strat, WorkloadKind::FrequentPatterns { support: 0.1 });
    let profiles = EnergyEstimator::profiles(&cluster, 0.0, 6.0 * 3600.0);
    let modeler =
        ParetoModeler::new(models.iter().map(|m| m.fit).collect(), profiles).expect("aligned");
    let mut t = Table::new(
        "Ablation — raw vs normalized α (§III-D future work)",
        &["alpha", "raw_time_s", "raw_dirty_kJ", "norm_time_s", "norm_dirty_kJ"],
    );
    for alpha in [1.0, 0.75, 0.5, 0.25, 0.0] {
        let raw = modeler.solve(ds.len(), alpha, None).expect("feasible").point;
        let norm = modeler.solve_normalized(ds.len(), alpha, None).expect("feasible").point;
        t.row(vec![
            format!("{alpha}"),
            format!("{:.2}", raw.predicted_makespan),
            format!("{:.2}", raw.predicted_dirty_joules / 1000.0),
            format!("{:.2}", norm.predicted_makespan),
            format!("{:.2}", norm.predicted_dirty_joules / 1000.0),
        ]);
    }
    t
}


/// §III-B: robustness of the plan to green-energy **forecast error**.
///
/// The optimizer consumes forecast mean green rates; reality may differ.
/// For each error level σ, every node's forecast `ḠE_i` is perturbed by an
/// independent factor in `[1−σ, 1+σ]`, a plan is made from the perturbed
/// profiles, and the plan's *actual* dirty energy (under the true
/// profiles) is compared to the plan made with perfect information.
pub fn forecast_error_ablation(st: ExpSettings) -> Table {
    use pareto_core::pareto::ParetoModeler;
    use pareto_stats::LinearFit;
    use rand::Rng;

    let cluster = make_cluster(8, st.seed);
    let horizon = 6.0 * 3600.0;
    let true_profiles: Vec<NodeEnergyProfile> = cluster
        .nodes()
        .iter()
        .map(|n| NodeEnergyProfile::from_trace(&n.power(), &n.trace, 0.0, horizon))
        .collect();
    // Fixed per-node time models (slope inversely proportional to speed),
    // so the ablation isolates the energy-forecast effect.
    let fits: Vec<LinearFit> = cluster
        .nodes()
        .iter()
        .map(|n| LinearFit {
            slope: 1e-3 / n.speed(),
            intercept: 0.0,
            r_squared: 1.0,
            n: 6,
        })
        .collect();
    let n_records = 100_000usize;
    let alpha = 0.995;
    let truth_modeler =
        ParetoModeler::new(fits.clone(), true_profiles.clone()).expect("aligned");
    let oracle = truth_modeler.solve(n_records, alpha, None).expect("feasible").point;
    // Regret is measured on the scalarized objective the planner actually
    // optimizes — the oracle is optimal for it by construction, so regret
    // is guaranteed non-negative (dirty energy alone could accidentally
    // *improve* under a misinformed plan, at a makespan cost).
    let scalarized = |m: &ParetoModeler, x: &[f64]| -> f64 {
        let t = m.predicted_times(x).iter().copied().fold(0.0, f64::max);
        alpha * t + (1.0 - alpha) * m.predicted_dirty(x)
    };
    let oracle_obj = scalarized(&truth_modeler, &oracle.fractional_sizes);
    let oracle_dirty = truth_modeler.predicted_dirty(&oracle.fractional_sizes);

    let mut t = Table::new(
        "Ablation — green-energy forecast error vs plan regret (§III-B)",
        &["noise", "plan_dirty_kJ", "oracle_dirty_kJ", "objective_regret", "makespan_s"],
    );
    let mut rng = pareto_stats::seeded_rng(st.seed ^ 0xF0CA);
    for sigma in [0.0f64, 0.1, 0.25, 0.5, 1.0] {
        let forecast: Vec<NodeEnergyProfile> = true_profiles
            .iter()
            .map(|p| {
                let factor = 1.0 + rng.gen_range(-sigma..=sigma);
                NodeEnergyProfile {
                    draw_watts: p.draw_watts,
                    mean_green_watts: (p.mean_green_watts * factor).max(0.0),
                }
            })
            .collect();
        let planner = ParetoModeler::new(fits.clone(), forecast).expect("aligned");
        let plan = planner.solve(n_records, alpha, None).expect("feasible").point;
        // Evaluate the (mis)informed plan under the true profiles.
        let actual_dirty = truth_modeler.predicted_dirty(&plan.fractional_sizes);
        let makespan = truth_modeler
            .predicted_times(&plan.fractional_sizes)
            .iter()
            .copied()
            .fold(0.0, f64::max);
        let regret = scalarized(&truth_modeler, &plan.fractional_sizes) - oracle_obj;
        t.row(vec![
            format!("{sigma}"),
            format!("{:.1}", actual_dirty / 1000.0),
            format!("{:.1}", oracle_dirty / 1000.0),
            format!("{regret:.3}"),
            format!("{makespan:.1}"),
        ]);
    }
    t
}


/// §II: does Het-Energy-Aware partitioning pay under each datacenter
/// supply design?
///
/// Per-server supplies at one site give near-uniform `k_i` (energy-aware
/// sizing has little to exploit); rack-level and geo-distributed supplies
/// spread `k_i`, so shifting load toward green nodes buys real dirty-energy
/// savings. Reported: the spread of `k_i` and the dirty-energy saving of
/// α = 0.995 relative to α = 1 under each topology.
pub fn supply_topology_ablation(st: ExpSettings) -> Table {
    use pareto_cluster::{NodeSpec, SimCluster, SupplyTopology};
    use pareto_core::pareto::ParetoModeler;
    use pareto_stats::LinearFit;

    let mut t = Table::new(
        "Ablation — green-supply topology vs energy-aware benefit (§II)",
        &["topology", "k_spread_W", "dirty_alpha1_kJ", "dirty_alpha995_kJ", "saving_kJ"],
    );
    let horizon = 6.0 * 3600.0;
    for (name, topology) in [
        ("per-server", SupplyTopology::PerServer),
        ("rack-level(2)", SupplyTopology::RackLevel { racks: 2 }),
        ("geo-distributed", SupplyTopology::GeoDistributed),
    ] {
        let cluster = SimCluster::new(NodeSpec::cluster_with_supply(
            8, 400.0, 2, 9, st.seed, topology,
        ));
        let profiles: Vec<NodeEnergyProfile> = cluster
            .nodes()
            .iter()
            .map(|n| NodeEnergyProfile::from_trace(&n.power(), &n.trace, 0.0, horizon))
            .collect();
        let ks: Vec<f64> = profiles.iter().map(|p| p.k()).collect();
        let k_spread = ks.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - ks.iter().copied().fold(f64::INFINITY, f64::min);
        let fits: Vec<LinearFit> = cluster
            .nodes()
            .iter()
            .map(|n| LinearFit {
                slope: 1e-3 / n.speed(),
                intercept: 0.0,
                r_squared: 1.0,
                n: 6,
            })
            .collect();
        let modeler = ParetoModeler::new(fits, profiles).expect("aligned");
        let fast = modeler.solve(100_000, 1.0, None).expect("feasible").point;
        let green = modeler.solve(100_000, 0.995, None).expect("feasible").point;
        let d1 = modeler.predicted_dirty(&fast.fractional_sizes);
        let d995 = modeler.predicted_dirty(&green.fractional_sizes);
        t.row(vec![
            name.to_string(),
            format!("{k_spread:.0}"),
            format!("{:.1}", d1 / 1000.0),
            format!("{:.1}", d995 / 1000.0),
            format!("{:.1}", (d1 - d995) / 1000.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpSettings {
        ExpSettings {
            scale: 0.02,
            seed: 3,
            threads: 1,
        }
    }

    #[test]
    fn regression_ablation_runs() {
        let t = regression_ablation(tiny());
        assert!(!t.is_empty(), "at least the linear fit must be reported");
    }

    #[test]
    fn pipeline_ablation_monotone() {
        let t = pipeline_ablation(512);
        assert_eq!(t.len(), 5);
        // Wider pipelines → fewer round trips (first column of successive
        // rows strictly decreasing round_trips).
        let csv = t.to_csv();
        let trips: Vec<u64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(trips.windows(2).all(|w| w[1] < w[0]), "{trips:?}");
    }

    #[test]
    fn sampling_ablation_stratified_wins() {
        let t = sampling_ablation(ExpSettings {
            scale: 0.05,
            seed: 4,
            threads: 1,
        });
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let strat: f64 = cells[1].parse().unwrap();
            let srs: f64 = cells[2].parse().unwrap();
            assert!(
                strat <= srs + 1e-9,
                "stratified must not be worse: {strat} vs {srs}"
            );
        }
    }

    #[test]
    fn kmodes_ablation_runs() {
        let t = kmodes_l_ablation(tiny());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn mean_ge_ablation_runs() {
        let t = mean_ge_ablation(tiny());
        assert_eq!(t.len(), 12);
    }

    #[test]
    fn work_stealing_ablation_orders_executors() {
        let t = work_stealing_ablation(ExpSettings { scale: 0.05, seed: 5, threads: 1 });
        let csv = t.to_csv();
        let times: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        // static-equal >= work-stealing >= het-aware-plan (small tolerance).
        assert!(times[0] > times[1], "stealing must beat static: {times:?}");
        assert!(times[1] >= times[2] * 0.98, "stealing can't beat oracle: {times:?}");
    }

    #[test]
    fn normalized_alpha_ablation_runs() {
        let t = normalized_alpha_ablation(tiny());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn supply_topology_ablation_savings_nonnegative() {
        let t = supply_topology_ablation(tiny());
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let saving: f64 = line.split(',').nth(4).unwrap().parse().unwrap();
            // Lowering alpha can only reduce predicted dirty energy
            // (frontier monotonicity), under every supply topology.
            assert!(saving >= -1e-6, "negative saving in {line}");
        }
    }

    #[test]
    fn forecast_error_ablation_regret_nonnegative() {
        let t = forecast_error_ablation(tiny());
        assert_eq!(t.len(), 5);
        let csv = t.to_csv();
        let regrets: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        // Perfect forecast has (near-)zero regret; the oracle is optimal
        // for the scalarized objective, so regret is non-negative.
        assert!(regrets[0].abs() < 1e-3, "sigma=0 must be regret-free");
        assert!(regrets.iter().all(|&r| r >= -1e-3), "{regrets:?}");
    }
}
