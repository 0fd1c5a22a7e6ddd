//! One function per paper artifact (Tables I–III, Figures 2–6).
//!
//! Every experiment runs the full pipeline — stratify, estimate, optimize,
//! partition, place, execute — on the simulated heterogeneous cluster
//! (§V-A: machine types cycling x/2x/3x/4x, 440/345/250/155 W, four
//! datacenter solar traces). Reported numbers are simulated seconds and
//! dirty kilojoules; EXPERIMENTS.md records how their *shape* compares to
//! the paper's measurements.

use pareto_cluster::{FaultPlan, NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Quality, Strategy};
use pareto_core::partitioner::PartitionLayout;
use pareto_core::PlanSession;
use pareto_core::RecoveryConfig;
use pareto_core::StratifierConfig;
use pareto_datagen::Dataset;
use pareto_workloads::WorkloadKind;

use crate::harness::{fmt_kj, fmt_secs, Table};

/// Default mining support for tree corpora. Must sit below the largest
/// family's corpus share (so frequent cross-tree patterns exist) but above
/// the noise floor of the smallest partitions.
pub const TREE_SUPPORT: f64 = 0.04;
/// Default mining support for the text corpus.
pub const TEXT_SUPPORT: f64 = 0.10;
/// Het-Energy-Aware α for mining experiments. The paper used 0.999 on its
/// testbed; the knee of the frontier depends on the relative scale of the
/// time and energy objectives (§III-D discusses exactly this sensitivity),
/// and on the simulated testbed it sits at ≈0.995.
pub const ALPHA_MINING: f64 = 0.995;
/// Het-Energy-Aware α for compression experiments (paper: 0.995, i.e. a
/// lower α than mining; same knee-tracking argument as [`ALPHA_MINING`]).
pub const ALPHA_COMPRESSION: f64 = 0.995;
/// Graph datasets are scaled up relative to tree/text (the paper's UK and
/// Arabic graphs are 1–2 orders of magnitude larger than its other
/// corpora; a 6x factor preserves that ordering at laptop scale).
pub const GRAPH_SCALE_BOOST: f64 = 6.0;
/// Mining datasets are scaled up so that even the smallest Het-Aware
/// partition at p = 16 keeps an absolute support of several transactions.
/// SON's local thresholds degenerate when `support x partition` rounds to
/// 1 (every subset of any single record becomes "locally frequent"); the
/// paper's 50k–800k-record corpora are never near that floor, so the
/// boost keeps the simulation in the same regime.
pub const MINING_SCALE_BOOST: f64 = 16.0;
/// Partition counts swept in Figures 2–4.
pub const PARTITION_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// Global experiment settings.
#[derive(Debug, Clone, Copy)]
pub struct ExpSettings {
    /// Dataset scale factor (1.0 = thousands of records; experiments
    /// default lower so the full suite runs in minutes).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Planning worker threads (1 = serial). Measured numbers are
    /// thread-count invariant; only wall-clock planning time changes.
    pub threads: usize,
}

impl Default for ExpSettings {
    fn default() -> Self {
        ExpSettings {
            scale: 0.25,
            seed: 2017,
            threads: 1,
        }
    }
}

/// One measured (dataset × partitions × strategy) cell.
#[derive(Debug, Clone)]
pub struct StrategyRow {
    /// Dataset name.
    pub dataset: String,
    /// Partition count `p`.
    pub partitions: usize,
    /// Strategy label.
    pub strategy: String,
    /// Scalarization α, where applicable.
    pub alpha: Option<f64>,
    /// Measured makespan (simulated seconds).
    pub makespan_s: f64,
    /// Total dirty energy, paper-linear form (joules).
    pub dirty_linear_j: f64,
    /// Total dirty energy, clamped form (joules).
    pub dirty_clamped_j: f64,
    /// Total energy drawn (joules).
    pub energy_j: f64,
    /// Compression ratio (compression workloads).
    pub ratio: Option<f64>,
    /// SON candidate-set size (mining workloads).
    pub candidates: Option<usize>,
    /// Globally frequent patterns found (mining workloads).
    pub frequent: Option<usize>,
}

/// Build the §V-A cluster for `p` partitions.
pub fn make_cluster(p: usize, seed: u64) -> SimCluster {
    SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, seed))
}

fn framework_config(
    strategy: Strategy,
    layout: PartitionLayout,
    seed: u64,
    threads: usize,
) -> FrameworkConfig {
    FrameworkConfig {
        strategy,
        layout,
        stratifier: StratifierConfig {
            num_strata: 16,
            sketch_size: 48,
            l: 4,
            max_iters: 12,
            seed: seed ^ 0x57A7,
        },
        seed,
        threads,
        ..FrameworkConfig::default()
    }
}

/// Run one (dataset, p, strategy) cell.
pub fn run_strategy(
    dataset: &Dataset,
    p: usize,
    strategy: Strategy,
    layout: PartitionLayout,
    workload: WorkloadKind,
    st: ExpSettings,
) -> StrategyRow {
    let cluster = make_cluster(p, st.seed);
    let fw = Framework::new(
        &cluster,
        framework_config(strategy, layout, st.seed, st.threads),
    );
    let outcome = fw.try_run(dataset, workload).expect("non-empty dataset");
    let (ratio, candidates, frequent) = match &outcome.quality {
        Quality::Compression { ratio, .. } => (Some(*ratio), None, None),
        Quality::Mining {
            candidates,
            global_frequent,
            ..
        } => (None, Some(*candidates), Some(*global_frequent)),
    };
    let alpha = match strategy {
        Strategy::HetAware => Some(1.0),
        Strategy::HetEnergyAware { alpha } => Some(alpha),
        _ => None,
    };
    StrategyRow {
        dataset: dataset.name.clone(),
        partitions: p,
        strategy: strategy.label().to_string(),
        alpha,
        makespan_s: outcome.report.makespan_seconds,
        dirty_linear_j: outcome.report.total_dirty_linear,
        dirty_clamped_j: outcome.report.total_dirty_clamped,
        energy_j: outcome.report.total_energy_joules,
        ratio,
        candidates,
        frequent,
    }
}

fn standard_headers() -> Vec<&'static str> {
    vec![
        "dataset",
        "p",
        "strategy",
        "time_s",
        "dirty_linear_kJ",
        "dirty_clamped_kJ",
        "energy_kJ",
        "extra",
    ]
}

fn push_row(table: &mut Table, r: &StrategyRow) {
    let extra = if let Some(ratio) = r.ratio {
        format!("ratio={ratio:.2}")
    } else if let (Some(c), Some(f)) = (r.candidates, r.frequent) {
        format!("cands={c} freq={f}")
    } else {
        String::new()
    };
    table.row(vec![
        r.dataset.clone(),
        r.partitions.to_string(),
        r.strategy.clone(),
        fmt_secs(r.makespan_s),
        fmt_kj(r.dirty_linear_j),
        fmt_kj(r.dirty_clamped_j),
        fmt_kj(r.energy_j),
        extra,
    ]);
}

/// The three §V-C strategies for a mining experiment.
fn mining_strategies() -> [Strategy; 3] {
    [
        Strategy::Stratified,
        Strategy::HetAware,
        Strategy::HetEnergyAware {
            alpha: ALPHA_MINING,
        },
    ]
}

fn compression_strategies() -> [Strategy; 3] {
    [
        Strategy::Stratified,
        Strategy::HetAware,
        Strategy::HetEnergyAware {
            alpha: ALPHA_COMPRESSION,
        },
    ]
}

// ---------------------------------------------------------------------------
// Table I — datasets
// ---------------------------------------------------------------------------

/// Table I: the five datasets (synthetic equivalents) and their sizes.
pub fn table1(st: ExpSettings) -> Table {
    let mut t = Table::new(
        "Table I — datasets (synthetic equivalents)",
        &["dataset", "type", "records", "elements", "bytes"],
    );
    for ds in [
        pareto_datagen::swissprot_syn(st.seed, st.scale * MINING_SCALE_BOOST),
        pareto_datagen::treebank_syn(st.seed, st.scale * MINING_SCALE_BOOST),
        pareto_datagen::uk_syn(st.seed, st.scale * GRAPH_SCALE_BOOST),
        pareto_datagen::arabic_syn(st.seed, st.scale * GRAPH_SCALE_BOOST),
        pareto_datagen::rcv1_syn(st.seed, st.scale * MINING_SCALE_BOOST),
    ] {
        // Table I reports the sizes actually used by the experiments,
        // including the graph boost.
        t.row(vec![
            ds.name.clone(),
            ds.kind.to_string(),
            ds.len().to_string(),
            ds.total_elements().to_string(),
            ds.total_bytes().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 2 & 3 — frequent pattern mining sweeps
// ---------------------------------------------------------------------------

fn mining_sweep(
    datasets: &[Dataset],
    support: f64,
    st: ExpSettings,
    title: &str,
) -> (Table, Vec<StrategyRow>) {
    let mut table = Table::new(title, &standard_headers());
    let mut rows = Vec::new();
    for ds in datasets {
        for &p in &PARTITION_SWEEP {
            for strategy in mining_strategies() {
                let row = run_strategy(
                    ds,
                    p,
                    strategy,
                    PartitionLayout::Representative,
                    WorkloadKind::FrequentPatterns { support },
                    st,
                );
                push_row(&mut table, &row);
                rows.push(row);
            }
        }
    }
    (table, rows)
}

/// Fig. 2: frequent tree mining on SwissProt-syn and Treebank-syn —
/// execution time (a, c) and dirty energy (b, d) across partition counts.
pub fn fig2(st: ExpSettings) -> (Table, Vec<StrategyRow>) {
    let datasets = vec![
        pareto_datagen::swissprot_syn(st.seed, st.scale * MINING_SCALE_BOOST),
        pareto_datagen::treebank_syn(st.seed, st.scale * MINING_SCALE_BOOST),
    ];
    mining_sweep(
        &datasets,
        TREE_SUPPORT,
        st,
        "Fig. 2 — frequent tree mining (time & dirty energy)",
    )
}

/// Fig. 3: Apriori text mining on RCV1-syn — time (a) and dirty energy (b).
pub fn fig3(st: ExpSettings) -> (Table, Vec<StrategyRow>) {
    let datasets = vec![pareto_datagen::rcv1_syn(
        st.seed,
        st.scale * MINING_SCALE_BOOST,
    )];
    mining_sweep(
        &datasets,
        TEXT_SUPPORT,
        st,
        "Fig. 3 — frequent text mining on RCV1-syn (time & dirty energy)",
    )
}

// ---------------------------------------------------------------------------
// Figure 4 + Tables II/III — graph compression
// ---------------------------------------------------------------------------

/// Fig. 4: WebGraph compression of UK-syn and Arabic-syn — time (a, c),
/// dirty energy (b, d) and compression ratio (e, f).
pub fn fig4(st: ExpSettings) -> (Table, Vec<StrategyRow>) {
    let datasets = vec![
        pareto_datagen::uk_syn(st.seed, st.scale * GRAPH_SCALE_BOOST),
        pareto_datagen::arabic_syn(st.seed, st.scale * GRAPH_SCALE_BOOST),
    ];
    let mut table = Table::new(
        "Fig. 4 — webgraph compression (time, dirty energy, ratio)",
        &standard_headers(),
    );
    let mut rows = Vec::new();
    for ds in &datasets {
        for &p in &PARTITION_SWEEP {
            for strategy in compression_strategies() {
                let row = run_strategy(
                    ds,
                    p,
                    strategy,
                    PartitionLayout::SimilarTogether,
                    WorkloadKind::WebGraph,
                    st,
                );
                push_row(&mut table, &row);
                rows.push(row);
            }
        }
    }
    (table, rows)
}

fn lz77_table(ds: &Dataset, st: ExpSettings, title: &str) -> (Table, Vec<StrategyRow>) {
    let mut table = Table::new(title, &["strategy", "time_s", "ratio", "dirty_linear_kJ"]);
    let mut rows = Vec::new();
    for strategy in compression_strategies() {
        let row = run_strategy(
            ds,
            8,
            strategy,
            PartitionLayout::SimilarTogether,
            WorkloadKind::Lz77,
            st,
        );
        table.row(vec![
            row.strategy.clone(),
            fmt_secs(row.makespan_s),
            format!("{:.2}", row.ratio.unwrap_or(0.0)),
            fmt_kj(row.dirty_linear_j),
        ]);
        rows.push(row);
    }
    (table, rows)
}

/// Table II: LZ77 on UK-syn, 8 partitions.
pub fn table2(st: ExpSettings) -> (Table, Vec<StrategyRow>) {
    let ds = pareto_datagen::uk_syn(st.seed, st.scale * GRAPH_SCALE_BOOST);
    lz77_table(&ds, st, "Table II — LZ77 on UK-syn (8 partitions)")
}

/// Table III: LZ77 on Arabic-syn, 8 partitions.
pub fn table3(st: ExpSettings) -> (Table, Vec<StrategyRow>) {
    let ds = pareto_datagen::arabic_syn(st.seed, st.scale * GRAPH_SCALE_BOOST);
    lz77_table(&ds, st, "Table III — LZ77 on Arabic-syn (8 partitions)")
}

// ---------------------------------------------------------------------------
// Planning throughput — parallel pipeline speedup
// ---------------------------------------------------------------------------

/// Thread counts swept by the planning-throughput experiment.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Planning-throughput curve: per-stage wall-clock of `Framework::try_plan`
/// (sketch / stratify / profile / optimize / partition) at each thread
/// count, plus the total-time speedup relative to the first entry
/// (conventionally serial).
///
/// Asserts the determinism contract along the way: every plan must choose
/// exactly the same partition sizes as the first one, whatever the thread
/// count.
pub fn planning_speedup(st: ExpSettings, thread_counts: &[usize]) -> Table {
    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale * MINING_SCALE_BOOST);
    let cluster = make_cluster(8, st.seed);
    let mut table = Table::new(
        "Planning throughput — per-stage wall-clock vs worker threads",
        &[
            "threads",
            "sketch_s",
            "stratify_s",
            "profile_s",
            "optimize_s",
            "partition_s",
            "total_s",
            "speedup",
        ],
    );
    let mut baseline: Option<(f64, Vec<usize>)> = None;
    for &threads in thread_counts {
        let cfg = framework_config(
            Strategy::HetEnergyAware {
                alpha: ALPHA_MINING,
            },
            PartitionLayout::Representative,
            st.seed,
            threads,
        );
        let plan = Framework::new(&cluster, cfg)
            .try_plan(
                &ds,
                WorkloadKind::FrequentPatterns {
                    support: TEXT_SUPPORT,
                },
            )
            .expect("non-empty dataset");
        let t = plan.timings;
        let (base_total, base_sizes) =
            baseline.get_or_insert_with(|| (t.total_s, plan.sizes.clone()));
        assert_eq!(
            *base_sizes, plan.sizes,
            "plan must be thread-count invariant (threads = {threads})"
        );
        let speedup = if t.total_s > 0.0 {
            *base_total / t.total_s
        } else {
            0.0
        };
        table.row(vec![
            threads.to_string(),
            format!("{:.4}", t.sketch_s),
            format!("{:.4}", t.stratify_s),
            format!("{:.4}", t.profile_s),
            format!("{:.4}", t.optimize_s),
            format!("{:.4}", t.partition_s),
            format!("{:.4}", t.total_s),
            format!("{speedup:.2}x"),
        ]);
    }
    table
}

/// Incremental replanning amortization: a fresh cold `Framework::try_plan`
/// per α against one warm [`PlanSession`] sweeping the same α values.
/// The warm session pays for sketch/stratify/profile once and reruns only
/// the LP + partitioning per α, so its per-α cost collapses to the
/// optimizer's. Asserts the cache contract along the way: every warm plan
/// must pick exactly the cold plan's partition sizes.
pub fn replan_amortization(st: ExpSettings) -> Table {
    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale * MINING_SCALE_BOOST);
    let cluster = make_cluster(8, st.seed);
    let workload = WorkloadKind::FrequentPatterns {
        support: TEXT_SUPPORT,
    };
    let cfg = framework_config(
        Strategy::HetEnergyAware { alpha: 1.0 },
        PartitionLayout::Representative,
        st.seed,
        st.threads,
    );

    let mut session = PlanSession::new(&cluster, cfg.clone(), ds.clone(), workload);
    let mut table = Table::new(
        "Replanning amortization — cold plan per alpha vs one warm session",
        &["alpha", "cold_s", "warm_s", "speedup", "warm_reuse"],
    );
    let (mut cold_total, mut warm_total) = (0.0f64, 0.0f64);
    for &alpha in &ALPHA_SWEEP {
        let cold_cfg = FrameworkConfig {
            strategy: Strategy::HetEnergyAware { alpha },
            ..cfg.clone()
        };
        let cold = Framework::new(&cluster, cold_cfg)
            .try_plan(&ds, workload)
            .expect("non-empty dataset");
        session.set_alpha(alpha);
        let warm = session.plan().expect("warm sweep plan");
        assert_eq!(
            cold.sizes, warm.sizes,
            "warm replan must match the cold plan (alpha = {alpha})"
        );
        let reuse = session.last_reuse();
        let reused: Vec<&str> = [
            ("sketch", reuse.sketch),
            ("stratify", reuse.stratify),
            ("profile", reuse.profile),
        ]
        .iter()
        .filter_map(|&(name, hit)| hit.then_some(name))
        .collect();
        cold_total += cold.timings.total_s;
        warm_total += warm.timings.total_s;
        let speedup = if warm.timings.total_s > 0.0 {
            cold.timings.total_s / warm.timings.total_s
        } else {
            f64::INFINITY
        };
        table.row(vec![
            format!("{alpha}"),
            format!("{:.4}", cold.timings.total_s),
            format!("{:.6}", warm.timings.total_s),
            format!("{speedup:.0}x"),
            if reused.is_empty() {
                "-".into()
            } else {
                reused.join("+")
            },
        ]);
    }
    let total_speedup = if warm_total > 0.0 {
        cold_total / warm_total
    } else {
        f64::INFINITY
    };
    table.row(vec![
        "total".into(),
        format!("{cold_total:.4}"),
        format!("{warm_total:.6}"),
        format!("{total_speedup:.0}x"),
        String::new(),
    ]);
    table
}

// ---------------------------------------------------------------------------
// Figures 5 & 6 — Pareto frontiers
// ---------------------------------------------------------------------------

/// α values swept for the frontier plots. Clustered near 1 because the
/// energy objective's scale dwarfs the time objective's (§III-D).
pub const ALPHA_SWEEP: [f64; 9] = [1.0, 0.999_99, 0.999_9, 0.999, 0.995, 0.99, 0.95, 0.9, 0.0];

/// Sweep α for one dataset/workload at `p = 8`; includes the Stratified
/// baseline as the final row (the paper's yellow marker above the
/// frontier).
pub fn frontier_sweep(
    ds: &Dataset,
    workload: WorkloadKind,
    layout: PartitionLayout,
    st: ExpSettings,
    title: &str,
) -> (Table, Vec<StrategyRow>) {
    let mut table = Table::new(
        title,
        &[
            "dataset",
            "alpha",
            "time_s",
            "dirty_linear_kJ",
            "dirty_clamped_kJ",
        ],
    );
    let mut rows = Vec::new();
    let mut emit = |row: StrategyRow, table: &mut Table| {
        table.row(vec![
            row.dataset.clone(),
            row.alpha.map_or("baseline".into(), |a| format!("{a}")),
            fmt_secs(row.makespan_s),
            fmt_kj(row.dirty_linear_j),
            fmt_kj(row.dirty_clamped_j),
        ]);
        rows.push(row);
    };
    for &alpha in &ALPHA_SWEEP {
        let strategy = if alpha >= 1.0 {
            Strategy::HetAware
        } else {
            Strategy::HetEnergyAware { alpha }
        };
        emit(
            run_strategy(ds, 8, strategy, layout, workload, st),
            &mut table,
        );
    }
    emit(
        run_strategy(ds, 8, Strategy::Stratified, layout, workload, st),
        &mut table,
    );
    (table, rows)
}

/// Fig. 5: Pareto frontiers on tree, text and graph workloads (p = 8).
pub fn fig5(st: ExpSettings) -> (Table, Vec<StrategyRow>) {
    let mut all_rows = Vec::new();
    let mut combined = Table::new(
        "Fig. 5 — Pareto frontiers (8 partitions): α sweep vs Stratified baseline",
        &[
            "dataset",
            "alpha",
            "time_s",
            "dirty_linear_kJ",
            "dirty_clamped_kJ",
        ],
    );
    let cases: Vec<(Dataset, WorkloadKind, PartitionLayout)> = vec![
        (
            pareto_datagen::treebank_syn(st.seed, st.scale * MINING_SCALE_BOOST),
            WorkloadKind::FrequentPatterns {
                support: TREE_SUPPORT,
            },
            PartitionLayout::Representative,
        ),
        (
            pareto_datagen::rcv1_syn(st.seed, st.scale * MINING_SCALE_BOOST),
            WorkloadKind::FrequentPatterns {
                support: TEXT_SUPPORT,
            },
            PartitionLayout::Representative,
        ),
        (
            pareto_datagen::uk_syn(st.seed, st.scale * GRAPH_SCALE_BOOST),
            WorkloadKind::WebGraph,
            PartitionLayout::SimilarTogether,
        ),
    ];
    for (ds, workload, layout) in &cases {
        let (t, rows) = frontier_sweep(ds, *workload, *layout, st, "sub");
        for row in t.to_csv().lines().skip(1) {
            let cells: Vec<String> = row.split(',').map(|s| s.to_string()).collect();
            combined.row(cells);
        }
        all_rows.extend(rows);
    }
    (combined, all_rows)
}

/// Fig. 6: frontiers across support thresholds on tree and text (p = 8).
pub fn fig6(st: ExpSettings) -> (Table, Vec<StrategyRow>) {
    let mut combined = Table::new(
        "Fig. 6 — Pareto frontiers across support thresholds (8 partitions)",
        &[
            "dataset",
            "support",
            "alpha",
            "time_s",
            "dirty_linear_kJ",
            "dirty_clamped_kJ",
        ],
    );
    let mut all_rows = Vec::new();
    let tree = pareto_datagen::treebank_syn(st.seed, st.scale * MINING_SCALE_BOOST);
    let text = pareto_datagen::rcv1_syn(st.seed, st.scale * MINING_SCALE_BOOST);
    let cases: Vec<(&Dataset, Vec<f64>)> = vec![
        (&tree, vec![0.04, 0.05, 0.08]),
        (&text, vec![0.08, 0.1, 0.15]),
    ];
    for (ds, supports) in cases {
        for support in supports {
            let (t, rows) = frontier_sweep(
                ds,
                WorkloadKind::FrequentPatterns { support },
                PartitionLayout::Representative,
                st,
                "sub",
            );
            for line in t.to_csv().lines().skip(1) {
                let mut cells: Vec<String> = line.split(',').map(|s| s.to_string()).collect();
                cells.insert(1, format!("{support}"));
                combined.row(cells);
            }
            all_rows.extend(rows);
        }
    }
    (combined, all_rows)
}

// ---------------------------------------------------------------------------
// Fault injection — recovery overhead table
// ---------------------------------------------------------------------------

/// Fault-injection scenarios over the mining pipeline at `p = 8`: how much
/// wall time and dirty energy each class of failure costs once the
/// framework re-solves the LP over the survivors. The crash is placed at
/// 40% of the scenario-free makespan so replanning genuinely happens
/// mid-job.
pub fn faults_experiment(st: ExpSettings) -> Table {
    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale * MINING_SCALE_BOOST);
    let cluster = make_cluster(8, st.seed);
    let workload = WorkloadKind::FrequentPatterns {
        support: TEXT_SUPPORT,
    };
    let cfg = framework_config(
        Strategy::HetEnergyAware {
            alpha: ALPHA_MINING,
        },
        PartitionLayout::Representative,
        st.seed,
        st.threads,
    );
    let fw = Framework::new(&cluster, cfg);
    let rcfg = RecoveryConfig::default();
    let clean = fw
        .try_run_with_faults(&ds, workload, &FaultPlan::none(), &rcfg)
        .expect("non-empty dataset, valid config");
    // Crash the node that works longest, 40% into its own busy time —
    // crashing by wall clock can miss entirely (a fast node may already
    // have drained its partition while a slow one still dominates the
    // wall makespan).
    let (victim, victim_busy) = clean
        .outcome
        .report
        .runs
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.seconds))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty cluster");
    let tc = victim_busy * 0.4;
    let wall = clean.outcome.recovery.makespan_s;

    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().with_crash(victim, tc)),
        ("straggler", FaultPlan::new().with_straggler(2, 6.0)),
        ("kv-errors", FaultPlan::new().with_store_errors(1, 2)),
        (
            "net-degraded",
            FaultPlan::new().with_network_degradation(3, 0.0, wall, 10.0),
        ),
        (
            "combined",
            FaultPlan::new()
                .with_crash(victim, tc)
                .with_straggler(2, 6.0)
                .with_store_errors(1, 2)
                .with_network_degradation(3, 0.0, wall, 10.0),
        ),
    ];

    let mut table = Table::new(
        "Fault injection — recovery overhead on rcv1 mining (8 partitions)",
        &[
            "scenario",
            "crashed",
            "replans",
            "retries",
            "steals",
            "reassigned",
            "exactly_once",
            "makespan_s",
            "overhead_pct",
            "dirty_kJ",
        ],
    );
    for (name, plan) in scenarios {
        let out = fw
            .try_run_with_faults(&ds, workload, &plan, &rcfg)
            .expect("non-empty dataset, valid config");
        let rec = &out.outcome.recovery;
        assert!(rec.exactly_once, "scenario {name:?} lost items: {rec:?}");
        if name == "crash" || name == "combined" {
            assert!(
                rec.crashed_nodes.contains(&victim),
                "scenario {name:?}: node {victim} must die at {tc}s: {rec:?}"
            );
        }
        table.row(vec![
            name.to_string(),
            format!("{:?}", rec.crashed_nodes),
            rec.replans.to_string(),
            rec.retries_spent.to_string(),
            rec.speculative_steals.to_string(),
            rec.items_reassigned.to_string(),
            rec.exactly_once.to_string(),
            fmt_secs(rec.makespan_s),
            format!("{:.1}", rec.makespan_overhead * 100.0),
            fmt_kj(rec.dirty_linear_j),
        ]);
    }
    table
}

/// Telemetry overhead: the same planning pass and faulted run with the
/// recorder disabled vs enabled, with wall-clock cost and recorded-volume
/// counts side by side. Asserts inertness as it goes — the enabled run
/// must produce a bit-identical plan and recovery report. Wall-clock
/// numbers are machine-dependent, so (like `speedup`) this is excluded
/// from `all`.
pub fn telemetry_overhead(st: ExpSettings) -> Table {
    use std::time::Instant;

    let ds = pareto_datagen::rcv1_syn(st.seed, st.scale * MINING_SCALE_BOOST);
    let workload = WorkloadKind::FrequentPatterns {
        support: TEXT_SUPPORT,
    };
    let cfg = framework_config(
        Strategy::HetEnergyAware {
            alpha: ALPHA_MINING,
        },
        PartitionLayout::Representative,
        st.seed,
        st.threads,
    );
    let rcfg = RecoveryConfig::default();

    let cluster_off = make_cluster(8, st.seed);
    let fw_off = Framework::new(&cluster_off, cfg.clone());
    let tel = pareto_telemetry::Telemetry::enabled();
    let cluster_on = make_cluster(8, st.seed).with_telemetry(tel.clone());
    let fw_on = Framework::new(&cluster_on, cfg).with_telemetry(tel.clone());

    // Same crash placement as `faults_experiment`: the longest-working
    // node, 40% into its own busy time.
    let clean = fw_off
        .try_run_with_faults(&ds, workload, &FaultPlan::none(), &rcfg)
        .expect("non-empty dataset, valid config");
    let (victim, victim_busy) = clean
        .outcome
        .report
        .runs
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.seconds))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty cluster");
    let faults = FaultPlan::new().with_crash(victim, victim_busy * 0.4);

    let t = Instant::now();
    let plan_off = fw_off.try_plan(&ds, workload).expect("non-empty dataset");
    let plan_off_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let plan_on = fw_on.try_plan(&ds, workload).expect("non-empty dataset");
    let plan_on_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        plan_off.partitions, plan_on.partitions,
        "telemetry must not perturb the plan"
    );
    let after_plan = tel.snapshot();

    let t = Instant::now();
    let run_off = fw_off
        .try_run_with_faults(&ds, workload, &faults, &rcfg)
        .expect("non-empty dataset, valid config");
    let run_off_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let run_on = fw_on
        .try_run_with_faults(&ds, workload, &faults, &rcfg)
        .expect("non-empty dataset, valid config");
    let run_on_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        run_off.outcome.recovery, run_on.outcome.recovery,
        "telemetry must not perturb recovery"
    );
    let total = tel.snapshot();

    let mut table = Table::new(
        "Telemetry overhead — recorder off vs on (identical results asserted)",
        &[
            "stage",
            "telemetry",
            "wall_ms",
            "spans",
            "instants",
            "series",
            "inert",
        ],
    );
    let rows: [(&str, &str, f64, usize, usize, usize); 4] = [
        ("plan", "off", plan_off_ms, 0, 0, 0),
        (
            "plan",
            "on",
            plan_on_ms,
            after_plan.spans.len(),
            after_plan.instants.len(),
            after_plan.metrics.series_count(),
        ),
        ("faulted-run", "off", run_off_ms, 0, 0, 0),
        (
            "faulted-run",
            "on",
            run_on_ms,
            total.spans.len() - after_plan.spans.len(),
            total.instants.len() - after_plan.instants.len(),
            total.metrics.series_count() - after_plan.metrics.series_count(),
        ),
    ];
    for (stage, mode, ms, spans, instants, series) in rows {
        table.row(vec![
            stage.to_string(),
            mode.to_string(),
            format!("{ms:.1}"),
            spans.to_string(),
            instants.to_string(),
            series.to_string(),
            "yes".to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpSettings {
        ExpSettings {
            scale: 0.02,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn table1_lists_five_datasets() {
        let t = table1(tiny());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn faults_table_covers_all_scenarios() {
        let t = faults_experiment(tiny());
        assert_eq!(t.len(), 6, "none/crash/straggler/kv/net/combined");
        // faults_experiment asserts exactly-once internally for each row.
    }

    #[test]
    fn lz77_tables_have_three_strategies() {
        let (t, rows) = table2(tiny());
        assert_eq!(t.len(), 3);
        assert!(rows.iter().all(|r| r.ratio.unwrap() > 1.0));
    }

    #[test]
    fn frontier_sweep_shapes() {
        let ds = pareto_datagen::uk_syn(7, 0.02);
        let (t, rows) = frontier_sweep(
            &ds,
            WorkloadKind::WebGraph,
            PartitionLayout::SimilarTogether,
            tiny(),
            "t",
        );
        assert_eq!(t.len(), ALPHA_SWEEP.len() + 1);
        // Baseline row has no alpha.
        assert!(rows.last().unwrap().alpha.is_none());
        // Het-Aware (alpha=1) must beat the baseline on time.
        assert!(rows[0].makespan_s < rows.last().unwrap().makespan_s);
    }

    #[test]
    fn planning_speedup_table_is_consistent() {
        let t = planning_speedup(tiny(), &[1, 4]);
        // One row per thread count; the invariance assert inside the
        // function is the real check.
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn telemetry_overhead_is_inert() {
        // The asserts inside the function (identical plan, identical
        // recovery report with the recorder on) are the real check.
        let t = telemetry_overhead(tiny());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn run_strategy_reports_quality() {
        let ds = pareto_datagen::rcv1_syn(7, 0.02);
        let row = run_strategy(
            &ds,
            4,
            Strategy::Stratified,
            PartitionLayout::Representative,
            WorkloadKind::FrequentPatterns { support: 0.15 },
            tiny(),
        );
        assert!(row.candidates.is_some());
        assert!(row.makespan_s > 0.0);
    }
}
