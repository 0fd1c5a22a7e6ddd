//! Table-driven argument parsing (no CLI dependency).
//!
//! Every flag is one row of [`FLAGS`]: its name, the placeholder of its
//! value (none for a switch), the subcommands that accept it, its help
//! text, and the function that parses, range-checks and stores the value.
//! [`parse`] is a loop over that table and [`usage`] prints it, so a flag
//! cannot be accepted without being documented, nor documented on a
//! subcommand that would ignore it.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use pareto_cluster::Durability;
use pareto_core::framework::Strategy;
use pareto_core::frontier::ObjectiveSet;
use pareto_core::partitioner::PartitionLayout;
use pareto_datagen::DataKind;
use pareto_service::SoakConfig;
use pareto_workloads::WorkloadKind;

/// A parsed invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// Generate a synthetic corpus to a file.
    Gen {
        /// Preset name.
        preset: String,
        /// Scale factor.
        scale: f64,
        /// Seed.
        seed: u64,
        /// Output path.
        out: PathBuf,
    },
    /// Plan a partitioning and write partition files.
    Partition {
        /// Shared data/cluster/strategy options.
        common: Common,
        /// Output directory.
        out: PathBuf,
    },
    /// Plan, place, and execute on the simulated cluster.
    Run {
        /// Shared data/cluster/strategy options.
        common: Common,
    },
    /// List the predicted Pareto frontier's vertices (no execution).
    Frontier {
        /// Shared data/cluster/strategy options.
        common: Common,
        /// Objective axes the dominance filter ranks on.
        objectives: ObjectiveSet,
        /// Cap on planned frontier vertices.
        max_points: usize,
        /// Deterministic JSON frontier report (optional).
        out: Option<PathBuf>,
    },
    /// Plan through a warm [`pareto_core::PlanSession`], optionally
    /// sweeping α, and print cache reuse statistics.
    Plan {
        /// Shared data/cluster/strategy options.
        common: Common,
        /// α values to sweep (empty: plan once with the configured
        /// strategy).
        sweep: Vec<f64>,
        /// Deterministic plan-summary output for diffing (optional).
        out: Option<PathBuf>,
    },
    /// Plan cold, apply deltas, replan warm; print stage reuse.
    Replan {
        /// Shared data/cluster/strategy options.
        common: Common,
        /// Drop this node from the roster before replanning.
        drop_node: Option<usize>,
        /// Return this node to the roster before replanning (applied
        /// after any drop).
        restore_node: Option<usize>,
        /// Change the scalarization weight before replanning.
        realpha: Option<f64>,
        /// Append a synthetic tail of this scale before replanning
        /// (0 = no append).
        append_scale: f64,
    },
    /// Validate and summarize previously written telemetry artifacts.
    Report {
        /// The structured JSON dump (`--telemetry-out` of a prior run).
        input: PathBuf,
        /// Optional chrome-trace file to validate alongside.
        trace: Option<PathBuf>,
        /// `report lineage --batch N`: reconstruct this work batch's
        /// causal hop chain instead of printing the summary.
        lineage_batch: Option<u32>,
    },
    /// Perf/energy regression harness over the fixed workload matrix.
    Bench {
        /// Shared data/cluster/strategy options (scale/seed/nodes feed
        /// the matrix; the data source is always the rcv1 preset).
        common: Common,
        /// Write the bench record JSON here.
        record: Option<PathBuf>,
        /// Diff gated metrics against this previous record; exit nonzero
        /// on out-of-tolerance regressions.
        baseline: Option<PathBuf>,
    },
    /// Sweep seeded fault schedules through the invariant auditor and
    /// shrink any violation to a minimal reproducing `--faults` spec.
    Chaos {
        /// Shared data/cluster/strategy options.
        common: Common,
        /// Number of seeded schedules to sweep.
        schedules: u32,
        /// Plant a known-bad corrupted schedule that must be caught.
        inject_corruption: bool,
        /// Switch seeded roster churn on in every schedule's fault mix.
        with_elastic: bool,
    },
    /// Plan-serving daemon: deterministic soak (`--soak`) or live TCP
    /// server (`--listen ADDR`).
    Serve {
        /// Shared seed/threads/telemetry options (data-source flags are
        /// unused: tenant datasets are synthesized per tenant).
        common: Common,
        /// Service + traffic shape.
        opts: ServeOpts,
        /// Deterministic soak-summary JSON (optional; stdout otherwise).
        out: Option<PathBuf>,
    },
    /// Autoscaling advisor: decide whether re-admitting a candidate node
    /// pays for its migration cost, through a warm planning session.
    Elastic {
        /// Shared data/cluster/strategy options.
        common: Common,
        /// Candidate node to evaluate (default: highest node id).
        candidate: Option<usize>,
        /// Deterministic JSON advice report (optional).
        out: Option<PathBuf>,
    },
}

/// `serve` configuration: mode plus service/traffic shape.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Serve live TCP on this address; `None` runs the deterministic
    /// closed-loop soak (the `--soak` mode).
    pub listen: Option<String>,
    /// Logical soak requests.
    pub requests: usize,
    /// Distinct tenants.
    pub tenants: usize,
    /// Closed-loop soak clients.
    pub clients: usize,
    /// Simulated executor slots in the soak.
    pub sim_workers: usize,
    /// Percent of soak requests that are replans.
    pub replan_pct: u8,
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// Live worker-pool size (`--listen` mode).
    pub workers: usize,
    /// Shared plan-cache capacity.
    pub cache_cap: usize,
    /// Cluster size for the planning substrate.
    pub nodes: usize,
    /// Per-tenant synthetic dataset scale.
    pub dataset_scale: f64,
    /// Inject seeded solver stalls / crashes into the soak.
    pub chaos: bool,
}

/// Options shared by the planning subcommands.
#[derive(Debug, Clone)]
pub struct Common {
    /// Input file (exclusive with `preset`).
    pub input: Option<PathBuf>,
    /// Synthetic preset (exclusive with `input`).
    pub preset: Option<String>,
    /// Data kind for `input`.
    pub kind: Option<DataKind>,
    /// Cluster size.
    pub nodes: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Record layout.
    pub layout: PartitionLayout,
    /// Workload driven by the estimator and `run`.
    pub workload: WorkloadKind,
    /// Generation scale (presets only).
    pub scale: f64,
    /// Seed for everything.
    pub seed: u64,
    /// Planning worker threads (1 = serial; results are thread-count
    /// invariant).
    pub threads: usize,
    /// Fault-injection spec (`run` only; `run --help` gives the grammar).
    /// Parsed against the cluster size at execution time.
    pub faults: Option<String>,
    /// Roster-change spec (`run` only; `run --help` gives the grammar),
    /// appended to `faults` and parsed with it at execution time.
    pub elastic: Option<String>,
    /// KV durability mode (`run` only; WAL arms every node's store and
    /// verifies bit-identical recovery after the workload).
    pub durability: Durability,
    /// Write a chrome-trace (`trace_event` JSON) here.
    pub trace_out: Option<PathBuf>,
    /// Write Prometheus-text metrics here.
    pub metrics_out: Option<PathBuf>,
    /// Write the full structured telemetry dump here.
    pub telemetry_out: Option<PathBuf>,
    /// Arm the flight recorder and dump its ring here on failure.
    pub flight_out: Option<PathBuf>,
}

impl Default for Common {
    fn default() -> Self {
        Common {
            input: None,
            preset: None,
            kind: None,
            nodes: 8,
            strategy: Strategy::HetAware,
            layout: PartitionLayout::Representative,
            workload: WorkloadKind::FrequentPatterns { support: 0.1 },
            scale: 0.25,
            seed: 2017,
            threads: 1,
            faults: None,
            elastic: None,
            durability: Durability::None,
            trace_out: None,
            metrics_out: None,
            telemetry_out: None,
            flight_out: None,
        }
    }
}

impl Common {
    /// True when any telemetry output was requested.
    pub fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.telemetry_out.is_some()
    }
}

/// Why an argv did not become a [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// `--help` was given: the usage text to print, exit status 0.
    Help(String),
    /// A known flag on a subcommand that does not take it.
    StrayFlag {
        /// The flag as typed.
        flag: &'static str,
        /// The subcommand that rejected it.
        sub: &'static str,
    },
    /// Anything else: unknown names, missing or out-of-range values,
    /// missing required flags.
    Invalid(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Help(text) | ParseError::Invalid(text) => f.write_str(text),
            ParseError::StrayFlag { flag, sub } => write!(
                f,
                "`{sub}` does not take {flag} (`paretofab {sub} --help` lists its flags)"
            ),
        }
    }
}

impl<S: Into<String>> From<S> for ParseError {
    fn from(message: S) -> Self {
        ParseError::Invalid(message.into())
    }
}

/// A set of subcommands: one bit per row of [`SUBCOMMANDS`].
pub type Subs = u16;

const GEN: Subs = 1 << 0;
const PARTITION: Subs = 1 << 1;
const RUN: Subs = 1 << 2;
const FRONTIER: Subs = 1 << 3;
const PLAN: Subs = 1 << 4;
const REPLAN: Subs = 1 << 5;
const REPORT: Subs = 1 << 6;
const LINEAGE: Subs = 1 << 7;
const BENCH: Subs = 1 << 8;
const CHAOS: Subs = 1 << 9;
const SERVE: Subs = 1 << 10;
const ELASTIC: Subs = 1 << 11;
/// The subcommands that plan over a dataset on a simulated cluster: they
/// share the data-source, cluster and strategy flags.
const PLANNING: Subs = PARTITION | RUN | FRONTIER | PLAN | REPLAN | CHAOS | ELASTIC;
/// The subcommands that can record telemetry.
const TRACED: Subs = PLANNING | SERVE;

/// Every subcommand: name, bit, description.
#[rustfmt::skip]
const SUBCOMMANDS: &[(&str, Subs, &str)] = &[
    ("gen", GEN, "write the synthetic --preset corpus to --out FILE in the loader text format"),
    ("partition", PARTITION,
     "plan a placement; write one file per partition plus plan.txt under --out DIR"),
    ("run", RUN, "plan, place and execute the workload on the simulated cluster"),
    ("frontier", FRONTIER,
     "list the Pareto frontier's vertices through a warm planning session: one plan per\n\
      vertex of the LP's time/energy hull, filtered by dominance"),
    ("plan", PLAN,
     "incremental planning session; a --sweep reuses the cached sketch/stratify/profile\n\
      artifacts per alpha and prints cache hit/miss statistics"),
    ("replan", REPLAN,
     "plan cold, apply the deltas (at least one of --drop-node, --restore-node, --realpha,\n\
      --append-scale), replan warm; prints which stages were reused vs recomputed"),
    ("report", REPORT, "validate + summarize the telemetry artifacts of a traced run"),
    ("report lineage", LINEAGE,
     "reconstruct one work batch's causal hop chain — place, redistribute, steal, handoff,\n\
      rescue — from a traced run's telemetry dump"),
    ("bench", BENCH,
     "deterministic regression gate over a fixed workload matrix — cold plan, warm replan,\n\
      WAL recover, frontier explore, faulted run; benchmark/run.sh does the timing"),
    ("chaos", CHAOS,
     "sweep seeded fault schedules through the invariant auditor and shrink any violation\n\
      to a minimal reproducing --faults spec; exits nonzero on violations"),
    ("serve", SERVE,
     "plan-serving daemon: a seeded closed-loop soak in simulated time — injected solver\n\
      stalls, crashes, overload; exits nonzero on an audit violation — or a live TCP server"),
    ("elastic", ELASTIC,
     "autoscaling advisor: plan the full roster, drop the candidate node and replan warm,\n\
      then decide whether re-admitting it pays for its data-migration cost"),
];

/// Parses, range-checks and stores one flag's value (`""` for a switch).
/// The error is the reason only; [`parse`] names the flag and the value.
type Setter = fn(&mut Parsed, &str) -> Result<(), String>;

fn num<T: FromStr<Err = E>, E: fmt::Display>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e: E| e.to_string())
}

/// A number inside `range` (a NaN is inside none).
fn within<T, E, R>(range: R, s: &str) -> Result<T, String>
where
    T: FromStr<Err = E> + PartialOrd,
    E: fmt::Display,
    R: std::ops::RangeBounds<T> + fmt::Debug,
{
    num(s).and_then(|v| if range.contains(&v) { Ok(v) } else { Err(format!("must be in {range:?}")) })
}

fn positive(s: &str) -> Result<f64, String> {
    num(s).and_then(|v: f64| {
        if v > 0.0 && v.is_finite() { Ok(v) } else { Err("must be finite and > 0".into()) }
    })
}

fn choice<T: Copy>(s: &str, options: &[(&str, T)]) -> Result<T, String> {
    options.iter().find(|(name, _)| *name == s).map(|&(_, v)| v).ok_or_else(|| {
        let names: Vec<&str> = options.iter().map(|&(name, _)| name).collect();
        format!("expected one of {}", names.join("|"))
    })
}

/// Store a parsed value in the field a flag fills.
fn store<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// Every flag `paretofab` accepts, in the order the usage text lists
/// them: name, value placeholder (empty for a switch), the subcommands
/// that accept it, help text, setter.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, Subs, &str, Setter)] = &[
    ("--input", "FILE", PLANNING | REPORT | LINEAGE,
     "dataset in loader text format (report: the --telemetry-out dump of a prior run)",
     |p, s| store(&mut p.common.input, Ok(Some(s.into())))),
    ("--preset", "NAME", PLANNING | GEN,
     "…or generate the synthetic preset instead: swissprot|treebank|uk|arabic|rcv1",
     |p, s| store(&mut p.common.preset, Ok(Some(s.into())))),
    ("--kind", "<tree|graph|text>", PLANNING, "(required with --input)",
     |p, s| store(&mut p.common.kind, choice(s, &[
         ("tree", DataKind::Tree), ("graph", DataKind::Graph), ("text", DataKind::Text),
     ]).map(Some))),
    ("--nodes", "P", PLANNING | BENCH | SERVE,
     "cluster size (default 8; serve: 4, a small substrate for tiny tenant datasets)",
     |p, s| {
         store(&mut p.common.nodes, num(s))?;
         store(&mut p.soak.service.nodes, Ok(p.common.nodes))
     }),
    ("--strategy", "NAME", PLANNING,
     "stratified|het-aware|het-energy-aware|het-energy-aware-norm|random|round-robin|\n\
      cluster-mode (default het-aware; --alpha alone selects het-energy-aware)",
     |p, s| store(&mut p.strategy, choice(s, &[
         ("stratified", Strategy::Stratified),
         ("het-aware", Strategy::HetAware),
         ("het-energy-aware", Strategy::HetEnergyAware { alpha: 0.995 }),
         ("het-energy-aware-norm", Strategy::HetEnergyAwareNormalized { alpha: 0.5 }),
         ("random", Strategy::Random),
         ("round-robin", Strategy::RoundRobin),
         ("cluster-mode", Strategy::ClusterMode),
     ]).map(Some))),
    ("--alpha", "A", PLANNING,
     "scalarization weight for the energy-aware strategies (default 0.995; norm: 0.5)",
     |p, s| store(&mut p.alpha, num(s).map(Some))),
    ("--layout", "<representative|similar>", PLANNING, "(default representative)",
     |p, s| store(&mut p.common.layout, choice(s, &[
         ("representative", PartitionLayout::Representative),
         ("similar", PartitionLayout::SimilarTogether),
     ]))),
    ("--workload", "NAME", PLANNING, "patterns|patterns-eclat|lz77|webgraph (default patterns)",
     |p, s| store(&mut p.common.workload, choice(s, &[
         ("patterns", WorkloadKind::FrequentPatterns { support: 0.1 }),
         ("patterns-eclat", WorkloadKind::FrequentPatternsEclat { support: 0.1 }),
         ("lz77", WorkloadKind::Lz77),
         ("webgraph", WorkloadKind::WebGraph),
     ]))),
    ("--support", "S", PLANNING, "mining support fraction in (0, 1] (default 0.1)",
     |p, s| store(&mut p.support, positive(s).and_then(|v| {
         if v <= 1.0 { Ok(Some(v)) } else { Err("must be in (0, 1]".into()) }
     }))),
    ("--scale", "F", PLANNING | GEN | BENCH, "synthetic generation scale (default 0.25)",
     |p, s| store(&mut p.common.scale, positive(s))),
    ("--seed", "N", PLANNING | GEN | BENCH | SERVE, "seed for everything (default 2017)",
     |p, s| store(&mut p.common.seed, num(s))),
    ("--threads", "N", PLANNING | SERVE,
     "planning worker threads (default 1; the plan is bit-identical at any thread count)",
     |p, s| store(&mut p.common.threads, within(1.., s))),
    ("--durability", "<none|snapshot|wal>", RUN,
     "KV durability mode (default none; wal verifies bit-identical recovery after the\n\
      workload and prints a durability report)",
     |p, s| store(&mut p.common.durability, choice(s, &[
         ("none", Durability::None),
         ("snapshot", Durability::SnapshotOnCheckpoint),
         ("wal", Durability::Wal),
     ]))),
    ("--faults", "SPEC", RUN,
     "inject faults and report the recovery. SPEC is comma-separated events:\n\
      \x20 crash:NODE@T       kill NODE at simulated second T\n\
      \x20 slow:NODE@FACTOR   NODE runs FACTOR x slower\n\
      \x20 kv:NODE@COUNT      COUNT transient store errors\n\
      \x20 net:NODE@FROM-TO@F degrade NODE's network by F\n\
      \x20 torn:NODE@K        truncate NODE's WAL tail by K bytes\n\
      \x20 rot:NODE@OFF@MASK  XOR NODE's WAL byte OFF with MASK\n\
      \x20 snaploss:NODE      NODE loses its checkpoint snapshot\n\
      \x20 recrash:NODE@R     crash NODE mid-recovery after R records\n\
      \x20 stall:NODE@COUNT   stall NODE's next COUNT LP solves\n\
      \x20 seeded:SEED        deterministic generated plan\n\
      and the roster changes --elastic lists",
     |p, s| store(&mut p.common.faults, Ok(Some(s.into())))),
    ("--elastic", "SPEC", RUN,
     "roster changes, appended to any --faults (one grammar). SPEC is comma-separated:\n\
      \x20 join:NODE@T        NODE joins the roster at second T\n\
      \x20 drain:NODE@T       NODE finishes/hands off, then leaves\n\
      \x20 preempt:NODE@T@G   preemption notice at T, grace G s\n\
      \x20 eseeded:SEED       deterministic generated roster changes",
     |p, s| store(&mut p.common.elastic, Ok(Some(s.into())))),
    ("--sweep", "A1,A2,...", PLAN, "alphas to plan in turn through the warm session",
     |p, s| {
         store(&mut p.sweep, s.split(',').map(|a| num(a.trim())).collect())?;
         // Duplicate alphas would silently re-plan identical points; keep
         // the first occurrence of each.
         let mut seen = std::collections::BTreeSet::new();
         p.sweep.retain(|a| seen.insert(a.to_bits()));
         Ok(())
     }),
    ("--objectives", "LIST", FRONTIER,
     "comma-separated from time, energy, transfer (default time,energy)",
     |p, s| store(&mut p.objectives, ObjectiveSet::parse(s).map(Some))),
    ("--max-points", "N", FRONTIER, "cap on planned frontier vertices (default 48)",
     |p, s| store(&mut p.max_points, within(2.., s).map(Some))),
    ("--drop-node", "N", REPLAN, "drop this node from the roster before replanning",
     |p, s| store(&mut p.drop_node, num(s).map(Some))),
    ("--restore-node", "N", REPLAN,
     "return this node to the roster before replanning (applied after any drop)",
     |p, s| store(&mut p.restore_node, num(s).map(Some))),
    ("--realpha", "A", REPLAN, "change the scalarization weight before replanning",
     |p, s| store(&mut p.realpha, num(s).map(Some))),
    ("--append-scale", "F", REPLAN,
     "append a synthetic tail of this scale before replanning (needs --preset)",
     |p, s| store(&mut p.append_scale, within(0.0.., s))),
    ("--schedules", "N", CHAOS, "seeded fault schedules to sweep (default 256)",
     |p, s| store(&mut p.schedules, within(1.., s).map(Some))),
    ("--inject-corruption", "", CHAOS, "add a known-bad schedule that must be caught and shrunk",
     |p, _| store(&mut p.inject_corruption, Ok(true))),
    ("--with-elastic", "", CHAOS,
     "switch seeded roster churn — joins, drains, preemptions — on in every\n\
      schedule's fault mix",
     |p, _| store(&mut p.with_elastic, Ok(true))),
    ("--candidate", "N", ELASTIC, "node to evaluate (default: highest node id)",
     |p, s| store(&mut p.candidate, num(s).map(Some))),
    ("--out", "PATH", GEN | PARTITION | FRONTIER | PLAN | SERVE | ELASTIC,
     "where the subcommand writes its deterministic artifact (partition: a directory)",
     |p, s| store(&mut p.out, Ok(Some(s.into())))),
    ("--trace-out", "FILE", TRACED,
     "write a chrome-trace (trace_event JSON) loadable in about:tracing or ui.perfetto.dev",
     |p, s| store(&mut p.common.trace_out, Ok(Some(s.into())))),
    ("--metrics-out", "FILE", TRACED, "write the metrics registry in Prometheus text format",
     |p, s| store(&mut p.common.metrics_out, Ok(Some(s.into())))),
    ("--telemetry-out", "FILE", TRACED,
     "write the full structured JSON dump (spans, instants, metrics, captured events).\n\
      Telemetry is observational only: results are bit-identical with or without it",
     |p, s| store(&mut p.common.telemetry_out, Ok(Some(s.into())))),
    ("--flight-out", "FILE", TRACED,
     "arm the flight recorder: a bounded ring of recent spans/instants/events dumped as\n\
      JSON to FILE when something goes wrong (a plan/run error, an audit violation, a\n\
      chaos minimal-spec discovery)",
     |p, s| store(&mut p.common.flight_out, Ok(Some(s.into())))),
    ("--trace", "TRACE.json", REPORT, "chrome trace to validate alongside the dump",
     |p, s| store(&mut p.trace, Ok(Some(s.into())))),
    ("--batch", "N", LINEAGE, "the work batch whose hop chain to reconstruct",
     |p, s| store(&mut p.batch, num(s).map(Some))),
    ("--soak", "", SERVE, "run the deterministic soak; its summary JSON goes to --out, else stdout",
     |p, _| store(&mut p.soak_mode, Ok(true))),
    ("--listen", "ADDR", SERVE, "serve live TCP on ADDR instead",
     |p, s| store(&mut p.listen, Ok(Some(s.into())))),
    ("--requests", "N", SERVE, "logical soak requests (default 1000)",
     |p, s| store(&mut p.soak.requests, within(1.., s))),
    ("--tenants", "N", SERVE, "distinct soak tenants (default 4)",
     |p, s| store(&mut p.soak.tenants, within(1.., s))),
    ("--clients", "N", SERVE, "closed-loop soak clients (default 12)",
     |p, s| store(&mut p.soak.clients, within(1.., s))),
    ("--sim-workers", "N", SERVE, "simulated executor slots in the soak (default 2)",
     |p, s| store(&mut p.soak.sim_workers, within(1.., s))),
    ("--replan-pct", "N", SERVE, "percent of soak requests that are replans, 0-100 (default 20)",
     |p, s| store(&mut p.soak.replan_pct, within(..=100, s))),
    ("--queue-cap", "N", SERVE, "admission queue capacity (default 4)",
     |p, s| store(&mut p.soak.service.queue_capacity, within(1.., s))),
    ("--workers", "N", SERVE, "live worker-pool size under --listen (default 2)",
     |p, s| store(&mut p.soak.service.workers, within(1.., s))),
    ("--cache-cap", "N", SERVE, "shared plan-cache capacity (default 64)",
     |p, s| store(&mut p.soak.service.cache_capacity, within(1.., s))),
    ("--dataset-scale", "F", SERVE, "per-tenant synthetic dataset scale (default 0.01)",
     |p, s| store(&mut p.soak.service.dataset_scale, positive(s))),
    ("--no-chaos", "", SERVE, "soak without injected solver stalls / crashes",
     |p, _| store(&mut p.soak.chaos, Ok(false))),
    ("--record", "FILE", BENCH, "write the bench record JSON",
     |p, s| store(&mut p.record, Ok(Some(s.into())))),
    ("--baseline", "FILE", BENCH,
     "diff the gated metrics against this previous record; exit nonzero on a regression",
     |p, s| store(&mut p.baseline, Ok(Some(s.into())))),
];

/// The usage text of the subcommands in `mask` — one subcommand's bit, or
/// [`Subs::MAX`] for the whole program — and only the flags they accept.
pub fn usage(mask: Subs) -> String {
    let indent = format!("\n{:29}", "");
    let mut text = String::from("usage:\n");
    for (name, _, about) in SUBCOMMANDS.iter().filter(|(_, bit, _)| bit & mask != 0) {
        text += &format!("  paretofab {name} [flags]\n      {}\n", about.replace('\n', "\n      "));
    }
    text += "\nflags (`paretofab <subcommand> --help` lists only the ones it accepts):\n";
    for (name, value, _, help, _) in FLAGS.iter().filter(|f| f.2 & mask != 0) {
        let head = format!("{name} {value}");
        text += &format!("  {head:<26} {}\n", help.replace('\n', &indent));
    }
    text
}

/// Everything the flags can set, before [`Parsed::finish`] shapes it into
/// the subcommand's [`Command`]. Defaults that are not `Default::default()`
/// are applied there, next to the field they fill; `serve`'s traffic and
/// service shape starts from the soak harness's own defaults.
#[derive(Default)]
struct Parsed {
    common: Common,
    soak: SoakConfig,
    soak_mode: bool,
    listen: Option<String>,
    strategy: Option<Strategy>,
    alpha: Option<f64>,
    support: Option<f64>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    sweep: Vec<f64>,
    objectives: Option<ObjectiveSet>,
    max_points: Option<usize>,
    drop_node: Option<usize>,
    restore_node: Option<usize>,
    realpha: Option<f64>,
    append_scale: f64,
    schedules: Option<u32>,
    inject_corruption: bool,
    with_elastic: bool,
    candidate: Option<usize>,
    batch: Option<u32>,
    record: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

/// Parse an argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let mut it = argv.iter().map(String::as_str).peekable();
    let first = it.next().ok_or("missing subcommand")?;
    if first == "--help" {
        return Err(ParseError::Help(usage(Subs::MAX)));
    }
    // `report` takes an optional `lineage` mode token before its flags.
    let name = match it.next_if(|&arg| first == "report" && arg == "lineage") {
        Some(_) => "report lineage",
        None => first,
    };
    let &(sub, bit, _) = SUBCOMMANDS
        .iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| format!("unknown subcommand {first:?}"))?;

    let mut parsed = Parsed::default();
    while let Some(arg) = it.next() {
        if arg == "--help" {
            return Err(ParseError::Help(usage(bit)));
        }
        let &(flag, placeholder, subs, _, set) = FLAGS
            .iter()
            .find(|f| f.0 == arg)
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        if subs & bit == 0 {
            return Err(ParseError::StrayFlag { flag, sub });
        }
        let value = match placeholder {
            "" => "",
            _ => it.next().ok_or_else(|| format!("{flag} needs a value"))?,
        };
        set(&mut parsed, value).map_err(|e| format!("bad {flag} {value:?}: {e}"))?;
    }
    parsed.finish(bit)
}

impl Parsed {
    /// Resolve the flags that combine (`--strategy` with `--alpha`,
    /// `--workload` with `--support`), check what the subcommand requires,
    /// and build its [`Command`].
    fn finish(self, sub: Subs) -> Result<Command, ParseError> {
        let Parsed { mut common, out, soak, .. } = self;
        // `--strategy` names the family, `--alpha` its weight; `--alpha`
        // alone selects het-energy-aware.
        common.strategy = match (self.strategy.unwrap_or(common.strategy), self.alpha) {
            (Strategy::HetEnergyAwareNormalized { .. }, Some(alpha)) => {
                Strategy::HetEnergyAwareNormalized { alpha }
            }
            (Strategy::HetEnergyAware { .. }, Some(alpha)) => Strategy::HetEnergyAware { alpha },
            (_, Some(alpha)) if self.strategy.is_none() => Strategy::HetEnergyAware { alpha },
            (chosen, _) => chosen,
        };
        if let Some(s) = self.support {
            if let WorkloadKind::FrequentPatterns { support }
            | WorkloadKind::FrequentPatternsEclat { support } = &mut common.workload
            {
                *support = s;
            }
        }
        if sub & PLANNING != 0 {
            match (&common.input, &common.preset, common.kind) {
                (Some(_), Some(_), _) => {
                    return Err("--input and --preset are mutually exclusive".into())
                }
                (None, None, _) => return Err("need --input FILE or --preset NAME".into()),
                (Some(_), None, None) => {
                    return Err("--input requires --kind <tree|graph|text>".into())
                }
                _ => {}
            }
        }
        Ok(match sub {
            GEN => Command::Gen {
                preset: common.preset.ok_or("gen requires --preset")?,
                scale: common.scale,
                seed: common.seed,
                out: out.ok_or("gen requires --out FILE")?,
            },
            PARTITION => Command::Partition { common, out: out.ok_or("partition requires --out DIR")? },
            RUN => Command::Run { common },
            FRONTIER => Command::Frontier {
                common,
                objectives: self.objectives.unwrap_or_else(ObjectiveSet::time_energy),
                max_points: self.max_points.unwrap_or(48),
                out,
            },
            PLAN => Command::Plan { common, sweep: self.sweep, out },
            REPLAN => {
                let deltas = (self.drop_node, self.restore_node, self.realpha);
                if deltas == (None, None, None) && self.append_scale == 0.0 {
                    return Err("replan needs at least one delta: --drop-node, --restore-node, \
                         --realpha, or --append-scale"
                        .into());
                }
                Command::Replan {
                    common,
                    drop_node: self.drop_node,
                    restore_node: self.restore_node,
                    realpha: self.realpha,
                    append_scale: self.append_scale,
                }
            }
            REPORT | LINEAGE => Command::Report {
                input: common.input.ok_or("report requires --input DUMP.json")?,
                trace: self.trace,
                lineage_batch: match sub {
                    LINEAGE => Some(self.batch.ok_or("report lineage requires --batch N")?),
                    _ => None,
                },
            },
            BENCH => Command::Bench { common, record: self.record, baseline: self.baseline },
            CHAOS => Command::Chaos {
                common,
                schedules: self.schedules.unwrap_or(256),
                inject_corruption: self.inject_corruption,
                with_elastic: self.with_elastic,
            },
            SERVE => {
                match (self.soak_mode, &self.listen) {
                    (true, Some(_)) => {
                        return Err("--soak and --listen are mutually exclusive".into())
                    }
                    (false, None) => return Err("serve needs --soak or --listen ADDR".into()),
                    _ => {}
                }
                let opts = ServeOpts {
                    listen: self.listen,
                    requests: soak.requests,
                    tenants: soak.tenants,
                    clients: soak.clients,
                    sim_workers: soak.sim_workers,
                    replan_pct: soak.replan_pct,
                    queue_cap: soak.service.queue_capacity,
                    workers: soak.service.workers,
                    cache_cap: soak.service.cache_capacity,
                    nodes: soak.service.nodes,
                    dataset_scale: soak.service.dataset_scale,
                    chaos: soak.chaos,
                };
                Command::Serve { common, opts, out }
            }
            ELASTIC => {
                if let Some(c) = self.candidate.filter(|&c| c >= common.nodes) {
                    let nodes = common.nodes;
                    let message = format!("--candidate {c} is out of range (cluster has {nodes} nodes)");
                    return Err(message.into());
                }
                Command::Elastic { common, candidate: self.candidate, out }
            }
            _ => unreachable!("every row of SUBCOMMANDS has an arm"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_gen() {
        let cmd = parse(&argv("gen --preset rcv1 --scale 0.1 --seed 3 --out x.txt")).unwrap();
        match cmd {
            Command::Gen {
                preset,
                scale,
                seed,
                out,
            } => {
                assert_eq!(preset, "rcv1");
                assert_eq!(scale, 0.1);
                assert_eq!(seed, 3);
                assert_eq!(out, PathBuf::from("x.txt"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_run_with_strategy_and_support() {
        let cmd = parse(&argv(
            "run --preset treebank --nodes 4 --strategy het-energy-aware --alpha 0.99 \
             --workload patterns --support 0.05",
        ))
        .unwrap();
        match cmd {
            Command::Run { common } => {
                assert_eq!(common.nodes, 4);
                assert_eq!(
                    common.strategy,
                    Strategy::HetEnergyAware { alpha: 0.99 }
                );
                assert_eq!(
                    common.workload,
                    WorkloadKind::FrequentPatterns { support: 0.05 }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_conflicting_sources() {
        assert!(parse(&argv("run --preset rcv1 --input x.txt --kind text")).is_err());
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("partition --preset rcv1")).is_err()); // no --out
    }

    #[test]
    fn input_requires_kind() {
        assert!(parse(&argv("run --input x.txt")).is_err());
        assert!(parse(&argv("run --input x.txt --kind text")).is_ok());
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        assert!(parse(&argv("run --preset rcv1 --bogus 1")).is_err());
        assert!(parse(&argv("run --preset rcv1 --layout diagonal")).is_err());
        assert!(parse(&argv("run --preset rcv1 --support 0")).is_err());
        for scale in ["0", "-1", "nan", "inf"] {
            assert!(parse(&argv(&format!("plan --preset uk --scale {scale}"))).is_err());
        }
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn parses_frontier() {
        let cmd = parse(&argv("frontier --preset rcv1 --nodes 4")).unwrap();
        match cmd {
            Command::Frontier {
                objectives,
                max_points,
                out,
                ..
            } => {
                assert_eq!(objectives, ObjectiveSet::time_energy());
                assert_eq!(max_points, 48);
                assert!(out.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_frontier_explorer_flags() {
        let cmd = parse(&argv(
            "frontier --preset rcv1 --objectives time,energy,transfer \
             --max-points 32 --out f.json",
        ))
        .unwrap();
        match cmd {
            Command::Frontier {
                objectives,
                max_points,
                out,
                ..
            } => {
                assert_eq!(objectives, ObjectiveSet::full());
                assert_eq!(max_points, 32);
                assert_eq!(out, Some(PathBuf::from("f.json")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Invalid specs are parse errors (nonzero CLI exit).
        assert!(parse(&argv("frontier --preset rcv1 --objectives frobnicate")).is_err());
        assert!(parse(&argv("frontier --preset rcv1 --objectives")).is_err());
        // `--tol` went with the bisection it tuned: it is an unknown flag,
        // which exits 1.
        assert!(matches!(
            parse(&argv("frontier --preset rcv1 --tol 1e-3")),
            Err(ParseError::Invalid(m)) if m == "unknown argument \"--tol\""
        ));
        assert!(parse(&argv("frontier --preset rcv1 --max-points 1")).is_err());
        assert!(parse(&argv("frontier --preset rcv1 --max-points nope")).is_err());
    }

    #[test]
    fn sweep_deduplicates_alphas() {
        let cmd = parse(&argv(
            "plan --preset rcv1 --sweep 1.0,0.999,1.0,0.995,0.999",
        ))
        .unwrap();
        match cmd {
            Command::Plan { sweep, .. } => assert_eq!(sweep, vec![1.0, 0.999, 0.995]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_threads() {
        let cmd = parse(&argv("run --preset rcv1 --threads 8")).unwrap();
        match cmd {
            Command::Run { common } => assert_eq!(common.threads, 8),
            other => panic!("unexpected {other:?}"),
        }
        // Default is serial.
        let cmd = parse(&argv("run --preset rcv1")).unwrap();
        match cmd {
            Command::Run { common } => assert_eq!(common.threads, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --preset rcv1 --threads 0")).is_err());
        assert!(parse(&argv("run --preset rcv1 --threads nope")).is_err());
    }

    #[test]
    fn parses_faults_spec() {
        let cmd = parse(&argv(
            "run --preset rcv1 --nodes 4 --faults crash:1@5.0,slow:2@3,seeded:99",
        ))
        .unwrap();
        match cmd {
            Command::Run { common } => {
                assert_eq!(
                    common.faults.as_deref(),
                    Some("crash:1@5.0,slow:2@3,seeded:99")
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Default: no faults.
        let cmd = parse(&argv("run --preset rcv1")).unwrap();
        match cmd {
            Command::Run { common } => assert!(common.faults.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --preset rcv1 --faults")).is_err());
    }

    #[test]
    fn parses_telemetry_outputs() {
        let cmd = parse(&argv(
            "run --preset rcv1 --trace-out t.json --metrics-out m.prom \
             --telemetry-out d.json",
        ))
        .unwrap();
        match cmd {
            Command::Run { common } => {
                assert_eq!(common.trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(common.metrics_out, Some(PathBuf::from("m.prom")));
                assert_eq!(common.telemetry_out, Some(PathBuf::from("d.json")));
                assert!(common.wants_telemetry());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Default: no telemetry.
        let cmd = parse(&argv("run --preset rcv1")).unwrap();
        match cmd {
            Command::Run { common } => assert!(!common.wants_telemetry()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --preset rcv1 --trace-out")).is_err());
    }

    #[test]
    fn parses_report() {
        let cmd = parse(&argv("report --input dump.json --trace trace.json")).unwrap();
        match cmd {
            Command::Report {
                input,
                trace,
                lineage_batch,
            } => {
                assert_eq!(input, PathBuf::from("dump.json"));
                assert_eq!(trace, Some(PathBuf::from("trace.json")));
                assert_eq!(lineage_batch, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("report --input dump.json")).unwrap();
        assert!(matches!(cmd, Command::Report { trace: None, .. }));
        assert!(parse(&argv("report")).is_err());
    }

    #[test]
    fn parses_report_lineage() {
        let cmd = parse(&argv("report lineage --input dump.json --batch 3")).unwrap();
        match cmd {
            Command::Report {
                input,
                lineage_batch,
                ..
            } => {
                assert_eq!(input, PathBuf::from("dump.json"));
                assert_eq!(lineage_batch, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The lineage mode requires a batch id; plain report ignores it.
        assert!(parse(&argv("report lineage --input dump.json")).is_err());
        assert!(parse(&argv("report lineage --batch 3")).is_err()); // no --input
        assert!(parse(&argv("report lineage --input d.json --batch nope")).is_err());
    }

    #[test]
    fn parses_bench() {
        let cmd = parse(&argv(
            "bench --record b.json --baseline prev.json --scale 0.02 --seed 9 --nodes 4",
        ))
        .unwrap();
        match cmd {
            Command::Bench {
                common,
                record,
                baseline,
            } => {
                assert_eq!(record, Some(PathBuf::from("b.json")));
                assert_eq!(baseline, Some(PathBuf::from("prev.json")));
                assert_eq!(common.scale, 0.02);
                assert_eq!(common.seed, 9);
                assert_eq!(common.nodes, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Bench needs no data source: the matrix is always the rcv1 preset.
        let cmd = parse(&argv("bench")).unwrap();
        assert!(matches!(
            cmd,
            Command::Bench {
                record: None,
                baseline: None,
                ..
            }
        ));
        // Wall-clock sampling left with its flag: `benchmark/run.sh` times.
        assert!(parse(&argv("bench --iters 2")).is_err());
        assert!(parse(&argv("bench --record")).is_err());
    }

    #[test]
    fn parses_flight_out() {
        let cmd = parse(&argv("run --preset rcv1 --flight-out fr.json")).unwrap();
        match cmd {
            Command::Run { common } => {
                assert_eq!(common.flight_out, Some(PathBuf::from("fr.json")));
                // The flight recorder alone does not imply the full
                // telemetry outputs…
                assert!(!common.wants_telemetry());
            }
            other => panic!("unexpected {other:?}"),
        }
        // …and the default is unarmed.
        let cmd = parse(&argv("run --preset rcv1")).unwrap();
        match cmd {
            Command::Run { common } => assert!(common.flight_out.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --preset rcv1 --flight-out")).is_err());
    }

    #[test]
    fn parses_plan_with_sweep() {
        let cmd = parse(&argv(
            "plan --preset rcv1 --nodes 4 --sweep 1.0,0.999,0.995 --out plans.txt",
        ))
        .unwrap();
        match cmd {
            Command::Plan { common, sweep, out } => {
                assert_eq!(common.nodes, 4);
                assert_eq!(sweep, vec![1.0, 0.999, 0.995]);
                assert_eq!(out, Some(PathBuf::from("plans.txt")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Sweep and out are optional; a bare plan is a single cold plan.
        let cmd = parse(&argv("plan --preset rcv1")).unwrap();
        assert!(matches!(
            cmd,
            Command::Plan { ref sweep, out: None, .. } if sweep.is_empty()
        ));
        assert!(parse(&argv("plan --preset rcv1 --sweep")).is_err());
        assert!(parse(&argv("plan --preset rcv1 --sweep nope")).is_err());
        assert!(parse(&argv("plan")).is_err()); // no data source
    }

    #[test]
    fn parses_replan_deltas() {
        let cmd = parse(&argv(
            "replan --preset rcv1 --nodes 4 --drop-node 2 --realpha 0.99 --append-scale 0.01",
        ))
        .unwrap();
        match cmd {
            Command::Replan {
                drop_node,
                realpha,
                append_scale,
                ..
            } => {
                assert_eq!(drop_node, Some(2));
                assert_eq!(realpha, Some(0.99));
                assert_eq!(append_scale, 0.01);
            }
            other => panic!("unexpected {other:?}"),
        }
        // At least one delta is required.
        assert!(parse(&argv("replan --preset rcv1")).is_err());
        assert!(parse(&argv("replan --preset rcv1 --append-scale -1")).is_err());
        assert!(parse(&argv("replan --preset rcv1 --drop-node nope")).is_err());
    }

    #[test]
    fn restore_node_is_a_replan_delta() {
        let cmd = parse(&argv("replan --preset rcv1 --nodes 4 --restore-node 2")).unwrap();
        match cmd {
            Command::Replan {
                drop_node,
                restore_node,
                ..
            } => {
                assert_eq!(drop_node, None);
                assert_eq!(restore_node, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Drop + restore compose in one invocation.
        let cmd = parse(&argv(
            "replan --preset rcv1 --nodes 4 --drop-node 1 --restore-node 1",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Replan {
                drop_node: Some(1),
                restore_node: Some(1),
                ..
            }
        ));
        assert!(parse(&argv("replan --preset rcv1 --restore-node nope")).is_err());
        assert!(parse(&argv("replan --preset rcv1 --restore-node")).is_err());
    }

    #[test]
    fn parses_elastic_spec_and_chaos_flag() {
        let spec = "join:3@20,drain:1@40,preempt:2@60@15,eseeded:7";
        let cmd =
            parse(&argv(&format!("run --preset rcv1 --nodes 4 --elastic {spec}"))).unwrap();
        match cmd {
            Command::Run { common } => assert_eq!(common.elastic.as_deref(), Some(spec)),
            other => panic!("unexpected {other:?}"),
        }
        // Default: no elastic plan.
        let cmd = parse(&argv("run --preset rcv1")).unwrap();
        match cmd {
            Command::Run { common } => assert!(common.elastic.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --preset rcv1 --elastic")).is_err());
        let cmd = parse(&argv("chaos --preset rcv1 --with-elastic")).unwrap();
        assert!(matches!(cmd, Command::Chaos { with_elastic: true, .. }));
        let cmd = parse(&argv("chaos --preset rcv1")).unwrap();
        assert!(matches!(cmd, Command::Chaos { with_elastic: false, .. }));
    }

    #[test]
    fn parses_elastic_subcommand() {
        let cmd = parse(&argv(
            "elastic --preset rcv1 --nodes 4 --candidate 3 --out advice.json",
        ))
        .unwrap();
        match cmd {
            Command::Elastic {
                common,
                candidate,
                out,
            } => {
                assert_eq!(common.nodes, 4);
                assert_eq!(candidate, Some(3));
                assert_eq!(out, Some(PathBuf::from("advice.json")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Candidate defaults at execution time; out is optional.
        let cmd = parse(&argv("elastic --preset rcv1")).unwrap();
        assert!(matches!(
            cmd,
            Command::Elastic { candidate: None, out: None, .. }
        ));
        assert!(parse(&argv("elastic")).is_err()); // no data source
        assert!(parse(&argv("elastic --preset rcv1 --nodes 4 --candidate 4")).is_err());
        assert!(parse(&argv("elastic --preset rcv1 --candidate nope")).is_err());
    }

    #[test]
    fn parses_durability_modes() {
        for (name, mode) in [
            ("none", Durability::None),
            ("snapshot", Durability::SnapshotOnCheckpoint),
            ("wal", Durability::Wal),
        ] {
            let cmd = parse(&argv(&format!("run --preset rcv1 --durability {name}"))).unwrap();
            match cmd {
                Command::Run { common } => assert_eq!(common.durability, mode),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Default: no durability.
        let cmd = parse(&argv("run --preset rcv1")).unwrap();
        match cmd {
            Command::Run { common } => assert_eq!(common.durability, Durability::None),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --preset rcv1 --durability paper")).is_err());
        assert!(parse(&argv("run --preset rcv1 --durability")).is_err());
    }

    #[test]
    fn parses_chaos() {
        let cmd = parse(&argv(
            "chaos --preset rcv1 --nodes 4 --schedules 64 --inject-corruption",
        ))
        .unwrap();
        match cmd {
            Command::Chaos {
                common,
                schedules,
                inject_corruption,
                with_elastic,
            } => {
                assert_eq!(common.nodes, 4);
                assert_eq!(schedules, 64);
                assert!(inject_corruption);
                assert!(!with_elastic);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: 256 schedules, no planted corruption.
        let cmd = parse(&argv("chaos --preset rcv1")).unwrap();
        assert!(matches!(
            cmd,
            Command::Chaos {
                schedules: 256,
                inject_corruption: false,
                ..
            }
        ));
        assert!(parse(&argv("chaos")).is_err()); // no data source
        assert!(parse(&argv("chaos --preset rcv1 --schedules 0")).is_err());
        assert!(parse(&argv("chaos --preset rcv1 --schedules nope")).is_err());
    }

    #[test]
    fn parses_storage_fault_clauses() {
        let spec = "torn:1@13,rot:2@40@8,snaploss:3,recrash:0@2";
        let cmd = parse(&argv(&format!("run --preset rcv1 --nodes 4 --faults {spec}"))).unwrap();
        match cmd {
            Command::Run { common } => assert_eq!(common.faults.as_deref(), Some(spec)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cluster_mode_and_norm_strategies() {
        let cmd = parse(&argv("run --preset rcv1 --strategy cluster-mode")).unwrap();
        match cmd {
            Command::Run { common } => assert_eq!(common.strategy, Strategy::ClusterMode),
            other => panic!("unexpected {other:?}"),
        }
        let cmd =
            parse(&argv("run --preset rcv1 --strategy het-energy-aware-norm --alpha 0.4"))
                .unwrap();
        match cmd {
            Command::Run { common } => assert_eq!(
                common.strategy,
                Strategy::HetEnergyAwareNormalized { alpha: 0.4 }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The table against itself: a flag outside a subcommand's accepted
    /// set is a typed error naming both, the subcommand's `--help` lists
    /// exactly the flags it accepts, and no row is dead or duplicated.
    #[test]
    fn stray_flags_are_typed_errors_and_usage_lists_exactly_the_accepted_flags() {
        for (i, &(sub, bit, _)) in SUBCOMMANDS.iter().enumerate() {
            assert_eq!(bit, 1 << i, "{sub}: one bit per row, in order");
            let help = match parse(&argv(&format!("{sub} --help"))) {
                Err(ParseError::Help(text)) => text,
                other => panic!("`{sub} --help` must be the help outcome, got {other:?}"),
            };
            assert_eq!(help, usage(bit));
            assert_eq!(help.matches("  paretofab ").count(), 1, "{sub}: only its own synopsis");
            for &(flag, placeholder, subs, _, _) in FLAGS {
                let listed = help.lines().any(|l| l.starts_with(&format!("  {flag} ")));
                assert_eq!(listed, subs & bit != 0, "{flag} in `{sub} --help`");
                if listed {
                    continue;
                }
                let value = if placeholder.is_empty() { "" } else { "1" };
                match parse(&argv(&format!("{sub} {flag} {value}"))) {
                    Err(e @ ParseError::StrayFlag { .. }) => {
                        assert_eq!(e, ParseError::StrayFlag { flag, sub });
                        let message = e.to_string();
                        assert!(message.contains(sub) && message.contains(flag), "{message}");
                    }
                    other => panic!("`{sub} {flag}` must be a stray-flag error, got {other:?}"),
                }
            }
        }
        for (i, &(flag, _, subs, help, _)) in FLAGS.iter().enumerate() {
            assert!(flag.starts_with("--") && !help.is_empty(), "{flag}");
            assert!(subs != 0 && subs < 1 << SUBCOMMANDS.len(), "{flag}: accepted somewhere real");
            assert!(FLAGS[..i].iter().all(|f| f.0 != flag), "{flag} declared twice");
        }
        // The whole-program usage names every subcommand and every flag.
        let all = usage(Subs::MAX);
        assert!(matches!(parse(&argv("--help")), Err(ParseError::Help(text)) if text == all));
        assert_eq!(all.matches("  paretofab ").count(), SUBCOMMANDS.len());
        assert!(FLAGS.iter().all(|f| all.contains(&format!("\n  {} ", f.0))));
        // `serve` documents the defaults it actually reads from the soak harness.
        let serve = usage(SERVE);
        let soak = SoakConfig::default();
        for (flag, default) in [
            ("--requests", soak.requests.to_string()),
            ("--tenants", soak.tenants.to_string()),
            ("--clients", soak.clients.to_string()),
            ("--sim-workers", soak.sim_workers.to_string()),
            ("--replan-pct", soak.replan_pct.to_string()),
            ("--queue-cap", soak.service.queue_capacity.to_string()),
            ("--workers", soak.service.workers.to_string()),
            ("--cache-cap", soak.service.cache_capacity.to_string()),
            ("--dataset-scale", soak.service.dataset_scale.to_string()),
        ] {
            let line = serve.lines().find(|l| l.starts_with(&format!("  {flag} "))).unwrap();
            assert!(line.ends_with(&format!("(default {default})")), "{line}");
        }
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(&argv(
            "serve --listen 127.0.0.1:0 --workers 2 --queue-cap 8 --cache-cap 4096 \
             --dataset-scale 0.125 --nodes 8 --threads 1 --seed 2017",
        ))
        .unwrap();
        match cmd {
            Command::Serve { common, opts, out } => {
                assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!((opts.workers, opts.queue_cap, opts.cache_cap), (2, 8, 4096));
                assert_eq!((opts.dataset_scale, opts.nodes), (0.125, 8));
                assert_eq!((common.threads, common.seed), (1, 2017));
                assert!(out.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The soak's shape defaults to the harness's own.
        let cmd = parse(&argv("serve --soak --no-chaos")).unwrap();
        match cmd {
            Command::Serve { opts, .. } => {
                let soak = SoakConfig::default();
                assert!(opts.listen.is_none() && !opts.chaos);
                assert_eq!((opts.requests, opts.tenants), (soak.requests, soak.tenants));
                assert_eq!((opts.clients, opts.sim_workers), (soak.clients, soak.sim_workers));
                assert_eq!(opts.nodes, soak.service.nodes);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("serve")).is_err()); // no mode
        assert!(parse(&argv("serve --soak --listen 127.0.0.1:0")).is_err());
        assert!(parse(&argv("serve --soak --requests 0")).is_err());
        assert!(parse(&argv("serve --soak --replan-pct 101")).is_err());
        assert!(parse(&argv("serve --soak --dataset-scale 0")).is_err());
    }

    /// FNV-1a of the parsed command's `Debug` form.
    fn command_digest(line: &str) -> u64 {
        let cmd = parse(&argv(line)).unwrap_or_else(|e| panic!("`{line}` must parse: {e:?}"));
        pareto_datagen::item::stable_hash64(format!("{cmd:?}").as_bytes())
    }

    /// Every argv that CI, the benchmark's `daemon_args()`, the README and
    /// the verify skill spell still parses to the command it parsed to at
    /// df8388d (`bench` apart: its command lost the sampling count, so its
    /// fields are checked below). `--lp-warm` has since been deleted: the
    /// digests were recomputed at 2b741a9, the last commit that parsed it,
    /// with `lp_warm: …, ` cut from the `Debug` text and the flag dropped
    /// from the two argvs that passed it, so the check still compares
    /// against the past. `--tol` went the same way: the two `frontier`
    /// digests were recomputed at 0c3b28f with `tol: 0.001, ` cut.
    #[test]
    #[rustfmt::skip]
    fn documented_argvs_parse_to_the_commands_recorded_at_the_parent_commit() {
        let cases: &[(u64, &str)] = &[
            // .github/workflows/ci.yml
            (0x5ebf_e0ce_cdbf_9a86,
             "run --preset rcv1 --scale 0.25 --seed 7 --nodes 4 --strategy het-energy-aware \
              --workload patterns --faults crash:1@0.3 --trace-out t/trace.json \
              --metrics-out t/metrics.prom --telemetry-out t/dump.json"),
            (0x5b73_5b96_3fc1_88d8,
             "report --input t/dump.json --trace t/trace.json"),
            (0x84dc_d6d4_0026_76ec,
             "plan --preset rcv1 --scale 0.25 --seed 7 --nodes 4 --strategy het-energy-aware \
              --workload patterns --sweep \
              1.0,0.999,0.995,0.99,0.95,0.9,0.75,0.5,0.25,0.1,0.0 --out a.txt \
              --telemetry-out c/dump.json"),
            (0x1731_3af5_7dff_13be,
             "report --input c/dump.json"),
            (0xafac_a57a_a0af_9140,
             "chaos --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 --schedules 64"),
            (0x1e84_bd58_e325_e249,
             "chaos --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 --schedules 16 \
              --inject-corruption --flight-out c/flight-a.json"),
            (0x071b_57e6_9af6_e8e1,
             "run --preset rcv1 --scale 0.1 --seed 7 --nodes 4 --workload patterns \
              --durability wal"),
            (0x82a3_919d_a76f_914b,
             "chaos --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 --schedules 64 \
              --with-elastic"),
            (0x150b_e485_a5a2_bfd2,
             "chaos --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 --schedules 16 \
              --inject-corruption --with-elastic --flight-out e/flight-a.json"),
            (0x0536_735d_8014_61ad,
             "run --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 --elastic \
              join:3@0.5,drain:1@1.0,preempt:2@1.5@5"),
            (0x3f31_cb7c_e320_1565,
             "plan --preset rcv1 --scale 0.04 --seed 31 --nodes 4 --threads 8 \
              --strategy het-energy-aware --workload patterns --sweep \
              1.0,0.999,0.995,0.9,0.5,0.0 --out w/sweep.txt"),
            (0x31a3_b7c2_5b12_149a,
             "frontier --preset rcv1 --scale 0.04 --seed 31 --nodes 4 --threads 8 \
              --strategy het-energy-aware --workload patterns --out w/frontier.json"),
            (0xd894_fbf5_07d9_9b93,
             "serve --soak --requests 1000 --seed 2017 --out s/soak-a.json"),
            (0x4821_93ea_1055_d313,
             "serve --soak --requests 1000 --seed 2017 --threads 4 --out s/soak-b.json"),
            (0x1cec_2470_2c5b_99e2,
             "serve --soak --requests 400 --seed 2017 --clients 16 --sim-workers 1 \
              --queue-cap 2 --out s/soak-overload.json"),
            // benchmark/src/workloads/serve_mixed.rs::daemon_args behind proc.rs's `serve --listen`
            (0xbd13_2549_987c_3024,
             "serve --listen 127.0.0.1:0 --workers 2 --queue-cap 8 --cache-cap 4096 \
              --dataset-scale 0.125 --nodes 8 --threads 1 --seed 2017"),
            // README.md
            (0xd853_48fc_4167_e846,
             "gen --preset rcv1 --scale 0.25 --out corpus.txt"),
            (0x3dec_2951_7707_a580,
             "partition --input corpus.txt --kind text --nodes 8 --strategy het-aware \
              --workload patterns --support 0.1 --out parts/"),
            (0x190f_343a_741a_1ffe,
             "run --preset uk --nodes 8 --strategy het-energy-aware --alpha 0.995 --workload \
              webgraph"),
            (0x9140_767c_0cdc_50c2,
             "run --preset rcv1 --nodes 4 --faults crash:1@2.0,slow:3@4,kv:2@2"),
            (0x8bb0_83ea_fbdb_b881,
             "run --preset rcv1 --nodes 8 --faults seeded:99"),
            (0x1508_190f_9561_8282,
             "run --preset rcv1 --nodes 4 --durability wal"),
            (0xef8e_efe2_cd9e_681f,
             "replan --preset rcv1 --nodes 4 --strategy het-energy-aware --workload patterns \
              --append-scale 0.01 --drop-node 2 --realpha 0.9"),
            (0xaa2d_3663_8d74_4697,
             "frontier --preset rcv1 --scale 0.05 --nodes 4 --objectives time,energy \
              --max-points 48 --out frontier.json"),
            (0x9487_7519_0e75_556a,
             "run --preset rcv1 --nodes 4 --faults crash:2@2.0 --elastic eseeded:99"),
            (0x89ff_5c11_ffad_db82,
             "elastic --preset rcv1 --scale 0.05 --nodes 4 --candidate 3 --out advice.json"),
            (0x823c_453c_9b9f_9bf0,
             "serve --soak --requests 400 --clients 16 --sim-workers 1 --queue-cap 2"),
            (0x35c5_e643_94ae_9820,
             "serve --listen 127.0.0.1:7315 --workers 4"),
            (0x6d13_37c7_723d_789a,
             "report lineage --input dump.json --batch 1"),
            // .claude/skills/verify/SKILL.md
            (0x48ef_6815_3a54_31ca,
             "partition --input /tmp/corpus.txt --kind text --nodes 4 --strategy \
              het-energy-aware --alpha 0.995 --workload patterns --support 0.12 --threads 4 \
              --out /tmp/parts/"),
            (0x35c5_6923_f432_3dc1,
             "run --preset uk --nodes 4 --scale 0.08 --strategy het-aware --workload \
              webgraph --threads 8"),
            (0x444c_e188_c3a2_633a,
             "run --preset rcv1 --scale 0.05 --nodes 4 --seed 31 --faults crash:1@0.5 \
              --telemetry-out /tmp/d.json"),
        ];
        let mismatches: Vec<String> = cases
            .iter()
            .map(|&(golden, line)| (line, command_digest(line), golden))
            .filter(|(_, actual, golden)| actual != golden)
            .map(|(line, actual, _)| format!("{actual:#018x}  {line}"))
            .collect();
        assert!(mismatches.is_empty(), "parsed differently:\n{}", mismatches.join("\n"));

        let bench = "bench --scale 0.02 --nodes 4 --seed 2017 --record r.json --baseline BENCH_17.json";
        match parse(&argv(bench)).unwrap() {
            Command::Bench { common, record, baseline } => {
                assert_eq!((common.scale, common.nodes, common.seed), (0.02, 4, 2017));
                assert_eq!(record, Some(PathBuf::from("r.json")));
                assert_eq!(baseline, Some(PathBuf::from("BENCH_17.json")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
