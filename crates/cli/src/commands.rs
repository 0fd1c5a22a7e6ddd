//! Command implementations.

use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pareto_cluster::{Durability, FaultPlan, FaultSpec, NodeSpec, SimCluster};
use pareto_core::framework::{DurabilityReport, Framework, FrameworkConfig, Quality};
use pareto_core::frontier::{FrontierConfig, FrontierResult, ObjectiveSet};
use pareto_core::{
    advise_join, run_chaos, ChaosConfig, ElasticPlan, ElasticSpec, JoinAdvice, ParetoModeler,
    RecoveryConfig,
};
use pareto_core::PlanSession;
use pareto_datagen::{loaders, writers, DataKind, Dataset};
use pareto_telemetry::{
    event, export, json, report, CaptureSink, FlightRecorder, StderrSink, TeeSink, Telemetry,
};

use pareto_service::{run_soak, PlanService, Server, ServiceConfig, SoakConfig};

use crate::args::{Command, Common, ServeOpts};
use crate::bench;

/// Dispatch a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Gen {
            preset,
            scale,
            seed,
            out,
        } => gen(&preset, scale, seed, &out),
        Command::Partition { common, out } => partition(&common, &out),
        Command::Run { common } => execute(&common),
        Command::Frontier {
            common,
            objectives,
            tol,
            max_points,
            out,
        } => frontier(&common, objectives, tol, max_points, out.as_deref()),
        Command::Report {
            input,
            trace,
            lineage_batch,
        } => report_cmd(&input, trace.as_deref(), lineage_batch),
        Command::Bench {
            common,
            record,
            baseline,
        } => bench::bench_cmd(&common, record.as_deref(), baseline.as_deref()),
        Command::Plan { common, sweep, out } => plan_cmd(&common, &sweep, out.as_deref()),
        Command::Replan {
            common,
            drop_node,
            restore_node,
            realpha,
            append_scale,
        } => replan_cmd(&common, drop_node, restore_node, realpha, append_scale),
        Command::Chaos {
            common,
            schedules,
            inject_corruption,
            with_elastic,
        } => chaos_cmd(&common, schedules, inject_corruption, with_elastic),
        Command::Serve { common, opts, out } => serve_cmd(&common, &opts, out.as_deref()),
        Command::Elastic {
            common,
            candidate,
            out,
        } => elastic_cmd(&common, candidate, out.as_deref()),
    }
}

/// Telemetry wiring for one CLI invocation: an enabled recorder shared by
/// the framework and the simulated cluster, plus a capture sink so the
/// JSON dump includes every structured event. Created only when the user
/// asked for an output file — otherwise commands run with the disabled
/// recorder and pay a single branch per call site.
struct TelemetrySession {
    tel: Arc<Telemetry>,
    capture: Arc<CaptureSink>,
    flight: Arc<FlightRecorder>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    telemetry_out: Option<PathBuf>,
    flight_out: Option<PathBuf>,
}

/// Frames the flight recorder's ring holds: enough for the interesting
/// tail of a failing run without unbounded growth.
const FLIGHT_CAPACITY: usize = 4096;

impl TelemetrySession {
    fn start(common: &Common) -> Option<TelemetrySession> {
        if !common.wants_telemetry() && common.flight_out.is_none() {
            return None;
        }
        let capture = Arc::new(CaptureSink::new());
        let flight = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY));
        event::set_sink(Arc::new(TeeSink(
            Arc::new(TeeSink(Arc::new(StderrSink), capture.clone())),
            flight.clone(),
        )));
        Some(TelemetrySession {
            tel: Telemetry::enabled(),
            capture,
            flight,
            trace_out: common.trace_out.clone(),
            metrics_out: common.metrics_out.clone(),
            telemetry_out: common.telemetry_out.clone(),
            flight_out: common.flight_out.clone(),
        })
    }

    fn recorder(session: &Option<TelemetrySession>) -> Option<Arc<Telemetry>> {
        session.as_ref().map(|s| s.tel.clone())
    }

    /// Write the requested exporter files from the final snapshot.
    fn finish(&self) -> Result<(), String> {
        let snapshot = self.tel.snapshot();
        if let Some(path) = &self.trace_out {
            write_text(path, &export::chrome_trace(&snapshot))?;
        }
        if let Some(path) = &self.metrics_out {
            write_text(path, &export::prometheus_text(&snapshot))?;
        }
        if let Some(path) = &self.telemetry_out {
            write_text(path, &export::json_dump(&snapshot, &self.capture.events()))?;
        }
        for (label, path) in [
            ("chrome trace", &self.trace_out),
            ("prometheus metrics", &self.metrics_out),
            ("telemetry dump", &self.telemetry_out),
        ] {
            if let Some(path) = path {
                event::info("cli", format!("wrote {label} to {}", path.display()));
            }
        }
        Ok(())
    }

    /// Dump the flight recorder's ring to `--flight-out` (no-op without
    /// the flag). Absorbs the final telemetry snapshot first so the black
    /// box carries the simulated timeline next to the live event stream.
    fn dump_flight(&self, reason: &str) {
        let Some(path) = &self.flight_out else {
            return;
        };
        self.flight.absorb_snapshot(&self.tel.snapshot());
        match fs::write(path, self.flight.dump_json(reason)) {
            Ok(()) => event::info(
                "cli",
                format!("flight recorder dumped to {} ({reason})", path.display()),
            ),
            Err(e) => event::warn("cli", format!("flight dump {path:?} failed: {e}")),
        }
    }
}

/// Pass `result` through; on failure, dump the flight recorder first so
/// the error leaves a black box behind.
fn flight_guard<T>(
    session: &Option<TelemetrySession>,
    result: Result<T, String>,
    reason: &str,
) -> Result<T, String> {
    if result.is_err() {
        if let Some(s) = session {
            s.dump_flight(reason);
        }
    }
    result
}

fn write_text(path: &Path, contents: &str) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("write {path:?}: {e}"))
}

/// `report`: validate and summarize a `--telemetry-out` dump (and
/// optionally a `--trace-out` chrome trace). `report lineage --batch N`
/// reconstructs one work batch's causal hop chain instead.
fn report_cmd(input: &Path, trace: Option<&Path>, lineage_batch: Option<u32>) -> Result<(), String> {
    let text = fs::read_to_string(input).map_err(|e| format!("read {input:?}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {input:?}: {e}"))?;
    report::validate_dump(&doc).map_err(|e| format!("invalid dump {input:?}: {e}"))?;
    if let Some(batch) = lineage_batch {
        print!("{}", report::lineage_chain(&doc, batch)?);
        return Ok(());
    }
    print!("{}", report::summarize_dump(&doc)?);
    if let Some(tpath) = trace {
        let ttext = fs::read_to_string(tpath).map_err(|e| format!("read {tpath:?}: {e}"))?;
        let tdoc = json::parse(&ttext).map_err(|e| format!("parse {tpath:?}: {e}"))?;
        let stats = report::validate_chrome_trace(&tdoc)
            .map_err(|e| format!("invalid chrome trace {tpath:?}: {e}"))?;
        println!(
            "chrome trace {}: OK — {} events ({} span pairs, {} instants) on {} track(s)",
            tpath.display(),
            stats.events,
            stats.span_pairs,
            stats.instants,
            stats.tracks
        );
    }
    Ok(())
}

fn dataset_from_preset(name: &str, seed: u64, scale: f64) -> Result<Dataset, String> {
    Ok(match name {
        "swissprot" => pareto_datagen::swissprot_syn(seed, scale),
        "treebank" => pareto_datagen::treebank_syn(seed, scale),
        "uk" => pareto_datagen::uk_syn(seed, scale),
        "arabic" => pareto_datagen::arabic_syn(seed, scale),
        "rcv1" => pareto_datagen::rcv1_syn(seed, scale),
        other => return Err(format!("unknown preset {other:?}")),
    })
}

fn load_dataset(common: &Common) -> Result<Dataset, String> {
    if let Some(preset) = &common.preset {
        return dataset_from_preset(preset, common.seed, common.scale);
    }
    let input = common.input.as_ref().expect("validated by the parser");
    let kind = common.kind.expect("validated by the parser");
    let file = fs::File::open(input).map_err(|e| format!("open {input:?}: {e}"))?;
    let name = input
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".into());
    loaders::load(&name, kind, BufReader::new(file)).map_err(|e| format!("load {input:?}: {e}"))
}

fn gen(preset: &str, scale: f64, seed: u64, out: &Path) -> Result<(), String> {
    let ds = dataset_from_preset(preset, seed, scale)?;
    let file = fs::File::create(out).map_err(|e| format!("create {out:?}: {e}"))?;
    writers::write(&ds, BufWriter::new(file)).map_err(|e| format!("write {out:?}: {e}"))?;
    event::info(
        "cli",
        format!(
            "wrote {} ({} records, {} kind) to {}",
            ds.name,
            ds.len(),
            ds.kind,
            out.display()
        ),
    );
    Ok(())
}

fn build_framework_parts(
    common: &Common,
    tel: Option<Arc<Telemetry>>,
) -> (Dataset, SimCluster, FrameworkConfig) {
    let mut cluster = SimCluster::new(NodeSpec::paper_cluster(
        common.nodes,
        400.0,
        2,
        9,
        common.seed,
    ));
    if let Some(tel) = tel {
        cluster = cluster.with_telemetry(tel);
    }
    let cfg = FrameworkConfig {
        strategy: common.strategy,
        layout: common.layout,
        seed: common.seed,
        threads: common.threads,
        lp_warm: common.lp_warm,
        durability: common.durability,
        ..FrameworkConfig::default()
    };
    (Dataset::new("placeholder", DataKind::Text, vec![]), cluster, cfg)
}

fn partition(common: &Common, out: &Path) -> Result<(), String> {
    let session = TelemetrySession::start(common);
    let dataset = load_dataset(common)?;
    let (_, cluster, cfg) = build_framework_parts(common, TelemetrySession::recorder(&session));
    let mut fw = Framework::new(&cluster, cfg);
    if let Some(tel) = TelemetrySession::recorder(&session) {
        fw = fw.with_telemetry(tel);
    }
    let plan = fw
        .try_plan(&dataset, common.workload)
        .map_err(|e| e.to_string())?;

    fs::create_dir_all(out).map_err(|e| format!("mkdir {out:?}: {e}"))?;
    for (node, indices) in plan.partitions.iter().enumerate() {
        let sub = Dataset::new(
            format!("{}-part{node}", dataset.name),
            dataset.kind,
            indices.iter().map(|&i| dataset.items[i].clone()).collect(),
        );
        let path = out.join(format!("partition-{node:02}.txt"));
        let file = fs::File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        writers::write(&sub, BufWriter::new(file)).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    // Plan summary.
    let path = out.join("plan.txt");
    let mut f = BufWriter::new(fs::File::create(&path).map_err(|e| format!("{e}"))?);
    let mut emit = |line: String| {
        let _ = writeln!(f, "{line}");
    };
    emit(format!("dataset: {} ({} records)", dataset.name, dataset.len()));
    emit(format!("strategy: {}", common.strategy.label()));
    emit(format!("sizes: {:?}", plan.sizes));
    emit(format!(
        "planning: {:.3}s total (sketch {:.3}s, stratify {:.3}s, profile {:.3}s, \
         optimize {:.3}s, partition {:.3}s) on {} thread(s)",
        plan.timings.total_s,
        plan.timings.sketch_s,
        plan.timings.stratify_s,
        plan.timings.profile_s,
        plan.timings.optimize_s,
        plan.timings.partition_s,
        common.threads
    ));
    if let Some(point) = &plan.pareto {
        emit(format!("alpha: {}", point.alpha));
        emit(format!("predicted makespan: {:.2}s", point.predicted_makespan));
        emit(format!(
            "predicted dirty energy: {:.1} kJ",
            point.predicted_dirty_joules / 1000.0
        ));
    }
    if let Some(models) = &plan.time_models {
        for m in models {
            emit(format!(
                "node {}: f(x) = {:.6e}*x + {:.3} (R^2 {:.4})",
                m.node_id, m.fit.slope, m.fit.intercept, m.fit.r_squared
            ));
        }
    }
    event::info(
        "cli",
        format!(
            "wrote {} partition files + plan.txt to {}",
            plan.partitions.len(),
            out.display()
        ),
    );
    if let Some(session) = &session {
        session.finish()?;
    }
    Ok(())
}

/// `frontier`: adaptive dominance-based frontier exploration through a
/// warm [`PlanSession`] — a coarse α grid refined by bisecting only
/// intervals whose plans differ, replacing the historical hand-rolled
/// fixed sweep. With `--out` the frontier is written as deterministic
/// JSON (byte-identical across runs and thread counts).
fn frontier(
    common: &Common,
    objectives: ObjectiveSet,
    tol: f64,
    max_points: usize,
    out: Option<&Path>,
) -> Result<(), String> {
    let tel = TelemetrySession::start(common);
    let dataset = load_dataset(common)?;
    let (_, cluster, cfg) = build_framework_parts(common, TelemetrySession::recorder(&tel));
    let mut session = PlanSession::new(&cluster, cfg, dataset, common.workload);
    if let Some(rec) = TelemetrySession::recorder(&tel) {
        session = session.with_telemetry(rec);
    }
    let fcfg = FrontierConfig {
        objectives,
        tol,
        max_points,
        ..FrontierConfig::default()
    };
    let outcome = flight_guard(
        &tel,
        session.explore_frontier(&fcfg).map_err(|e| e.to_string()),
        "plan-error",
    )?;
    let result = &outcome.result;
    let report = result.report();

    println!(
        "adaptive Pareto frontier for {} on {} nodes (objectives {}):",
        session.dataset().name,
        common.nodes,
        result.objectives
    );
    println!(
        "{:>12} {:>12} {:>14} {:>14}  sizes",
        "alpha", "time_s", "dirty_kJ", "transfer_kB"
    );
    for point in &result.points {
        println!(
            "{:>12.6} {:>12.2} {:>14.2} {:>14.2}  {:?}",
            point.alpha,
            point.makespan_s,
            point.dirty_joules / 1000.0,
            point.transfer_bytes / 1000.0,
            point.sizes
        );
    }
    println!(
        "frontier           {} point(s) kept, {} dominated candidate(s) filtered",
        report.points_kept, report.dominated_candidates
    );
    println!(
        "refinement         {} LP solve(s), {} bisection(s), finest alpha gap {:.3e}",
        report.lp_solves, report.bisections, report.finest_gap
    );
    println!(
        "knee               alpha={:.6} time={:.2}s dirty={:.2}kJ",
        report.knee_alpha,
        report.knee_time_s,
        report.knee_dirty_joules / 1000.0
    );
    println!(
        "hypervolume        {:.4e} vs equal-split baseline (time {:.2}s, dirty {:.2}kJ)",
        report.hypervolume_vs_baseline,
        result.baseline.0,
        result.baseline.1 / 1000.0
    );
    println!(
        "frontier cache     {}",
        if outcome.cache_hit { "hit" } else { "miss" }
    );
    print_cache_stats(&session.cache_stats());

    if let Some(path) = out {
        write_text(path, &frontier_json(result))?;
        event::info("cli", format!("wrote frontier JSON to {}", path.display()));
    }
    if let Some(tel) = &tel {
        tel.finish()?;
    }
    Ok(())
}

/// Serialize a frontier deterministically: fixed key order, `{}` float
/// formatting (shortest round-trip representation), no timings — so two
/// runs over the same inputs produce byte-identical files at any thread
/// count.
fn frontier_json(result: &FrontierResult) -> String {
    use std::fmt::Write as _;
    let report = result.report();
    let mut s = String::new();
    s.push_str("{\n  \"objectives\": [");
    for (i, o) in result.objectives.objectives().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\"", o.label());
    }
    s.push_str("],\n");
    let _ = writeln!(
        s,
        "  \"baseline\": {{\"time_s\": {}, \"dirty_joules\": {}}},",
        result.baseline.0, result.baseline.1
    );
    let _ = writeln!(
        s,
        "  \"report\": {{\"points_kept\": {}, \"dominated_candidates\": {}, \
         \"lp_solves\": {}, \"bisections\": {}, \"finest_gap\": {}, \
         \"knee_alpha\": {}, \"knee_time_s\": {}, \"knee_dirty_joules\": {}, \
         \"hypervolume_vs_baseline\": {}}},",
        report.points_kept,
        report.dominated_candidates,
        report.lp_solves,
        report.bisections,
        report.finest_gap,
        report.knee_alpha,
        report.knee_time_s,
        report.knee_dirty_joules,
        report.hypervolume_vs_baseline
    );
    s.push_str("  \"points\": [\n");
    for (i, p) in result.points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"alpha\": {}, \"time_s\": {}, \"dirty_joules\": {}, \
             \"transfer_bytes\": {}, \"sizes\": {:?}}}",
            p.alpha, p.makespan_s, p.dirty_joules, p.transfer_bytes, p.sizes
        );
        s.push_str(if i + 1 < result.points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn execute(common: &Common) -> Result<(), String> {
    let session = TelemetrySession::start(common);
    let dataset = load_dataset(common)?;
    let (_, cluster, cfg) = build_framework_parts(common, TelemetrySession::recorder(&session));
    let mut fw = Framework::new(&cluster, cfg);
    if let Some(tel) = TelemetrySession::recorder(&session) {
        fw = fw.with_telemetry(tel);
    }
    if common.faults.is_some() || common.elastic.is_some() {
        let faults = match &common.faults {
            Some(spec) => FaultPlan::parse(spec, common.nodes).map_err(|e| e.to_string())?,
            None => FaultPlan::none(),
        };
        let elastic = match &common.elastic {
            Some(spec) => ElasticPlan::parse(spec, common.nodes).map_err(|e| e.to_string())?,
            None => ElasticPlan::none(),
        };
        let result = flight_guard(
            &session,
            execute_with_faults(&fw, &dataset, common, &faults, &elastic),
            "run-error",
        );
        if let Some(session) = &session {
            session.finish()?;
        }
        return result;
    }
    let outcome = fw
        .try_run(&dataset, common.workload)
        .map_err(|e| e.to_string())?;

    println!(
        "dataset            {} ({} records)",
        dataset.name,
        dataset.len()
    );
    println!("strategy           {}", common.strategy.label());
    println!("partition sizes    {:?}", outcome.plan.sizes);
    println!("{}", planning_time_line(&outcome.plan, common.threads));
    println!(
        "makespan           {:.2} s",
        outcome.report.makespan_seconds
    );
    println!(
        "dirty energy       {:.1} kJ (linear) / {:.1} kJ (clamped)",
        outcome.report.total_dirty_linear / 1000.0,
        outcome.report.total_dirty_clamped / 1000.0
    );
    println!(
        "total energy       {:.1} kJ",
        outcome.report.total_energy_joules / 1000.0
    );
    println!("imbalance          {:.2}", outcome.report.imbalance());
    match outcome.quality {
        Quality::Mining {
            global_frequent,
            candidates,
            false_positives,
        } => println!(
            "quality            {global_frequent} frequent patterns, \
             {candidates} candidates, {false_positives} false positives pruned"
        ),
        Quality::Compression {
            input_bytes,
            output_bytes,
            ratio,
        } => println!(
            "quality            {input_bytes} -> {output_bytes} bytes (ratio {ratio:.2})"
        ),
    }
    if let Some(dur) = &outcome.durability {
        print_durability(dur)?;
    }
    if let Some(session) = &session {
        session.finish()?;
    }
    Ok(())
}

fn durability_label(mode: Durability) -> &'static str {
    match mode {
        Durability::None => "none",
        Durability::SnapshotOnCheckpoint => "snapshot",
        Durability::Wal => "wal",
    }
}

/// Print the post-run durability verification and fail the command when
/// any node's recovery was not bit-identical.
fn print_durability(dur: &DurabilityReport) -> Result<(), String> {
    println!(
        "durability         {} — {} WAL record(s) across {} node(s)",
        durability_label(dur.mode),
        dur.total_wal_records(),
        dur.nodes.len()
    );
    for node in &dur.nodes {
        println!(
            "                   node {}: {} record(s), {} WAL byte(s), recovery {}",
            node.node_id,
            node.wal_records,
            node.wal_bytes,
            if node.recovered_ok { "ok" } else { "MISMATCH" }
        );
    }
    if !dur.all_recovered() {
        return Err("durability verification failed: recovered state diverged".into());
    }
    Ok(())
}

/// One printable line per plan: α (when the LP ran), sizes, and the LP's
/// predicted objectives. Timing is reported separately so this line stays
/// deterministic across runs.
fn plan_line(plan: &pareto_core::Plan) -> String {
    match &plan.pareto {
        Some(p) => format!(
            "alpha={} sizes={:?} makespan_s={:.4} dirty_kj={:.4}",
            p.alpha,
            plan.sizes,
            p.predicted_makespan,
            p.predicted_dirty_joules / 1000.0
        ),
        None => format!("alpha=- sizes={:?}", plan.sizes),
    }
}

/// The per-stage planning wall-clock, as `run` and `plan` print it.
fn planning_time_line(plan: &pareto_core::Plan, threads: usize) -> String {
    let t = plan.timings;
    format!(
        "planning time      {:.3} s (sketch {:.3} / stratify {:.3} / profile {:.3} / \
         optimize {:.3} / partition {:.3}) on {threads} thread(s)",
        t.total_s, t.sketch_s, t.stratify_s, t.profile_s, t.optimize_s, t.partition_s
    )
}

fn reuse_line(reuse: pareto_core::StageReuse) -> String {
    let flag = |b: bool| if b { "hit" } else { "miss" };
    format!(
        "sketch={} stratify={} profile={} optimize={} partition={}",
        flag(reuse.sketch),
        flag(reuse.stratify),
        flag(reuse.profile),
        flag(reuse.optimize),
        flag(reuse.partition)
    )
}

fn print_cache_stats(stats: &pareto_core::CacheStats) {
    println!("cache events:");
    for (stage, event, count) in stats.events() {
        println!("  {stage}/{event} = {count}");
    }
}

/// `plan`: run the incremental planning engine through a warm
/// [`PlanSession`], optionally sweeping α. The first plan pays the full
/// pipeline; every later α reuses the cached sketch/stratify/profile
/// artifacts, which the printed cache statistics make visible.
fn plan_cmd(common: &Common, sweep: &[f64], out: Option<&Path>) -> Result<(), String> {
    let tel = TelemetrySession::start(common);
    let dataset = load_dataset(common)?;
    let (_, cluster, cfg) = build_framework_parts(common, TelemetrySession::recorder(&tel));
    let mut session = PlanSession::new(&cluster, cfg, dataset, common.workload);
    if let Some(rec) = TelemetrySession::recorder(&tel) {
        session = session.with_telemetry(rec);
    }
    println!(
        "dataset            {} ({} records)",
        session.dataset().name,
        session.dataset().len()
    );
    println!("nodes              {}", common.nodes);

    let mut plans = Vec::new();
    if sweep.is_empty() {
        let plan = flight_guard(&tel, session.plan().map_err(|e| e.to_string()), "plan-error")?;
        println!("plan               {}", plan_line(&plan));
        println!("stage cache        {}", reuse_line(session.last_reuse()));
        println!("{}", planning_time_line(&plan, common.threads));
        plans.push(plan);
    } else {
        for &alpha in sweep {
            session.set_alpha(alpha);
            let plan =
                flight_guard(&tel, session.plan().map_err(|e| e.to_string()), "plan-error")?;
            println!(
                "plan               {}  [{}; {:.4}s]",
                plan_line(&plan),
                reuse_line(session.last_reuse()),
                plan.timings.total_s
            );
            plans.push(plan);
        }
    }
    if plans.len() >= 2 {
        let cold_s = plans[0].timings.total_s;
        let warm: Vec<f64> = plans[1..].iter().map(|p| p.timings.total_s).collect();
        let warm_avg_s = warm.iter().sum::<f64>() / warm.len() as f64;
        println!("sweep-timing: cold_s={cold_s:.6} warm_avg_s={warm_avg_s:.6}");
    }
    print_cache_stats(&session.cache_stats());

    if let Some(path) = out {
        // Deterministic summary (no timings) so CI can diff cold vs warm
        // sweeps byte-for-byte.
        let mut text = String::new();
        for plan in &plans {
            text.push_str(&plan_line(plan));
            text.push('\n');
        }
        write_text(path, &text)?;
        event::info("cli", format!("wrote plan summary to {}", path.display()));
    }
    if let Some(tel) = &tel {
        tel.finish()?;
    }
    Ok(())
}

/// `replan`: plan cold, apply the requested deltas (append records, drop
/// or restore a node, change α), replan warm, and print which stages were
/// recomputed.
fn replan_cmd(
    common: &Common,
    drop_node: Option<usize>,
    restore_node: Option<usize>,
    realpha: Option<f64>,
    append_scale: f64,
) -> Result<(), String> {
    let tel = TelemetrySession::start(common);
    let dataset = load_dataset(common)?;
    let (_, cluster, cfg) = build_framework_parts(common, TelemetrySession::recorder(&tel));
    let mut session = PlanSession::new(&cluster, cfg, dataset, common.workload);
    if let Some(rec) = TelemetrySession::recorder(&tel) {
        session = session.with_telemetry(rec);
    }
    let cold = session.plan().map_err(|e| e.to_string())?;
    println!(
        "cold plan          {}  [{:.4}s]",
        plan_line(&cold),
        cold.timings.total_s
    );

    if append_scale > 0.0 {
        let preset = common
            .preset
            .as_deref()
            .ok_or("--append-scale needs --preset to synthesize the appended records")?;
        // A different seed so the appended records are new content, not a
        // replay of the existing prefix.
        let extra = dataset_from_preset(preset, common.seed.wrapping_add(1), append_scale)?;
        let n = extra.len();
        session.append_items(extra.items);
        println!(
            "delta              appended {n} records (dataset now {})",
            session.dataset().len()
        );
    }
    if let Some(node) = drop_node {
        session.drop_node(node).map_err(|e| e.to_string())?;
        println!(
            "delta              dropped node {node} (roster now {:?})",
            session.roster()
        );
    }
    if let Some(node) = restore_node {
        session.restore_node(node).map_err(|e| e.to_string())?;
        println!(
            "delta              restored node {node} (roster now {:?})",
            session.roster()
        );
    }
    if let Some(alpha) = realpha {
        session.set_alpha(alpha);
        println!("delta              alpha -> {alpha}");
    }

    let warm = session.plan().map_err(|e| e.to_string())?;
    println!(
        "warm replan        {}  [{:.4}s]",
        plan_line(&warm),
        warm.timings.total_s
    );
    println!("stage cache        {}", reuse_line(session.last_reuse()));
    print_cache_stats(&session.cache_stats());
    if let Some(tel) = &tel {
        tel.finish()?;
    }
    Ok(())
}

/// `run --faults` / `run --elastic`: execute through the fault-tolerant
/// path (with any planned roster transitions) and print the structured
/// recovery report next to the usual plan summary.
fn execute_with_faults(
    fw: &Framework,
    dataset: &Dataset,
    common: &Common,
    faults: &FaultPlan,
    elastic: &ElasticPlan,
) -> Result<(), String> {
    let out = fw
        .try_run_with_elastic(
            dataset,
            common.workload,
            faults,
            elastic,
            &RecoveryConfig::default(),
        )
        .map_err(|e| e.to_string())?;
    let rec = &out.outcome.recovery;
    println!(
        "dataset            {} ({} records)",
        dataset.name,
        dataset.len()
    );
    println!("strategy           {}", common.strategy.label());
    println!("partition sizes    {:?}", out.plan.sizes);
    println!("faults injected    {}", rec.faults_injected);
    for ev in faults.events() {
        println!("                   node {} <- {:?}", ev.node_id, ev.kind);
    }
    if !elastic.is_empty() {
        println!("roster events      {}", elastic.len());
        for ev in elastic.events() {
            println!("                   node {} <- {:?}", ev.node_id, ev.kind);
        }
        println!(
            "elastic            {} join(s), {} drain(s), {} preempt(s); left nodes {:?}",
            rec.joins_applied, rec.drains_applied, rec.preempts_applied, rec.left_nodes
        );
        println!(
            "handoffs           {} record(s) covering {} item(s), {} store retry(ies)",
            rec.handoff_records, rec.items_handed_off, rec.handoff_retries
        );
    }
    println!(
        "crashed nodes      {:?} ({} replans, {} retries, {} speculative steals)",
        rec.crashed_nodes, rec.replans, rec.retries_spent, rec.speculative_steals
    );
    println!(
        "items              {}/{} completed ({} reassigned, {} stolen){}",
        rec.items_completed,
        rec.items_total,
        rec.items_reassigned,
        rec.items_stolen,
        if rec.exactly_once {
            " — exactly once"
        } else {
            " — INCOMPLETE"
        }
    );
    println!(
        "makespan           {:.2} s vs {:.2} s fault-free (+{:.1}%)",
        rec.makespan_s,
        rec.fault_free_makespan_s,
        rec.makespan_overhead * 100.0
    );
    println!(
        "dirty energy       {:.1} kJ vs {:.1} kJ fault-free ({:+.1} kJ)",
        rec.dirty_linear_j / 1000.0,
        rec.fault_free_dirty_linear_j / 1000.0,
        rec.dirty_overhead_j / 1000.0
    );
    if !rec.exactly_once {
        return Err(format!(
            "{} of {} items lost (all nodes failed)",
            rec.items_total - rec.items_completed,
            rec.items_total
        ));
    }
    Ok(())
}

/// `chaos`: sweep seeded fault schedules through the executor + invariant
/// auditor and shrink every violation to a minimal reproducing `--faults`
/// spec. Exit codes are CI-oriented: a clean sweep succeeds, a violation
/// fails — unless `--inject-corruption` planted one on purpose, in which
/// case *catching* it is the success condition and the stable
/// `minimal-spec:` line is printed for diffing across runs.
fn chaos_cmd(
    common: &Common,
    schedules: u32,
    inject_corruption: bool,
    with_elastic: bool,
) -> Result<(), String> {
    let session = TelemetrySession::start(common);
    let dataset = load_dataset(common)?;
    let (_, cluster, cfg) = build_framework_parts(common, TelemetrySession::recorder(&session));
    let tel = TelemetrySession::recorder(&session).unwrap_or_else(Telemetry::disabled);
    let chaos = ChaosConfig {
        schedules,
        seed: common.seed,
        spec: FaultSpec::storage(),
        recovery: RecoveryConfig::default(),
        inject_corruption,
        elastic: with_elastic.then(ElasticSpec::default),
    };
    let report = flight_guard(
        &session,
        run_chaos(&cluster, &dataset, common.workload, &cfg, &chaos, &tel)
            .map_err(|e| e.to_string()),
        "chaos-error",
    )?;

    println!(
        "dataset            {} ({} records)",
        dataset.name,
        dataset.len()
    );
    println!(
        "chaos              {} schedule(s) from seed {}, {} invariant checks{}",
        report.schedules_run,
        common.seed,
        report.checks,
        if with_elastic {
            " (elastic roster churn composed)"
        } else {
            ""
        }
    );
    for failure in &report.failures {
        println!("violation          schedule seed {}", failure.schedule_seed);
        println!("                   full spec: {}", failure.spec);
        for v in &failure.violations {
            println!("                   {v}");
        }
        // Stable one-line reproducer, greppable/diffable by CI.
        println!("minimal-spec: {}", failure.minimal_spec);
    }
    if !report.failures.is_empty() {
        if let Some(session) = &session {
            session.dump_flight("chaos-violation");
        }
    }
    if let Some(session) = &session {
        session.finish()?;
    }
    if inject_corruption {
        if report.failures.is_empty() {
            return Err(
                "--inject-corruption planted a corrupted schedule but the auditor caught nothing"
                    .into(),
            );
        }
        println!(
            "result             planted corruption caught and shrunk ({} failing schedule(s))",
            report.failures.len()
        );
        return Ok(());
    }
    if !report.is_clean() {
        return Err(format!(
            "{} of {} schedule(s) violated invariants",
            report.failures.len(),
            report.schedules_run
        ));
    }
    println!("result             all schedules clean");
    Ok(())
}

/// `elastic`: the autoscaling advisor. Plan the full roster once (cold),
/// drop the candidate and replan warm (the printed stage cache shows the
/// sketch/stratify/profile artifacts surviving the roster change), then
/// ask [`advise_join`] whether re-admitting the candidate pays for the
/// data migration its LP share would cost, and restore the roster warm.
fn elastic_cmd(
    common: &Common,
    candidate: Option<usize>,
    out: Option<&Path>,
) -> Result<(), String> {
    let tel = TelemetrySession::start(common);
    let dataset = load_dataset(common)?;
    let (_, cluster, cfg) = build_framework_parts(common, TelemetrySession::recorder(&tel));
    let candidate = candidate.unwrap_or(common.nodes.saturating_sub(1));
    let backlog_items = dataset.len();
    let total_bytes: u64 = dataset
        .items
        .iter()
        .map(|i| i.payload.to_bytes().len() as u64)
        .sum();
    let bytes_per_item = if backlog_items == 0 {
        0
    } else {
        total_bytes / backlog_items as u64
    };
    let mut session = PlanSession::new(&cluster, cfg, dataset, common.workload);
    if let Some(rec) = TelemetrySession::recorder(&tel) {
        session = session.with_telemetry(rec);
    }

    let cold = session.plan().map_err(|e| e.to_string())?;
    println!(
        "cold plan          {}  [{:.4}s]",
        plan_line(&cold),
        cold.timings.total_s
    );
    let models = cold.time_models.as_ref().ok_or_else(|| {
        format!(
            "strategy {} fits no per-node time models; the advisor needs \
             het-aware or an energy-aware strategy",
            common.strategy.label()
        )
    })?;
    let fits: Vec<_> = models.iter().map(|m| m.fit).collect();
    let modeler =
        ParetoModeler::new(fits, cold.energy_profiles.clone()).map_err(|e| e.to_string())?;
    let alpha = common.strategy.alpha();

    session.drop_node(candidate).map_err(|e| e.to_string())?;
    let without = session.plan().map_err(|e| e.to_string())?;
    println!(
        "without candidate  {}  [{}]",
        plan_line(&without),
        reuse_line(session.last_reuse())
    );

    let advice = advise_join(
        &cluster,
        &modeler,
        session.roster(),
        candidate,
        backlog_items,
        bytes_per_item,
        alpha,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "advisor            candidate {} over roster {:?} ({} backlog items)",
        advice.candidate, advice.roster, advice.backlog_items
    );
    println!(
        "makespan           {:.4} s current -> {:.4} s joined (payoff {:+.4} s)",
        advice.current_makespan_s, advice.joined_makespan_s, advice.payoff_s
    );
    println!(
        "migration          {} item(s), {} byte(s), {:.4} s before the candidate contributes",
        advice.migration_items, advice.migration_bytes, advice.migration_seconds
    );
    println!(
        "verdict            {}",
        if advice.worthwhile {
            "join: the makespan win pays for the migration"
        } else {
            "stay: migration costs more than the join saves"
        }
    );

    session.restore_node(candidate).map_err(|e| e.to_string())?;
    let restored = session.plan().map_err(|e| e.to_string())?;
    println!(
        "restored roster    {}  [{}]",
        plan_line(&restored),
        reuse_line(session.last_reuse())
    );
    print_cache_stats(&session.cache_stats());

    if let Some(path) = out {
        write_text(path, &advice_json(&advice))?;
        event::info("cli", format!("wrote elastic advice to {}", path.display()));
    }
    if let Some(tel) = &tel {
        tel.finish()?;
    }
    Ok(())
}

/// `serve`: the plan-serving daemon. `--soak` replays a seeded
/// closed-loop traffic mix — injected solver stalls, crashes, and
/// overload included — through the service core in simulated time and
/// emits a deterministic summary JSON (bit-identical for a given seed
/// across runs and planning thread counts; wall-clock is printed
/// separately and never enters the JSON). `--listen` serves live TCP
/// until the process is killed.
fn serve_cmd(common: &Common, opts: &ServeOpts, out: Option<&Path>) -> Result<(), String> {
    let tel = TelemetrySession::start(common);
    let service = ServiceConfig {
        seed: common.seed,
        nodes: opts.nodes,
        threads: common.threads,
        cache_capacity: opts.cache_cap,
        dataset_scale: opts.dataset_scale,
        queue_capacity: opts.queue_cap,
        workers: opts.workers,
        ..ServiceConfig::default()
    };

    if let Some(addr) = &opts.listen {
        let svc = Arc::new(PlanService::new(service, TelemetrySession::recorder(&tel)));
        let server = Server::start(svc);
        let listener = std::net::TcpListener::bind(addr.as_str())
            .map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        println!(
            "serving plan requests on {local} ({} workers, queue capacity {})",
            opts.workers, opts.queue_cap
        );
        server
            .serve_tcp(listener)
            .join()
            .map_err(|_| "accept loop panicked".to_string())?;
        return Ok(());
    }

    let cfg = SoakConfig {
        service,
        requests: opts.requests,
        tenants: opts.tenants,
        clients: opts.clients,
        sim_workers: opts.sim_workers,
        replan_pct: opts.replan_pct,
        chaos: opts.chaos,
        ..SoakConfig::default()
    };
    let wall = std::time::Instant::now();
    let soak = run_soak(cfg, TelemetrySession::recorder(&tel));
    let wall_s = wall.elapsed().as_secs_f64();

    let o = &soak.outcomes;
    println!(
        "requests           {} issued, {} terminal",
        soak.issued,
        o.total()
    );
    println!(
        "outcomes           served={} degraded={} shed={} error={}",
        o.served, o.degraded, o.shed, o.error
    );
    println!(
        "resilience         shed_events={} retries={} coalesced={} stalls={} crashes={}",
        soak.shed_events, soak.retries, soak.coalesced, soak.stalls_injected,
        soak.crashes_injected
    );
    let hit_rate =
        soak.cache_hits as f64 / (soak.cache_hits + soak.cache_misses).max(1) as f64;
    println!(
        "stage cache        {} hits / {} misses ({:.1}% hit rate), {} evictions",
        soak.cache_hits,
        soak.cache_misses,
        100.0 * hit_rate,
        soak.cache_evictions
    );
    println!(
        "latency            p50={} p99={} sim ticks",
        soak.latency_p50, soak.latency_p99
    );
    // Wall-clock is operator information only — deliberately kept out of
    // the gated deterministic JSON.
    println!("soak-wall          {wall_s:.3}s");

    match out {
        Some(path) => {
            write_text(path, &soak.json)?;
            event::info("cli", format!("wrote soak summary to {}", path.display()));
        }
        None => println!("{}", soak.json),
    }
    if let Some(tel) = &tel {
        tel.finish()?;
    }
    if soak.audit_violations > 0 {
        return Err(format!(
            "soak audit violations: {}",
            soak.audit_violations
        ));
    }
    Ok(())
}

/// Serialize a [`JoinAdvice`] deterministically: fixed key order and `{}`
/// float formatting (shortest round-trip representation), so two runs
/// over the same inputs produce byte-identical files at any thread count.
fn advice_json(a: &JoinAdvice) -> String {
    format!(
        "{{\n  \"candidate\": {},\n  \"roster\": {:?},\n  \"backlog_items\": {},\n  \
         \"current_makespan_s\": {},\n  \"joined_makespan_s\": {},\n  \
         \"migration_items\": {},\n  \"migration_bytes\": {},\n  \
         \"migration_seconds\": {},\n  \"payoff_s\": {},\n  \"worthwhile\": {}\n}}\n",
        a.candidate,
        a.roster,
        a.backlog_items,
        a.current_makespan_s,
        a.joined_makespan_s,
        a.migration_items,
        a.migration_bytes,
        a.migration_seconds,
        a.payoff_s,
        a.worthwhile
    )
}
