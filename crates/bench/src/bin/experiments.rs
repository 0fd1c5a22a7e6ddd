//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--scale F] [--seed N] [--threads N] [--out DIR] <command>
//!
//! commands:
//!   table1 | fig2 | fig3 | fig4 | table2 | table3 | fig5 | fig6
//!   ablations      the metric ablations (regression, pipeline, sampling,
//!                  kmodes-L, mean-GE, work stealing, normalized alpha,
//!                  forecast error, supply topology)
//!   faults         fault-injection scenarios (crash, straggler, kv errors,
//!                  network degradation) and their recovery overhead
//!   check          the reproduction gate: PASS/FAIL per headline claim
//!   speedup        planning-throughput curve across worker thread counts
//!                  (wall-clock only — not part of `all`, whose outputs
//!                  must be machine-independent)
//!   telemetry      telemetry-overhead table: recorder off vs on for a
//!                  planning pass and a faulted run, asserting identical
//!                  results (wall-clock only — not part of `all`)
//!   replan         replanning-amortization table: cold plan per alpha vs
//!                  one warm incremental session sweeping the same alphas
//!                  (wall-clock only — not part of `all`)
//!   all            everything above except `speedup`, `telemetry`, and
//!                  `replan`
//! ```
//!
//! Tables print to stdout; with `--out DIR` each also lands as
//! `DIR/<name>.csv`.

use std::path::PathBuf;
use std::process::ExitCode;

use pareto_bench::ablations;
use pareto_bench::claims;
use pareto_bench::experiments::{self, ExpSettings};
use pareto_bench::harness::{write_csv, Table};

struct Args {
    settings: ExpSettings,
    out: Option<PathBuf>,
    command: String,
}

fn parse_args() -> Result<Args, String> {
    let mut settings = ExpSettings::default();
    let mut out = None;
    let mut command = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                // The check `paretofab`'s `--scale` gets: a non-positive
                // or non-finite scale has no corpus to generate.
                settings.scale = v
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))
                    .and_then(|s: f64| {
                        if s > 0.0 && s.is_finite() {
                            Ok(s)
                        } else {
                            Err(format!("bad --scale {v}: must be finite and > 0"))
                        }
                    })?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                settings.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                settings.threads = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
                if settings.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?));
            }
            c if !c.starts_with('-') && command.is_none() => command = Some(c.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        settings,
        out,
        command: command.ok_or("missing command (try `all`)")?,
    })
}

fn emit(table: Table, name: &str, out: &Option<PathBuf>) {
    println!("{}", table.render());
    if let Some(dir) = out {
        if let Err(e) = write_csv(&table, dir, name) {
            eprintln!("warning: failed to write {name}.csv: {e}");
        } else {
            eprintln!("wrote {}/{name}.csv", dir.display());
        }
    }
}

fn run(cmd: &str, st: ExpSettings, out: &Option<PathBuf>) -> Result<(), String> {
    match cmd {
        "table1" => emit(experiments::table1(st), "table1", out),
        "fig2" => emit(experiments::fig2(st).0, "fig2", out),
        "fig3" => emit(experiments::fig3(st).0, "fig3", out),
        "fig4" => emit(experiments::fig4(st).0, "fig4", out),
        "table2" => emit(experiments::table2(st).0, "table2", out),
        "table3" => emit(experiments::table3(st).0, "table3", out),
        "fig5" => emit(experiments::fig5(st).0, "fig5", out),
        "fig6" => emit(experiments::fig6(st).0, "fig6", out),
        "faults" => emit(experiments::faults_experiment(st), "faults", out),
        "speedup" => emit(
            experiments::planning_speedup(st, &experiments::THREAD_SWEEP),
            "speedup",
            out,
        ),
        "telemetry" => emit(experiments::telemetry_overhead(st), "telemetry", out),
        "replan" => emit(experiments::replan_amortization(st), "replan", out),
        "check" => {
            let results = claims::check_claims(st);
            let (table, all) = claims::render_claims(&results);
            emit(table, "check", out);
            if !all {
                return Err("reproduction gate failed".into());
            }
        }
        "ablations" => {
            emit(
                ablations::regression_ablation(st),
                "ablation_regression",
                out,
            );
            emit(ablations::pipeline_ablation(4096), "ablation_pipeline", out);
            emit(ablations::sampling_ablation(st), "ablation_sampling", out);
            emit(ablations::kmodes_l_ablation(st), "ablation_kmodes_l", out);
            emit(ablations::mean_ge_ablation(st), "ablation_mean_ge", out);
            emit(
                ablations::work_stealing_ablation(st),
                "ablation_work_stealing",
                out,
            );
            emit(
                ablations::normalized_alpha_ablation(st),
                "ablation_normalized_alpha",
                out,
            );
            emit(
                ablations::forecast_error_ablation(st),
                "ablation_forecast_error",
                out,
            );
            emit(
                ablations::supply_topology_ablation(st),
                "ablation_supply_topology",
                out,
            );
        }
        "all" => {
            for c in [
                "table1",
                "fig2",
                "fig3",
                "fig4",
                "table2",
                "table3",
                "fig5",
                "fig6",
                "ablations",
                "faults",
                "check",
            ] {
                eprintln!("--- running {c} ---");
                run(c, st, out)?;
            }
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: experiments [--scale F] [--seed N] [--threads N] [--out DIR] \
                 <table1|fig2|fig3|fig4|table2|table3|fig5|fig6|ablations|faults|check|speedup|\
                 telemetry|replan|all>"
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "settings: scale={} seed={} threads={}",
        args.settings.scale, args.settings.seed, args.settings.threads
    );
    match run(&args.command, args.settings, &args.out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
