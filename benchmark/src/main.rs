//! `pareto-perf`: the repo's performance benchmark (see `README.md` in
//! this directory). Start it through `benchmark/run.sh`, which builds the
//! shipped CLI and this harness first.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload
//! run.sh [--seed N] [--seconds S] [--trace]                 all four
//! run.sh --check [--seed N] [--seconds S]                   all four, twice, compared
//! ```
//!
//! A one-workload run prints `name = value unit` per metric and, as its
//! last line, the result as one JSON object.

mod json;
mod ledger;
mod proc;
mod rng;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Value;
use trace::Tracer;

/// Where the traced run and the all-workloads run leave their files.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    spec: bool,
    paretofab: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2017,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        check: false,
        spec: false,
        paretofab: PathBuf::from("target/release/paretofab"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--paretofab" => args.paretofab = PathBuf::from(value("a path")?),
            // `--trace 1`, `--trace 0`, or bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => args.check = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if !spec::WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}` (want one of {})",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

/// One finished run: the contract's result object.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in spec order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
    }
}

fn note_failures(rec: &workloads::Recorder) {
    for note in &rec.notes {
        eprintln!("FAILED {note}");
    }
}

fn build<'a>(args: &'a Args, name: &str) -> workloads::Round<'a> {
    workloads::build(name, args.seed, &args.paretofab).expect("workload name was validated")
}

/// The untraced run: every end-to-end metric.
fn run_untraced(args: &Args, name: &str) -> Result<RunResult, String> {
    let mut workload = build(args, name);
    let rec = workloads::measure(&mut workload, args.seconds, &mut Tracer::off())?;
    note_failures(&rec);
    let values = workloads::end_to_end(&rec, proc::peak_rss_mib(None)?)?;
    let n = rec.latencies_s.len();
    println!(
        "{name}: {} rounds, {} ops attempted, {} failed, {n} latency samples pooled{}",
        rec.setup_s.len(),
        rec.attempted,
        rec.failed,
        if stats::tail_supported(n, 90.0) {
            ""
        } else {
            " (fewer than 10 beyond p90)"
        },
    );
    let rates: Vec<String> = rec
        .round_ops_per_s
        .iter()
        .map(|r| format!("{r:.3}"))
        .collect();
    println!("{name}: ops_per_s by round: {}", rates.join(" "));
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .expect("every metric computed")
                .1;
            (m.name, value, m.unit)
        })
        .collect();
    Ok(RunResult {
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
    })
}

/// The traced run: the per-layer ledger, then one round of the workload
/// with spans on and one with spans off; every per-layer metric, and the
/// spans in `benchmark/out/trace.json`.
fn run_traced(args: &Args, name: &str) -> Result<RunResult, String> {
    let mut tr = Tracer::on(Instant::now(), 0);
    let mut values = ledger::Ledger::new(args.seed).run(&mut tr)?;

    let mut workload = build(args, name);
    let traced = workloads::measure_first_round(&mut workload, &mut tr)?;
    let untraced = workloads::measure_first_round(&mut workload, &mut Tracer::off())?;
    note_failures(&traced);
    note_failures(&untraced);
    let rate = |rec: &workloads::Recorder| stats::median(&rec.round_ops_per_s);
    if traced.latencies_s.is_empty() || untraced.latencies_s.is_empty() {
        return Err(format!("{name}: a traced-run round completed no operation"));
    }
    values.insert("trace.overhead_ratio", rate(&traced) / rate(&untraced));

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace.json");
    std::fs::write(&path, tr.to_json(name, args.seed).render() + "\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("{name}: {} spans written to {path}", tr.spans().len());
    println!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (span, (count, total_s, self_s)) in tr.summary() {
        println!("{span:<28} {count:>9} {total_s:>12.6} {self_s:>12.6}");
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .ok_or(format!("ledger did not measure {}", m.name))?;
            Ok((m.name, value, m.unit))
        })
        .collect::<Result<_, String>>()?;
    let (attempted, failed) = (
        traced.attempted + untraced.attempted,
        traced.failed + untraced.failed,
    );
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Run one workload in this process and print its result line last. A
/// run that printed its result succeeded as a run; whether the program's
/// outputs were right is the result's `correct`.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let result = if args.trace {
        run_traced(args, name)?
    } else {
        run_untraced(args, name)?
    };
    result.print();
    println!("{}", result.to_json().render());
    Ok(true)
}

/// Run every workload, each in a process of its own (so `peak_rss_mib`
/// is that workload's alone); returns workload -> parsed result.
fn run_all(args: &Args) -> Result<Vec<(String, Value)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut results = Vec::new();
    for w in spec::WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--paretofab")
            .arg(&args.paretofab)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name, out.status));
        }
        let last = stdout
            .lines()
            .last()
            .ok_or(format!("{} printed nothing", w.name))?;
        let result = json::parse(last).map_err(|e| format!("{} result line: {e}", w.name))?;
        if args.trace {
            // One trace file per workload instead of the last one winning.
            let kept = format!("{OUT_DIR}/trace-{}.json", w.name);
            std::fs::rename(format!("{OUT_DIR}/trace.json"), &kept)
                .map_err(|e| format!("keep {kept}: {e}"))?;
        }
        results.push((w.name.to_string(), result));
    }
    Ok(results)
}

fn all_correct(results: &[(String, Value)]) -> bool {
    results
        .iter()
        .all(|(_, r)| r.get("correct").and_then(Value::as_bool) == Some(true))
}

fn write_results(results: &[(String, Value)], file: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, Value::Obj(results.to_vec()).render() + "\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("results written to {path}");
    Ok(())
}

fn metric_value(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `--check`: two sets of runs of the same code must agree on every
/// end-to-end metric within its bound. A drifting host calibration is
/// reported apart, so a noisy box is not mistaken for an unsteady metric.
fn check(args: &Args) -> Result<bool, String> {
    let calibrate = || {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                ledger::host_calibration();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&samples)
    };
    let calib_a = calibrate();
    let first = run_all(args)?;
    let calib_b = calibrate();
    let second = run_all(args)?;
    write_results(&first, "check-first.json")?;
    write_results(&second, "check-second.json")?;

    let mut agreed = all_correct(&first) && all_correct(&second);
    if !agreed {
        println!("DISAGREE a run failed its correctness checks");
    }
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for m in spec::END_TO_END {
            let (va, vb) = match (metric_value(a, m.name), metric_value(b, m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("{name}: result lacks {}", m.name)),
            };
            let ok = stats::within_bound(m, va, vb) && stats::within_bound(m, vb, va);
            agreed &= ok;
            println!(
                "{} {name}.{}: {va} vs {vb} {} ({:+.2} %, bound {} %)",
                if ok { "agree   " } else { "DISAGREE" },
                m.name,
                m.unit,
                100.0 * stats::worsening(va, vb, m.better),
                100.0 * m.bound,
            );
        }
    }
    let drift = (calib_b - calib_a).abs() / calib_a;
    println!(
        "host.calib_s = {calib_a} s then {calib_b} s ({:.2} % drift)",
        100.0 * drift
    );
    if drift > 0.10 {
        println!("noisy host: the calibration loop drifted more than 10 % between the sets");
    }
    Ok(agreed)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.spec {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if !Path::new(&args.paretofab).is_file() {
        return Err(format!(
            "{} is not built (start the benchmark through benchmark/run.sh)",
            args.paretofab.display()
        ));
    }
    if args.check {
        return check(&args);
    }
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => {
            let results = run_all(&args)?;
            write_results(&results, "result.json")?;
            Ok(all_correct(&results))
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("pareto-perf: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse_args(&argv(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let a = parse_args(&argv(&["--trace", "0", "--seed", "3"])).unwrap();
        assert_eq!((a.seed, a.trace, a.workload.is_none()), (3, false, true));
        assert!(parse_args(&argv(&["--trace"])).unwrap().trace);
        assert_eq!(parse_args(&[]).unwrap().seed, 2017);
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("ops_per_s", 6.123456789012345, "1/s"),
                ("setup_s", 0.8127, "s"),
            ],
        };
        let line = result.to_json().render();
        assert!(!line.contains('\n'));
        let back = json::parse(&line).unwrap();
        assert_eq!(back, result.to_json());
        let keys: Vec<&str> = back
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_value(&back, "ops_per_s"), Some(6.123456789012345));
        assert_eq!(
            back.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
        assert!(line.contains("\"attempted\":1000,\"failed\":0"));
    }
}
