//! `paretofab` output goldens: for the argv of every CI job that writes a
//! deterministic artifact, the bytes of that artifact (an `--out` file,
//! the wall-time-free stdout, or the gated `bench metric` lines) are
//! pinned as FNV-1a digests.
//!
//! The digests were recorded at df8388d — the commit before the flag
//! table, the shared dispatcher and the `bench` reduction — by running
//! this file there (with `--iters 2` appended to the bench argv, the
//! value CI passed and every committed `BENCH_*.json` used). "No
//! behaviour change on valid input" is therefore checked against the
//! past, not against the refactor itself.

use std::path::PathBuf;
use std::process::Command;

/// FNV-1a over bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Which bytes of an invocation are pinned.
#[derive(Clone, Copy)]
enum Pin {
    /// The file written to `--out` (appended to the argv by the runner).
    OutFile,
    /// All of stdout (the command prints no wall-clock figures).
    Stdout,
    /// Only the `bench metric … [gated]` lines of stdout.
    GatedLines,
}

const SWEEP_CACHE: &str = "1.0,0.999,0.995,0.99,0.95,0.9,0.75,0.5,0.25,0.1,0.0";
const SWEEP_WARM: &str = "1.0,0.999,0.995,0.9,0.5,0.0";

/// `name`, the argv as `ci.yml` (or, for `elastic`, the README) spells
/// it, what is pinned, and the digest recorded at the parent commit.
fn cases() -> Vec<(&'static str, String, Pin, u64)> {
    let mut cases = vec![
        (
            "cache-reuse/plan-sweep",
            format!(
                "plan --preset rcv1 --scale 0.25 --seed 7 --nodes 4 --strategy het-energy-aware \
                 --workload patterns --sweep {SWEEP_CACHE}"
            ),
            Pin::OutFile,
            0xb4f6_0a8c_560a_0788,
        ),
        (
            "elastic/advice",
            "elastic --preset rcv1 --scale 0.05 --nodes 4 --candidate 3".to_string(),
            Pin::OutFile,
            0xcd52_2573_d5bd_19bb,
        ),
        (
            "service-soak/gate",
            "serve --soak --requests 200 --seed 2017".to_string(),
            Pin::OutFile,
            0x337d_d57f_a3b4_f017,
        ),
        (
            "service-soak/gate-threads-4",
            "serve --soak --requests 200 --seed 2017 --threads 4".to_string(),
            Pin::OutFile,
            0x337d_d57f_a3b4_f017,
        ),
        (
            "service-soak/overload",
            "serve --soak --requests 200 --seed 2017 --clients 16 --sim-workers 1 --queue-cap 2"
                .to_string(),
            Pin::OutFile,
            0xcd74_cfdf_fcb7_348c,
        ),
        (
            "bench-regression/gated",
            "bench --scale 0.02 --nodes 4 --seed 2017".to_string(),
            Pin::GatedLines,
            0x1c25_c393_13f2_8573,
        ),
        (
            "telemetry/faulted-run",
            "run --preset rcv1 --scale 0.25 --seed 7 --nodes 4 --strategy het-energy-aware \
             --workload patterns --faults crash:1@0.3"
                .to_string(),
            Pin::Stdout,
            0x9fe7_83eb_11a9_c045,
        ),
        (
            "chaos-smoke/injected-corruption",
            "chaos --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 --schedules 16 \
             --inject-corruption"
                .to_string(),
            Pin::Stdout,
            0xdea8_f5a4_1333_718c,
        ),
        (
            "elastic-chaos-smoke/combined-shrink",
            "chaos --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 --schedules 16 \
             --inject-corruption --with-elastic"
                .to_string(),
            Pin::Stdout,
            0xd4c6_152a_23cb_c427,
        ),
        (
            "elastic-chaos-smoke/elastic-run",
            "run --preset rcv1 --scale 0.05 --seed 2017 --nodes 4 \
             --elastic join:3@0.5,drain:1@1.0,preempt:2@1.5@5"
                .to_string(),
            Pin::Stdout,
            0xfc95_3f3e_ef20_2204,
        ),
    ];
    // lp-warm-identity: per seed, the warm serial run and the cold
    // 4-thread run must both produce the recorded bytes.
    for (seed, sweep, frontier) in [
        (11u64, 0x8d54_77ee_1c53_e586u64, 0x7320_0bcc_15cf_05a5u64),
        (31, 0x9b99_b109_a827_7e07, 0x399e_0101_0932_e9b0),
        (2017, 0xede7_f2da_1d41_fcc8, 0x1715_2764_fbaf_5730),
    ] {
        for (threads, mode) in [(1, "on"), (4, "off")] {
            let common = format!(
                "--preset rcv1 --scale 0.04 --seed {seed} --nodes 4 --threads {threads} \
                 --lp-warm {mode} --strategy het-energy-aware --workload patterns"
            );
            cases.push((
                "lp-warm-identity/plan-sweep",
                format!("plan {common} --sweep {SWEEP_WARM}"),
                Pin::OutFile,
                sweep,
            ));
            cases.push((
                "lp-warm-identity/frontier",
                format!("frontier {common}"),
                Pin::OutFile,
                frontier,
            ));
        }
    }
    cases
}

/// Run one case and return the digest of its pinned bytes.
fn run_case(index: usize, argv: &str, pin: Pin) -> u64 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paretofab"));
    cmd.args(argv.split_whitespace());
    let out_file: Option<PathBuf> = matches!(pin, Pin::OutFile).then(|| {
        let mut p = std::env::temp_dir();
        p.push(format!("paretofab-golden-{index}-{}", std::process::id()));
        p
    });
    if let Some(path) = &out_file {
        cmd.arg("--out").arg(path);
    }
    let output = cmd.output().expect("spawn paretofab");
    assert!(
        output.status.success(),
        "`paretofab {argv}` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    match pin {
        Pin::OutFile => {
            let path = out_file.expect("OutFile cases carry a path");
            let bytes = std::fs::read(&path).expect("read --out file");
            let _ = std::fs::remove_file(&path);
            digest(&bytes)
        }
        Pin::Stdout => digest(&output.stdout),
        Pin::GatedLines => {
            let stdout = String::from_utf8_lossy(&output.stdout);
            let gated: Vec<&str> = stdout
                .lines()
                .filter(|l| l.starts_with("bench metric") && l.ends_with("[gated]"))
                .collect();
            assert_eq!(gated.len(), 14, "the bench gate has 14 rows:\n{stdout}");
            digest(gated.join("\n").as_bytes())
        }
    }
}

#[test]
fn ci_artifacts_match_the_bytes_recorded_at_the_parent_commit() {
    let mut mismatches = Vec::new();
    for (index, (name, argv, pin, golden)) in cases().into_iter().enumerate() {
        let actual = run_case(index, &argv, pin);
        if actual != golden {
            mismatches.push(format!("{name}: {actual:#018x} (pinned {golden:#018x})\n    {argv}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} artifact(s) diverged from the recorded bytes:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
