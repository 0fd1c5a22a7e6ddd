//! `paretofab frontier` end-to-end: the `--out` JSON is byte-identical
//! across repeated runs and across thread counts, and malformed explorer
//! flags exit nonzero with a diagnostic.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_paretofab"))
}

fn out_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("paretofab-frontier-{name}-{}", std::process::id()));
    p
}

/// Run `frontier` with the given extra args, return the JSON written to
/// `--out` (panicking on a nonzero exit).
fn frontier_json(name: &str, extra: &[&str]) -> String {
    let out = out_path(name);
    let status = bin()
        .args([
            "frontier",
            "--preset",
            "rcv1",
            "--nodes",
            "4",
            "--scale",
            "0.05",
            "--seed",
            "31",
            "--max-points",
            "24",
            "--out",
        ])
        .arg(&out)
        .args(extra)
        .output()
        .expect("spawn paretofab");
    assert!(
        status.status.success(),
        "frontier run failed:\n{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let json = std::fs::read_to_string(&out).expect("read --out file");
    let _ = std::fs::remove_file(&out);
    json
}

#[test]
fn out_json_is_byte_identical_across_runs_and_threads() {
    let first = frontier_json("a", &["--threads", "1"]);
    let again = frontier_json("b", &["--threads", "1"]);
    assert_eq!(first, again, "same invocation produced different JSON");

    let threaded = frontier_json("c", &["--threads", "4"]);
    assert_eq!(
        first, threaded,
        "frontier JSON diverged between --threads 1 and --threads 4"
    );

    // Sanity on shape without a JSON parser: the deterministic writer
    // always emits these keys.
    for key in [
        "\"objectives\"",
        "\"baseline\"",
        "\"report\"",
        "\"points\"",
        "\"knee_alpha\"",
        "\"hypervolume_vs_baseline\"",
    ] {
        assert!(first.contains(key), "missing {key} in {first}");
    }
}

#[test]
fn invalid_explorer_flags_exit_nonzero() {
    let cases: &[&[&str]] = &[
        &["frontier", "--preset", "rcv1", "--objectives", "karma"],
        &["frontier", "--preset", "rcv1", "--objectives", ""],
        &["frontier", "--preset", "rcv1", "--tol", "1e-3"],
        &["frontier", "--preset", "rcv1", "--max-points", "0"],
    ];
    for args in cases {
        let out = bin().args(*args).output().expect("spawn paretofab");
        assert!(!out.status.success(), "expected nonzero exit for {args:?}");
        assert!(
            !out.stderr.is_empty(),
            "expected a diagnostic on stderr for {args:?}"
        );
    }
}

#[test]
fn valid_invocation_exits_zero_without_out_file() {
    let out = bin()
        .args([
            "frontier",
            "--preset",
            "rcv1",
            "--nodes",
            "4",
            "--scale",
            "0.05",
            "--seed",
            "31",
            "--objectives",
            "time,energy,transfer",
            "--max-points",
            "16",
        ])
        .output()
        .expect("spawn paretofab");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("frontier"), "summary missing: {stdout}");
    assert!(stdout.contains("knee"), "knee line missing: {stdout}");
}
