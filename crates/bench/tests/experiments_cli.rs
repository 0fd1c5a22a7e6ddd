//! `experiments` argument errors exit 1 with a diagnostic naming the flag
//! instead of reaching the generators.

use std::process::Command;

#[test]
fn invalid_scale_exits_1_naming_the_flag() {
    for scale in ["0", "-1", "nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--scale", scale, "table1"])
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--scale {scale}:\n{stderr}");
        // The first line is the error; the usage line after it names
        // every flag.
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.contains("--scale"),
            "--scale {scale}: flag not named:\n{stderr}"
        );
    }
}
