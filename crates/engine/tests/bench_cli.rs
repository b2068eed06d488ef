//! Argument validation of the `bench` binary: a bad `--threads` value,
//! a flag missing its value and an unreadable baseline print the usage
//! line and exit 2 before any graph is built, like the scenario
//! runner's `threads` key.

use std::path::Path;
use std::process::Command;

#[test]
fn bad_thread_counts_exit_2_with_usage() {
    let cases: [&[&str]; 5] = [
        &["--threads", "0"],
        &["--threads", "two"],
        &["--threads", "513"],
        &["--threads", "-1"],
        &["--quick", "--threads"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("bench starts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: bench"), "{args:?}: {err}");
        assert!(err.contains("1..=512"), "{args:?}: {err}");
    }
}

#[test]
fn missing_flag_values_exit_2_without_writing() {
    let cases: [&[&str]; 7] = [
        &["--quick", "--check"],
        &["--check", "--quick"],
        &["--quick", "--out"],
        &["--out", "--quick"],
        &["--quick", "--profile"],
        &["--profile", "--quick"],
        &["--quick", "--check", "no-such-baseline.json"],
    ];
    // A fresh working directory: a run that went ahead would write its
    // default `BENCH_engine.json` (or a trace file) here, so it must
    // stay empty.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_cli_flag_values");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("bench starts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: bench"), "{args:?}: {err}");
        assert!(
            !err.contains("bench: geometric"),
            "{args:?} built a graph: {err}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("read scratch directory")
            .map(|e| e.expect("directory entry").file_name())
            .collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
