//! Argument validation of the `bench` binary: a bad `--threads` value
//! prints the usage line and exits 2 before any graph is built, like
//! the scenario runner's `threads` key.

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
