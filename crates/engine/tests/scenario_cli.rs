//! The scenario runner's regression gate: `scenario CONFIG --check
//! BASELINE` driven end to end on a one-cell config, and the properties
//! of `scenario::scrub` that make whole-row comparison a gate.

use congest::RunStats;
use engine::scenario::{scrub, Row, SCRUBBED};
use std::path::{Path, PathBuf};
use std::process::Command;

/// One cell on the simulator, with every instrumentation column on.
const CELL: &str = "engine = \"sim\"\nrecord_metrics = true\n\n[[run]]\nfamily = \"grid\"\n\
                    sizes = [16]\nalgorithms = [\"bfs\"]\n";

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("scenario_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Writes `text` to `dir/name` and returns the path as a string.
fn write(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path.to_str().expect("UTF-8 path").to_owned()
}

/// Runs the `scenario` binary: (exit code, stdout, stderr).
fn scenario(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("scenario starts");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn check_passes_on_own_output_and_fails_on_any_drift() {
    let dir = scratch("drift");
    let config = write(&dir, "cell.toml", CELL);
    let (code, rows, err) = scenario(&[&config]);
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(rows.lines().count(), 1, "{rows}");
    let own = write(&dir, "own.jsonl", &rows);
    let (code, out, err) = scenario(&[&config, "--check", &own]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.is_empty(), "--check writes no rows: {out}");

    // One pinned value edited: both rows are printed.
    let rounds = &rows[rows.find("\"rounds\":").unwrap()..];
    let rounds = &rounds[..rounds.find(',').unwrap()];
    let edited = rows.replace(rounds, "\"rounds\":999");
    let edited = write(&dir, "edited.jsonl", &edited);
    let (code, _, err) = scenario(&[&config, "--check", &edited]);
    assert_eq!(code, Some(1), "{err}");
    let baseline = err
        .lines()
        .find(|l| l.contains("baseline:"))
        .expect("baseline row");
    let current = err
        .lines()
        .find(|l| l.contains("current:"))
        .expect("current row");
    assert!(baseline.contains("\"rounds\":999"), "{err}");
    assert!(current.contains(rounds), "{err}");

    // An extra row, and a missing one.
    for (name, text) in [
        ("extra.jsonl", rows.repeat(2)),
        ("missing.jsonl", String::new()),
    ] {
        let baseline = write(&dir, name, &text);
        let (code, _, err) = scenario(&[&config, "--check", &baseline]);
        assert_eq!(code, Some(1), "{name}: {err}");
        assert!(err.contains("(none)"), "{name}: {err}");
    }
}

#[test]
fn check_usage_errors_exit_2_before_any_cell_runs() {
    let dir = scratch("usage");
    // The trace file is created when the sweep starts, so its absence
    // shows that no cell ran.
    let trace = dir.join("trace.jsonl");
    let traced = format!("trace = \"{}\"\n{CELL}", trace.display());
    let config = write(&dir, "traced.toml", &traced);
    let unreadable = dir.join("no-such-baseline.jsonl");
    let unreadable = unreadable.to_str().unwrap();
    let empty = write(&dir, "empty.jsonl", "");
    // `--print-default` and `--help` are accepted only alone: next to
    // a gate or a stray flag they must not exit 0.
    let cases: [&[&str]; 7] = [
        &[&config, "--check"],
        &["--check"],
        &[&config, "--check", unreadable],
        &[&config, "--check", "--check", unreadable],
        &[&config, "--check", &empty, "--print-default"],
        &["--help", "--bogus"],
        &["-h", &config],
    ];
    for args in cases {
        let (code, out, err) = scenario(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: scenario"), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
        assert!(!trace.exists(), "{args:?} ran a cell");
    }
}

#[test]
fn check_writes_no_output_file() {
    let dir = scratch("output");
    let (code, rows, err) = scenario(&[&write(&dir, "cell.toml", CELL)]);
    assert_eq!(code, Some(0), "{err}");
    let baseline = write(&dir, "baseline.jsonl", &rows);
    let output = dir.join("rows.jsonl");
    let config = write(
        &dir,
        "output.toml",
        &format!("output = \"{}\"\n{CELL}", output.display()),
    );
    let (code, _, err) = scenario(&[&config, "--check", &baseline]);
    assert_eq!(code, Some(0), "{err}");
    assert!(!output.exists(), "--check wrote {}", output.display());
}

/// A row with every column set.
fn row() -> Row {
    Row {
        family: "grid".to_owned(),
        n: 16,
        m: 24,
        algorithm: "bfs".to_owned(),
        engine: "sim".to_owned(),
        threads: 1,
        seed: 1,
        stats: RunStats {
            rounds: 7,
            messages: 48,
            messages_combined: 0,
        },
        invocations: 30,
        active_peak: 6,
        active_mean: 4.286,
        wall_ms: 0.5,
        setup_ms: 0.1,
        metric_name: "height",
        metric: 6,
        peak_round_messages: Some(10),
        peak_queue_depth: Some(1),
        deliver_ms: Some(0.1),
        compute_ms: Some(0.2),
        barrier_ms: Some(0.0),
        msg_max_node: Some(5),
        msg_max: Some(8),
        msg_p50: Some(6),
        msg_p99: Some(8),
    }
}

/// `rows` in both output formats: JSONL, and CSV behind its header.
fn both_formats(rows: &[Row]) -> [String; 2] {
    let jsonl = rows.iter().map(|r| r.to_json() + "\n").collect();
    let csv = std::iter::once(Row::CSV_HEADER.to_owned())
        .chain(rows.iter().map(Row::to_csv))
        .map(|l| l + "\n")
        .collect();
    [jsonl, csv]
}

#[test]
fn scrub_is_idempotent() {
    for text in both_formats(&[row(), row()]) {
        let once = scrub(&text);
        assert_ne!(once, text, "scrub blanks the walls");
        assert_eq!(scrub(&once), once);
    }
}

#[test]
fn rows_differing_only_in_scrubbed_columns_compare_equal() {
    let mut other = row();
    other.wall_ms = 812.25;
    other.setup_ms = 3.5;
    other.threads = 4;
    other.deliver_ms = Some(1.0);
    other.compute_ms = Some(2.0);
    other.barrier_ms = Some(3.0);
    for (a, b) in both_formats(&[row()]).iter().zip(both_formats(&[other])) {
        assert_ne!(a, &b);
        assert_eq!(scrub(a), scrub(&b));
    }
    let json = scrub(&row().to_json());
    for key in SCRUBBED {
        assert!(json.contains(&format!("\"{key}\":_")), "{key}: {json}");
    }
}

#[test]
fn rows_differing_in_pinned_columns_do_not() {
    let mut invocations = row();
    invocations.invocations += 1;
    let mut active_peak = row();
    active_peak.active_peak += 1;
    for changed in [invocations, active_peak] {
        for (a, b) in both_formats(&[row()]).iter().zip(both_formats(&[changed])) {
            assert_ne!(scrub(a), scrub(&b));
        }
    }
}
