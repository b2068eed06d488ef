//! Golden-file test for the scenario runner: `scenarios/quick.toml` is
//! executed in-process (both output formats) and the rows must match
//! the committed fixtures byte-for-byte after [`scrub`] blanks the
//! machine-dependent columns listed in `scenario::SCRUBBED` (the walls
//! and `threads`).
//!
//! Everything else — field order, seeds, graph sizes, round, message
//! and invocation counts, frontier width, headline metrics, engine
//! instrumentation peaks, the per-node message summary — is pinned:
//! the generators are seeded, and the engines are deterministic by the
//! `congest::exec` contract, so any diff is a real behavior change.
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p engine --test golden
//! ```
//!
//! CI runs the real `scenario` binary against the same fixtures with
//! `scenario <config> --check crates/engine/tests/fixtures/quick.jsonl`,
//! which scrubs through the same function.

use engine::config;
use engine::scenario::{run_sweep, scrub};
use std::path::PathBuf;

const CONFIG: &str = include_str!("../scenarios/quick.toml");

/// Runs quick.toml in-process with extra root keys prepended. A key
/// repeated within one table is a parse error, so only keys quick.toml
/// leaves unset (like `format`) may be injected this way.
fn run_quick(extra_root_keys: &str) -> String {
    let text = format!("{extra_root_keys}\n{CONFIG}");
    let doc = config::parse(&text).expect("quick.toml parses");
    let mut buf = Vec::new();
    run_sweep(&doc, &mut buf).expect("quick sweep runs");
    String::from_utf8(buf).expect("output is UTF-8")
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_against_fixture(scrubbed: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, scrubbed).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with UPDATE_GOLDEN=1", name));
    assert_eq!(
        scrubbed, expected,
        "{name} drifted from the committed fixture; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p engine --test golden"
    );
}

#[test]
fn quick_jsonl_matches_fixture() {
    let out = run_quick("");
    check_against_fixture(&scrub(&out), "quick.jsonl");
}

#[test]
fn quick_csv_matches_fixture() {
    let out = run_quick("format = \"csv\"");
    check_against_fixture(&scrub(&out), "quick.csv");
}

#[test]
fn jsonl_and_csv_agree_row_for_row() {
    let jsonl = run_quick("");
    let csv = run_quick("format = \"csv\"");
    let json_rows: Vec<&str> = jsonl.lines().collect();
    let csv_rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(json_rows.len(), csv_rows.len(), "same cell count");
    for (j, c) in json_rows.iter().zip(&csv_rows) {
        // Spot-check invariant fields appear identically in both modes.
        let fields: Vec<&str> = c.split(',').collect();
        let (family, n, algorithm, rounds) = (fields[0], fields[1], fields[3], fields[7]);
        assert!(
            j.contains(&format!("\"family\":\"{family}\"")),
            "family in {j}"
        );
        assert!(j.contains(&format!("\"n\":{n},")), "n in {j}");
        assert!(
            j.contains(&format!("\"algorithm\":\"{algorithm}\"")),
            "algorithm in {j}"
        );
        assert!(
            j.contains(&format!("\"rounds\":{rounds},")),
            "rounds in {j}"
        );
    }
}
