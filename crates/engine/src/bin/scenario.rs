//! Scenario runner CLI: sweep graph family × size × algorithm on the
//! parallel engine (or the sequential simulator) and emit JSONL or CSV
//! rows. All the logic lives in [`engine::scenario`] so tests can run
//! sweeps in-process; this binary only parses arguments and wires up
//! the output stream.
//!
//! ```text
//! scenario                            # run the built-in default sweep
//! scenario path/to/config.toml        # run a config (see scenarios/)
//! scenario CONFIG --check BASELINE    # run it and compare with BASELINE
//! scenario --print-default            # dump the built-in config and exit
//! scenario --help                     # print the usage line and exit
//! ```
//!
//! `--print-default` and `--help` (or `-h`) are accepted only alone:
//! next to any other argument they are usage errors (exit 2).
//!
//! `--check` is the regression gate: it runs the config, writes no rows
//! (nor the config's `output` file), and compares the rows with the
//! committed BASELINE after [`scrub`]bing both. It prints every
//! differing baseline/current row pair and exits 1 on any difference,
//! extra or missing rows included. A `--check` without a value, or a
//! BASELINE that cannot be read, prints the usage line and exits 2
//! before any cell runs.

use engine::config;
use engine::scenario::{run_sweep, scrub, DEFAULT_CONFIG};

const USAGE: &str = "usage: scenario [CONFIG.toml] [--check BASELINE] | --print-default | --help";

/// Prints `msg` and the usage line, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("scenario: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Compares `rows` with `baseline` after scrubbing both, printing every
/// differing row pair; an error counts them.
fn check(path: &str, baseline: &str, rows: &str) -> Result<(), String> {
    let (want, got) = (scrub(baseline), scrub(rows));
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut differ = 0;
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            differ += 1;
            eprintln!("scenario: line {} differs", i + 1);
            eprintln!("  baseline: {}", w.unwrap_or(&"(none)"));
            eprintln!("  current:  {}", g.unwrap_or(&"(none)"));
        }
    }
    if differ > 0 {
        return Err(format!("{differ} lines differ from {path}"));
    }
    eprintln!("scenario: OK, {} lines match {path}", got.len());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [only] = args.as_slice() {
        match only.as_str() {
            "--help" | "-h" => return eprintln!("{USAGE}"),
            "--print-default" => return print!("{DEFAULT_CONFIG}"),
            _ => {}
        }
    }
    // Every argument is validated, and the baseline read, before any
    // cell runs.
    let mut path = None;
    let mut baseline = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--check" => match rest.next() {
                Some(b) if !b.starts_with("--") => match std::fs::read_to_string(b) {
                    Ok(text) => baseline = Some((b, text)),
                    Err(e) => usage_error(&format!("cannot read baseline {b}: {e}")),
                },
                value => usage_error(&format!("--check takes a baseline path, got {value:?}")),
            },
            flag @ ("--help" | "-h" | "--print-default") => {
                usage_error(&format!("{flag} takes no other argument"))
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            config if path.is_none() => path = Some(config),
            extra => usage_error(&format!("unexpected argument {extra}")),
        }
    }
    let (text, source) = match path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => (t, path),
            Err(e) => {
                eprintln!("scenario: cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        None => (DEFAULT_CONFIG.to_owned(), "<built-in>"),
    };
    let doc = match config::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("scenario: {source}: {e}");
            std::process::exit(2);
        }
    };

    let result = match (&baseline, doc.root.str_or("output", "")) {
        (_, Err(e)) => Err(e),
        (Some((path, want)), _) => {
            let mut rows = Vec::new();
            run_sweep(&doc, &mut rows)
                .and_then(|()| check(path, want, &String::from_utf8_lossy(&rows)))
        }
        (None, Ok("")) => run_sweep(&doc, &mut std::io::stdout().lock()),
        (None, Ok(output)) => match std::fs::File::create(output) {
            Ok(mut f) => {
                let r = run_sweep(&doc, &mut f);
                if r.is_ok() {
                    eprintln!("scenario: results written to {output}");
                }
                r
            }
            Err(e) => Err(format!("cannot create {output}: {e}")),
        },
    };
    if let Err(e) = result {
        eprintln!("scenario: {e}");
        std::process::exit(1);
    }
}
