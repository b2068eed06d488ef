//! The benchmark command.
//!
//! ```text
//! perfbench --workload W --seed S --seconds T --trace 0|1
//! perfbench pass --workload W --seed S --mode timed|traced|serial [--n N]
//! ```
//!
//! The first form is one benchmark run. It first builds an instance
//! generated from `S`, at `1/SEEDED_SHRINK` of the workload's size,
//! which only has to pass the oracles. Then it measures the workload's
//! pinned instance (`PINNED_SEED`), each pass in a fresh process.
//! Untraced (`--trace 0`), it runs timed passes until `T` seconds have
//! passed and at least `MIN_PASSES` ran, and prints the median
//! end-to-end metrics. Traced (`--trace 1`), it runs one timed, one
//! traced and one serial pass and prints the per-layer metrics. The last
//! two stdout lines are a stamp (host, instance fingerprints, per-pass
//! samples, errors) and the result object. The second form is one pass
//! on the instance of seed `S` (with `N` nodes if given), printed in the
//! line format of `Pass::to_lines`.

use perfbench::report::{self, json_num, json_str, Summary, END_TO_END};
use perfbench::{run_pass, workload, Mode, Pass, Workload, PINNED_SEED, THREADS};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest timed passes per run, so the reported medians have a middle.
const MIN_PASSES: usize = 3;
/// The seeded instance is this many times smaller than the pinned one:
/// it checks the oracles on a fresh input without doubling a run.
const SEEDED_SHRINK: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pass") => pass_main(&args[1..]),
        _ => bench_main(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name} <value>"))
}

fn parse<T: std::str::FromStr>(v: &str, name: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {name} value `{v}`"))
}

fn workload_arg(args: &[String]) -> Result<Workload, String> {
    let name = required(args, "--workload")?;
    workload(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn pass_main(args: &[String]) -> Result<(), String> {
    let mut w = workload_arg(args)?;
    if let Some(n) = flag(args, "--n") {
        w.n = parse(n, "--n")?;
    }
    let seed = parse(required(args, "--seed")?, "--seed")?;
    let mode = required(args, "--mode")?;
    let mode = Mode::parse(mode).ok_or_else(|| format!("unknown mode `{mode}`"))?;
    print!("{}", run_pass(&w, seed, mode).to_lines());
    Ok(())
}

fn bench_main(args: &[String]) -> Result<(), String> {
    let w = workload_arg(args)?;
    let seed: u64 = parse(required(args, "--seed")?, "--seed")?;
    let seconds: u64 = parse(required(args, "--seconds")?, "--seconds")?;
    let traced = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let spawn = |mode: Mode, seed: u64, n: usize| -> Pass {
        eprintln!(
            "perfbench: {} {} pass, seed {seed}, n {n}",
            w.name,
            mode.name()
        );
        let out = Command::new(&exe)
            .args(["pass", "--workload", w.name, "--mode", mode.name()])
            .args(["--seed", &seed.to_string(), "--n", &n.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(o) if o.status.success() => {
                Pass::parse(&String::from_utf8_lossy(&o.stdout)).unwrap_or_else(Pass::failed)
            }
            Ok(o) => Pass::failed(format!("{} pass crashed: {}", mode.name(), o.status)),
            Err(e) => Pass::failed(format!("cannot start a {} pass: {e}", mode.name())),
        }
    };
    let pinned = |mode: Mode| spawn(mode, PINNED_SEED, w.n);

    let seeded = spawn(Mode::Timed, seed, w.n / SEEDED_SHRINK);
    let (passes, summary) = if traced {
        // The untraced pass right before the traced one, so the tracing
        // overhead compares neighbours in time.
        let passes = vec![
            pinned(Mode::Timed),
            pinned(Mode::Traced),
            pinned(Mode::Serial),
        ];
        let summary = report::summarize_traced(&passes[1], &passes[2], &passes[0], &seeded);
        (passes, summary)
    } else {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(seconds) {
            passes.push(pinned(Mode::Timed));
        }
        let summary = report::summarize_timed(&passes, &seeded);
        (passes, summary)
    };
    for e in &summary.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{}", stamp(&w, &passes, &seeded, &summary));
    println!("{}", summary.to_json());
    Ok(())
}

/// The stamp line: host, the fingerprints of both instances, every
/// pass's end-to-end samples and the failures, so two runs can be
/// compared for identical inputs and their spread.
fn stamp(w: &Workload, passes: &[Pass], seeded: &Pass, summary: &Summary) -> String {
    let instance = |p: Option<&Pass>| -> String {
        let p = p.map(|p| p.stamp.clone()).unwrap_or_default();
        let fields: Vec<String> = ["seed", "n", "m", "topo_key", "total_weight"]
            .iter()
            .map(|k| {
                let v = p.get(*k).map_or("", String::as_str);
                format!("{}: {}", json_str(k), json_str(v))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let pinned = passes.iter().find(|p| p.error.is_none()).or(passes.first());
    let mut fields = vec![
        ("workload".to_owned(), json_str(w.name)),
        ("threads".to_owned(), THREADS.to_string()),
        ("nproc".to_owned(), nproc().to_string()),
        ("cpu".to_owned(), json_str(&cpu_model())),
        (
            "rustc".to_owned(),
            json_str(&command_line("rustc", &["-V"])),
        ),
        (
            "commit".to_owned(),
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("fail_frac".to_owned(), json_num(summary.fail_frac())),
        ("instance".to_owned(), instance(pinned)),
        ("seeded_instance".to_owned(), instance(Some(seeded))),
    ];
    let samples: Vec<String> = END_TO_END
        .iter()
        .filter(|(name, _)| *name != "ok_frac")
        .map(|(name, _)| {
            let vals: Vec<String> = passes.iter().map(|p| json_num(p.get(name))).collect();
            format!("{}: [{}]", json_str(name), vals.join(", "))
        })
        .collect();
    fields.push(("samples".to_owned(), format!("{{{}}}", samples.join(", "))));
    let errors: Vec<String> = summary.errors.iter().map(|e| json_str(e)).collect();
    fields.push(("errors".to_owned(), format!("[{}]", errors.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First stdout line of `program args`, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
