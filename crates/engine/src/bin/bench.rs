//! Perf-trajectory bench: runs a fixed pinned workload set on the
//! parallel engine and writes machine-readable `BENCH_engine.json`, so
//! before/after numbers for engine changes (e.g. frontier scheduling,
//! per-edge combining) land in the repository instead of a PR
//! description.
//!
//! ```text
//! bench                          # run the pinned set, write BENCH_engine.json
//! bench --out path.json         # alternate output path
//! bench --threads 4             # worker threads, 1..=512 (default 1:
//!                               #   the trajectory tracks one-core
//!                               #   numbers); a bad value exits 2
//! bench --quick                 # the CI-gate subset (100k BFS + 1k/2k/8k SLT)
//! bench --check BASELINE.json   # re-run and diff the deterministic
//!                               #   columns against a committed baseline;
//!                               #   exit 1 on any drift (no file written),
//!                               #   after a per-column delta table
//! bench --profile trace.jsonl   # per-round profiling records to the
//!                               #   JSONL sink + a span tree per
//!                               #   workload on stderr
//! ```
//!
//! Arguments are validated before any graph is built: a `--out`,
//! `--check` or `--profile` without a value (or followed by another
//! `--` flag), and a `--check` baseline that cannot be read, print the
//! usage line or the error and exit 2, writing nothing.
//!
//! `--check` is the CI **bench-regression gate**: the deterministic
//! columns (`rounds`, `messages`, `messages_combined`,
//! `messages_delivered`, `invocations`, `active_peak`, `metric`, the
//! per-node load summary (`msg_max_node`, `msg_max`, `msg_p50`,
//! `msg_p99`) and the instance shape `m`) are contract-pinned and
//! engine-identical,
//! so any diff against `BENCH_engine.json` is a real behavior change —
//! a silent message-volume or invocation regression fails the PR.
//! Wall-clock columns (`wall_ms`, `setup_ms`, `rounds_per_sec`,
//! `msgs_per_sec`, `speedup_vs_1`) are machine-dependent and never
//! compared. `setup_ms` is the cumulative per-run executor setup wall
//! (a stressed run's plan cut, arena checkout, program construction)
//! summed across every run and sub-run of the workload, so its
//! trajectory is visible next to `wall_ms`. After
//! an *intentional* change, regenerate the baseline by running `bench`
//! without flags.
//!
//! Under `--quick`, each row additionally prints a one-line breakdown:
//! the pre-round pipeline (graph generation and the engine's topology
//! build, which `wall_ms` excludes), then setup/deliver/compute/barrier
//! wall (phase-wall sampling only — a few clock reads per round,
//! observer-neutral by contract clause 8), and the executed-round count.
//! A regression in generation, topology build or per-run setup is
//! attributable without a `--profile` trace. The line goes to stderr
//! only; the JSON schema and `--check` are unaffected.
//!
//! **Scaling section.** Every run additionally sweeps one pinned
//! workload (SLT@64k, or SLT@8k under `--quick`) over
//! `threads ∈ {1, 2, 4}` and emits a `"scaling"` array pinning the
//! speedup curve. The deterministic columns of every scaling row are
//! verified *at runtime* against the `threads = 1` row — a cross-thread
//! determinism violation aborts the bench with exit 1 before any file
//! is written — and `--check` additionally diffs them against the
//! committed baseline (scaling rows resolve to the same
//! family/algorithm/n baseline line as the main workload row, which is
//! exactly the cross-thread bit-identity the contract promises).
//!
//! The workload set is pinned — same families, sizes and seeds every
//! run — so successive JSON snapshots are comparable:
//!
//! * geometric BFS at 100k, 500k and 1M nodes (round-bound; the
//!   frontier-scheduling showcase), and
//! * geometric SLT at 1k, 2k, 4k, 8k and 64k nodes — the formerly
//!   message-bound workload. Per-edge combining (contract clause 7)
//!   collapsed the multi-source relaxation churn (made 4k feasible);
//!   the keyed-relaxation subsystem's adaptive landmark cutoff plus
//!   the combiner-aware gather removed the landmark phases outright on
//!   these shallow instances (made 8k a quick-gate workload); the
//!   batched-contraction Euler tour plus the pipelined Borůvka merge
//!   broke the remaining MST/tour message wall (made 64k pinnable).
//!
//! Each entry reports throughput (`rounds_per_sec`, `msgs_per_sec`,
//! `wall_ms`), the message-volume split (`messages` sent vs
//! `messages_delivered` after combining), and the frontier-scheduling
//! counters: `invocations` (`Program::round` calls actually executed)
//! against `invocations_dense` (`rounds * n`, what a dense every-node
//! scheduler would have executed).

use congest::obs;
use congest::{Executor, TraceSink};
use engine::scenario::{build_graph, drive, AlgoParams, MAX_THREADS};
use engine::Engine;
use std::io::Write;
use std::time::Instant;

/// One pinned workload: (family, algorithm, n). All use seed 1 and the
/// scenario runner's default parameters. SLT@64k joined after the
/// batched-contraction Euler tour and the pipelined Borůvka merge
/// broke the MST/tour message wall (~44 s on one core; see DESIGN.md).
const WORKLOADS: [(&str, &str, usize); 8] = [
    ("geometric", "bfs", 100_000),
    ("geometric", "bfs", 500_000),
    ("geometric", "bfs", 1_000_000),
    ("geometric", "slt", 1_000),
    ("geometric", "slt", 2_000),
    ("geometric", "slt", 4_000),
    ("geometric", "slt", 8_000),
    ("geometric", "slt", 64_000),
];

/// The `--quick` subset, used by the CI bench-regression gate: one
/// frontier-bound workload (100k BFS) and the SLT sizes small enough
/// for a PR-latency run — including 8k, which the keyed-relaxation
/// subsystem and the adaptive landmark cutoff brought under that bar.
/// SLT@64k (~44 s alone) stays out of the PR gate; the nightly
/// `--include-ignored` smoke (`crates/engine/tests/large_smoke.rs`)
/// covers it instead.
const QUICK: [(&str, &str, usize); 4] = [
    ("geometric", "bfs", 100_000),
    ("geometric", "slt", 1_000),
    ("geometric", "slt", 2_000),
    ("geometric", "slt", 8_000),
];

const SEED: u64 = 1;

const USAGE: &str =
    "usage: bench [--out PATH] [--threads N] [--quick] [--check BASELINE] [--profile TRACE.jsonl]";

/// Prints `msg` and the usage line, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Thread counts the scaling sweep pins (the workload is SLT@64k, or
/// SLT@8k under `--quick`). The `threads = 1` row doubles as the
/// determinism reference the other rows are diffed against at runtime.
const SCALING_THREADS: [usize; 3] = [1, 2, 4];

/// Deterministic result columns of one workload run — everything the
/// `--check` gate compares.
#[derive(Clone)]
struct Entry {
    family: &'static str,
    algorithm: &'static str,
    n: usize,
    m: usize,
    rounds: u64,
    messages: u64,
    messages_combined: u64,
    messages_delivered: u64,
    invocations: u64,
    invocations_dense: u64,
    active_peak: u64,
    active_mean: f64,
    metric: u64,
    msg_max_node: u64,
    msg_max: u64,
    msg_p50: u64,
    msg_p99: u64,
    wall: f64,
    /// Cumulative per-run executor setup wall (arena checkout and
    /// program construction) across every run and sub-run of the
    /// workload, in seconds. Machine-dependent; scrubbed by `--check`
    /// like `wall`.
    setup: f64,
}

impl Entry {
    fn to_json(&self, threads: usize) -> String {
        format!(
            "    {{\"family\":\"{family}\",\"algorithm\":\"{algorithm}\",\"n\":{n},\"m\":{m},\
             \"seed\":{SEED},\"threads\":{threads},\"rounds\":{rounds},\"messages\":{messages},\
             \"messages_combined\":{combined},\"messages_delivered\":{delivered},\
             \"wall_ms\":{wall_ms:.1},\"setup_ms\":{setup_ms:.1},\
             \"rounds_per_sec\":{rps:.1},\"msgs_per_sec\":{mps:.1},\
             \"invocations\":{inv},\"invocations_dense\":{dense},\
             \"active_peak\":{peak},\"active_mean\":{mean:.3},\
             \"msg_max_node\":{mmn},\"msg_max\":{mm},\"msg_p50\":{p50},\"msg_p99\":{p99},\
             \"metric\":{metric}}}",
            family = self.family,
            algorithm = self.algorithm,
            n = self.n,
            m = self.m,
            rounds = self.rounds,
            messages = self.messages,
            combined = self.messages_combined,
            delivered = self.messages_delivered,
            wall_ms = self.wall * 1e3,
            setup_ms = self.setup * 1e3,
            rps = self.rounds as f64 / self.wall.max(1e-9),
            mps = self.messages_delivered as f64 / self.wall.max(1e-9),
            inv = self.invocations,
            dense = self.invocations_dense,
            peak = self.active_peak,
            mean = self.active_mean,
            mmn = self.msg_max_node,
            mm = self.msg_max,
            p50 = self.msg_p50,
            p99 = self.msg_p99,
            metric = self.metric,
        )
    }

    /// The contract-pinned columns the `--check` gate (and the runtime
    /// cross-thread identity check) compares. Wall-derived columns are
    /// deliberately absent.
    fn det_columns(&self) -> [(&'static str, u64); 12] {
        [
            ("m", self.m as u64),
            ("rounds", self.rounds),
            ("messages", self.messages),
            ("messages_combined", self.messages_combined),
            ("messages_delivered", self.messages_delivered),
            ("invocations", self.invocations),
            ("active_peak", self.active_peak),
            ("msg_max_node", self.msg_max_node),
            ("msg_max", self.msg_max),
            ("msg_p50", self.msg_p50),
            ("msg_p99", self.msg_p99),
            ("metric", self.metric),
        ]
    }
}

/// Extracts `"key":<integer>` from a baseline JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// One column drift against the baseline (`want` absent when the
/// baseline predates the column).
struct Drift {
    workload: String,
    column: &'static str,
    want: Option<u64>,
    got: u64,
}

/// Diffs the deterministic columns of `entries` against the committed
/// baseline; returns missing-workload errors plus per-column drifts.
fn check_against_baseline(entries: &[Entry], baseline: &str) -> (Vec<String>, Vec<Drift>) {
    let mut missing = Vec::new();
    let mut drifts = Vec::new();
    for e in entries {
        let workload = format!("{} {} n={}", e.family, e.algorithm, e.n);
        let tag = format!(
            "\"family\":\"{}\",\"algorithm\":\"{}\",\"n\":{},",
            e.family, e.algorithm, e.n
        );
        let Some(line) = baseline.lines().find(|l| l.contains(&tag)) else {
            missing.push(format!(
                "{workload}: no baseline entry — regenerate BENCH_engine.json"
            ));
            continue;
        };
        for (key, got) in e.det_columns() {
            match json_u64(line, key) {
                Some(want) if want == got => {}
                want => drifts.push(Drift {
                    workload: workload.clone(),
                    column: key,
                    want,
                    got,
                }),
            }
        }
    }
    (missing, drifts)
}

/// Renders the drift list as an aligned old→new delta table.
fn drift_table(drifts: &[Drift]) -> String {
    let mut rows: Vec<[String; 5]> = vec![[
        "workload".to_owned(),
        "column".to_owned(),
        "baseline".to_owned(),
        "current".to_owned(),
        "delta".to_owned(),
    ]];
    for d in drifts {
        let (want, delta) = match d.want {
            Some(w) => (w.to_string(), format!("{:+}", d.got as i128 - w as i128)),
            None => ("(absent)".to_owned(), "-".to_owned()),
        };
        rows.push([
            d.workload.clone(),
            d.column.to_owned(),
            want,
            d.got.to_string(),
            delta,
        ]);
    }
    let mut width = [0usize; 5];
    for row in &rows {
        for (w, cell) in width.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    rows.iter()
        .map(|row| {
            let cells: Vec<String> = row
                .iter()
                .zip(width)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            format!("bench:   {}", cells.join("  ").trim_end())
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    // Every argument is validated, and the baseline read, before any
    // graph is built.
    let flag_value = |name: &str| -> Option<String> {
        let i = args.iter().position(|a| a == name)?;
        match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Some(value.clone()),
            value => usage_error(&format!("{name} takes a value, got {value:?}")),
        }
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_engine.json".to_owned());
    // Validated like the scenario runner's `threads` key.
    let threads = match args.iter().position(|a| a == "--threads") {
        None => 1,
        Some(i) => {
            let value = args.get(i + 1).map_or("", String::as_str);
            match value.parse::<usize>() {
                Ok(t) if (1..=MAX_THREADS).contains(&t) => t,
                _ => usage_error(&format!(
                    "--threads takes an integer in 1..={MAX_THREADS}, got {value:?}"
                )),
            }
        }
    };
    let quick = args.iter().any(|a| a == "--quick");
    let baseline = flag_value("--check").map(|path| match std::fs::read_to_string(&path) {
        Ok(text) => (path, text),
        Err(e) => usage_error(&format!("cannot read baseline {path}: {e}")),
    });
    let trace = flag_value("--profile").map(|p| match std::fs::File::create(&p) {
        Ok(f) => TraceSink::shared(Box::new(f)),
        Err(e) => usage_error(&format!("cannot create trace file {p}: {e}")),
    });

    let workloads: Vec<(&str, &str, usize)> = if quick {
        QUICK.to_vec()
    } else {
        WORKLOADS.to_vec()
    };

    let params = AlgoParams::default();

    let run_one = |family: &'static str, algorithm: &'static str, n: usize, nthreads: usize| {
        eprintln!("bench: {family} {algorithm} n={n} threads={nthreads} ...");
        // Generation and the engine's topology build precede the timed
        // drive; `--quick` prints them on the breakdown line.
        let gen_start = Instant::now();
        let g = build_graph(family, n, 100, SEED).expect("pinned family");
        let gen = gen_start.elapsed().as_secs_f64();
        let topo_start = Instant::now();
        let mut eng = Engine::with_threads(&g, nthreads);
        let topo = topo_start.elapsed().as_secs_f64();
        eng.set_record_node_stats(true);
        eng.set_trace(trace.clone());
        // `--quick` is the diagnosable gate: phase-wall sampling (the
        // cheap slice of metrics recording — clock reads only, no
        // `O(m)` scans) feeds the breakdown line below. Observer-
        // neutral (contract clause 8).
        eng.set_time_phases(quick);
        // Setup/phase walls accumulate process-wide across every
        // sub-executor the algorithm spawns; the per-workload numbers
        // are deltas around the drive.
        let setup0 = congest::plan::setup_wall_ns();
        let phase0 = congest::plan::phase_wall_ns();
        let start = Instant::now();
        let (stats, _, metric) = match &trace {
            Some(sink) => {
                let (res, tree) = obs::collect_spans(|| drive(&mut eng, algorithm, &params, SEED));
                let scope = format!("{family}/{algorithm}/n{n}");
                sink.lock().expect("trace sink").push_spans(&scope, &tree);
                eprint!("{}", tree.render());
                res
            }
            None => drive(&mut eng, algorithm, &params, SEED),
        }
        .expect("pinned algorithm");
        let wall = start.elapsed().as_secs_f64();
        let setup = (congest::plan::setup_wall_ns() - setup0) as f64 / 1e9;
        let frontier = Executor::frontier_total(&eng);
        if quick {
            let (d1, c1, b1) = congest::plan::phase_wall_ns();
            let (d0, c0, b0) = phase0;
            eprintln!(
                "bench: {family} {algorithm} n={n} breakdown: gen {:.1}ms, topo {:.1}ms, \
                 setup {:.1}ms, deliver {:.1}ms, compute {:.1}ms, barrier {:.1}ms \
                 (wall {:.1}ms), {} rounds",
                gen * 1e3,
                topo * 1e3,
                setup * 1e3,
                (d1 - d0) as f64 / 1e6,
                (c1 - c0) as f64 / 1e6,
                (b1 - b0) as f64 / 1e6,
                wall * 1e3,
                frontier.rounds,
            );
        }
        let summary = Executor::node_stats(&eng)
            .expect("node stats recorded")
            .summary();
        // Executed rounds (FrontierStats::rounds), not total accounted
        // rounds: analytical charge()s must not inflate the dense
        // baseline (identical for the pinned set, which charges none).
        let dense = frontier.rounds * n as u64;
        eprintln!(
            "bench: {family} {algorithm} n={n}: {:.1}s, {} rounds, {} delivered of {} sent \
             ({} combined), {} invocations ({:.1}x fewer than dense)",
            wall,
            stats.rounds,
            stats.messages_delivered(),
            stats.messages,
            stats.messages_combined,
            frontier.invocations,
            dense as f64 / frontier.invocations.max(1) as f64,
        );
        Entry {
            family,
            algorithm,
            n,
            m: g.m(),
            rounds: stats.rounds,
            messages: stats.messages,
            messages_combined: stats.messages_combined,
            messages_delivered: stats.messages_delivered(),
            invocations: frontier.invocations,
            invocations_dense: dense,
            active_peak: frontier.peak_active,
            active_mean: frontier.mean_active(),
            metric,
            msg_max_node: summary.msg_max_node as u64,
            msg_max: summary.msg_max,
            msg_p50: summary.msg_p50,
            msg_p99: summary.msg_p99,
            wall,
            setup,
        }
    };

    let mut entries: Vec<Entry> = Vec::new();
    for (family, algorithm, n) in workloads {
        entries.push(run_one(family, algorithm, n, threads));
    }

    // Scaling sweep: one pinned workload over SCALING_THREADS. The main
    // run at the matching thread count is reused rather than re-run.
    let (sf, sa, sn): (&'static str, &'static str, usize) = if quick {
        ("geometric", "slt", 8_000)
    } else {
        ("geometric", "slt", 64_000)
    };
    let mut scaling: Vec<(usize, Entry)> = Vec::new();
    for &t in &SCALING_THREADS {
        let reused = (t == threads)
            .then(|| {
                entries
                    .iter()
                    .find(|e| (e.family, e.algorithm, e.n) == (sf, sa, sn))
            })
            .flatten()
            .cloned();
        scaling.push((t, reused.unwrap_or_else(|| run_one(sf, sa, sn, t))));
    }

    // Cross-thread bit-identity: every deterministic column of every
    // scaling row must equal the threads=1 row. This is the contract's
    // acceptance check, enforced on every bench run (including --check),
    // before any output file is written.
    let (t0, base) = (&scaling[0].0, scaling[0].1.clone());
    let mut violated = false;
    for (t, e) in scaling.iter().skip(1) {
        for ((key, want), (_, got)) in base.det_columns().iter().zip(e.det_columns()) {
            if *want != got {
                eprintln!(
                    "bench: DETERMINISM VIOLATION — {sf} {sa} n={sn}: column {key} is {want} \
                     at threads={t0} but {got} at threads={t}"
                );
                violated = true;
            }
        }
    }
    if violated {
        eprintln!("bench: cross-thread determinism violated; refusing to write results");
        std::process::exit(1);
    }
    let base_wall = base.wall;
    for (t, e) in &scaling {
        eprintln!(
            "bench: scaling {sf} {sa} n={sn} threads={t}: {:.1}s ({:.2}x vs 1 thread)",
            e.wall,
            base_wall / e.wall.max(1e-9),
        );
    }

    if let Some((path, baseline)) = baseline {
        // Scaling rows share the baseline line of the matching main
        // workload (first match by family/algorithm/n — the "workloads"
        // array precedes "scaling" in the file), so each multi-thread
        // run is gated against the single-thread committed numbers.
        let mut gated = entries.clone();
        gated.extend(scaling.iter().map(|(_, e)| e.clone()));
        let (missing, drifts) = check_against_baseline(&gated, &baseline);
        if missing.is_empty() && drifts.is_empty() {
            eprintln!(
                "bench: OK — {} workloads (+{} scaling rows) match the deterministic \
                 columns of {path}",
                entries.len(),
                scaling.len(),
            );
            return;
        }
        eprintln!("bench: REGRESSION — deterministic columns drifted from {path}:");
        for e in &missing {
            eprintln!("bench:   {e}");
        }
        if !drifts.is_empty() {
            eprintln!("{}", drift_table(&drifts));
        }
        eprintln!("bench: if this change is intentional, regenerate the baseline with");
        eprintln!("bench:   cargo run --release -p engine --bin bench");
        eprintln!(
            "bench: column meanings and the regeneration workflow are documented in \
             README.md under \"Performance guide\""
        );
        std::process::exit(1);
    }

    // "scaling" must stay AFTER "workloads": the --check tag lookup is
    // first-match, and scaling rows are gated against the main rows.
    let scaling_json = scaling
        .iter()
        .map(|(t, e)| {
            let row = e.to_json(*t);
            let speedup = base_wall / e.wall.max(1e-9);
            format!("{},\"speedup_vs_1\":{speedup:.2}}}", &row[..row.len() - 1])
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"schema\": 5,\n  \"engine\": \"parallel\",\n  \"note\": \"pinned workload set; \
         invocations_dense = rounds * n is the pre-frontier-scheduling cost; \
         messages_delivered = messages - messages_combined is the post-combining volume; \
         scaling sweeps one workload over thread counts (wall columns are machine-dependent, \
         deterministic columns are bit-identical across threads by contract)\",\n  \
         \"workloads\": [\n{}\n  ],\n  \"scaling\": [\n{}\n  ]\n}}\n",
        entries
            .iter()
            .map(|e| e.to_json(threads))
            .collect::<Vec<_>>()
            .join(",\n"),
        scaling_json,
    );
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write bench output");
    eprintln!("bench: results written to {out_path}");
}
