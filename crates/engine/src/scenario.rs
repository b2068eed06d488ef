//! Scenario sweeps as a library: graph family × size × algorithm on
//! the parallel engine and/or the sequential simulator.
//!
//! The `scenario` binary (`src/bin/scenario.rs`) is a thin CLI over
//! this module; tests drive the same code in-process (see
//! `tests/golden.rs`), which is what pins the output schema.
//!
//! Every algorithm the repository implements is reachable from a
//! config: `bfs`, `mst`, `slt`, `spanner`, `euler`, `nets`,
//! `doubling`, `bellman`, `landmark`. Each completed
//! `(family, n, algorithm, engine, seed)` cell emits one row, either as
//! a JSON object per line (JSONL, the default) or as a CSV row behind a
//! fixed header (`format = "csv"`). Round/message counts are
//! engine-independent — the parallel engine is bit-identical to the
//! simulator — so every run of a cell must agree: `engine = "both"`
//! runs the simulator and the parallel engine, and a `threads` list
//! (`threads = [1, 2, 4]`) runs the parallel engine once per entry. The
//! runner compares each run's pinned columns with the cell's first run
//! and fails loudly on any difference.
//!
//! Every column except the [`SCRUBBED`] walls and worker count is
//! deterministic. [`scrub`] blanks those, which is how the golden
//! fixtures and `scenario --check BASELINE` compare whole rows.
//!
//! A root-level `trace = "path.jsonl"` key attaches a buffered
//! [`TraceSink`] to every run: per-round profiling records plus one
//! span tree per cell (scoped `family/n<n>/algorithm/engine/s<seed>`).
//! Tracing never perturbs the deterministic columns (contract
//! clause 8).

use crate::config::{self, Table, Value};
use crate::Engine;
use congest::obs;
use congest::tree::build_bfs_tree;
use congest::{Executor, RunReport, RunStats, SharedTraceSink, Simulator, TraceSink};
use dist_mst::boruvka::distributed_mst;
use dist_mst::euler::distributed_euler_tour;
use dist_sssp::bellman::bellman_ford;
use dist_sssp::landmark::{approx_spt, SptConfig};
use lightgraph::{generators, Graph, Weight, INF};
use lightnet::nets::net;
use lightnet::{doubling_spanner, light_spanner, shallow_light_tree_with};
use std::io::Write;
use std::time::Instant;

/// Upper bound on the `threads` TOML key — loud validation instead of
/// silently over-subscribing the machine (mirrors the
/// `landmarks`/`hop_bound` pattern). Omitting the key uses every core.
const MAX_THREADS: usize = 512;

/// The built-in default sweep (`scenario` with no arguments).
pub const DEFAULT_CONFIG: &str = r#"# Built-in default sweep (see crates/engine/scenarios/ for more).
seed = 1
# threads = 4        # worker threads, 1..=512 (or a list); omit to use every core
engine = "parallel"  # "parallel" | "sim" | "both"
format = "jsonl"     # "jsonl" | "csv"
cap = 1
record_metrics = true

[[run]]
family = "erdos-renyi"
sizes = [1000, 10000]
algorithms = ["bfs", "mst"]

[[run]]
family = "grid"
sizes = [2500]
algorithms = ["bfs", "slt"]
eps = 0.5
"#;

/// Every algorithm name accepted in a `[[run]]` `algorithms` list.
pub const ALGORITHMS: [&str; 9] = [
    "bfs", "mst", "slt", "spanner", "euler", "nets", "doubling", "bellman", "landmark",
];

/// Output serialization of the result rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// One JSON object per line (the default).
    Jsonl,
    /// One CSV row per cell behind [`Row::CSV_HEADER`].
    Csv,
}

/// One result cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph family name.
    pub family: String,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Algorithm name (see [`ALGORITHMS`]).
    pub algorithm: String,
    /// Engine that produced the row (`sim` or `parallel`).
    pub engine: String,
    /// Worker threads (1 for `sim`).
    pub threads: usize,
    /// Instance seed.
    pub seed: u64,
    /// Rounds/messages of the run.
    pub stats: RunStats,
    /// `Program::round` calls executed (frontier scheduling; see the
    /// activation contract in `congest::exec`). Engine-independent.
    pub invocations: u64,
    /// Peak active-node count in any round (frontier width; see the
    /// activation contract in `congest::exec`). Engine-independent.
    pub active_peak: u64,
    /// Mean active-node count per *executed* round
    /// (`invocations / FrontierStats::rounds` — analytically charged
    /// rounds are excluded from the denominator).
    pub active_mean: f64,
    /// Wall-clock milliseconds of the cell, executor construction and
    /// teardown included.
    pub wall_ms: f64,
    /// Per-run executor setup wall (a stressed run's plan cut, arena
    /// checkout, program construction) summed over every run and
    /// sub-run of the cell, in milliseconds. Read from a process-wide
    /// accumulator (`congest::plan::setup_wall_ns`), so concurrent
    /// sweeps in one process inflate it; machine-dependent.
    pub setup_ms: f64,
    /// Algorithm-specific headline number, e.g. BFS height, MST weight.
    pub metric_name: &'static str,
    /// Value of the headline metric.
    pub metric: u64,
    /// Most messages delivered in one round, when recorded. Like
    /// `peak_queue_depth`, it covers only the cell's *last* root
    /// executor run (`Executor::last_report`): 0 on every `mst` row,
    /// `breakpoints - 1` on every `slt` row.
    pub peak_round_messages: Option<u64>,
    /// Deepest per-edge queue in any round of the last root run.
    pub peak_queue_depth: Option<u64>,
    /// Wall time of the deliver phase (machine-dependent; scrubbed
    /// wherever pinned, like `wall_ms`).
    pub deliver_ms: Option<f64>,
    /// Wall time of the compute phase (machine-dependent).
    pub compute_ms: Option<f64>,
    /// Wall time at phase barriers (machine-dependent; 0 for `sim`).
    pub barrier_ms: Option<f64>,
    /// Node with the largest message load (deterministic, pinned).
    pub msg_max_node: Option<u64>,
    /// Largest per-node message load `sent + delivered`.
    pub msg_max: Option<u64>,
    /// Median per-node message load (nearest-rank).
    pub msg_p50: Option<u64>,
    /// 99th-percentile per-node message load (nearest-rank).
    pub msg_p99: Option<u64>,
}

impl Row {
    /// The fixed CSV column order; every row serializes exactly these
    /// fields (empty cells where instrumentation was not recorded).
    pub const CSV_HEADER: &'static str = "family,n,m,algorithm,engine,threads,seed,rounds,\
                                          messages,messages_combined,messages_delivered,\
                                          invocations,active_peak,active_mean,wall_ms,setup_ms,\
                                          metric_name,metric,\
                                          peak_round_messages,peak_queue_depth,\
                                          deliver_ms,compute_ms,barrier_ms,\
                                          msg_max_node,msg_max,msg_p50,msg_p99";

    /// JSONL serialization. Field order is stable; the headline metric
    /// appears under its algorithm-specific name (e.g. `"height"`).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"family\":\"{}\",\"n\":{},\"m\":{},\"algorithm\":\"{}\",\"engine\":\"{}\",\
             \"threads\":{},\"seed\":{},\"rounds\":{},\"messages\":{},\
             \"messages_combined\":{},\"messages_delivered\":{},\"invocations\":{},\
             \"active_peak\":{},\"active_mean\":{:.3},\"wall_ms\":{:.3},\"setup_ms\":{:.3},\
             \"{}\":{}",
            self.family,
            self.n,
            self.m,
            self.algorithm,
            self.engine,
            self.threads,
            self.seed,
            self.stats.rounds,
            self.stats.messages,
            self.stats.messages_combined,
            self.stats.messages_delivered(),
            self.invocations,
            self.active_peak,
            self.active_mean,
            self.wall_ms,
            self.setup_ms,
            self.metric_name,
            self.metric,
        );
        if let Some(p) = self.peak_round_messages {
            s.push_str(&format!(",\"peak_round_messages\":{p}"));
        }
        if let Some(d) = self.peak_queue_depth {
            s.push_str(&format!(",\"peak_queue_depth\":{d}"));
        }
        if let Some(d) = self.deliver_ms {
            s.push_str(&format!(",\"deliver_ms\":{d:.3}"));
        }
        if let Some(c) = self.compute_ms {
            s.push_str(&format!(",\"compute_ms\":{c:.3}"));
        }
        if let Some(b) = self.barrier_ms {
            s.push_str(&format!(",\"barrier_ms\":{b:.3}"));
        }
        if let Some(v) = self.msg_max_node {
            s.push_str(&format!(",\"msg_max_node\":{v}"));
        }
        if let Some(v) = self.msg_max {
            s.push_str(&format!(",\"msg_max\":{v}"));
        }
        if let Some(v) = self.msg_p50 {
            s.push_str(&format!(",\"msg_p50\":{v}"));
        }
        if let Some(v) = self.msg_p99 {
            s.push_str(&format!(",\"msg_p99\":{v}"));
        }
        s.push('}');
        s
    }

    /// CSV serialization in [`Row::CSV_HEADER`] order.
    pub fn to_csv(&self) -> String {
        let opt_u = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        let opt_f = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_default();
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{},{},{},{},{},{},{},{},{},{},{}",
            self.family,
            self.n,
            self.m,
            self.algorithm,
            self.engine,
            self.threads,
            self.seed,
            self.stats.rounds,
            self.stats.messages,
            self.stats.messages_combined,
            self.stats.messages_delivered(),
            self.invocations,
            self.active_peak,
            self.active_mean,
            self.wall_ms,
            self.setup_ms,
            self.metric_name,
            self.metric,
            opt_u(self.peak_round_messages),
            opt_u(self.peak_queue_depth),
            opt_f(self.deliver_ms),
            opt_f(self.compute_ms),
            opt_f(self.barrier_ms),
            opt_u(self.msg_max_node),
            opt_u(self.msg_max),
            opt_u(self.msg_p50),
            opt_u(self.msg_p99),
        )
    }

    /// The columns every run of one cell must agree on, whatever its
    /// engine and thread count (the runner's determinism probe).
    fn probe(&self) -> impl PartialEq + std::fmt::Debug {
        (
            self.stats,
            self.invocations,
            self.active_peak,
            self.active_mean.to_bits(),
            self.metric,
            (self.msg_max_node, self.msg_max, self.msg_p50, self.msg_p99),
        )
    }
}

/// The columns that differ between two runs of one cell: the walls and
/// the worker count. Every other column is pinned.
pub const SCRUBBED: [&str; 6] = [
    "wall_ms",
    "setup_ms",
    "threads",
    "deliver_ms",
    "compute_ms",
    "barrier_ms",
];

/// Writes `_` over every [`SCRUBBED`] column of JSONL rows, or of CSV
/// rows in [`Row::CSV_HEADER`] order, so two outputs of one config are
/// equal after scrubbing exactly when their pinned columns are.
/// Idempotent.
pub fn scrub(rows: &str) -> String {
    let csv: Vec<bool> = Row::CSV_HEADER
        .split(',')
        .map(|c| SCRUBBED.contains(&c))
        .collect();
    let mut out = String::with_capacity(rows.len());
    for line in rows.lines() {
        let mut line = line.to_owned();
        if line.starts_with('{') {
            for key in SCRUBBED {
                let needle = format!("\"{key}\":");
                if let Some(at) = line.find(&needle) {
                    let start = at + needle.len();
                    let end = line[start..]
                        .find([',', '}'])
                        .map_or(line.len(), |i| start + i);
                    line.replace_range(start..end, "_");
                }
            }
        } else if line != Row::CSV_HEADER {
            line = line
                .split(',')
                .enumerate()
                .map(|(i, cell)| if csv.get(i) == Some(&true) { "_" } else { cell })
                .collect::<Vec<_>>()
                .join(",");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Instantiates a family at size `n`. The geometric family uses the
/// grid-bucketed `O(n log n)` generator, so sizes are uncapped —
/// million-node instances are fine (see `scenarios/geometric_1m.toml`).
pub fn build_graph(family: &str, n: usize, max_w: Weight, seed: u64) -> Result<Graph, String> {
    match family {
        "erdos-renyi" => {
            let p = (8.0 / n.max(2) as f64).min(1.0);
            Ok(generators::gnp_sparse(n, p, max_w, seed))
        }
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            Ok(generators::grid(side.max(1), side.max(1), max_w, seed))
        }
        "tree-chords" => Ok(generators::tree_plus_chords(n, n / 2, max_w, seed)),
        "geometric" => {
            let r = (8.0 / (std::f64::consts::PI * n.max(1) as f64)).sqrt();
            Ok(generators::random_geometric(n, r, seed))
        }
        other => Err(format!(
            "unknown family `{other}` (expected erdos-renyi, grid, tree-chords, geometric)"
        )),
    }
}

/// Per-cell algorithm parameters, parsed from a `[[run]]` table.
#[derive(Debug, Clone, Copy)]
pub struct AlgoParams {
    /// `eps` — SLT/spanner/doubling approximation parameter.
    pub eps: f64,
    /// `k` — spanner stretch parameter.
    pub k: usize,
    /// `net_delta` — the net scale ∆; 0 selects `max_weight / 4`.
    pub net_delta: Weight,
    /// `net_slack` — the net's δ slack.
    pub net_slack: f64,
    /// `landmarks` — forces the landmark SPT's full scheme with exactly
    /// this many landmarks (`slt` and `landmark` cells). Absent =
    /// adaptive (root-probe cutoff; see `dist_sssp::landmark`).
    pub landmarks: Option<usize>,
    /// `hop_bound` — hop budget of the landmark SPT's bounded
    /// explorations. Absent = the `2⌈√n⌉` default.
    pub hop_bound: Option<u64>,
}

impl Default for AlgoParams {
    /// The scenario defaults: every knob at its documented default.
    fn default() -> Self {
        AlgoParams {
            eps: 0.5,
            k: 2,
            net_delta: 0,
            net_slack: 0.5,
            landmarks: None,
            hop_bound: None,
        }
    }
}

/// Runs one algorithm on one executor; returns stats plus a headline
/// metric. All nine [`ALGORITHMS`] dispatch through here, on either
/// engine — the algorithms themselves are written once against
/// `congest::Executor`.
pub fn drive<'g, E: Executor<'g>>(
    exec: &mut E,
    algorithm: &str,
    p: &AlgoParams,
    seed: u64,
) -> Result<(RunStats, &'static str, u64), String> {
    // Resolve to the static name so the whole run sits under one root
    // phase span (a no-op unless a span collector is installed).
    let Some(name) = ALGORITHMS.into_iter().find(|&a| a == algorithm) else {
        return Err(format!(
            "unknown algorithm `{algorithm}` (expected one of {})",
            ALGORITHMS.join(", ")
        ));
    };
    Ok(obs::span(exec, name, |exec| match name {
        "bfs" => {
            let (tree, _) = build_bfs_tree(exec, 0);
            (exec.total(), "height", tree.height())
        }
        "mst" => {
            let (tau, _) = build_bfs_tree(exec, 0);
            let m = distributed_mst(exec, &tau, seed);
            (exec.total(), "weight", m.weight)
        }
        "slt" => {
            // Named sub-span: after the tour/Borůvka message-wall fix
            // the BFS-tree build is no longer rounding error next to
            // the other phases, and the pinned span tree accounts for
            // every major phase by name.
            let (tau, _) = obs::span(exec, "tau", |exec| build_bfs_tree(exec, 0));
            let slt = shallow_light_tree_with(exec, &tau, 0, p.eps, seed, p.landmarks, p.hop_bound);
            (exec.total(), "breakpoints", slt.breakpoints as u64)
        }
        "spanner" => {
            let (tau, _) = build_bfs_tree(exec, 0);
            let sp = light_spanner(exec, &tau, 0, p.k, p.eps, seed);
            (exec.total(), "edges", sp.edges.len() as u64)
        }
        "euler" => {
            let (tau, _) = build_bfs_tree(exec, 0);
            let m = distributed_mst(exec, &tau, seed);
            let tour = distributed_euler_tour(exec, &tau, &m, 0);
            (exec.total(), "tour_length", tour.total_length)
        }
        "nets" => {
            let (tau, _) = build_bfs_tree(exec, 0);
            let big_delta = if p.net_delta > 0 {
                p.net_delta
            } else {
                (exec.graph().max_weight() / 4).max(1)
            };
            let r = net(exec, &tau, big_delta, p.net_slack, seed);
            (exec.total(), "points", r.points.len() as u64)
        }
        "doubling" => {
            let (tau, _) = build_bfs_tree(exec, 0);
            let sp = doubling_spanner(exec, &tau, p.eps, seed);
            (exec.total(), "edges", sp.edges.len() as u64)
        }
        "bellman" => {
            let r = bellman_ford(exec, 0);
            (exec.total(), "max_dist", r.max_finite_dist())
        }
        "landmark" => {
            let (tau, _) = build_bfs_tree(exec, 0);
            let cfg = SptConfig {
                landmarks: p.landmarks,
                hop_bound: p.hop_bound,
                ..SptConfig::new(seed)
            };
            let spt = approx_spt(exec, &tau, 0, &cfg);
            (exec.total(), "max_dist", spt.max_finite_dist())
        }
        _ => unreachable!("resolved above"),
    }))
}

/// Root keys a config may set.
const ROOT_KEYS: [&str; 8] = [
    "seed",
    "threads",
    "engine",
    "format",
    "cap",
    "record_metrics",
    "trace",
    "output",
];

/// Keys a `[[run]]` table may set.
const RUN_KEYS: [&str; 11] = [
    "family",
    "sizes",
    "algorithms",
    "seeds",
    "eps",
    "k",
    "net_delta",
    "net_slack",
    "landmarks",
    "hop_bound",
    "max_w",
];

struct Globals {
    /// `(engine, threads)` of every run of a cell, in row order: the
    /// simulator once, the parallel engine once per `threads` entry.
    executors: Vec<(&'static str, usize)>,
    cap: usize,
    record: bool,
    format: OutputFormat,
    trace: Option<SharedTraceSink>,
}

/// One validated `[[run]]` table.
struct RunSpec {
    family: String,
    sizes: Vec<usize>,
    algorithms: Vec<String>,
    seeds: Vec<u64>,
    params: AlgoParams,
    max_w: Weight,
}

struct Cell<'a> {
    family: &'a str,
    algorithm: &'a str,
    params: AlgoParams,
    seed: u64,
}

/// Runs [`drive`] with a span collector installed when the sweep has a
/// trace sink; the harvested span tree is appended to the trace under
/// the cell's scope string.
fn drive_cell<'g, E: Executor<'g>>(
    exec: &mut E,
    globals: &Globals,
    cell: &Cell<'_>,
    scope: &str,
) -> Result<(RunStats, &'static str, u64), String> {
    match &globals.trace {
        Some(sink) => {
            let (res, tree) =
                obs::collect_spans(|| drive(exec, cell.algorithm, &cell.params, cell.seed));
            sink.lock().expect("trace sink").push_spans(scope, &tree);
            res
        }
        None => drive(exec, cell.algorithm, &cell.params, cell.seed),
    }
}

/// Runs one cell on the simulator (`which == "sim"`) or on the
/// parallel engine with `threads` workers.
fn run_cell(
    globals: &Globals,
    g: &Graph,
    which: &str,
    threads: usize,
    cell: &Cell<'_>,
) -> Result<(Row, Option<RunReport>), String> {
    let start = Instant::now();
    if which == "sim" {
        measure_cell(Simulator::new(g), 1, start, globals, which, cell)
    } else {
        let eng = Engine::with_threads(g, threads);
        measure_cell(eng, threads, start, globals, which, cell)
    }
}

/// Configures `exec` (running `threads` workers) from the sweep's
/// globals, drives the cell on it and builds the row; `start` is when
/// the cell began, executor construction included.
fn measure_cell<'g, E: Executor<'g>>(
    mut exec: E,
    threads: usize,
    start: Instant,
    globals: &Globals,
    which: &str,
    cell: &Cell<'_>,
) -> Result<(Row, Option<RunReport>), String> {
    let (n, m) = (exec.graph().n(), exec.graph().m());
    let scope = format!(
        "{}/n{}/{}/{}/s{}",
        cell.family, n, cell.algorithm, which, cell.seed
    );
    exec.set_cap(globals.cap);
    exec.set_record_metrics(globals.record);
    exec.set_record_node_stats(globals.record);
    exec.set_trace(globals.trace.clone());
    let setup0 = congest::plan::setup_wall_ns();
    let (stats, metric_name, metric) = drive_cell(&mut exec, globals, cell, &scope)?;
    let setup_ms = (congest::plan::setup_wall_ns() - setup0) as f64 / 1e6;
    let frontier = exec.frontier_total();
    let report = exec.last_report().cloned();
    let summary = exec.node_stats().map(|ns| ns.summary());
    let wall = globals.record.then(|| exec.wall_total());
    // The row's wall covers the executor's teardown too.
    drop(exec);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let row = Row {
        family: cell.family.to_owned(),
        n,
        m,
        algorithm: cell.algorithm.to_owned(),
        engine: which.to_owned(),
        threads,
        seed: cell.seed,
        stats,
        invocations: frontier.invocations,
        active_peak: frontier.peak_active,
        active_mean: frontier.mean_active(),
        wall_ms,
        setup_ms,
        metric_name,
        metric,
        peak_round_messages: report.as_ref().map(|r| r.peak_round_messages()),
        peak_queue_depth: report.as_ref().map(|r| r.peak_queue_depth()),
        deliver_ms: wall.map(|w| w.deliver_ns as f64 / 1e6),
        compute_ms: wall.map(|w| w.compute_ns as f64 / 1e6),
        barrier_ms: wall.map(|w| w.barrier_ns as f64 / 1e6),
        msg_max_node: summary.map(|s| s.msg_max_node as u64),
        msg_max: summary.map(|s| s.msg_max),
        msg_p50: summary.map(|s| s.msg_p50),
        msg_p99: summary.map(|s| s.msg_p99),
    };
    Ok((row, report))
}

/// Runs every `[[run]]` sweep of a parsed config, writing rows to
/// `out` in the config's `format`.
///
/// # Errors
/// Returns a message, before any cell runs, on an unknown key or
/// section, a mistyped value, a missing required key or an out-of-range
/// knob (`threads`, `cap`, `seed`, `sizes`, `max_w` and the per-run
/// algorithm knobs); and, while running, on unknown families or
/// algorithms, I/O failures, or runs of one cell that disagree.
pub fn run_sweep(doc: &config::Document, out: &mut dyn Write) -> Result<(), String> {
    let root = &doc.root;
    check_keys(root, &ROOT_KEYS)?;
    if let Some(name) = doc.table_arrays.keys().find(|&k| k != "run") {
        return Err(format!("unknown section `[[{name}]]` (expected [[run]])"));
    }
    let threads: Vec<usize> = match root.get("threads") {
        None => vec![std::thread::available_parallelism().map_or(1, |p| p.get())],
        Some(Value::Array(list)) if list.is_empty() => {
            return Err("`threads` must list at least one count".to_owned())
        }
        Some(Value::Array(list)) => list.iter().map(thread_count).collect::<Result<_, _>>()?,
        Some(v) => vec![thread_count(v)?],
    };
    let parallel = threads.iter().map(|&t| ("parallel", t));
    let executors = match root.str_or("engine", "parallel")? {
        "parallel" => parallel.collect(),
        "sim" => vec![("sim", 1)],
        "both" => std::iter::once(("sim", 1)).chain(parallel).collect(),
        other => return Err(format!("engine must be parallel|sim|both, got `{other}`")),
    };
    let format = match root.str_or("format", "jsonl")? {
        "jsonl" => OutputFormat::Jsonl,
        "csv" => OutputFormat::Csv,
        other => return Err(format!("format must be jsonl|csv, got `{other}`")),
    };
    let cap = positive_int(root, "cap", 1)? as usize;
    let record = root.bool_or("record_metrics", false)?;
    let base_seed = non_negative("seed", root.int_or("seed", 1)?)?;
    let runs = doc.table_arrays.get("run").map_or(&[][..], Vec::as_slice);
    if runs.is_empty() {
        return Err("config has no [[run]] sections".to_owned());
    }
    let runs = runs
        .iter()
        .enumerate()
        .map(|(ri, run)| parse_run(run, base_seed).map_err(|e| format!("[[run]] #{ri}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let trace = match root.typed("trace", "a path string", Value::as_str)? {
        None => None,
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
            Some(TraceSink::shared(Box::new(file)))
        }
    };
    let globals = Globals {
        executors,
        cap,
        record,
        format,
        trace,
    };
    if format == OutputFormat::Csv {
        writeln!(out, "{}", Row::CSV_HEADER).map_err(|e| e.to_string())?;
    }
    for run in &runs {
        sweep_run(&globals, run, out)?;
    }
    Ok(())
}

/// Errs on the first key of `table` that `allowed` does not list.
fn check_keys(table: &Table, allowed: &[&str]) -> Result<(), String> {
    match table.keys().find(|k| !allowed.contains(k)) {
        Some(key) => Err(format!(
            "unknown key `{key}` (expected one of {})",
            allowed.join(", ")
        )),
        None => Ok(()),
    }
}

/// One `threads` entry: an integer in `1..=MAX_THREADS`.
fn thread_count(v: &Value) -> Result<usize, String> {
    match v.as_int() {
        Some(t) if (1..=MAX_THREADS as i64).contains(&t) => Ok(t as usize),
        Some(0) => Err("`threads` must be >= 1 (omit the key to use every core)".to_owned()),
        Some(t) => Err(format!("`threads` must be in 1..={MAX_THREADS}, got {t}")),
        None => Err(format!(
            "`threads` must be an integer or a list of integers, got {v:?}"
        )),
    }
}

/// An integer knob that must be `>= 1`, `default` when absent. Zero,
/// negative and non-integer values are errors naming the key, not
/// values silently clamped or replaced by the default.
fn positive_int(table: &Table, key: &str, default: i64) -> Result<i64, String> {
    match table.int_or(key, default)? {
        x if x >= 1 => Ok(x),
        x => Err(format!("`{key}` must be >= 1, got {x}")),
    }
}

/// `x` as an unsigned value of `key`, or an error naming the key.
fn non_negative(key: &str, x: i64) -> Result<u64, String> {
    u64::try_from(x).map_err(|_| format!("`{key}` must be >= 0, got {x}"))
}

/// Parses and validates one `[[run]]` table. Unknown keys, mistyped
/// values and zero or absurd knobs (a zero hop bound kills every
/// exploration, zero landmarks silently degenerates the scheme, a
/// non-positive slack violates Theorem 3's premise) are configuration
/// mistakes, so they fail the sweep loudly instead of producing
/// misleading rows.
fn parse_run(run: &Table, base_seed: u64) -> Result<RunSpec, String> {
    check_keys(run, &RUN_KEYS)?;
    let sizes = run.ints("sizes")?;
    if sizes.is_empty() {
        return Err("`sizes` is required".to_owned());
    }
    if let Some(n) = sizes.iter().find(|&&n| n < 1) {
        return Err(format!("every `sizes` entry must be >= 1, got {n}"));
    }
    let mut algorithms = run.strs("algorithms")?;
    if algorithms.is_empty() {
        algorithms.push("bfs".to_owned());
    }
    let mut seeds = run
        .ints("seeds")?
        .into_iter()
        .map(|s| non_negative("seeds", s))
        .collect::<Result<Vec<_>, _>>()?;
    if seeds.is_empty() {
        seeds.push(base_seed);
    }
    let eps = run.f64_or("eps", 0.5)?;
    if !eps.is_finite() || eps <= 0.0 || eps > 64.0 {
        return Err(format!("`eps` must be in (0, 64], got {eps}"));
    }
    let net_slack = run.f64_or("net_slack", 0.5)?;
    if !net_slack.is_finite() || net_slack <= 0.0 || net_slack > 64.0 {
        return Err(format!("`net_slack` must be in (0, 64], got {net_slack}"));
    }
    let landmarks = match run.typed("landmarks", "an integer", Value::as_int)? {
        Some(l) if !(1..=1i64 << 32).contains(&l) => {
            return Err(format!(
                "`landmarks` must be in [1, 2^32] (omit the key for the adaptive default), got {l}"
            ))
        }
        l => l.map(|l| l as usize),
    };
    let hop_bound = match run.typed("hop_bound", "an integer", Value::as_int)? {
        Some(h) if h < 1 => {
            return Err(format!(
                "`hop_bound` must be >= 1 (omit the key for the 2⌈√n⌉ default), got {h}"
            ))
        }
        h => h.map(|h| h as u64),
    };
    // A simple path has fewer than 2n edges, even after the grid family
    // rounds n up to a square, so no path length reaches `INF`.
    let max_w = positive_int(run, "max_w", 100)? as Weight;
    let w_bound = INF / (2 * *sizes.iter().max().expect("sizes is non-empty") as u64);
    if max_w > w_bound {
        return Err(format!(
            "`max_w` must be <= {w_bound} for these sizes, got {max_w}"
        ));
    }
    Ok(RunSpec {
        family: run.str_or("family", "erdos-renyi")?.to_owned(),
        sizes: sizes.into_iter().map(|n| n as usize).collect(),
        algorithms,
        seeds,
        params: AlgoParams {
            eps,
            k: positive_int(run, "k", 2)? as usize,
            net_delta: non_negative("net_delta", run.int_or("net_delta", 0)?)?,
            net_slack,
            landmarks,
            hop_bound,
        },
        max_w,
    })
}

fn sweep_run(globals: &Globals, run: &RunSpec, out: &mut dyn Write) -> Result<(), String> {
    for &n in &run.sizes {
        for &seed in &run.seeds {
            let g = build_graph(&run.family, n, run.max_w, seed)?;
            for algorithm in &run.algorithms {
                let cell = Cell {
                    family: &run.family,
                    algorithm,
                    params: run.params,
                    seed,
                };
                // Every run of the cell must match its first run on the
                // probed columns (the active set is contract-determined,
                // clause 8 extends that to the observers) and, with
                // metrics recorded, on the per-round series of its last
                // root executor run (all that `last_report` keeps).
                let mut first: Option<(Row, Option<RunReport>)> = None;
                for &(which, threads) in &globals.executors {
                    let (row, report) = run_cell(globals, &g, which, threads, &cell)?;
                    let line = match globals.format {
                        OutputFormat::Jsonl => row.to_json(),
                        OutputFormat::Csv => row.to_csv(),
                    };
                    writeln!(out, "{line}").map_err(|e| e.to_string())?;
                    let Some((first_row, first_report)) = &first else {
                        first = Some((row, report));
                        continue;
                    };
                    let violation = |what: String| {
                        format!(
                            "DETERMINISM VIOLATION: {} n={n} {algorithm} seed={seed}: {} \
                             threads={} and {which} threads={threads}: {what}",
                            run.family, first_row.engine, first_row.threads
                        )
                    };
                    if first_row.probe() != row.probe() {
                        let (a, b) = (first_row.probe(), row.probe());
                        return Err(violation(format!("{a:?} != {b:?}")));
                    }
                    if let (Some(a), Some(b)) = (first_report, &report) {
                        if a.messages_per_round != b.messages_per_round
                            || a.active_per_round != b.active_per_round
                            || a.max_queue_depth_per_round != b.max_queue_depth_per_round
                            || a.hot_edges != b.hot_edges
                        {
                            return Err(violation("per-round series differ".to_owned()));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_err(body: &str) -> String {
        let doc = config::parse(body).expect("config parses");
        let mut out = Vec::new();
        run_sweep(&doc, &mut out).expect_err("sweep must be rejected")
    }

    #[test]
    fn zero_and_absurd_knobs_are_rejected_loudly() {
        let cell = |extra: &str| {
            format!(
                "engine = \"sim\"\n[[run]]\nfamily = \"grid\"\nsizes = [16]\n\
                 algorithms = [\"bfs\"]\n{extra}\n"
            )
        };
        assert!(sweep_err(&cell("hop_bound = 0")).contains("hop_bound"));
        assert!(sweep_err(&cell("hop_bound = -3")).contains("hop_bound"));
        assert!(sweep_err(&cell("landmarks = 0")).contains("landmarks"));
        assert!(sweep_err(&cell("landmarks = -1")).contains("landmarks"));
        assert!(sweep_err(&cell("eps = 0.0")).contains("eps"));
        assert!(sweep_err(&cell("eps = -1.0")).contains("eps"));
        assert!(sweep_err(&cell("eps = 1000.0")).contains("eps"));
        assert!(sweep_err(&cell("k = 0")).contains("`k`"));
        assert!(sweep_err(&cell("net_delta = -5")).contains("net_delta"));
        assert!(sweep_err(&cell("net_slack = 0.0")).contains("net_slack"));
        assert!(sweep_err(&cell("max_w = 0")).contains("`max_w`"));
        assert!(sweep_err(&cell("max_w = -7")).contains("`max_w`"));
        assert!(sweep_err(&cell("max_w = \"heavy\"")).contains("`max_w`"));
        assert!(sweep_err(&cell("max_w = 1e19")).contains("`max_w`"));
        let mst = cell("max_w = 6917529027641081856").replace("\"bfs\"", "\"mst\"");
        assert!(sweep_err(&mst).contains("`max_w`"));
        assert!(sweep_err(&cell("eps = \"0.25\"")).contains("`eps`"));
        assert!(sweep_err(&cell("seeds = [1, \"2\", -3]")).contains("`seeds`"));
        assert!(sweep_err(&cell("seeds = [-3]")).contains("`seeds`"));
        let unknown = sweep_err(&cell("hop_bond = 16"));
        assert!(
            unknown.contains("[[run]] #0: unknown key `hop_bond`"),
            "{unknown}"
        );
        let algorithms = "engine = \"sim\"\n[[run]]\nsizes = [16]\nalgorithms = [\"bfs\", 3]\n";
        assert!(sweep_err(algorithms).contains("`algorithms`"));
        let with_sizes = |s: &str| {
            format!("engine = \"sim\"\n[[run]]\nfamily = \"grid\"\nsizes = {s}\nalgorithms = [\"bfs\"]\n")
        };
        assert!(sweep_err(&with_sizes("[16, 0]")).contains("`sizes`"));
        assert!(sweep_err(&with_sizes("[-4]")).contains("`sizes`"));
        assert!(sweep_err(&with_sizes("[16, \"big\"]")).contains("`sizes`"));
        assert!(sweep_err(&with_sizes("[16, 2.5]")).contains("`sizes`"));
    }

    #[test]
    fn cap_key_is_validated_loudly() {
        let with_cap = |c: &str| {
            format!(
                "engine = \"sim\"\ncap = {c}\n[[run]]\nfamily = \"grid\"\n\
                 sizes = [16]\nalgorithms = [\"bfs\"]\n"
            )
        };
        assert!(sweep_err(&with_cap("0")).contains("`cap`"));
        assert!(sweep_err(&with_cap("-3")).contains("`cap`"));
        assert!(sweep_err(&with_cap("\"wide\"")).contains("`cap`"));
        // In-range values run.
        let doc = config::parse(&with_cap("2")).expect("config parses");
        run_sweep(&doc, &mut Vec::new()).expect("sweep runs");
    }

    #[test]
    fn root_keys_are_validated_loudly() {
        let with_root = |key: &str| {
            format!("{key}\n[[run]]\nfamily = \"grid\"\nsizes = [16]\nalgorithms = [\"bfs\"]\n")
        };
        let unknown = sweep_err(&with_root("engine = \"sim\"\nthread = 4"));
        assert!(unknown.contains("unknown key `thread`"), "{unknown}");
        assert!(sweep_err(&with_root("engine = \"sim\"\nseed = -1")).contains("`seed`"));
        assert!(sweep_err(&with_root("engine = \"sim\"\nseed = 1e30")).contains("`seed`"));
        let bad_record = with_root("engine = \"sim\"\nrecord_metrics = 1");
        assert!(sweep_err(&bad_record).contains("`record_metrics`"));
        assert!(sweep_err(&with_root("engine = 2")).contains("`engine`"));
        assert!(sweep_err(&with_root("engine = \"sim\"\nformat = 1")).contains("`format`"));
        let section = with_root("engine = \"sim\"\n[[runs]]\nsizes = [16]");
        assert!(sweep_err(&section).contains("[[runs]]"));
    }

    #[test]
    fn threads_key_is_validated_loudly() {
        let with_threads = |t: &str| {
            format!(
                "engine = \"sim\"\nthreads = {t}\n[[run]]\nfamily = \"grid\"\n\
                 sizes = [16]\nalgorithms = [\"bfs\"]\n"
            )
        };
        let zero = sweep_err(&with_threads("0"));
        assert!(zero.contains("threads"), "{zero}");
        assert!(zero.contains("omit the key"), "hint the fix: {zero}");
        assert!(sweep_err(&with_threads("-2")).contains("threads"));
        let absurd = sweep_err(&with_threads("100000"));
        assert!(absurd.contains("1..=512"), "{absurd}");
        assert!(sweep_err(&with_threads("\"many\"")).contains("integer"));
        // A list is checked entry by entry, like the scalar.
        assert!(sweep_err(&with_threads("[1, 0]")).contains("omit the key"));
        assert!(sweep_err(&with_threads("[2, 513]")).contains("1..=512"));
        assert!(sweep_err(&with_threads("[1, \"many\"]")).contains("integer"));
        assert!(sweep_err(&with_threads("[]")).contains("threads"));
        // In-range values run, the parallel engine once per entry after
        // the simulator's row; `threads` lands in the emitted rows.
        let body = with_threads("[2, 1]").replace("engine = \"sim\"", "engine = \"both\"");
        let doc = config::parse(&body).expect("config parses");
        let mut out = Vec::new();
        run_sweep(&doc, &mut out).expect("sweep runs");
        let threads: Vec<&str> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| &l[l.find("\"threads\"").unwrap()..][..11])
            .collect();
        assert_eq!(threads, ["\"threads\":1", "\"threads\":2", "\"threads\":1"]);
    }

    #[test]
    fn valid_knobs_reach_the_algorithms() {
        let body = "engine = \"sim\"\n[[run]]\nfamily = \"geometric\"\nsizes = [48]\n\
                    algorithms = [\"landmark\"]\nlandmarks = 6\nhop_bound = 4\n";
        let doc = config::parse(body).expect("config parses");
        let mut out = Vec::new();
        run_sweep(&doc, &mut out).expect("sweep runs");
        let rows = String::from_utf8(out).unwrap();
        assert!(rows.contains("\"algorithm\":\"landmark\""));
    }
}
