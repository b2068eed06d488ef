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
//! simulator — so `engine = "both"` doubles as a production determinism
//! check: the runner verifies the two engines' stats match and fails
//! loudly otherwise.
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
use lightgraph::{generators, Graph, Weight};
use lightnet::nets::net;
use lightnet::{doubling_spanner, light_spanner, shallow_light_tree_with};
use std::io::Write;
use std::time::Instant;

/// Upper bound on the `threads` TOML key — loud validation instead of
/// silently over-subscribing the machine (mirrors the
/// `landmarks`/`hop_bound` pattern). Omitting the key uses every core.
pub const MAX_THREADS: usize = 512;

/// The built-in default sweep (`scenario` with no arguments).
pub const DEFAULT_CONFIG: &str = r#"# Built-in default sweep (see crates/engine/scenarios/ for more).
seed = 1
# threads = 4        # worker threads, 1..=512; omit to use every core
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
    /// Peak active-node count in any round (frontier width; see the
    /// activation contract in `congest::exec`). Engine-independent.
    pub active_peak: u64,
    /// Mean active-node count per *executed* round
    /// (`invocations / FrontierStats::rounds` — analytically charged
    /// rounds are excluded from the denominator).
    pub active_mean: f64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Algorithm-specific headline number, e.g. BFS height, MST weight.
    pub metric_name: &'static str,
    /// Value of the headline metric.
    pub metric: u64,
    /// Engine instrumentation, when recorded.
    pub peak_round_messages: Option<u64>,
    /// Engine instrumentation, when recorded.
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
                                          active_peak,active_mean,wall_ms,\
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
             \"messages_combined\":{},\"messages_delivered\":{},\"active_peak\":{},\
             \"active_mean\":{:.3},\"wall_ms\":{:.3},\"{}\":{}",
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
            self.active_peak,
            self.active_mean,
            self.wall_ms,
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
            "{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{},{},{},{},{},{},{},{},{},{},{}",
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
            self.active_peak,
            self.active_mean,
            self.wall_ms,
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
            let m = distributed_mst(exec, &tau, 0, seed);
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
            let m = distributed_mst(exec, &tau, 0, seed);
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
            let sp = doubling_spanner(exec, &tau, 0, p.eps, seed);
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

struct Globals {
    threads: usize,
    cap: usize,
    record: bool,
    engines: Vec<&'static str>,
    base_seed: u64,
    format: OutputFormat,
    trace: Option<SharedTraceSink>,
}

struct Cell<'a> {
    family: &'a str,
    algorithm: &'a str,
    params: AlgoParams,
    seed: u64,
}

/// The per-cell determinism probe compared across engines: `RunStats`,
/// frontier accounting, and the per-node message summary columns.
type Probe = (
    RunStats,
    u64,
    u64,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
);

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

/// Runs one cell on the engine named `which` (`"sim"` or `"parallel"`).
fn run_cell(
    globals: &Globals,
    g: &Graph,
    which: &str,
    cell: &Cell<'_>,
) -> Result<(Row, Option<RunReport>), String> {
    let start = Instant::now();
    match which {
        "sim" => measure_cell(Simulator::new(g), 1, start, globals, which, cell),
        "parallel" => {
            let eng = Engine::with_threads(g, globals.threads);
            measure_cell(eng, globals.threads, start, globals, which, cell)
        }
        other => Err(format!("unknown engine `{other}`")),
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
    let (stats, metric_name, metric) = drive_cell(&mut exec, globals, cell, &scope)?;
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
        active_peak: frontier.peak_active,
        active_mean: frontier.mean_active(),
        wall_ms,
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
/// Returns a message on unknown families/algorithms/engines, missing
/// required keys, out-of-range or mistyped knobs (`threads`, `cap`,
/// `sizes`, `max_w` and the per-run algorithm knobs), I/O failures, or
/// a sim/parallel determinism mismatch.
pub fn run_sweep(doc: &config::Document, out: &mut dyn Write) -> Result<(), String> {
    let root = &doc.root;
    let threads = match root.get("threads") {
        None => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        Some(v) => match v.as_int() {
            Some(t) if (1..=MAX_THREADS as i64).contains(&t) => t as usize,
            Some(0) => {
                return Err("threads must be >= 1 (omit the key to use every core)".to_owned())
            }
            Some(t) => return Err(format!("threads must be in 1..={MAX_THREADS}, got {t}")),
            None => return Err("`threads` must be an integer".to_owned()),
        },
    };
    let engines: Vec<&'static str> = match root.str_or("engine", "parallel") {
        "parallel" => vec!["parallel"],
        "sim" => vec!["sim"],
        "both" => vec!["sim", "parallel"],
        other => return Err(format!("engine must be parallel|sim|both, got `{other}`")),
    };
    let format = match root.str_or("format", "jsonl") {
        "jsonl" => OutputFormat::Jsonl,
        "csv" => OutputFormat::Csv,
        other => return Err(format!("format must be jsonl|csv, got `{other}`")),
    };
    let trace = match root.get("trace") {
        None => None,
        Some(v) => {
            let path = v
                .as_str()
                .ok_or_else(|| "`trace` must be a path string".to_owned())?;
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
            Some(TraceSink::shared(Box::new(file)))
        }
    };
    let globals = Globals {
        threads,
        cap: positive_int(root, "cap", 1, "")? as usize,
        record: root.bool_or("record_metrics", false),
        engines,
        base_seed: root.int_or("seed", 1) as u64,
        format,
        trace,
    };
    if format == OutputFormat::Csv {
        writeln!(out, "{}", Row::CSV_HEADER).map_err(|e| e.to_string())?;
    }

    let runs = doc.table_arrays.get("run").cloned().unwrap_or_default();
    if runs.is_empty() {
        return Err("config has no [[run]] sections".to_owned());
    }
    for (ri, run) in runs.iter().enumerate() {
        sweep_run(&globals, ri, run, out)?;
    }
    Ok(())
}

/// An integer knob that must be `>= 1`, `default` when absent. Zero,
/// negative and non-integer values are errors naming the key (`at`
/// prefixes the message, e.g. with the `[[run]]` index), not values
/// silently clamped or replaced by the default.
fn positive_int(table: &Table, key: &str, default: i64, at: &str) -> Result<i64, String> {
    match table.get(key) {
        None => Ok(default),
        Some(v) => match v.as_int() {
            Some(x) if x >= 1 => Ok(x),
            Some(x) => Err(format!("{at}`{key}` must be >= 1, got {x}")),
            None => Err(format!("{at}`{key}` must be an integer")),
        },
    }
}

/// Parses and validates the per-cell algorithm knobs of one `[[run]]`
/// table. Zero or absurd values are configuration mistakes (a zero hop
/// bound kills every exploration, zero landmarks silently degenerates
/// the scheme, a non-positive slack violates Theorem 3's premise), so
/// they fail the sweep loudly instead of producing misleading rows.
fn parse_algo_params(ri: usize, run: &Table) -> Result<AlgoParams, String> {
    let eps = run.f64_or("eps", 0.5);
    if !eps.is_finite() || eps <= 0.0 || eps > 64.0 {
        return Err(format!(
            "[[run]] #{ri}: `eps` must be in (0, 64], got {eps}"
        ));
    }
    let k = run.int_or("k", 2);
    if k < 1 {
        return Err(format!("[[run]] #{ri}: `k` must be >= 1, got {k}"));
    }
    let net_delta = run.int_or("net_delta", 0);
    if net_delta < 0 {
        return Err(format!(
            "[[run]] #{ri}: `net_delta` must be >= 0 (0 = auto), got {net_delta}"
        ));
    }
    let net_slack = run.f64_or("net_slack", 0.5);
    if !net_slack.is_finite() || net_slack <= 0.0 || net_slack > 64.0 {
        return Err(format!(
            "[[run]] #{ri}: `net_slack` must be in (0, 64], got {net_slack}"
        ));
    }
    let landmarks = match run.get("landmarks") {
        None => None,
        Some(v) => match v.as_int() {
            Some(l) if (1..=1i64 << 32).contains(&l) => Some(l as usize),
            Some(l) => {
                return Err(format!(
                    "[[run]] #{ri}: `landmarks` must be in [1, 2^32] \
                     (omit the key for the adaptive default), got {l}"
                ))
            }
            None => return Err(format!("[[run]] #{ri}: `landmarks` must be an integer")),
        },
    };
    let hop_bound = match run.get("hop_bound") {
        None => None,
        Some(v) => match v.as_int() {
            Some(h) if h >= 1 => Some(h as u64),
            Some(h) => {
                return Err(format!(
                    "[[run]] #{ri}: `hop_bound` must be >= 1 \
                     (omit the key for the 2⌈√n⌉ default), got {h}"
                ))
            }
            None => return Err(format!("[[run]] #{ri}: `hop_bound` must be an integer")),
        },
    };
    Ok(AlgoParams {
        eps,
        k: k as usize,
        net_delta: net_delta as Weight,
        net_slack,
        landmarks,
        hop_bound,
    })
}

fn sweep_run(globals: &Globals, ri: usize, run: &Table, out: &mut dyn Write) -> Result<(), String> {
    let family = run.str_or("family", "erdos-renyi").to_owned();
    let sizes = run
        .get("sizes")
        .and_then(Value::as_array)
        .unwrap_or_default();
    if sizes.is_empty() {
        return Err(format!("[[run]] #{ri}: `sizes` is required"));
    }
    let sizes = sizes
        .iter()
        .map(|v| match v.as_int() {
            Some(n) if n >= 1 => Ok(n as usize),
            _ => Err(format!(
                "[[run]] #{ri}: every `sizes` entry must be an integer >= 1, got {v:?}"
            )),
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let algorithms = {
        let a = run.strs("algorithms");
        if a.is_empty() {
            vec!["bfs".to_owned()]
        } else {
            a
        }
    };
    let seeds = {
        let s = run.ints("seeds");
        if s.is_empty() {
            vec![globals.base_seed]
        } else {
            s.into_iter().map(|x| x as u64).collect()
        }
    };
    let params = parse_algo_params(ri, run)?;
    let max_w = positive_int(run, "max_w", 100, &format!("[[run]] #{ri}: "))? as u64;

    for &n in &sizes {
        for &seed in &seeds {
            let g = build_graph(&family, n, max_w, seed)?;
            for algorithm in &algorithms {
                let cell = Cell {
                    family: &family,
                    algorithm,
                    params,
                    seed,
                };
                // RunStats, frontier accounting *and* the per-node
                // message summary must match across engines (the
                // active set is contract-determined, clause 8 extends
                // that to the observers).
                let mut seen: Option<Probe> = None;
                let mut seen_report: Option<RunReport> = None;
                for which in &globals.engines {
                    let (row, report) = run_cell(globals, &g, which, &cell)?;
                    let probe = (
                        row.stats,
                        row.active_peak,
                        row.active_mean.to_bits(),
                        row.msg_max_node,
                        row.msg_max,
                        row.msg_p50,
                        row.msg_p99,
                    );
                    let line = match globals.format {
                        OutputFormat::Jsonl => row.to_json(),
                        OutputFormat::Csv => row.to_csv(),
                    };
                    writeln!(out, "{line}").map_err(|e| e.to_string())?;
                    if let Some(prev) = seen {
                        if prev != probe {
                            return Err(format!(
                                "DETERMINISM VIOLATION: {family} n={n} {algorithm} seed={seed}: \
                                 sim {prev:?} != parallel {probe:?}"
                            ));
                        }
                    }
                    // With metrics recorded, the whole per-round series
                    // must agree, not just the totals.
                    if let (Some(prev), Some(cur)) = (seen_report.as_ref(), report.as_ref()) {
                        if prev.messages_per_round != cur.messages_per_round
                            || prev.active_per_round != cur.active_per_round
                            || prev.max_queue_depth_per_round != cur.max_queue_depth_per_round
                            || prev.hot_edges != cur.hot_edges
                        {
                            return Err(format!(
                                "DETERMINISM VIOLATION: {family} n={n} {algorithm} seed={seed}: \
                                 per-round series differ between sim and parallel"
                            ));
                        }
                    }
                    seen = Some(probe);
                    if report.is_some() {
                        seen_report = report;
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
        // In-range values run; `threads` lands in the emitted rows.
        let body = with_threads("2").replace("engine = \"sim\"", "engine = \"parallel\"");
        let doc = config::parse(&body).expect("config parses");
        let mut out = Vec::new();
        run_sweep(&doc, &mut out).expect("sweep runs");
        assert!(String::from_utf8(out).unwrap().contains("\"threads\":2"));
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
