//! The repository benchmark: three pinned constructions on the parallel
//! engine, each measured end to end and layer by layer from outside the
//! program, by timing calls to the layers' public functions.
//!
//! One *pass* ([`run_pass`]) is one construction in one process:
//! generate the input from a seed, build the object on
//! [`engine::Engine`], then check it with the `lightgraph` oracles
//! outside the timed region. [`report`] turns passes into the metrics
//! the benchmark prints; `README.md` next to this crate defines them.

pub mod report;

use congest::obs::{self, SpanTree};
use congest::plan;
use congest::tree::{build_bfs_tree, BfsTree};
use congest::Executor;
use engine::Engine;
use lightgraph::{dijkstra, generators, metrics, EdgeId, Graph, INF};
use lightnet::{light_spanner, shallow_light_tree_with};
use std::collections::BTreeMap;
use std::time::Instant;

/// Approximation parameter of the SLT and the spanner.
pub const EPS: f64 = 0.5;
/// Spanner stretch parameter: stretch `(2k−1)(1+O(ε))`.
pub const K: usize = 2;
/// Worker threads of every timed pass (the reference box has 2 cores).
pub const THREADS: usize = 2;
/// Sources sampled for the spanner's stretch.
pub const STRETCH_SOURCES: usize = 64;
/// Instance seed of the measured instance of every workload — the
/// seed `BENCH_engine.json` pins. Rounds, messages and `msg_max` of
/// these constructions swing by 20–40% from one instance seed to the
/// next, beyond any regression bound, so every run measures the same
/// instance and the `--seed` of a run generates a second, smaller
/// instance that only has to pass the oracles.
pub const PINNED_SEED: u64 = 1;
/// Root of every construction.
const ROOT: usize = 0;

/// Which construction a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `build_bfs_tree` alone.
    Bfs,
    /// The scenario runner's `slt` composite: a `tau` BFS, then
    /// `shallow_light_tree_with`.
    Slt,
    /// A `tau` BFS, then `light_spanner`.
    Spanner,
}

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `BENCHMARK.json` and the command line use.
    pub name: &'static str,
    pub algo: Algo,
    /// Vertices.
    pub n: usize,
}

/// The pinned workloads; `README.md` gives the reason for each.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bfs-geo-1m",
        algo: Algo::Bfs,
        n: 1_000_000,
    },
    Workload {
        name: "slt-geo-64k",
        algo: Algo::Slt,
        n: 64_000,
    },
    Workload {
        name: "spanner-gnp-2k",
        algo: Algo::Spanner,
        n: 2_000,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The input graph: geometric with the scenario runner's radius
    /// `√(8/πn)` (average degree ≈ 8), or dense `G(n, 0.2)` with
    /// weights in `1..=100` for the spanner, which a sparse graph would
    /// leave with nothing to drop.
    pub fn generate(&self, seed: u64) -> Graph {
        match self.algo {
            Algo::Bfs | Algo::Slt => {
                let r = (8.0 / (std::f64::consts::PI * self.n as f64)).sqrt();
                generators::random_geometric(self.n, r, seed)
            }
            Algo::Spanner => generators::gnp_sparse(self.n, 0.2, 100, seed),
        }
    }
}

/// How a pass is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `THREADS` workers, no tracing: the end-to-end measurement.
    Timed,
    /// `THREADS` workers with phase timing and span collection: the
    /// per-layer measurement.
    Traced,
    /// One worker with span collection: the serial baseline and the
    /// determinism reference for the traced pass.
    Serial,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Serial => "serial",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Traced, Mode::Serial]
            .into_iter()
            .find(|m| m.name() == s)
    }

    pub fn threads(self) -> usize {
        match self {
            Mode::Serial => 1,
            Mode::Timed | Mode::Traced => THREADS,
        }
    }
}

/// The object a construction ships.
#[derive(Debug, Clone)]
pub enum Built {
    Tree(BfsTree),
    Edges(Vec<EdgeId>),
}

/// Per-span counters: `[wall_s, delivered, rounds]`.
pub type SpanValues = [f64; 3];

/// Everything one pass measured. `values` holds the metric-named
/// measurements (see [`report`]); `stamp` identifies the input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    pub values: BTreeMap<String, f64>,
    /// Span path (`.`-joined) to its counters.
    pub spans: BTreeMap<String, SpanValues>,
    pub stamp: BTreeMap<String, String>,
    /// Why the construction failed its oracle, or crashed.
    pub error: Option<String>,
}

impl Pass {
    /// A pass that produced nothing but an error.
    pub fn failed(error: String) -> Pass {
        Pass {
            error: Some(error),
            ..Pass::default()
        }
    }

    fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_owned(), value);
    }

    /// The value under `key`, 0 when the pass did not measure it.
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Line format between the pass process and the driver: one
    /// `value <key> <number>`, `span <path> <wall> <delivered> <rounds>`,
    /// `stamp <key> <text>` or `error <text>` per line.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.stamp {
            out.push_str(&format!("stamp {k} {v}\n"));
        }
        for (k, v) in &self.values {
            out.push_str(&format!("value {k} {v:?}\n"));
        }
        for (k, [w, d, r]) in &self.spans {
            out.push_str(&format!("span {k} {w:?} {d:?} {r:?}\n"));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!("error {}\n", e.replace('\n', " ")));
        }
        out
    }

    /// Inverse of [`Pass::to_lines`].
    pub fn parse(text: &str) -> Result<Pass, String> {
        let mut p = Pass::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let bad = || format!("malformed pass line `{line}`");
            let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
            if kind == "error" {
                p.error = Some(rest.to_owned());
                continue;
            }
            let (key, rest) = rest.split_once(' ').ok_or_else(bad)?;
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            match kind {
                "stamp" => {
                    p.stamp.insert(key.to_owned(), rest.to_owned());
                }
                "value" => {
                    p.values.insert(key.to_owned(), num(rest)?);
                }
                "span" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [w, d, r] = f[..] else { return Err(bad()) };
                    p.spans.insert(key.to_owned(), [num(w)?, num(d)?, num(r)?]);
                }
                _ => return Err(bad()),
            }
        }
        Ok(p)
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// One construction of `w` on the instance `seed`, observed as `mode`.
pub fn run_pass(w: &Workload, seed: u64, mode: Mode) -> Pass {
    run_pass_with(w, seed, mode, |_| {})
}

/// [`run_pass`] with `tamper` applied to the built object before the
/// oracles see it — how the tests show a wrong output is caught.
pub fn run_pass_with(w: &Workload, seed: u64, mode: Mode, tamper: impl FnOnce(&mut Built)) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    let g = w.generate(seed);
    p.set("lightgraph.gen_s", secs(start));
    p.set("lightgraph.edges", g.m() as f64);
    let (n, m, fp1, fp2) = plan::topo_key(&g);
    for (k, v) in [
        ("workload", w.name.to_owned()),
        ("mode", mode.name().to_owned()),
        ("threads", mode.threads().to_string()),
        ("seed", seed.to_string()),
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("topo_key", format!("{fp1:016x}{fp2:016x}")),
        ("total_weight", g.total_weight().to_string()),
    ] {
        p.stamp.insert(k.to_owned(), v);
    }

    let setup0 = plan::setup_wall_ns();
    let (d0, c0, b0) = plan::phase_wall_ns();
    let build = Instant::now();
    let mut eng = Engine::with_threads(&g, mode.threads());
    let topo_s = secs(build);
    eng.set_record_node_stats(true);
    eng.set_time_phases(mode == Mode::Traced);
    let (mut built, tree) = if mode == Mode::Timed {
        (
            construct(&mut eng, w.algo, seed, &mut p),
            SpanTree::default(),
        )
    } else {
        obs::collect_spans(|| construct(&mut eng, w.algo, seed, &mut p))
    };
    let build_s = secs(build);
    p.set("wall_s", secs(start));
    p.set("build_s", build_s);
    p.set("peak_rss_mb", peak_rss_mb());

    let plan_setup_s = (plan::setup_wall_ns() - setup0) as f64 / 1e9;
    p.set("setup_s", topo_s + plan_setup_s);
    p.set("engine.topo_s", topo_s);
    p.set("congest.plan.setup_s", plan_setup_s);
    let total = eng.total();
    if mode == Mode::Traced {
        // Only timed phases feed the accumulators.
        let (d1, c1, b1) = plan::phase_wall_ns();
        let (deliver_s, compute_s) = ((d1 - d0) as f64 / 1e9, (c1 - c0) as f64 / 1e9);
        p.set("engine.deliver_s", deliver_s);
        p.set("engine.compute_s", compute_s);
        p.set("engine.barrier_wait_s", (b1 - b0) as f64 / 1e9);
        p.set(
            "algo.serial_s",
            build_s - topo_s - plan_setup_s - deliver_s - compute_s,
        );
        p.set(
            "engine.delivered_per_busy_s",
            total.messages_delivered() as f64 / (deliver_s + compute_s),
        );
    }

    let frontier = Executor::frontier_total(&eng);
    let nodes = Executor::node_stats(&eng)
        .expect("node stats are recorded")
        .summary();
    p.set("rounds", total.rounds as f64);
    p.set("messages", total.messages_delivered() as f64);
    p.set("msg_max", nodes.msg_max as f64);
    p.set("node.msg_p99", nodes.msg_p99 as f64);
    p.set("engine.invocations", frontier.invocations as f64);
    p.set("engine.sched_rounds", frontier.rounds as f64);
    // Free the engine's structures before the oracles allocate theirs.
    drop(eng);
    p.set("engine.active_mean", frontier.mean_active());
    p.set(
        "engine.combined_frac",
        total.messages_combined as f64 / total.messages.max(1) as f64,
    );
    for (path, span) in tree.flatten() {
        let values = [
            span.wall_ns as f64 / 1e9,
            span.delivered() as f64,
            span.stats.rounds as f64,
        ];
        p.spans.insert(path.replace('/', "."), values);
    }

    tamper(&mut built);
    let verify = Instant::now();
    match check(&g, w.algo, &built, seed) {
        Ok((lightness, stretch)) => {
            p.set("lightness", lightness);
            p.set("stretch", stretch);
        }
        Err(e) => p.error = Some(e),
    }
    p.set("lightgraph.verify_s", secs(verify));
    p
}

/// Runs the construction under the same root span names as the
/// scenario runner (`bfs`, `slt/tau`, …), timing each public call.
fn construct(eng: &mut Engine<'_>, algo: Algo, seed: u64, p: &mut Pass) -> Built {
    fn tau(eng: &mut Engine<'_>, p: &mut Pass) -> BfsTree {
        let t = Instant::now();
        let (tree, _) = obs::span(eng, "tau", |e| build_bfs_tree(e, ROOT));
        p.set("congest.tree.bfs_s", secs(t));
        tree
    }
    match algo {
        Algo::Bfs => obs::span(eng, "bfs", |eng| {
            let t = Instant::now();
            let (tree, _) = build_bfs_tree(eng, ROOT);
            p.set("congest.tree.bfs_s", secs(t));
            Built::Tree(tree)
        }),
        Algo::Slt => obs::span(eng, "slt", |eng| {
            let tree = tau(eng, p);
            let t = Instant::now();
            let slt = shallow_light_tree_with(eng, &tree, ROOT, EPS, seed, None, None);
            p.set("core.slt_s", secs(t));
            Built::Edges(slt.edges)
        }),
        Algo::Spanner => obs::span(eng, "spanner", |eng| {
            let tree = tau(eng, p);
            let t = Instant::now();
            let sp = light_spanner(eng, &tree, ROOT, K, EPS, seed);
            p.set("core.light_spanner_s", secs(t));
            Built::Edges(sp.edges)
        }),
    }
}

/// The output oracles: `Ok((lightness, stretch))` when the object meets
/// the guarantees the repository's tests assert, else why not.
///
/// * BFS: a spanning tree whose depths step by one along parent edges
///   and whose height is the root's hop eccentricity; stretch is its
///   weighted root stretch, for comparison with the SLT.
/// * SLT: a spanning tree with root stretch `≤ 1+60ε` and lightness
///   `≤ 1+8/ε+0.1` (`tests/properties.rs`).
/// * Spanner: stretch from [`STRETCH_SOURCES`] seeded sources
///   `≤ (2k−1)(1+5ε)` (`tests/integration.rs`); lightness is reported
///   without a bound, as the repository asserts none.
pub fn check(g: &Graph, algo: Algo, built: &Built, seed: u64) -> Result<(f64, f64), String> {
    match (algo, built) {
        (Algo::Bfs, Built::Tree(tree)) => {
            let t = g.edge_subgraph(bfs_tree_edges(g, tree)?);
            let ecc = g.hop_eccentricity(ROOT) as u64;
            if tree.height() != ecc {
                return Err(format!(
                    "BFS height {} differs from the root's hop eccentricity {ecc}",
                    tree.height()
                ));
            }
            Ok((
                metrics::lightness(g, &t),
                metrics::root_stretch(g, &t, ROOT),
            ))
        }
        (Algo::Slt, Built::Edges(edges)) => {
            let t = g.edge_subgraph_dedup(edges.iter().copied());
            if t.m() + 1 != g.n() {
                return Err(format!("SLT has {} edges on {} nodes", t.m(), g.n()));
            }
            let (light, stretch) = (
                metrics::lightness(g, &t),
                metrics::root_stretch(g, &t, ROOT),
            );
            if stretch > 1.0 + 60.0 * EPS {
                return Err(format!("SLT root stretch {stretch} exceeds 1+60ε"));
            }
            if light > 1.0 + 8.0 / EPS + 0.1 {
                return Err(format!("SLT lightness {light} exceeds 1+8/ε+0.1"));
            }
            Ok((light, stretch))
        }
        (Algo::Spanner, Built::Edges(edges)) => {
            let h = g.edge_subgraph_dedup(edges.iter().copied());
            let stretch = sampled_source_stretch(g, &h, seed);
            let bound = (2 * K - 1) as f64 * (1.0 + 5.0 * EPS);
            if stretch > bound {
                return Err(format!("spanner stretch {stretch} exceeds {bound}"));
            }
            Ok((metrics::lightness(g, &h), stretch))
        }
        (algo, _) => Err(format!("{algo:?} built the wrong kind of object")),
    }
}

/// The graph edges of a BFS tree, after checking that it spans: every
/// non-root node has an adjacent parent one level up (so parent chains
/// strictly descend to the root, the only parentless node).
fn bfs_tree_edges(g: &Graph, tree: &BfsTree) -> Result<Vec<EdgeId>, String> {
    if tree.parent.len() != g.n() || tree.depth.len() != g.n() {
        return Err(format!(
            "BFS tree covers {} of {} nodes",
            tree.parent.len(),
            g.n()
        ));
    }
    if tree.parent[ROOT].is_some() || tree.depth[ROOT] != 0 {
        return Err("BFS root has a parent or a nonzero depth".to_owned());
    }
    let mut ids = Vec::with_capacity(g.n().saturating_sub(1));
    for v in (0..g.n()).filter(|&v| v != ROOT) {
        let p = tree.parent[v].ok_or_else(|| format!("node {v} is not in the BFS tree"))?;
        if tree.depth[v] != tree.depth[p] + 1 {
            return Err(format!("node {v} is not one level below its parent {p}"));
        }
        let &(_, _, e) = g
            .neighbors(v)
            .iter()
            .filter(|&&(u, _, _)| u == p)
            .min_by_key(|&&(_, w, e)| (w, e))
            .ok_or_else(|| format!("node {v}'s parent {p} is not a neighbour"))?;
        ids.push(e);
    }
    Ok(ids)
}

/// `max d_H(u,v)/d_G(u,v)` over every target `v` of [`STRETCH_SOURCES`]
/// seeded sources `u`. It is at least the certified edge stretch
/// `d_H(u,v)/w(u,v)` at those sources (as `d_G(u,v) ≤ w(u,v)`), so the
/// same bound checks it.
fn sampled_source_stretch(g: &Graph, h: &Graph, seed: u64) -> f64 {
    let mut state = seed ^ 0x5EED_0F57_AE7C;
    let mut worst: f64 = 1.0;
    for _ in 0..STRETCH_SOURCES {
        let u = (splitmix(&mut state) % g.n() as u64) as usize;
        let dg = dijkstra::shortest_paths(g, u).dist;
        let dh = dijkstra::shortest_paths(h, u).dist;
        for (&d_g, &d_h) in dg.iter().zip(&dh) {
            if d_g == 0 || d_g >= INF {
                continue;
            }
            if d_h >= INF {
                return f64::INFINITY;
            }
            worst = worst.max(d_h as f64 / d_g as f64);
        }
    }
    worst
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
